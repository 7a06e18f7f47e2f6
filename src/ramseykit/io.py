"""Text formats for graphs, hypergraphs, and colourings.

Graph files: first line "n m", then m lines "u v" with 0-indexed ascending
pairs in lexicographic order.  Hypergraph files: first line "h N m", then
m distinct lines of h ascending vertex indices; the universe is 0..N-1, so
hypergraphs over other universes are written through their sorted-position
relabelling.  Colouring files: one line of whitespace-separated colour
indices, position i holding the colour of universe element i (in sorted
universe order).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .graphs import Graph, InputError, graph_from_edges
from .hypergraphs import UniformHypergraph, hypergraph_from_edges


class FormatError(InputError):
    """Malformed file content; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def read_lines(path) -> list[str]:
    """The lines of an ASCII text file; the first byte outside ASCII is a
    FormatError located on its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # a character after the prefix joins its line or starts the next
        line_no = len((data[:exc.start].decode("ascii") + ".").splitlines())
        raise FormatError(path, line_no, f"non-ASCII byte "
                                         f"0x{data[exc.start]:02x}") from None


def _ints(path, line_no: int, line: str, expected: int) -> list[int]:
    parts = line.split()
    if len(parts) != expected:
        raise FormatError(path, line_no,
                          f"expected {expected} fields, got {len(parts)}")
    try:
        return [int(x) for x in parts]
    except ValueError as exc:
        raise FormatError(path, line_no, f"non-integer field: {exc}") from exc


def _read_rows(path, header_fields: int, what: str):
    """Header integers, then the non-blank rows with their line numbers."""
    lines = read_lines(path)
    if not lines:
        raise FormatError(path, 1, "empty file")
    header = _ints(path, 1, lines[0], header_fields)
    rows = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(rows) != header[-1]:
        raise FormatError(path, len(lines), f"header promises {header[-1]} "
                                            f"{what}, found {len(rows)}")
    return header, rows


def read_graph(path) -> Graph:
    (n, m), rows = _read_rows(path, 2, "edges")
    pairs = []
    for i, line in rows:
        u, v = _ints(path, i, line, 2)
        if u >= v:
            raise FormatError(path, i, f"pair must ascend, got {u} {v}")
        pairs.append((u, v))
    try:
        g = graph_from_edges(n, pairs)
    except InputError as exc:
        raise FormatError(path, 1, str(exc)) from exc
    if g.num_edges != m:
        raise FormatError(path, 1, "duplicate edges in file")
    return g


def format_graph(g: Graph) -> str:
    """The canonical text of a graph file."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def write_graph(g: Graph, path) -> None:
    Path(path).write_text(format_graph(g), encoding="ascii")


def read_hypergraph(path) -> UniformHypergraph:
    (h, n, _), rows = _read_rows(path, 3, "hyperedges")
    edges: dict[tuple[int, ...], int] = {}  # edge -> its line number
    for i, line in rows:
        edge = tuple(_ints(path, i, line, h))
        if any(not 0 <= v < n for v in edge):
            raise FormatError(path, i, f"vertex outside 0..{n - 1}")
        if edge != tuple(sorted(set(edge))):
            raise FormatError(path, i, "vertices must be distinct ascending")
        if edge in edges:
            raise FormatError(path, i, f"duplicate hyperedge, first on line "
                                       f"{edges[edge]}")
        edges[edge] = i
    try:
        return hypergraph_from_edges(h, range(n), edges)
    except InputError as exc:
        raise FormatError(path, 1, str(exc)) from exc


def write_hypergraph(hg: UniformHypergraph, path) -> None:
    """Write in the canonical 0-based format, relabelling the universe to
    sorted positions when it is not already 0..N-1."""
    position = {v: i for i, v in enumerate(hg.universe)}
    lines = [f"{hg.h} {hg.num_vertices} {hg.num_edges}"]
    for e in hg.edges:
        lines.append(" ".join(str(position[v]) for v in e))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_colours(path, universe: Iterable[int]) -> dict[int, int]:
    """Colour file: one whitespace-separated colour per universe element,
    in sorted universe order."""
    text = " ".join(read_lines(path)).split()
    members = sorted(universe)
    if len(text) != len(members):
        raise FormatError(path, 1, f"expected {len(members)} colours, "
                                   f"got {len(text)}")
    try:
        values = [int(x) for x in text]
    except ValueError as exc:
        raise FormatError(path, 1, f"non-integer colour: {exc}") from exc
    return dict(zip(members, values))


def read_config_file(path) -> dict[str, str]:
    """key=value lines; blank lines and '#' comments ignored."""
    out: dict[str, str] = {}
    for i, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(path, i, "expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out
