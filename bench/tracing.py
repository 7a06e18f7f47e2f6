"""Per-layer timing for the benchmark's traced runs.

`Tracer.install()` replaces the public functions of ramseykit's modules
with timing wrappers, in every module namespace that imported them, and
`uninstall()` puts the originals back.  Nothing in the program changes on
disk.  Spans nest on one stack, so each layer is charged its self time:
the span's duration minus the traced spans inside it.  Counts are read
off the returned results at the same boundaries.

Generator functions are not wrapped (their work happens after they
return); `run_trials` is therefore charged to the layers it calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, layer); the layer's metric is `<layer>_s`.
SELF_TIMED = [
    ("sampling", "sample_gnp", "sampling.sample"),
    ("sampling", "sample_subset", "sampling.sample"),
    ("sampling", "rejection_sample_girth", "sampling.sample"),
    ("sampling", "delete_short_cycles", "sampling.delete"),
    ("hypergraphs", "system_of_copies", "hypergraphs.system"),
    ("trials", "_ap_system_of_subset", "hypergraphs.system"),
    ("hypergraphs", "enumerate_short_cycles", "hypergraphs.census"),
    ("hypergraphs", "sparsity_girth", "hypergraphs.girth"),
    ("graphs", "count_graph_cycles", "graphs.cycles"),
    ("graphs", "graph_girth", "graphs.cycles"),
    ("graphs", "girth_at_least", "graphs.cycles"),
    ("colouring", "colouring_search", "colouring.search"),
    ("colouring", "arrows", "colouring.search"),
    ("colouring", "verify_colouring", "colouring.search"),
    ("extremal", "extremal_ex", "extremal.search"),
    ("search", "fact_vdw_check", "search.fact_vdw"),
    ("params", "derive_params", "params.derive"),
    ("bounds", "container_condition", "bounds.container"),
    ("bounds", "cycle_system_analytic_degrees", "bounds.container"),
    ("fbounds", "f_bound_report", "fbounds.report"),
    ("io", "read_graph", "io.read"),
    ("io", "read_hypergraph", "io.read"),
    ("io", "read_colours", "io.read"),
    ("io", "read_config_file", "io.read"),
    ("io", "write_graph", "io.write"),
    ("io", "write_hypergraph", "io.write"),
    ("cli", "dispatch", "cli.self"),
]
LAYERS = sorted({layer for _, _, layer in SELF_TIMED} | {"trials.record"})

# counts read off the results of these functions: attribute -> [(name, read)]
COUNTERS = {
    "delete_short_cycles": [("sampling.deletions", lambda r: len(r.removed))],
    "enumerate_short_cycles": [("hypergraphs.census_cycles",
                                lambda r: r.total)],
    "colouring_search": [
        ("colouring.nodes", lambda r: r.nodes),
        ("colouring.budget_exceeded",
         lambda r: r.status == "budget-exceeded"),
    ],
    "extremal_ex": [("extremal.nodes", lambda r: r.nodes)],
}
COUNT_NAMES = [name for reads in COUNTERS.values() for name, _ in reads]


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.verify_s = 0.0
        self._children: list[float] = []  # traced time inside each open span
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # functions the program lacks
        self._lost: set[str] = set()  # the metrics of their layers

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()
        self.verify_s = 0.0

    def _span(self, layer: str, fn, counters=()):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._children.pop()
                self.self_s[layer] += elapsed - inner
                if self._children:
                    self._children[-1] += elapsed
            for name, read in counters:
                self.counts[name] += read(result)
            return result
        return wrapper

    def _inclusive(self, fn):
        """Whole-call time of `verify --records`; stays out of the stack, so
        the layers it calls keep their own self time."""
        @functools.wraps(fn)
        def wrapper(ns):
            start = time.perf_counter()
            try:
                return fn(ns)
            finally:
                if ns.records is not None:
                    self.verify_s += time.perf_counter() - start
        return wrapper

    def _patch(self, owner, name: str, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = new
        else:
            self._patches.append((owner, name, getattr(owner, name)))
            setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every listed function.  One the program no longer has is
        named in `missing`, and its layer's metrics are left out of the
        snapshot, so that a renamed layer cannot pass for a faster one."""

        def lose(function: str, layer: str, attr: str = "") -> None:
            self.missing.add(function)
            self._lost.add(f"{layer}_s")
            self._lost.update(name for name, _ in COUNTERS.get(attr, ()))

        modules = {name: mod for name, mod in sys.modules.items()
                   if name.split(".")[0] == "ramseykit" and mod is not None}
        for mod_name, attr, layer in SELF_TIMED:
            original = getattr(modules.get("ramseykit." + mod_name), attr,
                               None)
            if original is None:
                lose(f"{mod_name}.{attr}", layer, attr)
                continue
            wrapped = self._span(layer, original, COUNTERS.get(attr, ()))
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)
        record = getattr(modules["ramseykit.trials"], "ExperimentRecord", None)
        if record is not None and hasattr(record, "to_line"):
            self._patch(record, "to_line",
                        self._span("trials.record", record.to_line))
        else:
            lose("trials.ExperimentRecord.to_line", "trials.record")
        handlers = getattr(modules["ramseykit.cli"], "HANDLERS", {})
        if "verify" in handlers:
            self._patch(handlers, "verify",
                        self._inclusive(handlers["verify"]))
        else:
            lose("cli.HANDLERS['verify']", "trials.verify")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def snapshot(self) -> dict:
        """This round's per-layer seconds and counts, without the metrics of
        a layer that lost one of its functions."""
        out = {f"{layer}_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out["trials.verify_s"] = self.verify_s
        for name in COUNT_NAMES:
            out[name] = int(self.counts.get(name, 0))
        return {name: value for name, value in out.items()
                if name not in self._lost}
