"""Toolkit for Ramsey-type objects with girth constraints.

Exact graph/hypergraph combinatorics, seeded random constructions with a
short-cycle deletion pipeline, certified interval evaluation of the
constant chains behind the probabilistic bounds, and exhaustive searches
for small Ramsey, van der Waerden, and extremal numbers.
"""

__version__ = "0.1.0"

from .colouring import (
    ARROWS,
    BUDGET_EXCEEDED,
    NOT_ARROWS,
    PROPER,
    UNCOLOURABLE,
    ArrowsResult,
    Colouring,
    SearchResult,
    arrows,
    colouring_search,
    verify_colouring,
)
from .graphs import (
    Graph,
    InputError,
    complete_graph,
    count_graph_cycles,
    enumerate_cliques,
    enumerate_graph_cycles,
    girth_at_least,
    graph_from_edges,
    graph_girth,
)
from .hypergraphs import (
    CycleReport,
    DegreeStats,
    GirthVerdict,
    UniformHypergraph,
    ap_count_formula,
    arithmetic_progressions,
    degree_stats,
    enumerate_short_cycles,
    hypergraph_from_edges,
    sparsity_girth,
    system_of_copies,
)
from .intervals import floor_int_mul_log2
from .params import ParamSet, derive_params
from .bounds import (
    ContainerVerdict,
    CycleExpectation,
    GirthProbabilityBound,
    chernoff_tail,
    container_condition,
    cycle_system_analytic_degrees,
    expected_short_cycle_counts,
    fkg_girth_bound,
    union_bound_sum,
)
from .sampling import (
    DELETION_CAP_EXCEEDED,
    DELETION_OK,
    PRNG_NAME,
    PRNG_VERSION,
    DeletionResult,
    RejectionResult,
    delete_short_cycles,
    rejection_sample_girth,
    sample_gnp,
    sample_subset,
)
from .trials import ExperimentRecord, TrialConfig, run_trials, write_records
from .search import (
    EXACT,
    LOWER_BOUND_ONLY,
    FactCheckResult,
    FactViolationError,
    NumberResult,
    SearchBudget,
    fact_vdw_branch,
    fact_vdw_check,
    ramsey_decide,
    ramsey_number,
    vdw_decide,
    vdw_number,
)
from .extremal import ExtremalResult, extremal_ex, fact7_premise
from .fbounds import FBoundsReport, f_bound_report, moore_lower_bound
from .io import (
    read_colours,
    read_config_file,
    read_graph,
    read_hypergraph,
    write_graph,
    write_hypergraph,
)
