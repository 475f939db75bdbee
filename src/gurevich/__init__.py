"""Free energy of cost-weighted finite automata and regular languages.

The library computes the exponential growth rate (free energy) of cost-
weighted partition sums over the runs of an automaton or the words of a
regular language, plus the quantities built on top of it: nondeterminism
estimates, a free-energy similarity of automata pairs, pair-cost language
compilation, and linear-length-language translation.  Brute-force
partition-sum oracles back every spectral result.
"""

from .automata import (
    EMPTY,
    CostAutomaton,
    SccPartition,
    Transition,
    accepts,
    determinize,
    map_costs,
    product,
    scc,
    trim,
    validate,
)
from .documents import (
    automaton_from_document,
    automaton_to_document,
    dump_json,
    linlen_spec_from_document,
    load_automaton,
    load_linlen_spec,
    load_pair_cost,
    pair_cost_from_document,
    pair_cost_to_document,
    save_document,
)
from .energy import (
    EnergyReport,
    free_energy,
    gurevich_matrix_bipartite,
    gurevich_matrix_compact,
)
from .errors import (
    BlockAlphabetTooLarge,
    DocumentError,
    GurevichError,
    NotConverged,
    NotDeterministic,
    NotStronglyConnected,
    Overflow,
    StateCapExceeded,
    Underflow,
    UnknownSymbol,
)
from .langcost import (
    Counterexample,
    ImplementsReport,
    PairCostFunction,
    implement_construction,
    language_energy,
    verify_implements,
    word_cost,
)
from .linlen import (
    LinearLengthSpec,
    LinearSet,
    block_automaton,
    linear_set_member,
    linlen_energy,
    linlen_union_energy,
    linlen_word_oracle,
    validate_spec,
)
from .nondet import NondetReport, branching_costs, lambda_exact, lambda_plus
from .oracle import (
    PartitionSeries,
    count_series,
    estimate_limit,
    log_int,
    run_partition_series,
    word_partition_series,
)
from .similarity import SimilarityReport, similarity
from .spectral import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    NonnegativeMatrix,
    SpectralResult,
    spectral_radius,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "CostAutomaton",
    "SccPartition",
    "Transition",
    "accepts",
    "determinize",
    "map_costs",
    "product",
    "scc",
    "trim",
    "validate",
    "EnergyReport",
    "free_energy",
    "gurevich_matrix_bipartite",
    "gurevich_matrix_compact",
    "GurevichError",
    "NotConverged",
    "NotDeterministic",
    "NotStronglyConnected",
    "Overflow",
    "Underflow",
    "StateCapExceeded",
    "BlockAlphabetTooLarge",
    "UnknownSymbol",
    "DocumentError",
    "automaton_from_document",
    "automaton_to_document",
    "dump_json",
    "linlen_spec_from_document",
    "load_automaton",
    "load_linlen_spec",
    "load_pair_cost",
    "pair_cost_from_document",
    "pair_cost_to_document",
    "save_document",
    "Counterexample",
    "ImplementsReport",
    "PairCostFunction",
    "implement_construction",
    "language_energy",
    "verify_implements",
    "word_cost",
    "LinearLengthSpec",
    "LinearSet",
    "block_automaton",
    "linear_set_member",
    "linlen_energy",
    "linlen_union_energy",
    "linlen_word_oracle",
    "validate_spec",
    "NondetReport",
    "branching_costs",
    "lambda_exact",
    "lambda_plus",
    "PartitionSeries",
    "count_series",
    "estimate_limit",
    "log_int",
    "run_partition_series",
    "word_partition_series",
    "SimilarityReport",
    "similarity",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_TOLERANCE",
    "NonnegativeMatrix",
    "SpectralResult",
    "spectral_radius",
    "__version__",
]
