"""Classical counterparts of quantum oracles: basis-dependent correspondence
extraction, two-qubit counterpart classification, and exact query-complexity
audits for the parity and hidden-string identification problems.

The names imported below are the public API."""

from .matrixcore import (
    DEFAULT_TOL,
    GeneralizedPermutation,
    NonUnitaryError,
    SizeLimitError,
    cycle_notation,
    detect_generalized_permutation,
    gate,
    is_unitary,
    sigma_x_phased,
)
from .oracleforge import (
    BooleanFunction,
    BVInstance,
    OracleAction,
    bv_function,
    phase_oracle,
    standard_oracle,
)
from .correspondence import (
    CC_CNOT_FAMILY,
    CC_EMPTY,
    CC_IDENTITY_ONLY,
    CC_SWAP_FAMILY,
    CC_SWAP_ONLY,
    CHI,
    ETA,
    CosetId,
    MakhlinTriple,
    PauliGrid,
    QubitBasis,
    RandomSample,
    basis_word,
    classify_cc,
    classify_triple,
    coset_of,
    extract_counterpart,
    general_basis,
    makhlin_invariants,
    parse_basis_word,
    search_counterparts,
)
from .querylab import (
    ClassicalOracleFamily,
    Hypothesis,
    ProblemSpec,
    QueryReport,
    bv_problem,
    decision_tree,
    deterministic_query_complexity,
    family_extracted,
    iter_boolean_functions,
    iter_bv_instances,
    named_family,
    parity_problem,
    run_bv_quantum,
    run_parity_quantum,
    speedup_report,
)

__version__ = "0.1.0"
