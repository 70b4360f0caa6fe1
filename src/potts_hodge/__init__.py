"""Exact spectral verification for matroid rank-generating polynomials.

The package evaluates the stratified partition function of a matroid and
its weighted homogenization, takes exact derivatives and Hessians, computes
eigenvalue signatures by fraction-free integer elimination, and runs seeded
verification campaigns for spectral and log-concavity properties over
corpora of small matroids.
"""
from .errors import (
    ImpossibleStateError,
    InvalidParametersError,
    NotAMatroidError,
    NotApplicableError,
    ParseError,
    PottsHodgeError,
    ResourceLimitError,
    SamplingFailureError,
)
from .matrices import SymMatrix, bilinear, congruence_diagonalize, exact_nullspace, exact_rank
from .matroids import (
    Matroid,
    StructureReport,
    contract,
    enumeration_cap,
    from_json,
    independent_set_counts,
    labels_from_mask,
    make_graphic,
    make_linear,
    make_rank_table,
    make_uniform,
    mask_from_labels,
    simplify,
    structure,
    validate_rank_axioms,
)
from .potts import (
    dependent_mass,
    derivative_degree,
    elementary_symmetric,
    euler_hessian_residual,
    f_all,
    f_limit_residual,
    f_m_eval,
    gradient,
    hessian,
    is_identically_zero,
    is_log_concave,
    is_strictly_log_concave,
    kernel_identity_check,
    partial_eval,
    z_weighted_eval,
    zk_all,
    zk_eval,
)
from .scalars import EXACT, FLOAT, parse_rational, rat, scalar_from_json, scalar_to_json
from .spectral import (
    EigenSignature,
    float_eigenvalues,
    kernel_contains,
    one_positive_equivalence_check,
    signature,
)
from .verify import (
    ALL_THEOREMS,
    CampaignConfig,
    CheckResult,
    VerificationReport,
    check_count_log_concavity,
    check_degree_two,
    check_degree_two_zero_line,
    check_derivative_one_positive,
    check_log_concavity_at,
    check_one_positive,
    check_simplification_bound,
    check_strata_ultra_log_concave,
    log_slice_second_difference,
    replay_check,
    replay_report,
    run_campaign,
)
from .corpus import CorpusSpec, connected_graphs, generate_corpus, parse_corpus_spec

__version__ = "0.1.0"
