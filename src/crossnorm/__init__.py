"""crossnorm: certified bounds on cross norms of bipartite operators.

Lower and upper bounds, with re-checkable certificates, on the projective
(greatest cross) norm, the Hermitian projective norm and the injective norm
of finite-dimensional bipartite operators; an Extended Cross Norm Criterion
separability classifier; and finite truncations reproducing the divergence
of the projective norm along block families and non-summable pure states.
"""

from .bounds import (
    PINCH_TOL,
    VALIDATE_TOL,
    NormBounds,
    RobustnessResult,
    SignedDecomposition,
    StandardDecomposition,
    ValidationReport,
    ent,
    hermitian_upper,
    lower_bound_realignment,
    lower_bound_witness,
    pi_bounds,
    pure_pi_norm,
    robustness_upper,
    separable_fit,
    upper_bound_realignment,
    upper_bound_spectral,
    validate_decomposition,
    witness_value,
)
from .core import (
    EPS_HERM,
    EPS_PSD,
    EPS_TRACE,
    SCHMIDT_CUTOFF,
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    OperatorSchmidtForm,
    SchmidtForm,
    ShapeError,
    from_state_dict,
    kron,
    nuclear_norm,
    operator_norm,
    operator_schmidt,
    partial_trace,
    partial_transpose,
    random_density,
    random_pure,
    realign,
    schmidt_decompose,
    to_state_dict,
    trace_norm,
)
from .gnorm import (
    GNormEstimate,
    SeeSawConfig,
    g_norm_product,
    g_norm_rank_one,
    g_norm_seesaw,
)
from .separability import (
    Classification,
    PPTResult,
    Witness,
    WitnessReport,
    build_witness_EN,
    classify,
    isotropic,
    max_entangled,
    max_entangled_vector,
    ppt_oracle,
    product_state,
    pure_with_schmidt,
    random_separable,
    witness_check,
    witness_from_vector,
)
from .truncation import (
    DENSE_CUTOFF,
    PAPER_PRESET,
    BlockFamily,
    DivergenceBound,
    blockwise_witness_value,
    divergence_sweep,
    divergent_lower_bound,
    mixing_lower_bound,
    paper_preset,
    truncated_l2_not_l1,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
