"""Classical simulator of block-encoded quantum linear algebra.

Runs a Kalman filter entirely through block-encoding arithmetic
(construction, addition, multiplication, polynomial inversion of the
innovation covariance, measurement sampling) and checks it against the
exact classical filter.
"""

__version__ = "0.1.0"

from .tensor_ops import (  # noqa: F401
    DENSE_THRESHOLD,
    Dense,
    Extend,
    Product,
    ProjectorPhase,
    QOperator,
    Select,
    adjoint,
    ancilla_block,
    apply,
    as_matrix,
    compact_operator,
    identity_op,
    materialize,
    op_stats,
    svd,
    unitarity_residual,
)
from .block_encoding import (  # noqa: F401
    BlockEncoding,
    decode,
    encode_data_structure,
    encode_svd_dilation,
    encode_zero,
    pad_to_square,
)
from .arithmetic import be_add, be_adjoint, be_multiply, be_negate  # noqa: F401
from .inversion import (  # noqa: F401
    ChebPoly,
    PhaseFactors,
    be_invert,
    clear_cache,
    eval_cheb,
    format_angles,
    inverse_poly,
    qsp_response,
    qsvt_apply,
    smoothing_order,
    solve_phase_factors,
)
from .kalman import (  # noqa: F401
    FilterState,
    KalmanModel,
    KappaPolicy,
    LedgerEntry,
    NormLedger,
    classical_intermediates,
    classical_step,
    encode_matrix,
    encode_vector,
    q_filter_run,
    q_gain,
    q_predict_cov,
    q_predict_state,
    q_step,
    q_update_cov,
    q_update_state,
    read_out,
)
from .sampling import (  # noqa: F401
    SampleReport,
    estimate_entries,
    exact_amplitudes,
    pooled_report,
    sample_counts,
    with_rest,
)
