"""Lattice-reduction-aided MIMO detection toolkit.

Modules: matcore (matrix kernels), reduction (LLL variants), mimo
(constellation/channel/noise), detect (ZF, LR-aided ZF, sphere-decoding
ML), flops (cost model), simharness (Monte Carlo driver), cli (command
line).
"""

from .detect import (
    SearchSpaceTooLarge,
    ml_detector,
    quantize_z_domain,
    zf_detector,
    zf_lr_detector,
)
from .flops import (
    ChargeSchedule,
    ComplexityRow,
    CostModel,
    FlopCounter,
    complex_op_cost,
    complexity_report,
    count_flops,
    instrument_caps,
    schedule_for,
)
from .matcore import (
    GaussIntMatrix,
    GivensTheta,
    QRFactorization,
    RankDeficient,
    ZeroPivot,
    apply_givens_left,
    apply_givens_right,
    back_substitute,
    givens_theta,
    integer_determinant,
    is_unimodular,
    qr_decompose,
    real_embedding,
    real_embedding_vector,
    round_gaussian,
    round_half_away,
)
from .mimo import (
    Constellation,
    InvalidSize,
    LengthMismatch,
    NoiseSpec,
    add_noise,
    base_noise,
    build_constellation,
    demodulate,
    generate_channel,
    modulate,
    snr_to_noise_variance,
)
from .reduction import (
    REDUCTIONS,
    Reduction,
    ReductionParams,
    ReductionResult,
    ZeroDiagonal,
    factorization_error,
    fclll_wen,
    is_lll_reduced,
    is_siegel_reduced,
    is_size_reduced,
    lll_reduce_real,
    lovasz_check,
    mclll,
    reduce_at_caps,
    siegel_check,
    size_reduce_column,
)
from .simharness import (
    BerRecord,
    SimConfig,
    emit_csv,
    load_matrix,
    run_frame,
    run_sweep,
    save_matrix,
)

__version__ = "0.1.0"
