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
    QRFactorization,
    RankDeficient,
    back_substitute,
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
    base_noise,
    build_constellation,
    generate_channel,
    modulate,
    snr_to_noise_variance,
)
from .reduction import (
    REDUCTIONS,
    Reduction,
    ReductionResult,
    ZeroDiagonal,
    ZeroPivot,
    factorization_error,
    is_lll_reduced,
    is_siegel_reduced,
    is_size_reduced,
    reduce_at_caps,
)
from .simharness import (
    BerRecord,
    SimConfig,
    emit_csv,
    load_matrix,
    run_sweep,
    save_matrix,
)

__version__ = "0.1.0"
