"""attnlab: a numerical laboratory for temperature-scaled multi-modal attention.

Group-targeted key scaling, block/step guidance scheduling, entropy and
curvature diagnostics, a toy scheduled-denoising simulator, and seeded
verification suites that certify every bound the machinery relies on.
"""

from .analysis import (
    CurvatureReport,
    CurvatureRows,
    EntropyReport,
    GroupMassReport,
    GroupMassRows,
    LipschitzReport,
    curvature_report,
    curvature_rows,
    entropy,
    entropy_alpha_report,
    flops_overhead,
    group_mass_report,
    group_mass_rows,
    lipschitz_report,
    logit_gap,
)
from .attention import (
    AttentionResult,
    KeyPartition,
    ModulationConfig,
    ScalingTargets,
    apply_group_scaling,
    attention_forward,
    build_partition,
    energy_gamma,
    key_scale_factors,
    resolve_targets,
    scaled_logits,
)
from .calibration import (
    BlockFixture,
    BlockRatioTable,
    RatioReport,
    calibrate_synthetic,
    fixture_names,
    foreground_mask,
    foreground_ratio,
    load_block_fixture,
    otsu_threshold,
    pca_pseudo_rgb,
    select_blocks,
    token_scores,
    validate_mask,
)
from .config import ConfigError, RunConfig
from .numerics import (
    eigvalsh_sym,
    pca_top_k,
    row_softmax,
    sample_gaussian,
    softmax_vec,
    spectral_norm,
    spectral_norm_sym,
    spectral_norms,
)
from .scheduling import (
    BlockGateTable,
    ScheduleConfig,
    StepWindow,
    WINDOW_PRESETS,
    active_steps,
    block_gate,
    scheduled_attention,
    step_fraction,
    step_mask,
    window_preset,
)
from .simulate import (
    ConflictConfig,
    ConflictReport,
    DeviationReport,
    FlopsAudit,
    StepCoefficients,
    ToyDenoiser,
    Trajectory,
    conflict_experiment,
    ddim_step,
    deviation_bound_check,
    flops_audit,
    make_toy_denoiser,
    run_trajectory,
    sharpening_curve,
)
from .tensorio import (
    BlockReader,
    TensorFormatError,
    decode_tensor,
    encode_tensor,
    read_tensor,
    write_tensor,
)
from .verification import SUITE_NAMES, SuiteResult, run_suite, run_sweep

__version__ = "0.1.0"
