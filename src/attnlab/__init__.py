"""attnlab: a numerical laboratory for temperature-scaled multi-modal attention.

Group-targeted key scaling, block/step guidance scheduling, entropy and
curvature diagnostics, a toy scheduled-denoising simulator, and seeded
verification suites that certify every bound the machinery relies on.

``import attnlab`` loads no submodule. Each public name below resolves on
first access (PEP 562): ``attnlab.X`` and ``from attnlab import X`` import
X's defining module then and return that module's own object, so a CLI
command imports only the modules it runs. A submodule is bound here once it
is imported, as in any package (``import attnlab.simulate``).
"""

import importlib

# Public names by defining module.
_EXPORTS = {
    "analysis": (
        "CurvatureReport",
        "EntropyReport",
        "GroupMassReport",
        "LipschitzReport",
        "curvature_report",
        "curvature_rows",
        "entropy",
        "entropy_alpha_report",
        "flops_overhead",
        "group_mass_report",
        "group_mass_rows",
        "lipschitz_report",
        "logit_gap",
    ),
    "attention": (
        "AttentionResult",
        "KeyPartition",
        "ModulationConfig",
        "ScalingTargets",
        "apply_group_scaling",
        "attention_forward",
        "build_partition",
        "energy_gamma",
        "key_scale_factors",
        "resolve_targets",
        "scaled_logits",
    ),
    "calibration": (
        "BlockFixture",
        "BlockRatioTable",
        "RatioReport",
        "calibrate_synthetic",
        "fixture_names",
        "foreground_mask",
        "foreground_ratio",
        "load_block_fixture",
        "otsu_threshold",
        "pca_pseudo_rgb",
        "select_blocks",
        "token_scores",
        "validate_mask",
    ),
    "config": ("ConfigError", "RunConfig", "SUITE_NAMES"),
    "numerics": (
        "eigvalsh_sym",
        "pca_top_k",
        "row_softmax",
        "sample_gaussian",
        "softmax_vec",
        "spectral_norm",
        "spectral_norm_sym",
        "spectral_norms",
    ),
    "scheduling": (
        "BlockGateTable",
        "ScheduleConfig",
        "StepWindow",
        "WINDOW_PRESETS",
        "active_steps",
        "block_gate",
        "scheduled_attention",
        "step_fraction",
        "step_mask",
        "window_preset",
    ),
    "simulate": (
        "ConflictConfig",
        "ConflictReport",
        "DeviationReport",
        "FlopsAudit",
        "StepCoefficients",
        "ToyDenoiser",
        "Trajectory",
        "conflict_experiment",
        "ddim_step",
        "deviation_bound_check",
        "flops_audit",
        "make_toy_denoiser",
        "run_trajectory",
        "sharpening_curve",
    ),
    "tensorio": (
        "BlockReader",
        "TensorFormatError",
        "decode_tensor",
        "encode_tensor",
        "read_tensor",
        "write_tensor",
    ),
    "verification": ("SuiteResult", "run_suite", "run_sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*globals(), *__all__]
