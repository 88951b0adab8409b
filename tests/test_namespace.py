"""The package namespace: every public name resolves, on first access, to its defining module's object.

``attnlab/__init__.py`` imports nothing up front; these tests pin that the
names it exports are still all there, and that each one is the very object
its module defines, not a copy.
"""

import importlib

import pytest

import attnlab

# Every name ``attnlab`` exports, by defining module. SUITE_NAMES is defined
# in config and re-exported by verification.
EXPORTS = {
    "analysis": """CurvatureReport EntropyReport GroupMassReport LipschitzReport
        curvature_report curvature_rows entropy entropy_alpha_report flops_overhead
        group_mass_report group_mass_rows lipschitz_report logit_gap""",
    "attention": """AttentionResult KeyPartition ModulationConfig ScalingTargets
        apply_group_scaling attention_forward build_partition energy_gamma key_scale_factors
        resolve_targets scaled_logits""",
    "calibration": """BlockFixture BlockRatioTable RatioReport calibrate_synthetic fixture_names
        foreground_mask foreground_ratio load_block_fixture otsu_threshold pca_pseudo_rgb
        select_blocks token_scores validate_mask""",
    "config": "ConfigError RunConfig SUITE_NAMES",
    "numerics": """eigvalsh_sym pca_top_k row_softmax sample_gaussian softmax_vec spectral_norm
        spectral_norm_sym spectral_norms""",
    "scheduling": """BlockGateTable ScheduleConfig StepWindow WINDOW_PRESETS active_steps
        block_gate scheduled_attention step_fraction step_mask window_preset""",
    "simulate": """ConflictConfig ConflictReport DeviationReport FlopsAudit StepCoefficients
        ToyDenoiser Trajectory conflict_experiment ddim_step deviation_bound_check flops_audit
        make_toy_denoiser run_trajectory sharpening_curve""",
    "tensorio": """BlockReader TensorFormatError decode_tensor encode_tensor read_tensor
        write_tensor""",
    "verification": "SuiteResult run_suite run_sweep",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def test_the_export_table_has_every_name_once():
    assert len(NAMES) == 81
    assert len({name for _, name in NAMES}) == len(NAMES)


@pytest.mark.parametrize("module, name", NAMES)
def test_each_name_is_its_defining_modules_object(module, name):
    owner = importlib.import_module(f"attnlab.{module}")
    scope = {}
    exec(f"from attnlab import {name}", scope)
    assert getattr(attnlab, name) is getattr(owner, name)
    assert scope[name] is getattr(owner, name)


def test_dir_and_all_list_every_name():
    names = {name for _, name in NAMES}
    assert set(attnlab.__all__) == names
    assert len(attnlab.__all__) == len(names)
    assert names | {"__version__"} <= set(dir(attnlab))
    assert dir(attnlab) == sorted(dir(attnlab))
    assert attnlab.__version__ == "0.1.0"


def test_an_unknown_name_raises():
    with pytest.raises(AttributeError, match="module 'attnlab' has no attribute 'no_such_name'"):
        attnlab.no_such_name
    assert not hasattr(attnlab, "_SUITE_FUNCS")
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from attnlab import no_such_name", {})
