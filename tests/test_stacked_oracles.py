"""Loop forms of the stacked kernels, kept as bit-for-bit references.

``softmax_vec`` and ``entropy`` are the one-row cases of ``row_softmax`` and
``_row_entropies``, and ``entropy_alpha_report``, ``lipschitz_report``,
``conflict_experiment`` and ``sharpening_curve`` each make one stacked pass.
The references below are the one-vector arithmetic and the per-row loops
those functions used before, written out here so that every stacked result is
compared with them bit for bit. The draws cover up to 64 keys, rows whose
softmax underflows to exact zeros, non-contiguous inputs and every key
position of the conflict experiment.
"""

from dataclasses import astuple

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attnlab.analysis import (
    DEFAULT_FD_STEP,
    EntropyReport,
    LipschitzReport,
    _variance_rows,
    entropy,
    entropy_alpha_report,
    group_mass_rows,
    lipschitz_report,
)
from attnlab.attention import ScalingTargets, key_scale_factors, resolve_targets
from attnlab.numerics import row_softmax, softmax_vec, spectral_norm
from attnlab.simulate import (
    ConflictConfig,
    ConflictReport,
    conflict_experiment,
    conflict_logits,
    sharpening_curve,
)

# Wide enough that alpha * (z_j - z_max) falls below -745 and exp gives 0.
logits = st.floats(-1e3, 1e3, allow_nan=False)


def _softmax_1d(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def _entropy_1d(p):
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _bits(value):
    """Every float of a (nested) report as its hex form, so equality is bitwise."""
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


def _layout(z, strided):
    """``z`` itself, or an equal view whose last axis is not contiguous."""
    if not strided:
        return z
    wide = np.repeat(z, 2, axis=-1)
    return wide[..., ::2]


# -- one-row kernels -----------------------------------------------------------


@seed(21)
@settings(max_examples=300, deadline=None)
@given(
    z=arrays(np.float64, st.integers(1, 64), elements=logits),
    alpha=st.floats(1e-3, 10.0),
    strided=st.booleans(),
)
def test_one_row_kernels_match_the_vector_arithmetic(z, alpha, strided):
    zv = _layout(alpha * z, strided)
    p = softmax_vec(zv)
    assert _bits(p.tolist()) == _bits(_softmax_1d(zv).tolist())
    assert _bits(entropy(_layout(p, strided))) == _bits(_entropy_1d(p))


# -- entropy_alpha_report ------------------------------------------------------


def _entropy_alpha_loop(z, s, alpha):
    """Three softmax + entropy pairs: at alpha and at alpha -/+ the fd step."""
    h = DEFAULT_FD_STEP
    zs = z[sorted(s)]
    p = _softmax_1d(alpha * zs)
    variance = float(_variance_rows(p[None, :], zs)[0])
    analytic = -alpha * variance

    def h_at(a):
        return _entropy_1d(_softmax_1d(a * zs))

    numeric = (h_at(alpha + h) - h_at(alpha - h)) / (2.0 * h)
    return EntropyReport(
        alpha=alpha,
        entropy=_entropy_1d(p),
        variance=variance,
        analytic_derivative=analytic,
        numeric_derivative=numeric,
        abs_gap=abs(analytic - numeric),
    )


@st.composite
def _subset_cases(draw):
    m = draw(st.integers(1, 64))
    z = draw(arrays(np.float64, (m,), elements=logits))
    s = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    return z, s


@seed(22)
@settings(max_examples=300, deadline=None)
@given(case=_subset_cases(), alpha=st.floats(2e-5, 50.0), strided=st.booleans())
def test_entropy_alpha_report_matches_the_three_call_form(case, alpha, strided):
    z, s = case
    got = entropy_alpha_report(_layout(z, strided), s, alpha)
    assert _bits(astuple(got)) == _bits(astuple(_entropy_alpha_loop(z, s, alpha)))


# -- lipschitz_report ----------------------------------------------------------


@seed(23)
@settings(max_examples=150, deadline=None)
@given(
    z=arrays(np.float64, st.integers(1, 64), elements=logits),
    d_v=st.integers(1, 6),
    alphas=st.tuples(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0)),
    strided=st.booleans(),
)
def test_lipschitz_report_matches_the_two_call_form(z, d_v, alphas, strided):
    v = np.random.default_rng(z.size).normal(size=(z.size, d_v))
    a1, a2 = alphas
    y1 = v.T @ _softmax_1d(a1 * z)
    y2 = v.T @ _softmax_1d(a2 * z)
    deviation = float(np.linalg.norm(y1 - y2))
    bound = 0.5 * spectral_norm(v) * float(np.linalg.norm(z)) * abs(a1 - a2)
    want = LipschitzReport(a1, a2, deviation, bound, bound - deviation)
    got = lipschitz_report(_layout(z, strided), v, a1, a2)
    assert _bits(astuple(got)) == _bits(astuple(want))


# -- conflict_experiment -------------------------------------------------------


def _conflict_loop(seed_, config):
    """The per-query loop: variances, scaled-union entropies and argmax flips."""
    z, part = conflict_logits(seed_, config)
    z_mod = z * key_scale_factors(part, config.targets.key_groups, config.gamma)
    p_base = row_softmax(z)
    p_mod = row_softmax(z_mod)
    cond = list(part.conditioning)
    scaled_union = sorted(i for name in config.targets.key_groups for i in part.group(name))
    text_set = set(part.text)
    stats_b = group_mass_rows(p_base, part)
    stats_m = group_mass_rows(p_mod, part)
    ratios = stats_m.entropy_cond / stats_b.entropy_cond
    nondeg, scaled_ratios, scaled_nondeg = [], [], []
    flips = 0
    for i in range(z.shape[0]):
        nondeg.append(bool(np.var(z[i, cond]) > 1e-12))
        if scaled_union:
            zs = z[i, scaled_union]
            scaled_nondeg.append(bool(np.var(zs) > 1e-12))
            h_b = _entropy_1d(_softmax_1d(zs)) if len(zs) > 1 else 0.0
            h_m = _entropy_1d(_softmax_1d(config.gamma * zs)) if len(zs) > 1 else 0.0
            scaled_ratios.append(h_m / h_b if h_b > 0 else 1.0)
        argmax_b = cond[int(np.argmax(p_base[i, cond]))]
        argmax_m = cond[int(np.argmax(p_mod[i, cond]))]
        if argmax_b not in text_set and argmax_m in text_set:
            flips += 1

    def means(stats):
        return [float(np.mean(c)) for c in (stats.mass_text, stats.mass_image, stats.mass_video)]

    (bt, bi, bv), (mt, mi, mv) = means(stats_b), means(stats_m)
    return ConflictReport(
        gamma=config.gamma,
        boost=config.boost,
        base_mass_text=bt,
        base_mass_image=bi,
        base_mass_video=bv,
        delta_mass_text=mt - bt,
        delta_mass_image=mi - bi,
        delta_mass_video=mv - bv,
        entropy_ratios=tuple(ratios.tolist()),
        nondegenerate=tuple(nondeg),
        scaled_entropy_ratios=tuple(scaled_ratios),
        scaled_nondegenerate=tuple(scaled_nondeg),
        argmax_flips_to_text=flips,
    )


TARGETS = [
    resolve_targets(name) for name in ("key-image", "key-text", "key-image and key-text")
] + [ScalingTargets()]


@st.composite
def _conflict_configs(draw):
    # Two or more image keys keep the conditioning entropy positive when a
    # boost of 800 underflows every text and video probability to 0.
    n_text = draw(st.integers(1, 32))
    return ConflictConfig(
        n_text=n_text,
        n_image=draw(st.integers(2, 64 - n_text)),
        n_video=draw(st.integers(0, 8)),
        n_queries=draw(st.integers(1, 40)),
        boost=draw(st.sampled_from([0.0, 2.0, 40.0, 800.0])),
        gamma=draw(st.floats(0.05, 8.0)),
        targets=draw(st.sampled_from(TARGETS)),
    )


@seed(24)
@settings(max_examples=200, deadline=None)
@given(seed_=st.integers(0, 2**16), config=_conflict_configs())
def test_conflict_experiment_matches_the_per_query_loop(seed_, config):
    got = conflict_experiment(seed_, config)
    assert _bits(astuple(got)) == _bits(astuple(_conflict_loop(seed_, config)))


def test_conflict_experiment_oracle_covers_flips_and_underflow():
    # The default config under key-text flips some argmaxes to text, and the
    # boost of 800 leaves exact zeros in the scaled-union softmax rows.
    config = ConflictConfig(targets=resolve_targets("key-text"))
    assert _conflict_loop(1, config).argmax_flips_to_text > 0
    assert _bits(astuple(conflict_experiment(1, config))) == _bits(
        astuple(_conflict_loop(1, config))
    )
    config = ConflictConfig(boost=800.0, targets=resolve_targets("key-image and key-text"))
    z, part = conflict_logits(1, config)
    assert (row_softmax(z[:, list(part.conditioning)]) == 0.0).any()
    assert _bits(astuple(conflict_experiment(1, config))) == _bits(
        astuple(_conflict_loop(1, config))
    )


# -- sharpening_curve ----------------------------------------------------------


def _sharpening_loop(z, subset, gammas):
    idx = sorted(subset)
    out = np.empty((z.shape[0], len(gammas)))
    for i in range(z.shape[0]):
        zs = z[i, idx]
        j_star = int(np.argmax(zs))
        for gi, g in enumerate(gammas):
            out[i, gi] = _softmax_1d(g * zs)[j_star]
    return out


@st.composite
def _sharpening_cases(draw):
    n = draw(st.integers(0, 6))
    m = draw(st.integers(1, 64))
    z = draw(arrays(np.float64, (n, m), elements=logits))
    subset = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    gammas = draw(st.lists(st.floats(1e-3, 20.0), max_size=5))
    return z, subset, gammas


@seed(25)
@settings(max_examples=300, deadline=None)
@given(case=_sharpening_cases(), strided=st.booleans())
def test_sharpening_curve_matches_the_double_loop(case, strided):
    z, subset, gammas = case
    got = sharpening_curve(_layout(z, strided), subset, gammas)
    want = _sharpening_loop(z, subset, gammas)
    assert got.shape == want.shape
    assert _bits(got.ravel().tolist()) == _bits(want.ravel().tolist())
