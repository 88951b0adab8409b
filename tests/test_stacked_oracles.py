"""Loop forms of the stacked kernels, kept as bit-for-bit references.

``softmax_vec`` and ``entropy`` are the one-row cases of ``row_softmax`` and
``_row_entropies``, and ``entropy_alpha_report``, ``lipschitz_report``,
``conflict_experiment`` and ``sharpening_curve`` each make one stacked pass.
The references below are the one-vector arithmetic and the per-row loops
those functions used before, written out here so that every stacked result is
compared with them bit for bit. The draws cover up to 64 keys, rows whose
softmax underflows to exact zeros, non-contiguous inputs and every key
position of the conflict experiment.

``make_toy_denoiser`` and ``ToyDenoiser`` solve every block's spectral norm
in one ``spectral_norms`` stack, ``ToyDenoiser.w_qk`` holds each block's
``(W_q, W_k)`` for one Q/K product, and ``run_trajectory`` softmaxes the
scaled cells' baseline logits, on the video query rows alone, once per step.
Their references are the two separate products, the per-block loop and the
trajectory body as they were before, with a full ``attention_forward(q, k, v)``
baseline per scaled cell.

The last two sections go one level up. ``curvature_rows``, ``logit_gap``,
``entropy``, ``entropy_alpha_report`` and ``lipschitz_report`` also take a
stack of vectors, and each stacked row must equal the one-vector call. The
batched verification suites must equal their per-draw loops, row for row.
"""

import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attnlab import analysis, simulate
from attnlab import verification as V
from attnlab.analysis import (
    DEFAULT_FD_STEP,
    CurvatureReport,
    EntropyReport,
    LipschitzReport,
    _variance_rows,
    curvature_rows,
    entropy,
    entropy_alpha_report,
    group_mass_rows,
    lipschitz_report,
    logit_gap,
)
from attnlab.attention import (
    ScalingTargets,
    attention_forward,
    key_scale_factors,
    resolve_targets,
    scaled_logits,
)
from attnlab.config import RunConfig
from attnlab.numerics import row_softmax, sample_gaussian, softmax_vec, spectral_norm
from attnlab.simulate import (
    ConflictConfig,
    ConflictReport,
    StepCoefficients,
    ToyDenoiser,
    Trajectory,
    TrajectoryRow,
    conflict_experiment,
    conflict_logits,
    make_toy_denoiser,
    run_trajectory,
    scaling_multiply_count,
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


@st.composite
def _sparse_distributions(draw):
    """(n, m) distributions where many rows hold exact zeros, in varying counts."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 64))
    entries = st.one_of(st.just(0.0), st.just(0.0), st.floats(1e-300, 1.0))
    raw = draw(arrays(np.float64, (n, m), elements=entries))
    raw[:, draw(st.integers(0, m - 1))] += 1e-3  # every row has positive mass
    return raw / raw.sum(axis=1, keepdims=True)


@seed(28)
@settings(max_examples=300, deadline=None)
@given(q=_sparse_distributions())
def test_row_entropies_match_the_per_row_loop_bit_for_bit(q):
    # Rows with zeros are summed in groups of equal positive count; each must
    # equal the one-row sum of its positive entries.
    assert _bits(analysis._row_entropies(q).tolist()) == _bits([_entropy_1d(row) for row in q])


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
    """The per-query loop: variances and argmax flips."""
    z, part = conflict_logits(seed_, config)
    z_mod = z * key_scale_factors(part, config.targets.key_groups, config.gamma)
    p_base = row_softmax(z)
    p_mod = row_softmax(z_mod)
    cond = list(part.conditioning)
    text_set = set(part.text)
    stats_b = group_mass_rows(p_base, part)
    stats_m = group_mass_rows(p_mod, part)
    ratios = stats_m.entropy_cond / stats_b.entropy_cond
    nondeg = []
    flips = 0
    for i in range(z.shape[0]):
        nondeg.append(bool(np.var(z[i, cond]) > 1e-12))
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
    # boost of 800 leaves exact zeros in the softmax rows of group_mass_rows.
    config = ConflictConfig(targets=resolve_targets("key-text"))
    assert _conflict_loop(1, config).argmax_flips_to_text > 0
    assert _bits(astuple(conflict_experiment(1, config))) == _bits(
        astuple(_conflict_loop(1, config))
    )
    config = ConflictConfig(boost=800.0, targets=resolve_targets("key-image and key-text"))
    z, part = conflict_logits(1, config)
    assert (row_softmax(z)[:, list(part.conditioning)] == 0.0).any()
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
# One gamma over 16 keys of a column subset, which is F-ordered: rows summed
# F-ordered round differently from a vector.
@example(case=(np.sin(np.arange(32.0)).reshape(2, 16), list(range(16)), [1.3]), strided=False)
def test_sharpening_curve_matches_the_double_loop(case, strided):
    z, subset, gammas = case
    got = sharpening_curve(_layout(z, strided), subset, gammas)
    want = _sharpening_loop(z, subset, gammas)
    assert got.shape == want.shape
    assert _bits(got.ravel().tolist()) == _bits(want.ravel().tolist())


# -- the toy denoiser and run_trajectory ------------------------------------------


@st.composite
def _projections(draw):
    """(tokens, w_q, w_k): one token matrix and two projections of one shape,
    with n, d_model and d_k from 1 and entries of magnitude 1e-150 to 1e150."""
    n, d, d_k = (draw(st.integers(1, 24)) for _ in range(3))

    def matrix(shape):
        mag = draw(arrays(np.float64, shape, elements=st.floats(-150.0, 150.0)))
        sign = draw(arrays(np.float64, shape, elements=st.sampled_from([-1.0, 1.0])))
        return sign * 10.0 ** mag

    return matrix((n, d)), matrix((d, d_k)), matrix((d, d_k))


@seed(22)
@settings(max_examples=300, deadline=None)
@given(case=_projections())
@example(case=(np.full((1, 1), 1e150), np.full((1, 1), 1e-150), np.full((1, 1), 3.0)))
@example(case=(np.full((18, 6), 0.5), np.eye(6, 8), np.ones((6, 8))))
def test_stacked_projection_matches_the_separate_products(case):
    # ToyDenoiser.w_qk holds each block's (W_q, W_k), and a pass forms Q and K with one product.
    tokens, w_q, w_k = case
    q, k = tokens @ np.stack((w_q, w_k))
    assert _bits((q.tolist(), k.tolist())) == _bits(((tokens @ w_q).tolist(), (tokens @ w_k).tolist()))


def _denoiser_loop(seed_, num_blocks, n_text, n_image, n_video, d_k, d_v):
    """make_toy_denoiser as a per-block loop: draw a block, then solve its norm."""
    rng = np.random.default_rng(seed_)
    scale = 1.0 / math.sqrt(d_k)
    cond_embed = rng.normal(0.0, 1.0, size=(n_text + n_image, d_v))
    blocks = []
    for _ in range(num_blocks):
        w_q = rng.normal(0.0, scale, size=(d_v, d_k))
        w_k = rng.normal(0.0, scale, size=(d_v, d_k))
        w_v = rng.normal(0.0, scale, size=(d_v, d_v))
        w_o = rng.normal(0.0, scale, size=(d_v, d_v))
        sigma = spectral_norm(w_o)
        if sigma < 1.0:
            w_o = w_o / sigma
        blocks.append(((w_q, w_k), w_v, w_o))
    lip = 1.0
    for _, _, w_o in blocks:
        lip *= spectral_norm(w_o)
    # Stacked as ToyDenoiser holds them: w_qk, w_v, w_o.
    return cond_embed, [np.stack(ws) for ws in zip(*blocks)], lip


def _trajectory_loop(denoiser, coeffs, schedule, x0):
    """run_trajectory with a full attention_forward(q, k, v) baseline per scaled cell."""
    x = np.array(x0, dtype=np.float64)
    n_cond = denoiser.cond_embed.shape[0]
    n_meas = len(denoiser.w_qk) * denoiser.n_video
    part = denoiser.partition
    cell_multiplies = scaling_multiply_count(
        part, schedule.modulation.targets, part.size, denoiser.w_qk.shape[3]
    )
    rows = []
    for t in range(1, coeffs.total_steps + 1):
        results, scaled, baselines = [], [], []

        def observe(l, q, k, v, res):
            results.append(res)
            if res.gamma is not None:
                scaled.append(l)
                baselines.append(attention_forward(q, k, v))

        h = simulate._forward(denoiser, x, t, schedule, observe)
        x = coeffs.a[t - 1] * x + coeffs.b[t - 1] * h
        active = len(scaled)
        probs = np.vstack([res.probabilities[n_cond:] for res in results + baselines])
        stats = group_mass_rows(probs, part)
        h_mod = stats.entropy_cond[:n_meas]
        h_base = h_mod.reshape(-1, denoiser.n_video).copy()
        h_base[scaled] = stats.entropy_cond[n_meas:].reshape(-1, denoiser.n_video)
        masses = [
            np.cumsum(col[:n_meas])[-1]
            for col in (stats.mass_text, stats.mass_image, stats.mass_video)
        ]
        mean_mod = float(np.mean(h_mod))
        mean_base = float(np.mean(h_base))
        rows.append(TrajectoryRow(
            step=t,
            active_blocks=active,
            scaling_multiplies=active * cell_multiplies,
            mass_text=float(masses[0] / n_meas),
            mass_image=float(masses[1] / n_meas),
            mass_video=float(masses[2] / n_meas),
            entropy_cond=mean_mod,
            entropy_cond_base=mean_base,
            entropy_ratio=float(simulate._entropy_ratio(mean_mod, mean_base)),
            state_norm=float(np.linalg.norm(x)),
        ))
    return Trajectory(rows=tuple(rows))


_DIMS = {"n_text": 4, "n_image": 6, "n_video": 8, "d_k": 8, "d_v": 6}
# (seed, dims over the defaults, config keys over the defaults): every mode,
# scaling position and window preset, group sizes from one token to 12, and
# key widths from 1 to 32. Two energy cases keep their coefficient within an
# ulp of 1 (kappa = 1e-3) or far above it (gamma_max = 3).
TRAJECTORY_CASES = [
    (0, {}, {}),
    (1, {}, {"position": "key-text"}),
    (2, {}, {"position": "key-image", "window": {"preset": "middle"}}),
    (3, {"n_text": 1, "n_image": 1, "n_video": 1, "d_k": 1, "d_v": 1}, {"window": {"preset": "all"}}),
    (4, {"n_text": 0, "n_image": 5, "n_video": 3, "d_k": 4, "d_v": 2},
     {"mode": "energy", "position": "key-image", "window": {"preset": "all"}}),
    (5, {"n_text": 5, "n_image": 0, "n_video": 6, "d_k": 16},
     {"position": "key-text", "window": {"preset": "late"}}),
    (6, {"n_text": 2, "n_image": 3, "n_video": 12, "d_k": 2, "d_v": 4}, {"mode": "energy"}),
    (7, {}, {"mode": "energy", "position": "key-text", "window": {"preset": "middle"}}),
    (8, {"n_text": 8, "n_image": 8, "n_video": 2, "d_v": 3}, {"gamma": 0.7}),
    (9, {"n_text": 3, "n_image": 4, "n_video": 5, "d_k": 32, "d_v": 8},
     {"mode": "energy", "kappa": 0.001, "window": {"preset": "all"}}),
    (10, {}, {"gamma": 1.0, "window": {"preset": "all"}}),
    (11, {}, {"mode": "energy", "gamma_max": 3.0, "position": "key-image",
              "window": {"preset": "late"}}),
    (12, {"n_text": 6, "n_image": 1, "n_video": 4, "d_k": 3},
     {"gamma": 4.0, "block_gates": {"source": "all"}}),
]


@pytest.mark.parametrize("case", range(len(TRAJECTORY_CASES)))
def test_toy_denoiser_matches_the_per_block_loop(case):
    seed_, dims, _ = TRAJECTORY_CASES[case]
    dims = {**_DIMS, **dims}
    den = make_toy_denoiser(seed_, num_blocks=5, **dims)
    cond_embed, stacks, lip = _denoiser_loop(seed_, 5, **dims)
    assert den.cond_embed.tolist() == cond_embed.tolist()
    names = ("w_qk", "w_v", "w_o")
    for name, want in zip(names, stacks):
        assert getattr(den, name).tolist() == want.tolist()
    assert den.lipschitz_upper.hex() == lip.hex()
    rebuilt = ToyDenoiser(den.partition, cond_embed, **dict(zip(names, stacks)))
    assert rebuilt.lipschitz_upper.hex() == lip.hex()


@pytest.mark.parametrize("case", range(len(TRAJECTORY_CASES)))
def test_trajectory_matches_the_full_baseline_loop(case):
    seed_, dims, overrides = TRAJECTORY_CASES[case]
    dims = {**_DIMS, **dims}
    cfg = RunConfig(seed=seed_, total_steps=12, num_blocks=5, dims=dims, **overrides)
    schedule = cfg.schedule()
    den = make_toy_denoiser(seed_, num_blocks=5, **dims)
    coeffs = StepCoefficients.linear(12)
    x0 = sample_gaussian((den.n_video, den.d_model), seed=seed_ + 1)
    got = run_trajectory(den, coeffs, schedule, x0)
    want = _trajectory_loop(den, coeffs, schedule, x0)
    assert _bits(astuple(got)) == _bits(astuple(want))
    # Only the unit-gamma case scales no cell.
    assert (got.total_active_cells == 0) == (overrides.get("gamma") == 1.0)


# -- stack forms of the report kernels ------------------------------------------


def _curvature_fields(rows):
    """Every CurvatureReport field; floats as hex, so equality is bitwise."""
    arrays = (rows.alpha, rows.p, rows.spectral_norm, rows.min_eigenvalue,
              rows.gershgorin_bound, rows.tail_mass, rows.tail_bound, rows.decay_bound)
    return [_bits(np.asarray(a).tolist()) for a in arrays] + [
        _bits(np.asarray(rows.logit_gap).tolist()),
        np.asarray(rows.gap_applicable).tolist(),
        rows.violations,
    ]


def _stacked_curvature_matches_rows(z, alphas):
    stacked = curvature_rows(z, alphas)
    assert stacked.p.shape == (z.shape[0], alphas.shape[1], z.shape[1])
    for n in range(z.shape[0]):
        one = curvature_rows(z[n], alphas[n])
        row = CurvatureReport(*(getattr(stacked, f.name)[n] for f in fields(stacked)))
        assert _curvature_fields(row) == _curvature_fields(one)


@st.composite
def _curvature_stacks(draw):
    """(z, alphas): N logit vectors of one length, with ties and underflowing tails."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 16))
    z = draw(arrays(np.float64, (n, m), elements=st.floats(-40.0, 40.0)))
    for i in range(n):
        if m > 1 and draw(st.booleans()):
            z[i, draw(st.integers(0, m - 1))] = z[i].max()  # tied maximum
    k = draw(st.integers(1, 5))
    alphas = draw(arrays(np.float64, (n, k), elements=st.floats(1e-3, 1e3)))
    return z, alphas


@seed(26)
@settings(max_examples=200, deadline=None)
@given(case=_curvature_stacks(), order=st.sampled_from("CF"))
# One alpha per vector of 16 F-ordered logits: the tempered rows must still
# be summed C-ordered, as a vector is.
@example(case=(np.sin(np.arange(48.0)).reshape(3, 16), np.array([[1.3], [0.7], [2.0]])),
         order="F")
def test_curvature_rows_stack_matches_one_vector_calls(case, order):
    z, alphas = case
    _stacked_curvature_matches_rows(np.asarray(z, order=order), alphas)


def test_curvature_rows_stack_covers_ties_one_logit_and_underflow():
    # A tied row between gapped rows, and alphas that underflow every tail entry.
    z = np.array([[30.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, -1.0, 0.5]])
    alphas = np.array([[0.5, 50.0], [1.0, 2.0], [3.0, 1e3]])
    stacked = curvature_rows(z, alphas)
    assert stacked.gap_applicable.tolist() == [True, False, True]
    assert (stacked.p[0, 1, 1:] == 0.0).all() and stacked.tail_mass[0, 1] == 0.0
    _stacked_curvature_matches_rows(z, alphas)
    _stacked_curvature_matches_rows(np.array([[3.0], [-1.0]]), np.array([[2.0], [0.5]]))


def test_curvature_rows_stack_iterates_open_rows_bit_for_bit(monkeypatch):
    # The secular solve iterates only the rows whose bracket is still open.
    # The tied vector's rows close before the first step and the others after
    # different numbers of steps, yet each stacked row equals its one-vector call.
    z = np.array([[3.0, 1.0, 0.5, -2.0], [0.0, 4.0, 4.5, 1.0], [2.0, 2.0, 0.0, 1.0]])
    alphas = np.array([[0.3, 1.0, 2.0, 5.0, 9.0], [0.1, 0.7, 3.0, 8.0, 20.0],
                       [0.5, 1.0, 2.0, 4.0, 8.0]])
    sizes = []
    original = analysis._secular
    monkeypatch.setattr(analysis, "_secular", lambda x, *a: sizes.append(x.size) or original(x, *a))
    curvature_rows(z, alphas)
    steps = sizes[:-1]  # the last call is the one step from 0 to lambda_min
    assert steps[0] == 10
    assert steps == sorted(steps, reverse=True) and len(set(steps)) > 2
    _stacked_curvature_matches_rows(z, alphas)


def test_logit_gap_stack_matches_one_vector_calls():
    z = np.array([[3.0, 1.0, 2.5], [1.0, 1.0, 0.0], [-2.0, 7.0, 6.999]])
    assert _bits(logit_gap(z).tolist()) == _bits([logit_gap(row) for row in z])
    assert logit_gap(np.array([[4.0], [-1.0]])).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="non-finite logits"):
        logit_gap(np.array([[1.0, np.inf]]))


@pytest.mark.parametrize("z", [np.zeros((2, 0)), np.zeros((0, 0)), np.zeros(0)])
def test_logit_gap_rejects_empty_logits(z):
    # As entropy and energy_gamma do: a row with no logit has no gap.
    with pytest.raises(ValueError, match="^empty logits$"):
        logit_gap(z)


def test_curvature_rows_stack_rejects_what_the_vector_form_rejects():
    z = np.array([[1.0, 0.0], [2.0, 0.5]])
    with pytest.raises(ValueError, match="alpha must be positive, got -1.0"):
        curvature_rows(z, np.array([[1.0, 2.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite logits"):
        curvature_rows(np.array([[1.0, np.nan]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match=r"alpha grid rows \(1\) != logit rows \(2\)"):
        curvature_rows(z, np.array([[1.0, 2.0]]))


@seed(27)
@settings(max_examples=150, deadline=None)
@given(case=_subset_cases(), n=st.integers(1, 5), data=st.data())
def test_entropy_and_entropy_alpha_report_stacks_match_one_row_calls(case, n, data):
    z, s = case
    zs = np.stack([np.roll(z, i) for i in range(n)])
    alphas = data.draw(arrays(np.float64, (n,), elements=st.floats(2e-5, 50.0)))
    stacked = entropy_alpha_report(zs, s, alphas)
    for i in range(n):
        one = entropy_alpha_report(zs[i], s, float(alphas[i]))
        assert _bits([np.asarray(f)[i].item() for f in astuple(stacked)]) == _bits(astuple(one))
    p = row_softmax(alphas[:, None] * zs)
    assert _bits(entropy(p).tolist()) == _bits([entropy(row) for row in p])


@seed(28)
@settings(max_examples=100, deadline=None)
@given(
    z=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 16)), elements=logits),
    d_v=st.integers(1, 8),
    data=st.data(),
)
def test_lipschitz_report_stack_matches_one_row_calls(z, d_v, data):
    n, m = z.shape
    v = np.random.default_rng(m * d_v).normal(size=(n, m, d_v))
    a1, a2 = (data.draw(arrays(np.float64, (n,), elements=st.floats(1e-3, 10.0)))
              for _ in range(2))
    stacked = lipschitz_report(z, v, a1, a2)
    for i in range(n):
        one = lipschitz_report(z[i], v[i], float(a1[i]), float(a2[i]))
        assert _bits([np.asarray(f)[i].item() for f in astuple(stacked)]) == _bits(astuple(one))


# -- the batched suites against their per-draw loops -----------------------------
#
# The loops below are the suites as they were written draw by draw: each draw
# makes its own one-vector calls, in draw order. The suites now draw every case
# first and make one stacked pass per shape (per key count and block of draws
# for scale-equivalence), so each report row is compared
# with the loop's by repr, with the violation count and the first problem.
# The suite constants are read at call time, so a test can tighten them to
# make the violation path fire in both forms.


def _gapped_loop(rng, m):
    while True:
        z = rng.uniform(-10.0, 10.0, size=m)
        if logit_gap(z) >= V.MIN_LOGIT_GAP:
            return z


def _nonincreasing_loop(values, scale=1.0):
    slack = V.MONOTONE_SLACK * scale
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def _entropy_slope_loop(seed_, draws):
    rng = np.random.default_rng(seed_)
    for i in range(draws):
        m = int(rng.integers(2, 17))
        z = rng.uniform(-10.0, 10.0, size=m)
        alpha = float(rng.uniform(0.1, 10.0))
        if rng.random() < 0.5:
            subset = tuple(range(m))
        else:
            size = int(rng.integers(1, m + 1))
            subset = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
        rep = entropy_alpha_report(z, subset, alpha)
        alpha2 = alpha + float(rng.uniform(0.1, 2.0))
        h2 = entropy(softmax_vec(alpha2 * z[list(subset)]))
        monotone_ok = _nonincreasing_loop((rep.entropy, h2))
        bad = not (monotone_ok and rep.abs_gap < V.SLOPE_TOLERANCE)
        row = {"draw": i, "m": m, "subset_size": len(subset), "alpha": alpha,
               "entropy": rep.entropy, "variance": rep.variance, "slope_gap": rep.abs_gap,
               "margin": V.SLOPE_TOLERANCE - rep.abs_gap, "monotone_ok": int(monotone_ok)}
        yield [row], (
            f"draw {i}: slope gap {rep.abs_gap:.3e}, "
            f"H({alpha2:.3f})={h2:.6f} vs H({alpha:.3f})={rep.entropy:.6f}" if bad else None
        )


def _curvature_loop(seed_, draws):
    rng = np.random.default_rng(seed_)
    for i in range(draws):
        m = int(rng.integers(2, 17))
        z = _gapped_loop(rng, m)
        alpha = float(rng.uniform(0.1, 10.0))
        delta = logit_gap(z)
        curv = curvature_rows(z, (alpha, 50.0 / delta))
        norm, collapse_norm = curv.spectral_norm.tolist()
        decay_bound = curv.decay_bound.tolist()[0]
        psd_ok = float(curv.min_eigenvalue[0]) >= -V.PSD_SLACK
        grid = np.linspace(2.0 / delta, 50.0 / delta, 25)
        envelope = (2.0 * grid**2 * (m - 1) * np.exp(-grid * delta)).tolist()
        env_ok = _nonincreasing_loop(envelope, max(1.0, envelope[0]))
        collapse_ok = collapse_norm < V.COLLAPSE_NORM_LIMIT
        row = {"draw": i, "m": m, "alpha": alpha, "logit_gap": delta, "spectral_norm": norm,
               "decay_bound": decay_bound, "tail_mass": curv.tail_mass.tolist()[0],
               "tail_bound": curv.tail_bound.tolist()[0],
               "gershgorin_bound": curv.gershgorin_bound.tolist()[0],
               "margin": decay_bound - norm, "collapse_norm": collapse_norm,
               "psd_ok": int(psd_ok), "envelope_ok": int(env_ok)}
        bad = bool(curv.violations[0]) or not (psd_ok and env_ok and collapse_ok)
        yield [row], (
            f"draw {i}: bound violations {curv.violations[0]}, psd_ok={psd_ok}, "
            f"env_ok={env_ok}, norm at 50/gap = {collapse_norm:.3e}" if bad else None
        )


def _scale_equivalence_loop(seed_, draws):
    rng = np.random.default_rng(seed_)
    for i in range(draws):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.5, 3.0))
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(m, d))
        v = rng.normal(size=(m, d))
        p_q = attention_forward(gamma * q, k, v).probabilities
        p_k = attention_forward(q, gamma * k, v).probabilities
        p_t = analysis._tempered(scaled_logits(q, k), np.full((n, 1), gamma))
        max_diff = max(float(np.abs(a - b).max()) for a, b in ((p_q, p_k), (p_q, p_t), (p_k, p_t)))
        margin = V.PAIRWISE_TOLERANCE - max_diff
        row = {"draw": i, "n": n, "m": m, "d": d, "gamma": gamma, "max_diff": max_diff,
               "margin": margin}
        yield [row], (
            f"draw {i}: pairwise diff {max_diff:.3e} exceeds {V.PAIRWISE_TOLERANCE}"
            if margin < 0 else None
        )


def _lipschitz_loop(seed_, draws):
    rng = np.random.default_rng(seed_)
    for i in range(draws):
        m = int(rng.integers(2, 17))
        d_v = int(rng.integers(1, 9))
        z = rng.normal(0.0, 2.0, size=m)
        v = rng.normal(size=(m, d_v))
        alpha1 = float(rng.uniform(0.5, 3.0))
        alpha2 = float(rng.uniform(0.5, 3.0))
        rep = lipschitz_report(z, v, alpha1, alpha2)
        row = {"draw": i, "m": m, "d_v": d_v, "alpha1": alpha1, "alpha2": alpha2,
               "deviation": rep.deviation, "bound": rep.bound, "margin": rep.margin}
        yield [row], (
            f"draw {i}: deviation {rep.deviation:.6e} exceeds bound {rep.bound:.6e}"
            if rep.margin < 0 else None
        )


def _sweep_loop(z_draws, alpha_grid):
    for i, z in enumerate(z_draws):
        gap = logit_gap(z)
        if alpha_grid:
            grid = sorted(alpha_grid)
        elif gap > 0:
            grid = sorted(r / gap for r in V.SWEEP_GAP_RATIOS)
        else:
            raise ValueError(
                f"draw {i} has a tied maximum (top-two gap 0), so the default grid "
                "SWEEP_GAP_RATIOS / gap is undefined; give an explicit grid with --alpha-grid"
            )
        curv = curvature_rows(z, grid)
        entropies = [entropy(row) for row in curv.p]
        variances = _variance_rows(curv.p, z).tolist()
        norms, tails, tail_bounds, gersh, decay = (
            col.tolist() for col in (curv.spectral_norm, curv.tail_mass, curv.tail_bound,
                                     curv.gershgorin_bound, curv.decay_bound)
        )
        monotone_ok = _nonincreasing_loop(entropies)
        env = [d for a, d in zip(grid, decay) if gap > 0 and a >= 2.0 / gap]
        envelope_ok = _nonincreasing_loop(env, max(1.0, env[0]) if env else 1.0)
        collapse_ok = bool(alpha_grid) or norms[-1] < V.COLLAPSE_NORM_LIMIT
        bound_ok = not any(curv.violations)
        rows = [
            {"draw": i, "alpha": alpha, "entropy": entropies[k], "variance": variances[k],
             "spectral_norm": norms[k], "tail_mass": tails[k], "tail_bound": tail_bounds[k],
             "gershgorin_bound": gersh[k], "decay_bound": decay[k], "logit_gap": gap,
             "entropy_monotone_ok": int(monotone_ok), "envelope_ok": int(envelope_ok),
             "collapse_ok": int(collapse_ok)}
            for k, alpha in enumerate(grid)
        ]
        bad = not (monotone_ok and envelope_ok and collapse_ok and bound_ok)
        yield rows, (
            f"draw {i}: monotone_ok={monotone_ok} envelope_ok={envelope_ok} "
            f"collapse_ok={collapse_ok} bounds_ok={bound_ok}" if bad else None
        )


def _sweep_draws_loop(seed_, draws):
    rng = np.random.default_rng(seed_)
    return [_gapped_loop(rng, int(rng.integers(2, 17))) for _ in range(draws)]


def _loop_result(name, pairs, inject_bug=False):
    """The suite's (rows, violations, detail) from the per-draw pairs."""
    rows, violations, detail = [], 0, None
    for draw_rows, problem in pairs:
        rows.extend(draw_rows)
        if problem is not None:
            violations += 1
            detail = problem if detail is None else detail
    if inject_bug and rows:
        rows[0]["margin"] = -abs(rows[0]["margin"]) - 1.0
        violations += 1
        detail = "injected-bug hook: flipped the sign of row 0's margin"
    return repr(rows), violations, detail


def _result(res):
    assert res.columns == (tuple(res.rows[0]) if res.rows else ())
    return repr(res.rows), res.violations, res.detail


SUITE_LOOPS = {
    "scale-equivalence": _scale_equivalence_loop,
    "entropy-slope": _entropy_slope_loop,
    "curvature": _curvature_loop,
    "lipschitz": _lipschitz_loop,
}


@pytest.mark.parametrize("name", sorted(SUITE_LOOPS))
@pytest.mark.parametrize("seed_", [0, 1, 5])
@pytest.mark.parametrize("draws", [0, 1, 7, 60])
@pytest.mark.parametrize("inject_bug", [False, True])
def test_batched_suite_matches_its_per_draw_loop(name, seed_, draws, inject_bug):
    got = V.run_suite(name, seed=seed_, draws=draws, inject_bug=inject_bug)
    want = _loop_result(name, SUITE_LOOPS[name](seed_, draws), inject_bug)
    assert _result(got) == want


def test_batched_scale_equivalence_matches_its_loop_at_450_draws():
    want = _loop_result("scale-equivalence", _scale_equivalence_loop(4, 450))
    assert _result(V.run_suite("scale-equivalence", seed=4, draws=450)) == want


def test_batched_suites_have_singleton_groups_at_seven_draws():
    # Seven draws over 15 logit lengths leave some length with a single draw.
    rng = np.random.default_rng(1)
    lengths = [len(_gapped_loop(rng, int(rng.integers(2, 17)))) for _ in range(7)]
    assert 1 in [lengths.count(m) for m in set(lengths)]


@pytest.mark.parametrize(
    "name, patches",
    [
        ("entropy-slope", {"SLOPE_TOLERANCE": 1e-9}),
        ("entropy-slope", {"MONOTONE_SLACK": -1e-3}),
        ("curvature", {"COLLAPSE_NORM_LIMIT": 1e-40, "PSD_SLACK": -1.0}),
        ("curvature", {"MONOTONE_SLACK": -1e-3}),
        ("scale-equivalence", {"PAIRWISE_TOLERANCE": 1e-17}),
    ],
)
def test_batched_suite_violations_match_the_loop(monkeypatch, name, patches):
    for attr, value in patches.items():
        monkeypatch.setattr(V, attr, value)
    want = _loop_result(name, SUITE_LOOPS[name](3, 80))
    assert want[1] > 0
    if name == "scale-equivalence":
        assert want[1] < 80  # draws whose three routes agree exactly still pass
    assert _result(V.run_suite(name, seed=3, draws=80)) == want


def test_batched_curvature_bound_violations_match_the_loop(monkeypatch):
    monkeypatch.setattr(analysis, "_BOUND_SLACK", -1e-3)
    want = _loop_result("curvature", _curvature_loop(2, 40))
    assert want[1] > 0
    assert _result(V.run_suite("curvature", seed=2, draws=40)) == want
    want = _loop_result("sweep", _sweep_loop(_sweep_draws_loop(2, 40), None))
    assert want[1] > 0
    assert _result(V.run_sweep(seed=2, draws=40)) == want


@pytest.mark.parametrize("seed_", [0, 1, 5])
@pytest.mark.parametrize("draws", [0, 1, 7, 60])
@pytest.mark.parametrize("alpha_grid", [None, [0.5, 3.0, 1.0, 40.0, 3.0]])
def test_batched_sweep_matches_its_per_draw_loop(seed_, draws, alpha_grid):
    got = V.run_sweep(seed=seed_, draws=draws, alpha_grid=alpha_grid)
    want = _loop_result("sweep", _sweep_loop(_sweep_draws_loop(seed_, draws), alpha_grid))
    assert _result(got) == want


@pytest.mark.parametrize(
    "z", [[2.0, 1.0, 0.0], [1e7 + 3.0, 1e7, 1e7 - 2.5, 1e7], [5.0, 5.0, 0.0], [-1.0, 4.0]]
)
@pytest.mark.parametrize("alpha_grid", [None, [1.0, 2.0, 3.0], [3.0, 0.25, 3.0]])
def test_batched_sweep_of_one_vector_matches_the_loop(z, alpha_grid):
    z = np.array(z)
    want = None
    try:
        want = _loop_result("sweep", _sweep_loop([z], alpha_grid))
    except ValueError as e:
        with pytest.raises(ValueError) as info:
            V.run_sweep(z=z, alpha_grid=alpha_grid)
        assert str(info.value) == str(e)
        return
    assert _result(V.run_sweep(z=z, alpha_grid=alpha_grid)) == want


def test_batched_sweep_keeps_the_collapse_and_monotone_violations(monkeypatch):
    monkeypatch.setattr(V, "COLLAPSE_NORM_LIMIT", 1e-40)
    monkeypatch.setattr(V, "MONOTONE_SLACK", -1e-6)
    want = _loop_result("sweep", _sweep_loop(_sweep_draws_loop(4, 50), None))
    assert want[1] == 50
    assert _result(V.run_sweep(seed=4, draws=50)) == want


def test_batched_sweep_scales_the_envelope_slack_by_its_first_checked_bound(monkeypatch):
    # Past 2/Delta = 2 the decay bound of (2, 1, 0) falls by about 2e-6 to
    # 2.0019, less than the slack 1e-6 times the bound at 2 (2.17) but more
    # than 1e-6 times the bound at the first grid alpha 0.5 (0.61, so 1).
    monkeypatch.setattr(V, "MONOTONE_SLACK", -1e-6)
    z, grid = np.array([2.0, 1.0, 0.0]), [0.5, 2.0, 2.0019]
    want = _loop_result("sweep", _sweep_loop([z], grid))
    assert "envelope_ok=False" in want[2]
    assert _result(V.run_sweep(z=z, alpha_grid=grid)) == want
