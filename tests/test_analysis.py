import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attnlab.analysis import (
    CurvatureReport,
    _row_entropies,
    curvature_report,
    curvature_rows,
    entropy,
    entropy_alpha_report,
    flops_overhead,
    group_mass_report,
    group_mass_rows,
    lipschitz_report,
)
from attnlab import analysis
from attnlab.attention import build_partition
from attnlab.numerics import row_softmax, softmax_vec

# Frozen oracles for z = (2, 1, 0):
# H(1) = log(1 + e^-1 + e^-2) + (e^-1 + 2 e^-2)/(1 + e^-1 + e^-2), evaluated once
H_Z210_A1 = 0.8323955818399389
H_Z210_A2 = 0.44105744405816344
VAR_Z210_A1 = 0.4244045446892546

SLOPE_TOLERANCE = 1e-5

logit_floats = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def test_entropy_uniform_and_point_mass():
    assert entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(math.log(4.0), abs=1e-14)
    assert entropy([1.0, 0.0, 0.0]) == 0.0  # 0 ln 0 := 0
    assert entropy([1.0]) == 0.0


def test_entropy_two_point_closed_form():
    p = 0.3
    expected = -p * math.log(p) - (1 - p) * math.log(1 - p)
    assert entropy([p, 1 - p]) == pytest.approx(expected, abs=1e-14)


def test_entropy_frozen_value_for_softmax_210():
    assert entropy(softmax_vec(np.array([2.0, 1.0, 0.0]))) == pytest.approx(
        H_Z210_A1, abs=1e-13
    )


def test_entropy_rejects_invalid_distributions():
    with pytest.raises(ValueError, match="negative entry"):
        entropy([1.2, -0.2])
    with pytest.raises(ValueError, match="not 1"):
        entropy([0.5, 0.4])


# -- entropy / temperature slope ---------------------------------------------


def test_entropy_report_frozen_values():
    z = np.array([2.0, 1.0, 0.0])
    rep = entropy_alpha_report(z, range(3), alpha=1.0)
    assert rep.entropy == pytest.approx(H_Z210_A1, abs=1e-12)
    assert rep.variance == pytest.approx(VAR_Z210_A1, abs=1e-12)
    assert rep.analytic_derivative == pytest.approx(-VAR_Z210_A1, abs=1e-12)
    assert rep.abs_gap < SLOPE_TOLERANCE
    rep2 = entropy_alpha_report(z, range(3), alpha=2.0)
    assert rep2.entropy == pytest.approx(H_Z210_A2, abs=1e-12)


def test_entropy_slope_nonpositive_and_matches_fd():
    rng = np.random.default_rng(5)
    for _ in range(30):
        z = rng.normal(scale=3.0, size=rng.integers(2, 9))
        alpha = float(rng.uniform(0.2, 4.0))
        rep = entropy_alpha_report(z, range(z.size), alpha)
        assert rep.analytic_derivative <= 1e-12
        assert rep.abs_gap < SLOPE_TOLERANCE


def test_entropy_report_on_subset():
    z = np.array([2.0, 1.0, 0.0, 99.0])
    rep = entropy_alpha_report(z, [0, 1, 2], alpha=1.0)
    # the excluded huge logit must not influence the restricted report
    assert rep.entropy == pytest.approx(H_Z210_A1, abs=1e-12)


def test_entropy_report_constant_logits_zero_slope():
    rep = entropy_alpha_report(np.array([1.0, 1.0, 1.0]), range(3), alpha=1.0)
    assert rep.variance == 0.0
    assert rep.analytic_derivative == 0.0
    assert rep.entropy == pytest.approx(math.log(3.0), abs=1e-12)


def test_entropy_report_step_validation():
    z = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="too small"):
        entropy_alpha_report(z, range(2), alpha=1e-6)


def test_entropy_report_subset_validation():
    z = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="nonempty"):
        entropy_alpha_report(z, [], 1.0)
    with pytest.raises(ValueError, match="duplicates"):
        entropy_alpha_report(z, [0, 0], 1.0)
    with pytest.raises(ValueError, match="out of range"):
        entropy_alpha_report(z, [2], 1.0)


@seed(3)
@settings(max_examples=40, deadline=None)
@given(z=arrays(np.float64, (5,), elements=logit_floats))
def test_entropy_decreases_with_alpha(z):
    # sharpening never raises entropy: H(2 alpha) <= H(alpha) + slack
    h1 = entropy(softmax_vec(1.0 * z))
    h2 = entropy(softmax_vec(2.0 * z))
    assert h2 <= h1 + 1e-12


# -- curvature ----------------------------------------------------------------

EPS = np.finfo(np.float64).eps
# The secular solve against the dense oracle: |lambda - lambda_dense| for the
# unscaled matrix diag(p) - p p^T (norm at most 1/2), in ulps of 1. A
# backward-stable eigvalsh is that accurate at this scale, and the largest
# gap seen on 4,000 seeded draws with m <= 64 was 2.1.
DENSE_ULPS = 8


def attention_hessian(z, alpha):
    """The dense oracle: alpha^2 (diag(p) - p p^T), p = softmax(alpha z).

    Symmetric PSD with zero row sums; its eigvalsh is what the secular solve
    of :func:`curvature_rows` replaces.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    p = softmax_vec(alpha * np.asarray(z, dtype=np.float64))
    return alpha * alpha * (np.diag(p) - np.outer(p, p))


def test_hessian_frozen_two_point():
    # z = (1, 0), alpha chosen so p = (0.5, 0.5): alpha -> 0 isn't allowed, so
    # use z = (0, 0) where p is exactly uniform at any alpha
    h = attention_hessian(np.array([0.0, 0.0]), 1.0)
    np.testing.assert_allclose(h, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)
    vals = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(vals, [0.0, 0.5], atol=1e-15)


def test_hessian_matches_finite_difference_of_log_partition():
    # independent oracle: numerically differentiate grad log-sum-exp
    def log_sum_exp(u):
        return u.max() + math.log(np.exp(u - u.max()).sum())

    z = np.array([0.7, -0.3, 1.1])
    alpha = 1.3
    h = attention_hessian(z, alpha)

    eps = 1e-6

    def grad(zq):
        # d/dz_j log sum exp(alpha z) = alpha p_j; probe via central differences
        g = np.zeros(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = eps
            g[j] = (log_sum_exp(alpha * (zq + e)) - log_sum_exp(alpha * (zq - e))) / (
                2 * eps
            )
        return g

    fd = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = eps
        fd[:, j] = (grad(z + e) - grad(z - e)) / (2 * eps)
    np.testing.assert_allclose(h, fd, atol=1e-4)


def test_hessian_zero_row_sums_and_psd():
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = rng.normal(scale=2.0, size=6)
        alpha = float(rng.uniform(0.5, 5.0))
        h = attention_hessian(z, alpha)
        np.testing.assert_allclose(h.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(h, h.T, atol=1e-15)
        assert np.linalg.eigvalsh(h).min() >= -1e-10


def test_curvature_report_frozen_values():
    z = np.array([2.0, 1.0, 0.0])  # gap Delta = 1, m = 3
    rep = curvature_report(z, 1.0)
    assert isinstance(rep, CurvatureReport)
    assert rep.logit_gap == pytest.approx(1.0)
    assert rep.gap_applicable
    # tail mass is the mass off the maximum, 1 - p_max; bound is 2 e^{-1}
    assert rep.tail_mass == pytest.approx(1.0 - 0.66524096, abs=1e-7)
    assert rep.tail_bound == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
    assert rep.decay_bound == pytest.approx(4.0 * math.exp(-1.0), abs=1e-12)
    assert rep.violations == ()
    rep3 = curvature_report(z, 3.0)
    assert rep3.tail_bound == pytest.approx(2.0 * math.exp(-3.0), abs=1e-12)
    # deep past the knee 2/Delta the exponential wins over the alpha^2 factor
    assert curvature_report(z, 20.0).spectral_norm < rep3.spectral_norm
    assert curvature_report(z, 50.0).spectral_norm < 1e-6


def test_curvature_norm_decays_past_knee():
    z = np.array([3.0, 1.5, 0.0, -1.0])
    delta = 1.5
    knee = 2.0 / delta
    grid = np.linspace(knee, 50.0 / delta, 40)
    norms = [curvature_report(z, a).spectral_norm for a in grid]
    envelope = [curvature_report(z, a).decay_bound for a in grid]
    assert all(n <= e + 1e-12 for n, e in zip(norms, envelope))
    assert all(envelope[i + 1] <= envelope[i] + 1e-15 for i in range(len(grid) - 1))
    assert norms[-1] < 1e-6  # collapse at alpha = 50 / Delta


def test_curvature_tied_maximum_flagged_inapplicable():
    rep = curvature_report(np.array([1.0, 1.0, 0.0]), 2.0)
    assert not rep.gap_applicable
    assert rep.logit_gap == 0.0
    assert rep.violations == ()  # gap bounds skipped, gershgorin still holds


def test_curvature_single_logit():
    rep = curvature_report(np.array([3.0]), 2.0)
    assert rep.spectral_norm == 0.0
    assert rep.tail_mass == 0.0
    assert rep.violations == ()


def test_curvature_tail_mass_does_not_cancel():
    # 1 - p_max rounds to 0 here; the tail is s/(1+s) with s = 2 e^{-60}.
    s = 2.0 * math.exp(-60.0)
    rep = curvature_report(np.array([30.0, 0.0, 0.0]), 2.0)
    assert rep.tail_mass == pytest.approx(s / (1.0 + s), rel=1e-15, abs=0.0)
    assert rep.tail_bound == pytest.approx(s, rel=1e-15)
    assert rep.violations == ()


def test_hessian_validation():
    with pytest.raises(ValueError, match="alpha"):
        attention_hessian(np.array([1.0, 0.0]), -1.0)
    with pytest.raises(ValueError, match="alpha"):
        curvature_report(np.array([1.0, 0.0]), 0.0)


def _reference_curvature(z, alpha, norm, bound_slack=1e-12):
    """The per-alpha loop form of every field around a given spectral norm.

    One softmax per alpha; the tail mass and the corrected Gershgorin bound
    (2 p_max t for the top entry) over a one-vector tail; the violations
    checked against ``norm``. Returns the CurvatureReport and p.
    """
    zv = np.asarray(z, dtype=np.float64)
    m = zv.size
    p = softmax_vec(alpha * zv)
    j_star = int(np.argmax(zv))
    if m == 1:
        delta, gap_applicable = 0.0, True
    else:
        top_two = np.sort(zv)[-2:]
        delta = float(top_two[1] - top_two[0])
        gap_applicable = delta > 0.0
    tail = np.delete(p, j_star)
    tail_mass = float(tail.sum())
    tail_bound = (m - 1) * math.exp(-alpha * delta)
    gersh = float(max([2.0 * p[j_star] * tail_mass] + [2.0 * x * (1.0 - x) for x in tail]))
    decay_bound = 2.0 * alpha * alpha * tail_bound
    violations = []
    slack = bound_slack * max(1.0, alpha * alpha)
    if norm > alpha * alpha * gersh + slack:
        violations.append("gershgorin")
    if gap_applicable:
        if tail_mass > tail_bound + bound_slack:
            violations.append("tail")
        if norm > decay_bound + slack:
            violations.append("decay")
    rep = CurvatureReport(
        alpha, norm, gersh, tail_mass, tail_bound, decay_bound, delta, gap_applicable,
        tuple(violations),
    )
    return rep, p


def _assert_matches_dense(rows, k, z, alpha):
    """Grid entry k's extreme eigenvalues against eigvalsh of the dense Hessian."""
    eigs = np.linalg.eigvalsh(attention_hessian(z, alpha))
    tol = DENSE_ULPS * EPS * alpha * alpha
    assert abs(rows.spectral_norm[k] - np.abs(eigs).max()) <= tol
    assert abs(rows.min_eigenvalue[k] - eigs[0]) <= tol


def _report_floats(rep):
    return (rep.spectral_norm, rep.gershgorin_bound, rep.tail_mass, rep.tail_bound,
            rep.decay_bound, rep.logit_gap)


def _report_bits(rep):
    return _bits((rep.alpha,) + _report_floats(rep)), rep.gap_applicable, rep.violations


def _reports(rows, alphas):
    """The per-alpha CurvatureReport of a CurvatureRows stack, its floats Python floats."""
    columns = zip(
        alphas,
        rows.spectral_norm.tolist(),
        rows.gershgorin_bound.tolist(),
        rows.tail_mass.tolist(),
        rows.tail_bound.tolist(),
        rows.decay_bound.tolist(),
        rows.violations,
    )
    return [
        CurvatureReport(alpha, norm, gersh, tail_mass, tail_bound, decay_bound,
                        rows.logit_gap, rows.gap_applicable, violations)
        for alpha, norm, gersh, tail_mass, tail_bound, decay_bound, violations in columns
    ]


@st.composite
def _curvature_grids(draw):
    """(z, alphas): some tied maxima, repeated alphas and alphas that underflow p."""
    m = draw(st.integers(1, 12))
    z = draw(arrays(np.float64, (m,), elements=logit_floats))
    if m > 1 and draw(st.booleans()):
        z[draw(st.integers(0, m - 1))] = z.max()  # tied maximum
    alphas = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6))
    alphas += draw(st.lists(st.sampled_from(alphas), max_size=2))  # repeats
    return z, alphas


@seed(13)
@settings(max_examples=200, deadline=None)
@given(case=_curvature_grids())
@example(case=(np.array([3.0]), [2.0]))
@example(case=(np.array([1.0, 1.0, 0.0]), [1.0, 2.0]))
@example(case=(np.array([30.0, 0.0, 0.0]), [2.0, 50.0, 50.0]))
def test_curvature_rows_match_one_alpha_reports_bit_for_bit(case):
    z, alphas = case
    rows = curvature_rows(z, alphas)
    reps = _reports(rows, alphas)
    assert len(reps) == len(alphas)
    for k, alpha in enumerate(alphas):
        ref, ref_p = _reference_curvature(z, alpha, float(rows.spectral_norm[k]))
        assert _report_bits(reps[k]) == _report_bits(ref)
        assert _report_bits(curvature_report(z, alpha)) == _report_bits(ref)
        assert _bits(rows.p[k]) == _bits(ref_p)
        _assert_matches_dense(rows, k, z, alpha)
        # Python floats, so the CSV writer takes its exact-type fast path.
        assert all(type(v) is float for v in _report_floats(reps[k]))


def test_curvature_rows_cover_underflow_and_ties():
    # alpha = 50 on a gap of 30 underflows every tail entry of p to 0.
    rows = curvature_rows(np.array([30.0, 0.0, 0.0]), [50.0])
    assert (rows.p[0, 1:] == 0.0).all()
    assert _reports(rows, [50.0])[0].tail_mass == 0.0
    tied = curvature_rows(np.array([1.0, 1.0, 0.0]), [1.0, 2.0])
    assert not tied.gap_applicable
    assert tied.violations == ((), ())


def test_curvature_two_logits_is_twice_their_product():
    # With t = p_2, the root of f is p_2 (1 + p_1 - p_2): exactly 2 p_1 p_2
    # when the rounded p sums to 1, and a rounding of p away from it otherwise.
    rng = np.random.default_rng(21)
    exact = 0
    for _ in range(400):
        z = rng.normal(scale=rng.choice([0.01, 1.0, 10.0, 100.0]), size=2)
        alpha = float(np.exp(rng.uniform(-5.0, 5.0)))
        rows = curvature_rows(z, [alpha])
        j = int(np.argmax(z))
        p1, p2 = rows.p[0, j], rows.p[0, 1 - j]
        want = alpha * alpha * (2.0 * p1 * p2)
        if Fraction(p1) + Fraction(p2) == 1:
            exact += 1
            assert rows.spectral_norm[0] == want
        else:
            assert abs(rows.spectral_norm[0] - want) <= 4 * np.spacing(want)
    assert exact >= 50


@pytest.mark.parametrize("m", [2, 3, 4, 17, 300, 4096])
@pytest.mark.parametrize("gap, alpha", [(0.5, 1.0), (7.0, 6.0), (30.0, 2.0)])
def test_curvature_one_top_over_equal_logits_closed_form(m, gap, alpha):
    # Equal tails make the secular equation a quadratic with the root
    # p_1 (t + t / (m - 1)). At gap 30, alpha 2 the tail is below an ulp of 1.
    z = np.zeros(m)
    z[m // 3] = gap
    rows = curvature_rows(z, [alpha])
    p1, t = rows.p[0, m // 3], rows.tail_mass[0]
    want = alpha * alpha * p1 * (t + t / (m - 1))
    assert rows.spectral_norm[0] == pytest.approx(want, rel=8 * EPS, abs=0.0)
    assert rows.violations == ((),)


@pytest.mark.parametrize(
    "z, alpha, norm, gersh",
    [
        ([30.0, 0.0], 2.0, 7.0052086101572162708e-26, 1.7513021525393040677e-26),
        ([10.0, 3.0, 3.0, 3.0], 6.0, 8.279312060582726093e-17, 3.4497133585761358721e-18),
    ],
)
def test_curvature_near_one_hot_matches_60_digit_values(z, alpha, norm, gersh):
    # 60-digit mpmath solves of the secular equation on the exact softmax.
    # p_max rounds to 1 on both rows, which made the dense Hessian 19 % and
    # 42 % low and its Gershgorin bound a third of the true one.
    rep = curvature_report(np.array(z), alpha)
    assert rep.spectral_norm == pytest.approx(norm, rel=4 * EPS, abs=0.0)
    assert rep.gershgorin_bound == pytest.approx(gersh, rel=4 * EPS, abs=0.0)
    assert rep.spectral_norm <= alpha * alpha * rep.gershgorin_bound
    assert rep.violations == ()


@st.composite
def _well_conditioned_cases(draw):
    """(z, alpha) with m <= 64 and alpha |z_i - z_j| <= 16, so t >= 1e-8."""
    m = draw(st.integers(2, 64))
    z = draw(arrays(np.float64, (m,), elements=st.floats(-2.0, 2.0)))
    if draw(st.booleans()):
        z[draw(st.integers(0, m - 1))] = z.max()  # tied maximum
    return z, draw(st.floats(1e-3, 4.0))


@seed(31)
@settings(max_examples=200, deadline=None)
@given(case=_well_conditioned_cases())
def test_curvature_matches_the_dense_oracle_within_ulps(case):
    z, alpha = case
    rows = curvature_rows(z, [alpha])
    assert rows.tail_mass[0] >= 1e-8
    _assert_matches_dense(rows, 0, z, alpha)


def test_curvature_tied_maximum_is_the_top_probability():
    # A tie p_(2) = p_max closes the bracket: e_1 - e_2 is an eigenvector with
    # eigenvalue p_max, and no eigenvalue of diag(p) - p p^T exceeds max(p).
    z = np.array([1.0, 1.0, 0.0, -2.0])
    rows = curvature_rows(z, [0.5, 2.0, 40.0])
    want = np.array([0.5, 2.0, 40.0]) ** 2 * rows.p[:, 0]
    np.testing.assert_allclose(rows.spectral_norm, want, rtol=2 * EPS, atol=0.0)
    for k, alpha in enumerate((0.5, 2.0, 40.0)):
        _assert_matches_dense(rows, k, z, alpha)


def test_curvature_long_vector_matches_its_deflated_oracle():
    # 4,096 logits in four distinct values. Equal entries deflate, so the top
    # eigenvalue is that of diag(d) - u u^T with one entry d_g = p_g per value
    # and u_g = sqrt(c_g) p_g, where c_g counts the value's entries.
    values = np.array([5.0, 4.0, 3.0, 0.0])
    counts = np.array([1, 1000, 1000, 2095])
    z = np.random.default_rng(3).permutation(np.repeat(values, counts))
    alphas = [0.5, 2.0, 8.0]
    rows = curvature_rows(z, alphas)
    for k, alpha in enumerate(alphas):
        d = np.array([rows.p[k][z == v][0] for v in values])
        u = np.sqrt(counts) * d
        want = alpha * alpha * np.abs(np.linalg.eigvalsh(np.diag(d) - np.outer(u, u))).max()
        assert abs(rows.spectral_norm[k] - want) <= DENSE_ULPS * EPS * alpha * alpha
    assert rows.violations == ((), (), ())


@pytest.mark.parametrize("z", [np.array([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0])])
def test_curvature_rows_violations_match_the_loop_form(monkeypatch, z):
    # The bounds hold on real inputs, so a negative slack makes the checks
    # fire and exercises the violation path: which bounds, in which order.
    monkeypatch.setattr(analysis, "_BOUND_SLACK", -1.0)
    alphas = [0.1, 1.0, 5.0, 50.0]
    rows = curvature_rows(z, alphas)
    expected = [
        _reference_curvature(z, a, float(norm), bound_slack=-1.0)[0].violations
        for a, norm in zip(alphas, rows.spectral_norm)
    ]
    assert list(rows.violations) == expected
    assert [r.violations for r in _reports(rows, alphas)] == expected
    if rows.gap_applicable:
        assert ("gershgorin", "decay") in expected
        assert ("gershgorin", "tail", "decay") in expected
    else:
        assert set(expected) == {("gershgorin",)}


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("alphas", [(0.0,), (1.0, -2.0), (1.0, 0.0, 3.0), (-1e-300,)])
def test_curvature_rows_reject_nonpositive_alpha_as_the_scalar_path(alphas):
    z = np.array([1.0, 0.0])
    bad = next(a for a in alphas if a <= 0)
    msg = _error(curvature_rows, z, alphas)
    assert msg == _error(curvature_report, z, bad)
    assert msg.startswith("alpha must be positive")


@pytest.mark.parametrize(
    "z", [np.array([1.0, math.nan]), np.array([math.inf, 0.0]), np.array([]), np.zeros((2, 2))]
)
def test_curvature_rows_reject_bad_logits_as_the_scalar_path(z):
    assert _error(curvature_rows, z, [1.0, 2.0]) == _error(curvature_report, z, 1.0)


@pytest.mark.parametrize("z, alpha", [([3.0, 1.0], 1e308), ([1e308, 0.0], 2.0)])
def test_an_alpha_that_overflows_finite_logits_is_named(z, alpha):
    # alpha z leaves the float64 range: the error names alpha, not the logits,
    # and no numpy overflow warning is printed (tier-1 turns warnings into errors).
    def message(largest):
        return f"^{re.escape(f'alpha must keep the tempered logits finite, got {largest!r}')}$"

    with pytest.raises(ValueError, match=message(alpha)):
        curvature_rows(np.array(z), [1.0, alpha])
    # The report's largest probe is alpha + h.
    with pytest.raises(ValueError, match=message(alpha + analysis.DEFAULT_FD_STEP)):
        entropy_alpha_report(np.array(z), (0, 1), alpha)


def test_an_alpha_whose_square_overflows_is_named():
    # alpha z is finite, so the tempered softmax is, but alpha^2 is not: the
    # norm and decay bound would be NaN. No numpy warning is printed either.
    message = "alpha must keep the curvature and its decay bound finite, got 1e+160"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        curvature_rows(np.array([3.0, 0.0]), [1e160])


def test_curvature_rows_reject_empty_grid():
    with pytest.raises(ValueError, match="alpha grid must be nonempty"):
        curvature_rows(np.array([1.0, 0.0]), [])


@st.composite
def _distribution_rows(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    entries = st.one_of(st.just(0.0), st.floats(1e-300, 1.0))
    raw = draw(arrays(np.float64, (n, m), elements=entries))
    raw[:, 0] += 1e-3  # every row has positive mass
    return raw / raw.sum(axis=1, keepdims=True)


@seed(14)
@settings(max_examples=150, deadline=None)
@given(q=_distribution_rows())
def test_row_entropies_match_entropy_bit_for_bit(q):
    assert _bits(_row_entropies(q)) == _bits([entropy(row) for row in q])


def test_row_entropies_reject_what_entropy_rejects():
    q = np.array([[0.5, 0.5], [0.5, 0.6], [0.2, 0.2]])
    assert _error(_row_entropies, q) == _error(entropy, q[1])


# -- output sensitivity --------------------------------------------------------


def test_lipschitz_frozen_case():
    z = np.array([1.0, 0.0])
    v = np.eye(2)
    rep = lipschitz_report(z, v, 1.0, 2.0)
    # y(alpha) = (sigma(alpha), 1 - sigma(alpha)); deviation = sqrt(2) |sigma(2)-sigma(1)|
    s1 = 1.0 / (1.0 + math.exp(-1.0))
    s2 = 1.0 / (1.0 + math.exp(-2.0))
    assert rep.deviation == pytest.approx(math.sqrt(2.0) * (s2 - s1), abs=1e-12)
    assert rep.bound == pytest.approx(0.5 * 1.0 * 1.0 * 1.0, abs=1e-12)
    assert rep.margin > 0


def test_lipschitz_bound_holds_randomized():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(2, 10))
        z = rng.normal(scale=2.0, size=m)
        v = rng.normal(size=(m, int(rng.integers(1, 6))))
        a1, a2 = rng.uniform(0.2, 4.0, size=2)
        rep = lipschitz_report(z, v, float(a1), float(a2))
        assert rep.margin >= -1e-12


def test_lipschitz_identical_alphas_zero_deviation():
    rep = lipschitz_report(np.array([1.0, -1.0]), np.ones((2, 2)), 1.5, 1.5)
    assert rep.deviation == 0.0
    assert rep.bound == 0.0


def test_lipschitz_validation():
    with pytest.raises(ValueError, match="V rows"):
        lipschitz_report(np.array([1.0, 0.0]), np.ones((3, 2)), 1.0, 2.0)
    with pytest.raises(ValueError, match="alpha2"):
        lipschitz_report(np.array([1.0, 0.0]), np.ones((2, 2)), 1.0, -2.0)


# -- group masses ---------------------------------------------------------------


def test_group_mass_report_basic():
    part = build_partition(1, 2, 2)
    rep = group_mass_report([0.1, 0.2, 0.3, 0.25, 0.15], part)
    assert rep.mass_text == pytest.approx(0.1)
    assert rep.mass_image == pytest.approx(0.5)
    assert rep.mass_video == pytest.approx(0.4)
    # conditioning = (0.1, 0.2, 0.3) / 0.6
    expected = entropy(np.array([0.1, 0.2, 0.3]) / 0.6)
    assert rep.entropy_cond == pytest.approx(expected, abs=1e-12)


def test_group_mass_cond_entropy_frozen():
    # conditioning = (0.2, 0.3) renormalized to (0.4, 0.6): H = 0.673012 nats
    part = build_partition(1, 1, 1)
    rep = group_mass_report([0.2, 0.3, 0.5], part)
    assert rep.entropy_cond == pytest.approx(0.6730116670092565, abs=1e-13)


def test_group_mass_degenerate_cases_nan():
    # zero conditioning mass
    part = build_partition(1, 1, 2)
    rep = group_mass_report([0.0, 0.0, 0.6, 0.4], part)
    assert math.isnan(rep.entropy_cond)
    # empty conditioning set
    part2 = build_partition(0, 0, 3)
    rep2 = group_mass_report([0.2, 0.3, 0.5], part2)
    assert math.isnan(rep2.entropy_cond)
    assert rep2.mass_text == 0.0


def test_group_mass_validation():
    part = build_partition(1, 1, 1)
    with pytest.raises(ValueError, match="partition size"):
        group_mass_report([0.5, 0.5], part)
    with pytest.raises(ValueError, match="negative"):
        group_mass_report([-0.1, 0.6, 0.5], part)


def _reference_row(pv, part):
    """The per-row statistics written out with 1-D sums and entropy()."""

    def mass(idx):
        return float(pv[list(idx)].sum()) if idx else 0.0

    cond = part.conditioning
    cond_mass = mass(cond)
    h = math.nan if not cond or cond_mass <= 0.0 else entropy(pv[list(cond)] / cond_mass)
    return (mass(part.text), mass(part.image), mass(part.video), h)


def _bits(values):
    return [float(x).hex() for x in values]


@st.composite
def _stacks(draw):
    """(p, partition): nonnegative rows, some with exact zeros or zero conditioning
    mass, over a [text | image | video] partition whose groups may be empty."""
    n_cond = draw(st.integers(0, 16))
    n_text = draw(st.integers(0, n_cond))
    n_video = draw(st.integers(0 if n_cond else 1, 6))
    part = build_partition(n_text, n_cond - n_text, n_video)
    n_rows = draw(st.integers(1, 12))
    entries = st.one_of(st.just(0.0), st.floats(1e-300, 1e3), st.floats(0.0, 1.0))
    p = draw(arrays(np.float64, (n_rows, part.size), elements=entries))
    for i in draw(st.lists(st.integers(0, n_rows - 1), max_size=3)):
        p[i, list(part.conditioning)] = 0.0
    return p, part


@seed(11)
@settings(max_examples=300, deadline=None)
@given(case=_stacks())
def test_group_mass_rows_match_row_reports_bit_for_bit(case):
    p, part = case
    rows = group_mass_rows(p, part)
    for i in range(p.shape[0]):
        got = (rows.mass_text[i], rows.mass_image[i], rows.mass_video[i], rows.entropy_cond[i])
        rep = group_mass_report(p[i], part)
        assert _bits(got) == _bits(_reference_row(p[i], part))
        assert _bits(got) == _bits(
            (rep.mass_text, rep.mass_image, rep.mass_video, rep.entropy_cond)
        )


def test_group_mass_rows_of_contiguous_partitions_take_every_path():
    dense = row_softmax(np.random.default_rng(3).normal(size=(4, 7)))
    gapped = dense.copy()
    gapped[1, [0, 3]] = 0.0  # exact zeros inside the conditioning block
    massless = dense.copy()
    massless[2, :5] = 0.0  # no conditioning mass
    # dense takes both all-positive paths; gapped the zero-count pass; massless
    # the mask. The second partition's text group is empty.
    for part in (build_partition(2, 3, 2), build_partition(0, 5, 2)):
        for p in (dense, gapped, massless):
            rows = group_mass_rows(p, part)
            for i in range(p.shape[0]):
                got = (rows.mass_text[i], rows.mass_image[i], rows.mass_video[i], rows.entropy_cond[i])
                rep = group_mass_report(p[i], part)
                assert _bits(got) == _bits(_reference_row(p[i], part))
                assert _bits(got) == _bits(
                    (rep.mass_text, rep.mass_image, rep.mass_video, rep.entropy_cond)
                )
        assert math.isnan(group_mass_rows(massless, part).entropy_cond[2])


@seed(12)
@settings(max_examples=100, deadline=None)
@given(
    case=_stacks(),
    bad=st.sampled_from([-1e-3, -5e-324, math.nan, math.inf, -math.inf]),
    data=st.data(),
)
def test_group_mass_rows_reject_what_row_reports_reject(case, bad, data):
    p, part = case
    i = data.draw(st.integers(0, p.shape[0] - 1))
    j = data.draw(st.integers(0, part.size - 1))
    p[i, j] = bad
    with pytest.raises(ValueError, match="negative|non-finite"):
        group_mass_rows(p, part)
    with pytest.raises(ValueError, match="negative|non-finite"):
        group_mass_report(p[i], part)


def test_group_mass_rows_validation():
    part = build_partition(1, 1, 1)
    with pytest.raises(ValueError, match="partition size"):
        group_mass_rows(np.full((2, 2), 0.5), part)
    with pytest.raises(ValueError, match="2-D"):
        group_mass_rows([0.2, 0.3, 0.5], part)
    # A row whose renormalized conditioning block cannot sum to 1 is named
    # by its sum, as entropy() names it.
    huge = np.array([[1e308, 1e308, 0.0]])
    with np.errstate(over="ignore"):  # the conditioning mass overflows to inf
        with pytest.raises(ValueError, match="sum is 0.0, not 1"):
            group_mass_rows(huge, part)
        with pytest.raises(ValueError, match="sum is 0.0, not 1"):
            group_mass_report(huge[0], part)


# -- flops --------------------------------------------------------------------


def test_flops_overhead_values():
    assert flops_overhead(4, 8, 8, 25) == pytest.approx(0.16)
    assert flops_overhead(0, 8, 8, 25) == 0.0
    assert flops_overhead(8, 8, 25, 25) == 1.0


def test_flops_overhead_validation():
    with pytest.raises(ValueError, match="totals"):
        flops_overhead(1, 0, 1, 25)
    with pytest.raises(ValueError, match="scaled_blocks"):
        flops_overhead(9, 8, 8, 25)
    with pytest.raises(ValueError, match="scaled_steps"):
        flops_overhead(4, 8, 26, 25)
