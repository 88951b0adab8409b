import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attnlab.numerics import (
    as_matrix,
    as_vector,
    eigvalsh_sym,
    pca_top_k,
    row_softmax,
    sample_gaussian,
    softmax_vec,
    spectral_norm,
    spectral_norm_sym,
    spectral_norms,
)

# Frozen oracle values, computed by hand from the definitions:
# softmax([2,1,0]) = e^{z-2} / sum = (e^0, e^-1, e^-2)/(1+e^-1+e^-2)
SOFTMAX_210 = (0.66524096, 0.24472847, 0.09003057)

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@pytest.mark.parametrize("entries, finite", [
    ([1.0, -2.0, 0.5], True),
    ([1.0, math.nan, 0.5], False),
    ([1.0, math.inf, 0.5], False),
    ([1.0, -math.inf, 0.5], False),
    ([math.inf, -math.inf, 0.5], False),
    ([1e200, -1e200, 1e200], True),  # the sum of squares overflows
])
@pytest.mark.parametrize("check, shape", [(as_vector, (3,)), (as_matrix, (1, 3)),
                                          (as_matrix, (3, 1))])
def test_finiteness_check_raises_exactly_on_a_non_finite_entry(entries, finite, check, shape):
    # Tier-1 turns warnings into errors, so the 1e200 case also pins that the
    # check prints no numpy overflow warning.
    a = np.reshape(entries, shape)
    if finite:
        np.testing.assert_array_equal(check(a), a)
    else:
        name = "vector" if check is as_vector else "matrix"
        with pytest.raises(ValueError, match=f"^non-finite {name}$"):
            check(a)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_as_matrix_accepts_an_empty_matrix(shape):
    assert as_matrix(np.zeros(shape)).shape == shape


def test_row_softmax_frozen_values():
    p = row_softmax([[2.0, 1.0, 0.0]])
    np.testing.assert_allclose(p[0], SOFTMAX_210, atol=1e-8)


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    z = rng.normal(scale=5.0, size=(40, 9))
    p = row_softmax(z)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p >= 0).all()


def test_row_softmax_extreme_logits_stable():
    p = row_softmax([[700.0, 0.0, -700.0], [-1000.0, -1000.0, -1000.0]])
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(p[1], [1 / 3] * 3, atol=1e-15)


@seed(1)
@settings(max_examples=60, deadline=None)
@given(
    z=arrays(np.float64, (3, 5), elements=finite_floats),
    c=st.floats(min_value=-100.0, max_value=100.0),
)
def test_row_softmax_shift_invariance(z, c):
    # softmax(z + c) == softmax(z): the shift cancels in the normalization
    np.testing.assert_allclose(row_softmax(z + c), row_softmax(z), atol=1e-12)


def test_row_softmax_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite logits"):
        row_softmax([[1.0, np.nan]])
    with pytest.raises(ValueError, match="non-finite logits"):
        row_softmax([[1.0, np.inf]])


def test_row_softmax_rejects_wrong_rank():
    with pytest.raises(ValueError, match="2-D"):
        row_softmax([1.0, 2.0])


def test_softmax_vec_matches_row_version():
    z = np.array([0.3, -1.2, 4.0, 0.0])
    np.testing.assert_allclose(softmax_vec(z), row_softmax(z[None, :])[0], atol=1e-15)


# -- spectral norms ---------------------------------------------------------


def _eig_2x2_sym(a, b, c):
    # closed-form eigenvalues of [[a, b], [b, c]]
    mean = (a + c) / 2.0
    rad = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return mean - rad, mean + rad


def _charpoly_norm_3x3(m):
    # roots of det(M - x I) via the characteristic polynomial; an eigh-free oracle
    tr = np.trace(m)
    minors = (
        m[1, 1] * m[2, 2]
        - m[1, 2] * m[2, 1]
        + m[0, 0] * m[2, 2]
        - m[0, 2] * m[2, 0]
        + m[0, 0] * m[1, 1]
        - m[0, 1] * m[1, 0]
    )
    det = np.linalg.det(m)
    roots = np.roots([1.0, -tr, minors, -det])
    return float(np.abs(roots.real).max())


@seed(2)
@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-10, 10),
    b=st.floats(-10, 10),
    c=st.floats(-10, 10),
)
def test_spectral_norm_sym_2x2_closed_form(a, b, c):
    m = np.array([[a, b], [b, c]])
    lo, hi = _eig_2x2_sym(a, b, c)
    expected = max(abs(lo), abs(hi))
    assert spectral_norm_sym(m) == pytest.approx(expected, abs=1e-9, rel=1e-9)


def test_spectral_norm_sym_3x3_charpoly_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.normal(size=(3, 3))
        m = (m + m.T) / 2.0
        assert spectral_norm_sym(m) == pytest.approx(_charpoly_norm_3x3(m), rel=1e-8)


def test_spectral_norm_zero_matrix():
    assert spectral_norm_sym(np.zeros((3, 3))) == 0.0


def test_spectral_norm_sym_rejects_asymmetry():
    m = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        spectral_norm_sym(m)
    # within tolerance is fine
    spectral_norm_sym(np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]]))


def test_spectral_norm_sym_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        spectral_norm_sym(np.ones((2, 3)))


def test_eigvalsh_sym_stack_matches_one_matrix_solves():
    rng = np.random.default_rng(21)
    for n in (1, 2, 5, 9):
        a = rng.normal(size=(4, n, n))
        stack = a + np.swapaxes(a, -1, -2)  # exactly symmetric
        got = eigvalsh_sym(stack)
        assert got.shape == (4, n)
        for k in range(4):
            assert got[k].tolist() == eigvalsh_sym(stack[k]).tolist()
            assert got[k].tolist() == np.linalg.eigvalsh(stack[k]).tolist()
            assert float(np.abs(got[k]).max()) == spectral_norm_sym(stack[k])


def test_eigvalsh_sym_checks_every_matrix_of_a_stack():
    stack = np.zeros((3, 2, 2))
    stack[2, 0, 1] = 1e-6  # only the last matrix is asymmetric
    with pytest.raises(ValueError, match="not symmetric"):
        eigvalsh_sym(stack)
    with pytest.raises(ValueError, match="square"):
        eigvalsh_sym(np.zeros((3, 2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        eigvalsh_sym(np.full((2, 2, 2), np.nan))
    with pytest.raises(ValueError, match="empty"):
        eigvalsh_sym(np.zeros((0, 2, 2)))
    with pytest.raises(ValueError, match="at least 2-D"):
        eigvalsh_sym(np.zeros(3))


@pytest.mark.parametrize("shape", [(3, 1, 1), (4, 6, 2), (4, 2, 6), (4, 5, 5), (2, 9, 4), (3, 1, 7)])
def test_spectral_norms_match_one_matrix_norms_bit_for_bit(shape):
    # Tall, wide, square and 1x1 matrices, each stack spanning 1e-150 to 1e150.
    rng = np.random.default_rng(shape[1] * 10 + shape[2])
    for magnitudes in ([1e-150] * 4, [1.0] * 4, [1e150] * 4, [1e-150, 1e-3, 1e40, 1e150]):
        stack = rng.normal(size=shape) * np.array(magnitudes[: shape[0]])[:, None, None]
        got = spectral_norms(stack)
        assert got.shape == shape[:1]
        assert [x.hex() for x in got.tolist()] == [spectral_norm(m).hex() for m in stack]


def test_spectral_norms_reject_what_spectral_norm_rejects():
    for bad in (math.nan, math.inf, -math.inf):
        stack = np.ones((2, 3, 2))
        stack[1, 2, 0] = bad
        for call in (lambda: spectral_norms(stack), lambda: spectral_norm(stack[1])):
            with pytest.raises(ValueError, match="^non-finite matrix$"):
                call()
    huge = np.full((2, 3, 2), 1e200)  # finite, but the Gram products overflow
    with np.errstate(over="ignore"):
        for call in (lambda: spectral_norms(huge), lambda: spectral_norm(huge[0])):
            with pytest.raises(ValueError, match="^non-finite matrix$"):
                call()
    for shape in ((2, 0, 3), (2, 3, 0), (0, 2, 2)):
        with pytest.raises(ValueError, match="^empty matrix$"):
            spectral_norms(np.ones(shape))
    for shape in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="^empty matrix$"):
            spectral_norm(np.ones(shape))
    for shape in ((2, 2), (2,), (1, 2, 2, 2)):
        with pytest.raises(ValueError, match=f"^matrix stack must be 3-D, got {len(shape)}-D$"):
            spectral_norms(np.ones(shape))


def test_spectral_norm_general_matches_svd():
    rng = np.random.default_rng(13)
    for shape in ((4, 2), (2, 4), (5, 5)):
        m = rng.normal(size=shape)
        assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-10)


# -- PCA --------------------------------------------------------------------


def test_pca_line_case_known_direction():
    # points along (1, 1): the single component must be (1/sqrt2, 1/sqrt2)
    t = np.linspace(-2, 2, 9)
    x = np.stack([t, t], axis=1)
    comps, proj = pca_top_k(x, 1)
    np.testing.assert_allclose(np.abs(comps[0]), [np.sqrt(0.5)] * 2, atol=1e-12)
    assert comps[0][np.argmax(np.abs(comps[0]))] > 0
    np.testing.assert_allclose(proj[:, 0] ** 2, 2 * t**2, atol=1e-12)


def test_pca_components_orthonormal():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(30, 6))
    comps, proj = pca_top_k(x, 4)
    np.testing.assert_allclose(comps @ comps.T, np.eye(4), atol=1e-10)
    assert proj.shape == (30, 4)


def test_pca_variance_ordering():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(60, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
    _, proj = pca_top_k(x, 5)
    variances = proj.var(axis=0)
    assert all(variances[i] >= variances[i + 1] - 1e-12 for i in range(4))


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(20, 4))
    comps1, _ = pca_top_k(x, 3)
    comps2, _ = pca_top_k(x.copy(), 3)
    np.testing.assert_array_equal(comps1, comps2)
    for row in comps1:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_degenerate_covariance():
    x = np.full((10, 4), 3.7)
    with pytest.raises(ValueError, match="degenerate covariance"):
        pca_top_k(x, 2)


def test_pca_k_out_of_range():
    x = np.random.default_rng(0).normal(size=(5, 3))
    with pytest.raises(ValueError, match="out of range"):
        pca_top_k(x, 4)
    with pytest.raises(ValueError, match="out of range"):
        pca_top_k(x, 0)


# -- seeded sampling --------------------------------------------------------


def test_sample_gaussian_deterministic():
    a = sample_gaussian((4, 5), seed=42)
    b = sample_gaussian((4, 5), seed=42)
    np.testing.assert_array_equal(a, b)
    c = sample_gaussian((4, 5), seed=43)
    assert not np.array_equal(a, c)


def test_sample_gaussian_standard_moments():
    x = sample_gaussian(200_000, seed=1)
    assert x.mean() == pytest.approx(0.0, abs=0.02)
    assert x.std() == pytest.approx(1.0, abs=0.02)
