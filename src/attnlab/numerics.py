"""Dense float64 numeric kernels: softmax, spectral norms, PCA, seeded sampling.

The symmetric eigensolve and the general spectral norm each have a stack
form: :func:`eigvalsh_sym` takes a (..., n, n) stack, and
:func:`spectral_norms` an (L, r, c) stack, equal matrix by matrix, bit for
bit, to the one-matrix :func:`spectral_norm`.

Every function is pure: output depends only on the arguments. Randomness is
confined to :func:`sample_gaussian`, which derives a fresh generator from the
caller's seed on every call, so identical seeds give bit-identical streams.
All arrays are coerced to float64 on entry.
"""

from __future__ import annotations

import math

import numpy as np

SYMMETRY_TOLERANCE = 1e-10


def _check_count(name: str, n, least: int = 1, most: int | None = None) -> int:
    """``n`` as an ``int``: every size and index is a Python or numpy int, not a
    bool, in ``least..most`` (``most`` None: no upper bound), else ``ValueError``
    naming it. An exact int takes the first test."""
    if type(n) is int and least <= n and (most is None or n <= most):
        return n
    if isinstance(n, np.integer) and least <= n and (most is None or n <= most):
        return int(n)
    bound = f">= {least}" if most is None else f"in {least}..{most}"
    raise ValueError(f"{name} must be an integer {bound}, got {n!r}")


def _check_positive_finite(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _all_finite(a: np.ndarray) -> bool:
    # The sum of squares is NaN or inf when an entry is, or when the squares
    # overflow; only then is each entry tested. vdot prints no overflow warning.
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array or raise ``ValueError``."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {m.ndim}-D")
    if not _all_finite(m):
        raise ValueError(f"non-finite {name}")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a nonempty finite 1-D float64 array or raise ``ValueError``."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got {v.ndim}-D")
    if v.size == 0:
        raise ValueError(f"empty {name}")
    if not _all_finite(v):
        raise ValueError(f"non-finite {name}")
    return v


def row_softmax(z) -> np.ndarray:
    """Row-wise softmax computed with max-shifted exponentials.

    Subtracting the row maximum keeps every exponent nonpositive, so the
    computation never overflows and each row sums to 1 within 1e-12 even for
    logits in the hundreds. The checks run here; the arithmetic is
    :func:`_row_softmax`, which callers that have tested their logits use.
    """
    zm = as_matrix(z, "logits")
    if zm.shape[1] == 0:
        raise ValueError("logits must have at least one column")
    return _row_softmax(zm)


def _row_softmax(zm):
    """:func:`row_softmax` of finite float64 (n, m) logits, m >= 1, without its checks."""
    e = np.exp(zm - np.maximum.reduce(zm, axis=1, keepdims=True))
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _max_scaled(f, a) -> float:
    """``f(a)`` for a reduction ``f`` that scales with its argument, such as a
    mean or a norm; when that is not finite although ``a`` is (its sum
    overflowed), ``s * f(a / s)`` with ``s = max |a|``. The rescaled form runs
    only then. Callers silence numpy's warnings."""
    y = float(f(a))
    if math.isfinite(y):
        return y
    s = np.abs(a).max()
    return float(s * f(a / s))


def softmax_vec(z) -> np.ndarray:
    """Max-shifted softmax of a single logit vector: the one-row case of
    :func:`row_softmax`, after the vector checks of :func:`as_vector`."""
    return row_softmax(as_vector(z, "logits")[None, :])[0]


def eigvalsh_sym(a) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each matrix in a stack.

    ``a`` is one n x n matrix or a nonempty (..., n, n) stack; the result has
    shape (..., n). Every matrix must be square, nonempty and finite, and depart
    from symmetry by at most ``SYMMETRY_TOLERANCE`` in any entry, else
    ``ValueError``. Each matrix is solved as (A + A^T) / 2, which is A itself
    when A is exactly symmetric, so a matrix's eigenvalues do not depend on
    whether it is solved alone or in a stack.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim < 2:
        raise ValueError(f"matrix must be at least 2-D, got {m.ndim}-D")
    if not _all_finite(m):
        raise ValueError("non-finite matrix")
    n, c = m.shape[-2:]
    if n != c:
        raise ValueError(f"matrix must be square, got {n}x{c}")
    if m.size == 0:
        raise ValueError("empty matrix")
    mt = np.swapaxes(m, -1, -2)
    if np.abs(m - mt).max() > SYMMETRY_TOLERANCE:
        raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh((m + mt) / 2.0)


def spectral_norm_sym(a) -> float:
    """Largest absolute eigenvalue of a symmetric matrix: the one-matrix case
    of :func:`eigvalsh_sym`, whose checks it keeps.

    Raises ``ValueError`` if the input is not a finite square 2-D matrix or
    departs from symmetry by more than ``SYMMETRY_TOLERANCE`` in any entry.
    """
    return float(np.abs(eigvalsh_sym(as_matrix(a, "matrix"))).max())


def spectral_norm(a) -> float:
    """Largest singular value of a general matrix, via the Gram-matrix route."""
    m = as_matrix(a, "matrix")
    if m.size == 0:
        raise ValueError("empty matrix")
    g = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    return float(np.sqrt(max(spectral_norm_sym(g), 0.0)))


def spectral_norms(a) -> np.ndarray:
    """Largest singular value of each matrix in an (L, r, c) stack, in one solve.

    Entry l equals ``spectral_norm(a[l])`` bit for bit: each Gram product is
    formed as in the one-matrix route and the stack goes through
    :func:`eigvalsh_sym`, which solves a matrix alike alone or in a stack.
    Anything but a 3-D stack raises ``ValueError``. ``eigvalsh_sym`` makes the
    other checks, with ``spectral_norm``'s messages: a non-finite entry makes
    its Gram diagonal non-finite ("non-finite matrix"), as does a Gram product
    that overflows, and an empty stack has an empty Gram stack ("empty matrix").
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 3:
        raise ValueError(f"matrix stack must be 3-D, got {m.ndim}-D")
    mt = np.swapaxes(m, 1, 2)
    g = mt @ m if m.shape[1] >= m.shape[2] else m @ mt
    return np.sqrt(np.abs(eigvalsh_sym(g)).max(axis=1))


def pca_top_k(x, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` principal components of row-sample data ``x`` (n_samples x n_features).

    Centers the data (no variance scaling), eigendecomposes the sample
    covariance, and returns ``(components, projections)`` where ``components``
    is k x n_features with orthonormal rows ordered by decreasing eigenvalue
    and ``projections`` is n_samples x k. Sign convention: each component's
    largest-magnitude entry is positive, which makes the decomposition
    deterministic. ``k`` is an int in 1..min(n_samples, n_features); see
    :func:`_check_count`. Zero-variance data raises ``ValueError('degenerate
    covariance')``.
    """
    xm = as_matrix(x, "data")
    n, f = xm.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    k = _check_count("k", k, 1, min(n, f))
    centered = xm - xm.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    total_var = float(np.trace(cov))
    scale = max(1.0, float(np.abs(xm).max()))
    if total_var <= (1e-12 * scale) ** 2:
        raise ValueError("degenerate covariance")
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    components = evecs[:, order].T.copy()
    for i in range(k):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    projections = centered @ components.T
    return components, projections


def sample_gaussian(shape, seed: int) -> np.ndarray:
    """Seeded standard normal draws of the given shape.

    A fresh PCG64 generator is built from ``seed`` on every call; the caller
    owns the seed and equal seeds yield bit-identical arrays.
    """
    return np.random.default_rng(seed).normal(size=shape)
