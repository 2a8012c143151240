"""Small Hermitian-matrix utilities shared across the estimators.

All covariance-like objects in this package are Hermitian positive
semidefinite numpy arrays (real symmetric matrices are the special case
of real dtype).  The helpers here keep the real-part bookkeeping in one
place so the estimation code can stay close to the math.

Validation and trace products run on every selection call, so at large
N each is a single pass over its operands that allocates no N x N
temporary: :func:`require_hermitian` walks row tiles of the upper
triangle (one tile up to N = 128) and :func:`real_trace_product` is one
contiguous inner product.  They and :func:`frobenius_norm_sq` reduce in
numpy without BLAS, so do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "real_trace_product",
    "frobenius_norm_sq",
    "outer_product",
    "is_psd",
    "hermitize",
    "require_hermitian",
    "validate_samples",
]


def real_trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Return Re <a, b>_F = Re sum_ij conj(a_ij) b_ij, the real Frobenius product.

    When either operand is Hermitian this equals Re tr(a @ b), since
    tr(a b) = sum_ij a_ji b_ij; that is how the estimation code uses it,
    and nothing here checks it.  The sum pairs entries by position, so
    both operands must be square of the same shape.  It is one pass in
    memory order with no temporary for C-contiguous operands, and it is
    computed by ``np.einsum`` rather than BLAS, so its summation order
    does not depend on the BLAS thread count.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"trace of mismatched shapes {a.shape} and {b.shape}; "
                         "expected square operands of equal shape")
    if np.iscomplexobj(a) and np.iscomplexobj(b):
        # Re(conj(x) y) = Re x Re y + Im x Im y: pair the interleaved parts
        a = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
        b = np.ascontiguousarray(b, dtype=np.complex128).view(np.float64)
    else:
        a, b = a.real, b.real
    return float(np.einsum("ij,ij->", a, b))


def frobenius_norm_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm sum |a_ij|^2 of any shape, reduced by einsum."""
    a = np.ravel(a, order="K")  # a view of any contiguous input
    if np.iscomplexobj(a):
        a = a.astype(np.complex128, copy=False).view(np.float64)
    return float(np.einsum("i,i->", a, a))


def outer_product(y: np.ndarray) -> np.ndarray:
    """Rank-one Hermitian outer product y y^H of a single sample."""
    y = np.asarray(y)
    return np.outer(y, y.conj())


def is_psd(a: np.ndarray, tol: float = 1e-8) -> bool:
    """Check positive semidefiniteness via the smallest eigenvalue.

    The tolerance is relative to the largest eigenvalue magnitude, so
    tiny negative eigenvalues produced by rounding do not fail the check
    and the decision does not depend on the scale of ``a``.
    """
    return _psd_spectrum(np.linalg.eigvalsh(hermitize(np.asarray(a))), tol)


def _psd_spectrum(w, tol: float = 1e-8) -> bool:
    """The PSD rule of :func:`is_psd` on ascending Hermitian eigenvalues."""
    return bool(w[0] >= -tol * max(-w[0], w[-1])) if len(w) else True


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^H) / 2."""
    a = np.asarray(a)
    return 0.5 * (a + a.conj().T)


# Tiles of the Hermitian check hold about _TILE_ELEMENTS entries and at
# least _TILE_ROWS rows: up to N = 128 one tile is the whole matrix, as in
# the dense formula, and at large N the temporaries stay O(N * _TILE_ROWS).
_TILE_ROWS = 32
_TILE_ELEMENTS = 16384


def _tile_rows(n: int) -> int:
    """Rows per tile of :func:`require_hermitian` for an n x n matrix."""
    return max(_TILE_ROWS, _TILE_ELEMENTS // max(n, 1))


def require_hermitian(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate that ``a`` is square, finite and Hermitian within ``tol``.

    The test is max|a - a^H| <= tol * max(1, max|a|).  Both maxima are
    taken in one pass over row tiles of the upper triangle: rows
    i:i+tile against columns i:i+tile read as their conjugate
    transpose, which covers every pair (p, q), and the peak is taken over
    the row tile and the column entries below it, which covers every
    entry.  A max does not depend on the order it is taken in, and
    |a_pq - conj(a_qp)| equals |a_qp - conj(a_pq)| bit for bit, so the
    decision and the reported deviation are those of the dense formula.
    A NaN or infinite entry makes a block's peak non-finite and is
    rejected.

    Returns ``a`` unchanged so the call can be chained.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    tile = _tile_rows(n)
    dev = peak = 0.0
    for i in range(0, n, tile):
        rows = a[i:i + tile, i:]
        cols = a[i:, i:i + tile]
        for block in (rows, cols[tile:]):
            if block.size:
                block_peak = np.abs(block).max()
                if not math.isfinite(block_peak):
                    raise ValueError("matrix is non-finite "
                                     "(NaN or infinite entries)")
                peak = max(peak, block_peak)
        dev = max(dev, np.abs(rows - cols.T.conj()).max())
    if dev > tol * max(1.0, peak):
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return a


def validate_samples(y: np.ndarray, min_count: int = 1,
                     name: str = "samples") -> np.ndarray:
    """Validate an N x T sample block: 2-d, N >= 1, finite, min_count columns."""
    y = np.asarray(y)
    if y.ndim != 2:
        raise ValueError(f"{name} must be a 2-d (N, T) array, got ndim {y.ndim}")
    if y.shape[0] == 0:
        raise ValueError(f"{name} has no rows (shape {y.shape})")
    if y.shape[1] < min_count:
        raise ValueError(f"{name} needs at least {min_count} columns, "
                         f"got {y.shape[1]}")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"{name} contains non-finite entries")
    return y
