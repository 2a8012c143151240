"""Small Hermitian-matrix utilities shared across the estimators.

All covariance-like objects in this package are Hermitian positive
semidefinite numpy arrays (real symmetric matrices are the special case
of real dtype).  The helpers here keep the real-part bookkeeping in one
place so the estimation code can stay close to the math.

Validation and trace products run on every selection call, so at large
N each reads an operand once, a tile at a time, and allocates no N x N
temporary.  :func:`require_hermitian` first compares mirrored square
tiles of about 128 KiB for exact symmetry, which every real matrix the
package builds has; only a matrix that fails that test goes through the
tolerance formula, in row tiles of the same size.  Up to N = 128 (90
complex) one tile is the whole matrix.  :func:`real_trace_product` is
one contiguous inner product, and the Gram matrix of the selection
moments takes its products in one sweep over row tiles of the upper
triangle, about 512 KiB of each operand (the whole matrix up to N = 256,
181 complex).  All of them and :func:`frobenius_norm_sq` reduce in numpy
without BLAS, so they do not depend on the BLAS thread count.
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
    both = np.iscomplexobj(a) and np.iscomplexobj(b)
    return float(np.einsum("ij,ij->", _parts(a, both), _parts(b, both)))


def _parts(a: np.ndarray, interleaved: bool) -> np.ndarray:
    """The real array whose entrywise products with another operand's sum
    to Re <a, b>_F: the interleaved (real, imag) parts when both operands
    are complex, as Re(conj(x) y) = Re x Re y + Im x Im y, else the real
    part."""
    if interleaved:
        return np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return a.real


def _trace_products(mats, pairs) -> list[float]:
    """:func:`real_trace_product` of mats[i] and mats[j] for each (i, j) of
    ``pairs``, all in one sweep over row tiles of the upper triangle.

    The operands must be Hermitian (to the tolerance of
    :func:`require_hermitian`): the product of a row tile is then that of
    its diagonal block plus twice that of the part right of it.  So each
    operand is read once, a tile at a time, and none is copied unless it
    is complex and not C-contiguous.  When one tile is the whole matrix
    each product is :func:`real_trace_product`'s.
    """
    if not pairs:
        return []
    n = mats[0].shape[0]
    rows = _tile_rows(n, max(m.itemsize for m in mats), _SWEEP_BYTES)
    if rows >= n:  # one tile: the same einsums, without the bookkeeping
        return [real_trace_product(mats[i], mats[j]) for i, j in pairs]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError(f"trace of mismatched shapes {mats[0].shape} "
                             f"and {m.shape}; expected square operands of "
                             "equal shape")
    cplx = [np.iscomplexobj(m) for m in mats]
    parts, ops = {}, []
    for i, j in pairs:
        both = cplx[i] and cplx[j]
        for k in (i, j):
            if (k, both) not in parts:
                parts[k, both] = _parts(mats[k], both)
        ops.append((parts[i, both], parts[j, both], 1 + both))
    diag, upper = [0.0] * len(ops), [0.0] * len(ops)
    for i in range(0, n, rows):
        end = min(i + rows, n)
        for p, (a, b, w) in enumerate(ops):  # w: floats per entry
            diag[p] += np.einsum("ij,ij->", a[i:end, w * i:w * end],
                                 b[i:end, w * i:w * end])
            if end < n:
                upper[p] += np.einsum("ij,ij->", a[i:end, w * end:],
                                      b[i:end, w * end:])
    return [float(d + 2.0 * u) for d, u in zip(diag, upper)]


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


# Tiles of the Hermitian check hold about _TILE_BYTES bytes of ``a``, as
# do its temporaries: square tiles in the exact-symmetry test, row tiles in
# the formula.  The trace sweep makes no temporary, and its row tiles of
# _SWEEP_BYTES per operand take fewer numpy calls.
_TILE_BYTES = 131072
_SWEEP_BYTES = 524288


def _tile_rows(n: int, itemsize: int, budget: int = _TILE_BYTES) -> int:
    """Rows per row tile of ``budget`` bytes of an n x n matrix."""
    return max(1, budget // (max(n, 1) * itemsize))


def _tile_side(itemsize: int) -> int:
    """Side of the square tiles of the exact-symmetry test."""
    return max(1, math.isqrt(_TILE_BYTES // itemsize))


def _exactly_hermitian(a: np.ndarray) -> bool:
    """Whether ``a`` is finite and equal to a^H entry by entry: each tile
    x of the upper triangle equals conj(y^T) of its mirror y, and is
    finite (then so is y)."""
    n, side = a.shape[0], _tile_side(a.itemsize)
    for i in range(0, n, side):
        for j in range(i, n, side):
            x = a[i:i + side, j:j + side]
            if not ((x == a[j:j + side, i:i + side].T.conj()).all()
                    and np.isfinite(x).all()):
                return False
    return True


def _peak(block: np.ndarray):
    """max |block|; a real block's from its max and min, with no temporary."""
    if block.dtype.kind == "f":
        return max(block.max(), -block.min())
    return np.abs(block).max()


def require_hermitian(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate that ``a`` is square, finite and Hermitian within ``tol``.

    The test is max|a - a^H| <= tol * max(1, max|a|).  A finite ``a``
    equal to a^H entry by entry passes it at any ``tol`` >= 0, and
    :func:`_exactly_hermitian` checks that first, in one pass over
    mirrored square tiles.  Only a matrix that fails it, or a negative
    or NaN ``tol``, goes through the formula.  That takes both maxima
    in one pass over row tiles of the upper triangle: rows i:i+tile
    against columns i:i+tile read as their conjugate transpose, which
    covers every pair (p, q), and the peak is taken over the row tile
    and the column entries below it, which covers every entry.  A max
    does not depend on the order it is taken in, and |a_pq - conj(a_qp)|
    equals |a_qp - conj(a_pq)| bit for bit, so the decision and the
    reported deviation are those of the dense formula.  A NaN or
    infinite entry makes a block's peak non-finite and is rejected.

    Returns ``a`` unchanged so the call can be chained.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if tol >= 0.0 and _exactly_hermitian(a):
        return a
    n = a.shape[0]
    tile = _tile_rows(n, a.itemsize)
    dev = peak = 0.0
    for i in range(0, n, tile):
        rows = a[i:i + tile, i:]
        cols = a[i:, i:i + tile]
        for block in (rows, cols[tile:]):
            if block.size:
                block_peak = _peak(block)
                if not math.isfinite(block_peak):
                    raise ValueError("matrix is non-finite "
                                     "(NaN or infinite entries)")
                peak = max(peak, block_peak)
        dev = max(dev, _peak(rows - cols.T.conj()))
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
