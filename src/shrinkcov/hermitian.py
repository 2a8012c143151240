"""Small Hermitian-matrix utilities shared across the estimators.

All covariance-like objects in this package are Hermitian positive
semidefinite numpy arrays (real symmetric matrices are the special case
of real dtype).  The helpers here keep the real-part bookkeeping in one
place so the estimation code can stay close to the math.

Validation and trace products run on every selection call, so at large
N each reads an operand once, a tile at a time, and allocates no N x N
temporary.  Both walk the same square tiles on and above the diagonal,
about 128 KiB of an operand each (128 wide real, 90 complex; up to that
N one tile is the whole matrix).  :func:`require_hermitian` compares
each tile with its mirror and measures the deviation in the same pass;
it forms max|a| only for a matrix that is not exactly Hermitian, and
every real matrix the package builds is.  :func:`real_trace_product` is
one contiguous inner product, and the Gram matrix of the selection
moments takes its products in one sweep over the tiles, the diagonal
ones once and the others twice.  All of them and
:func:`frobenius_norm_sq` reduce in numpy without BLAS, so they do not
depend on the BLAS thread count.
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


# Both passes over an N x N operand walk the square tiles of its upper
# triangle, each about _TILE_BYTES bytes of it: 128 wide real, 90 complex.
_TILE_BYTES = 131072


def _tiles(n: int, itemsize: int):
    """(rows, cols) slices of the square tiles on and above the diagonal
    of an n x n matrix with ``itemsize``-byte entries; rows == cols on
    the diagonal."""
    side = max(1, math.isqrt(_TILE_BYTES // itemsize))
    for i in range(0, n, side):
        for j in range(i, n, side):
            yield slice(i, i + side), slice(j, j + side)


def _trace_products(mats, pairs) -> list[float]:
    """:func:`real_trace_product` of mats[i] and mats[j] for each (i, j) of
    ``pairs``, all in one sweep over the square tiles of the upper triangle.

    The operands must be Hermitian (to the tolerance of
    :func:`require_hermitian`): a product is then that of the diagonal
    tiles plus twice that of the others.  So each operand is read once,
    a tile at a time, and none is copied unless it is complex and not
    C-contiguous.  When one tile is the whole matrix each product is
    :func:`real_trace_product`'s einsum, bit for bit.
    """
    if not pairs:
        return []
    n = mats[0].shape[0]
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
    sums = [0.0] * len(ops)
    for rows, cols in _tiles(n, max(m.itemsize for m in mats)):
        weight = 1.0 if rows == cols else 2.0
        for p, (a, b, w) in enumerate(ops):  # w: floats per entry
            span = slice(w * cols.start, w * cols.stop)
            sums[p] += weight * np.einsum("ij,ij->", a[rows, span],
                                          b[rows, span])
    return [float(s) for s in sums]


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


def require_hermitian(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate that ``a`` is square, finite and Hermitian within ``tol``.

    The test is max|a - a^H| <= tol * max(1, max|a|).  It walks each
    pair of mirrored tiles x and conj(y^T) once.  A pair that is equal
    and finite adds nothing, one with a NaN or infinite entry on either
    side is rejected, and any other adds max|x - conj(y^T)| to the
    deviation.  The pairs cover every entry, and |a_pq - conj(a_qp)|
    equals |a_qp - conj(a_pq)| bit for bit, so the deviation is the
    dense formula's.  A deviation of 0 passes at any ``tol`` >= 0, so
    only a failing matrix, or a negative or NaN ``tol``, takes max|a|,
    over row strips one tile high.  A max does not depend on the order
    it is taken in, so the decision is the dense formula's too.

    Returns ``a`` unchanged so the call can be chained.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dev = 0.0
    for rows, cols in _tiles(a.shape[0], a.itemsize):
        x, y = a[rows, cols], a[cols, rows].T.conj()
        finite = np.isfinite(x).all()
        if finite and (x == y).all():
            continue
        if not (finite and np.isfinite(y).all()):
            raise ValueError("matrix is non-finite (NaN or infinite entries)")
        dev = max(dev, np.abs(x - y).max())
    if dev == 0.0 and tol >= 0.0:
        return a
    peak = max((np.abs(a[rows]).max()
                for rows, cols in _tiles(a.shape[0], a.itemsize)
                if rows == cols), default=0.0)
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
