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
ones once and the others twice, reading each operand's tile as it
reaches it.  The sweep checks nothing: its caller runs
:func:`require_hermitian` on each raw operand first, and takes only
the products that neither a target's structure nor an owner's memo
gives (:func:`shrinkcov.multi_target._gram`).  It skips the products of
exactly zero tiles (the off-diagonal ones of a diagonal target).
All the passes and :func:`frobenius_norm_sq` reduce in numpy without
BLAS, so they do not depend on the BLAS thread count.  Every entry point
computes in 64-bit precision: :func:`validate_samples` widens narrower
samples, and the estimators widen raw R, targets and truths
(:func:`_widened`).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "real_trace_product",
    "frobenius_norm_sq",
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
    part; integer and bool entries as float64, so that a sum of their
    products neither wraps nor saturates."""
    if interleaved:
        return np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    if a.dtype.kind in "biu":
        return a.astype(np.float64)
    return a.real


# Both passes over an N x N operand walk the square tiles of its upper
# triangle, each about _TILE_BYTES bytes of it: 128 wide real, 90 complex.
_TILE_BYTES = 131072


def _tile_side(itemsize: int) -> int:
    """The side of a square tile of ``itemsize``-byte entries."""
    return max(1, math.isqrt(_TILE_BYTES // itemsize))


def _tiles(n: int, itemsize: int):
    """(rows, cols) slices of the square tiles on and above the diagonal
    of an n x n matrix with ``itemsize``-byte entries; rows == cols on
    the diagonal."""
    side = _tile_side(itemsize)
    for i in range(0, n, side):
        for j in range(i, n, side):
            yield slice(i, i + side), slice(j, j + side)


def _trace_products(mats, pairs) -> list[float]:
    """:func:`real_trace_product` of mats[i] and mats[j] for each (i, j) of
    ``pairs``, all in one sweep over the square tiles of the upper
    triangle.

    The operands must be Hermitian (to the tolerance of
    :func:`require_hermitian`), and nothing here checks it: a product is
    then that of the diagonal tiles plus twice that of the others.  Each
    operand is read once, a tile at a time: ``m[rows, cols]`` of an
    array, ``m.tile(rows, cols)`` of any other operand (one with
    ``shape``, ``dtype``, ``itemsize`` and ``finite``, which may form its
    tile when the sweep reaches it), and no operand is copied whole.

    A product in which one tile is exactly zero and the other finite is
    an exact 0 term, and is skipped; an operand's tile is formed only for
    a product it enters.  When one tile is the whole matrix, every
    product is :func:`real_trace_product`'s einsum, bit for bit.
    """
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError(f"trace of mismatched shapes {mats[0].shape} "
                             f"and {m.shape}; expected square operands of "
                             "equal shape")
    sums = [0.0] * len(pairs)
    cplx = [np.iscomplexobj(m) for m in mats]
    arrays = {k for p in pairs for k in p if isinstance(mats[k], np.ndarray)}
    for rows, cols in _tiles(n, max(m.itemsize for m in mats)):
        tile = {k: mats[k][rows, cols] for k in arrays}
        zero = {k: not x.any() for k, x in tile.items()}
        weight = 1.0 if rows == cols else 2.0
        for p, (i, j) in enumerate(pairs):
            if zero.get(i) or zero.get(j):
                k = j if zero.get(i) else i  # the other operand
                # an array's tile is tested; a tile formed on demand is
                # finite when its operand says so (``finite``)
                if zero.get(k) or (np.isfinite(tile[k]).all() if k in arrays
                                   else mats[k].finite):
                    continue
            for k in (i, j):
                if k not in tile:
                    tile[k] = mats[k].tile(rows, cols)
            both = cplx[i] and cplx[j]
            x, y = _parts(tile[i], both), _parts(tile[j], both)
            sums[p] += weight * float(np.einsum("ij,ij->", x, y))
    return sums


def _toeplitz(first_col: np.ndarray, first_row: np.ndarray) -> np.ndarray:
    """Toeplitz matrix with first column ``first_col`` and first row
    ``first_row`` (whose entry 0 is ignored), of shape (len(first_col),
    len(first_row)).

    Row i is a window of ``vals``, ``first_col`` reversed followed by
    ``first_row[1:]``, starting i entries before ``first_col[0]``: the
    layout of ``scipy.linalg.toeplitz``, so the entries are its bit for
    bit.  Two empty inputs give a 0 x 0 matrix.
    """
    vals = np.concatenate((first_col[::-1], first_row[1:]))
    rows = sliding_window_view(vals, len(first_row))[::-1]
    return rows[:len(first_col)].copy()


def frobenius_norm_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm sum |a_ij|^2 of any shape, reduced by einsum
    (in float64 for integer and bool entries)."""
    a = np.ravel(a, order="K")  # a view of any contiguous input
    a = _parts(a, np.iscomplexobj(a))
    return float(np.einsum("i,i->", a, a))


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


_HERMITIAN_TOL = 1e-10


def require_hermitian(a: np.ndarray,
                      tol: float = _HERMITIAN_TOL) -> np.ndarray:
    """Validate that ``a`` is square, finite and Hermitian within ``tol``.

    The test is max|a - a^H| <= tol * max(1, max|a|).  It walks each
    pair of mirrored tiles x and conj(y^T) once.  A pair that is equal
    and finite adds nothing, one with a NaN or infinite entry on either
    side is rejected (tested before anything subtracts it), and any other
    adds max|x - conj(y^T)| to the deviation.  The pairs cover every
    entry, and |a_pq - conj(a_qp)| equals |a_qp - conj(a_pq)| bit for
    bit, so the deviation is the dense formula's.  Finite entries whose
    difference overflows give an infinite deviation, which rejects the
    matrix.  A deviation of at most ``tol`` passes at once, since
    tol * max(1, max|a|) >= tol, so only a deviation above ``tol``, or a
    NaN ``tol``, takes max|a|, over each tile and its mirror
    (:func:`_require_deviation`).  A max does not depend on the order it
    is taken in, so the decision is the dense formula's too, except where
    tol * max(1, max|a|) is NaN (a NaN ``tol``, or 0 times an infinite
    |a_ij|): the dense comparison is then false, but only a deviation of
    0 passes here.

    Returns ``a`` unchanged so the call can be chained.
    """
    a = _require_square(np.asarray(a))
    dev = 0.0
    for rows, cols in _tiles(a.shape[0], a.itemsize):
        x, y = a[rows, cols], a[cols, rows].T.conj()
        finite = np.isfinite(x).all()
        if finite and (x == y).all():
            continue
        if not (finite and np.isfinite(y).all()):
            raise ValueError("matrix is non-finite (NaN or infinite entries)")
        dev = max(dev, _max_abs_difference(x, y))
    _require_deviation(a, dev, tol)
    return a


def _require_square(a: np.ndarray) -> np.ndarray:
    """``a``, which must be a square matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _require_deviation(a: np.ndarray, dev: float, tol: float) -> None:
    """Reject a finite square ``a`` whose deviation max|a - a^H| = ``dev``
    exceeds tol * max(1, max|a|) (:func:`require_hermitian`)."""
    if dev <= tol:
        return
    peak = max((float(np.abs(m).max())
                for rows, cols in _tiles(a.shape[0], a.itemsize)
                for m in (a[rows, cols], a[cols, rows])), default=0.0)
    # on Python floats, 0 * inf is NaN without a warning; a NaN limit
    # (NaN tol, or tol 0 and an overflowing |a_ij|) accepts no deviation
    limit = float(tol) * max(1.0, peak)
    if dev > limit or (dev > 0.0 and math.isnan(limit)):
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")


def _max_abs_difference(x: np.ndarray, y: np.ndarray) -> float:
    """max|x - y| of two finite tiles; inf where a difference overflows.

    numpy buffers each strided operand of a ufunc, so the difference is
    formed in a copy of ``x`` and a real one takes |.| in place: one
    tile-sized temporary beside a buffer for ``y``.
    """
    d = x.copy()
    with np.errstate(over="ignore"):
        d -= y
        return float((np.abs(d) if np.iscomplexobj(d)
                      else np.abs(d, out=d)).max())


def validate_samples(y: np.ndarray, min_count: int = 1,
                     name: str = "samples") -> np.ndarray:
    """Validate an N x T sample block: 2-d, N >= 1, finite, min_count columns.

    Samples come back in 64-bit precision (:func:`_widened`), so the
    estimates formed from them can be scaled in place and every path
    computes in one precision; float64 and complex128 ones are returned
    as they are.
    """
    y = _widened(y)
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


def _widened(a) -> np.ndarray:
    """``a`` as an array in 64-bit precision: integer, bool and narrower
    real entries as float64, narrower complex ones as complex128, and any
    other array as it is."""
    a = np.asarray(a)
    kind, size = a.dtype.kind, a.dtype.itemsize
    if kind in "biu" or (kind == "f" and size < 8):
        return a.astype(np.float64)
    if kind == "c" and size < 16:
        return a.astype(np.complex128)
    return a
