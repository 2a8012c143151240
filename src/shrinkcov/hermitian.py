"""Small Hermitian-matrix utilities shared across the estimators.

All covariance-like objects in this package are Hermitian positive
semidefinite numpy arrays (real symmetric matrices are the special case
of real dtype).  The helpers here keep the real-part bookkeeping in one
place so the estimation code can stay close to the math.
"""

from __future__ import annotations

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
    """Return Re tr(a @ b) without forming the product matrix.

    For Hermitian ``a`` and ``b`` the trace is real; the explicit real
    part just drops rounding dust.  Uses tr(a b) = sum_ij a_ij * b_ji.
    """
    if a.shape != b.T.shape:
        raise ValueError(f"trace of mismatched shapes {a.shape} and {b.shape}")
    return float(np.sum(a * b.T).real)


def frobenius_norm_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm ||a||_F^2 = sum |a_ij|^2."""
    return float(np.vdot(a, a).real)


def outer_product(y: np.ndarray) -> np.ndarray:
    """Rank-one Hermitian outer product y y^H of a single sample."""
    y = np.asarray(y)
    return np.outer(y, y.conj())


def is_psd(a: np.ndarray, tol: float = 1e-8) -> bool:
    """Check positive semidefiniteness via the smallest eigenvalue.

    The tolerance is relative to the largest eigenvalue (but at least
    absolute ``tol``), so tiny negative eigenvalues produced by rounding
    do not fail the check.
    """
    w = np.linalg.eigvalsh(hermitize(np.asarray(a)))
    scale = max(1.0, float(w[-1])) if w.size else 1.0
    return bool(w[0] >= -tol * scale) if w.size else True


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^H) / 2."""
    a = np.asarray(a)
    return 0.5 * (a + a.conj().T)


def require_hermitian(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate that ``a`` is square and Hermitian within ``tol``.

    Returns ``a`` unchanged so the call can be chained.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if dev > tol * scale:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return a


def validate_samples(y: np.ndarray, min_count: int = 1,
                     name: str = "samples") -> np.ndarray:
    """Validate an N x T sample block: 2-d, finite, at least min_count columns."""
    y = np.asarray(y)
    if y.ndim != 2:
        raise ValueError(f"{name} must be a 2-d (N, T) array, got ndim {y.ndim}")
    if y.shape[1] < min_count:
        raise ValueError(f"{name} needs at least {min_count} columns, "
                         f"got {y.shape[1]}")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"{name} contains non-finite entries")
    return y
