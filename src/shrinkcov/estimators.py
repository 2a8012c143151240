"""Base covariance estimates and their leave-one-out variants.

Two estimation paths are supported:

* the sample covariance matrix (SCM) ``R = (1/T) Y Y^H`` with the exact
  leave-one-out identity ``R_t = (T R - y_t y_t^H) / (T - 1)``;
* the least-squares path for linear observation models ``y = H x + n``,
  where ``R = H_hat H_hat^H + sigma2_hat I`` and each leave-one-out
  refit is reconstructed from rank-one updates of the full fit instead
  of refitting T times.

The Gram matrix of the regressors is factorized once; the rank-one
updates of all T samples are computed together as column blocks (sample
t is column t), which the least-squares moment accumulator of
:mod:`shrinkcov.multi_target` reads directly without a loop over samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hermitian import real_trace_product, require_hermitian, validate_samples

__all__ = [
    "SampleBlock",
    "sample_block",
    "scm",
    "scm_leave_one_out",
    "OlsFit",
    "ols_fit",
    "ols_covariance",
    "ols_loo_blocks",
    "ols_loo_covariances",
]


def scm(y: np.ndarray) -> np.ndarray:
    """Sample covariance matrix (1/T) sum_t y_t y_t^H of an N x T block."""
    y = validate_samples(y)
    t = y.shape[1]
    return y @ y.conj().T / t


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """An N x T sample block ``y`` validated by :func:`sample_block`, and R.

    ``y`` is a read-only view; ``r``, formed on first use, and the targets
    built from the block are read-only and held by it (:meth:`own`).  A
    function given the block skips :func:`require_hermitian` for exactly
    those objects, matched by identity, and checks every other matrix.

    The block also keeps what every selector of one draw reads: the
    fourth-moment sum ``quart`` = sum_t ||y_t||^4, formed on first use,
    and :meth:`trace`, which memoizes :func:`real_trace_product` of two
    matrices the block owns.  Sharing those is safe: an owned matrix is
    read-only, so its products cannot go stale, and the block holds it,
    so its id is not reused while the memo lives.  Any other operand is
    recomputed on every call, as a caller may change it in place.
    """

    y: np.ndarray
    _owned: dict = field(default_factory=dict, init=False, repr=False)
    _traces: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def r(self) -> np.ndarray:
        return self.own(scm(self.y))

    @cached_property
    def quart(self) -> float:
        return float(np.sum(np.sum(np.abs(self.y) ** 2, axis=0) ** 2))

    def own(self, m: np.ndarray) -> np.ndarray:
        m.flags.writeable = False
        return self._owned.setdefault(id(m), m)

    def checked(self, m) -> np.ndarray:
        return m if self._owned.get(id(m)) is m else require_hermitian(m)

    def trace(self, a: np.ndarray, b: np.ndarray) -> float:
        if self._owned.get(id(a)) is not a or self._owned.get(id(b)) is not b:
            return real_trace_product(a, b)
        # the product is symmetric in its operands, bit for bit
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        if key not in self._traces:
            self._traces[key] = real_trace_product(a, b)
        return self._traces[key]


def sample_block(samples, min_count: int = 1,
                 name: str = "samples") -> SampleBlock:
    """Raw samples validated (see :func:`validate_samples`) and wrapped."""
    if isinstance(samples, SampleBlock):
        if samples.y.shape[1] >= min_count:
            return samples
        samples = samples.y  # too short: the raw array's error, below
    y = validate_samples(samples, min_count, name).view()
    y.flags.writeable = False
    return SampleBlock(y)


def _base(base) -> tuple:
    """(R, own, check, trace) of a block; a raw R is checked, trusts nothing
    and memoizes nothing."""
    if isinstance(base, SampleBlock):
        return base.r, base.own, base.checked, base.trace
    return (require_hermitian(base), (lambda m: m), require_hermitian,
            real_trace_product)


def scm_leave_one_out(r: np.ndarray, y: np.ndarray, t: int) -> np.ndarray:
    """Sample covariance with column ``t`` removed, via a rank-one downdate.

    Parameters
    ----------
    r : ndarray
        Full sample covariance of ``y`` (as returned by :func:`scm`).
    y : ndarray
        The N x T sample block ``r`` was computed from; T >= 2.
    t : int
        Index of the held-out column.
    """
    y = validate_samples(y, min_count=2)
    count = y.shape[1]
    if not 0 <= t < count:
        raise ValueError(f"hold-out index {t} outside 0..{count - 1}")
    yt = y[:, t]
    return (count * r - np.outer(yt, yt.conj())) / (count - 1)


# ---------------------------------------------------------------------------
# least-squares path


@dataclass(frozen=True)
class OlsFit:
    """Full least-squares fit of Y ~ coef @ X.

    Attributes
    ----------
    coef : ndarray
        N x M coefficient estimate ``Y X^H (X X^H)^-1``.
    noise_var : float
        Residual noise variance estimate ||Y - coef X||_F^2 / (T N).
    leverage : ndarray
        Length-T hat-matrix diagonal ``x_t^H (X X^H)^-1 x_t``.
    residuals : ndarray
        N x T residual block ``Y - coef X``.
    gram_dirs : ndarray
        M x T block of directions ``(X X^H)^-1 x_t``, reused by every
        leave-one-out update.
    """

    coef: np.ndarray
    noise_var: float
    leverage: np.ndarray
    residuals: np.ndarray
    gram_dirs: np.ndarray

    @cached_property
    def covariance(self) -> np.ndarray:
        """Read-only ``coef coef^H + noise_var I``, formed on first use."""
        n = self.coef.shape[0]
        r = self.coef @ self.coef.conj().T + self.noise_var * np.eye(n)
        r.flags.writeable = False
        return r


def ols_fit(x: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least-squares fit of an N x T output block on an M x T input block.

    Requires a well-conditioned Gram matrix ``X X^H`` (rank-deficient or
    nearly singular inputs are rejected); T == M is allowed here, the
    leave-one-out machinery adds its own stricter requirement.  ``y``
    may be a :class:`SampleBlock`.
    """
    x = validate_samples(x, name="inputs")
    y = sample_block(y, name="outputs").y
    if x.shape[1] != y.shape[1]:
        raise ValueError("inputs and outputs must have the same sample count")
    t = x.shape[1]
    gram = x @ x.conj().T
    if np.linalg.cond(gram) > 1e12:
        raise ValueError("regressor Gram matrix is singular or ill-conditioned")
    gram_dirs = np.linalg.solve(gram, x)
    coef = y @ gram_dirs.conj().T
    residuals = y - coef @ x
    noise_var = float(np.vdot(residuals, residuals).real) / (t * y.shape[0])
    leverage = np.sum(x.conj() * gram_dirs, axis=0).real
    return OlsFit(coef=coef, noise_var=noise_var, leverage=leverage,
                  residuals=residuals, gram_dirs=gram_dirs)


def ols_covariance(fit: OlsFit) -> np.ndarray:
    """Covariance estimate coef coef^H + noise_var I from a full fit."""
    return fit.covariance.copy()


def ols_loo_blocks(fit: OlsFit) -> tuple[np.ndarray, ...]:
    """Blocks ``(E, F, delta, Phi, Psi)`` of all T leave-one-out updates.

    Column t (entry t of ``delta``) belongs to the refit without sample
    t: with ``e_t`` its full-fit residual and ``f_t = (X X^H)^-1 x_t /
    (1 - h_t)``, the refit covariance is ``R_t = R - delta_t I
    - e_t phi_t^H - psi_t e_t^H``.  Needs every leverage below one
    (T > M in general position).
    """
    e = fit.residuals
    n, t = e.shape
    if t < 2:
        raise ValueError("leave-one-out needs at least two samples")
    if np.max(fit.leverage) >= 1.0 - 1e-10:
        raise ValueError("a leverage value reaches one; leave-one-out refits "
                         "are underdetermined (need T > M)")
    slack = 1.0 - fit.leverage
    f = fit.gram_dirs / slack
    delta = (np.einsum("ij,ij->j", e.conj(), e).real / (n * (t - 1) * slack)
             - fit.noise_var / (t - 1))
    phi = fit.coef @ f
    psi = phi - np.einsum("ij,ij->j", f.conj(), f).real * e
    return e, f, delta, phi, psi


def ols_loo_covariances(x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """All T leave-one-out covariance estimates of the least-squares path."""
    fit = ols_fit(x, y)
    r = ols_covariance(fit)
    e, _, delta, phi, psi = ols_loo_blocks(fit)
    eye = np.eye(r.shape[0])
    return [r - delta[t] * eye - np.outer(e[:, t], phi[:, t].conj())
            - np.outer(psi[:, t], e[:, t].conj()) for t in range(delta.size)]
