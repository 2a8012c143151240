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

Both base estimates, :class:`SampleBlock` and :class:`OlsFit`, are owners:
each holds its samples ``y`` (a fit, its outputs), R, the targets built
from R and a truth registered on it (``own``) read-only: all a selection
needs.  A function given the owner skips :func:`require_hermitian` for
exactly those objects, matched by identity, and memoizes their pairwise
trace products: an owned matrix cannot change, and its id is not reused
while the owner lives.  Every other matrix is checked, and its products
are taken again, on every call: its caller may change it in place.
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
    "OlsFit",
    "ols_fit",
    "ols_covariance",
    "ols_loo_blocks",
    "ols_loo_covariances",
]


def scm(y: np.ndarray) -> np.ndarray:
    """Sample covariance matrix (1/T) sum_t y_t y_t^H of an N x T block."""
    y = validate_samples(y)
    r = y @ y.conj().T
    r /= y.shape[1]  # in place: one N x N array
    return r


@dataclass(frozen=True, eq=False)
class _Owner:
    """Holder of read-only matrices, matched by identity (module docs)."""

    _owned: dict = field(default_factory=dict, init=False, repr=False)
    _traces: dict = field(default_factory=dict, init=False, repr=False)

    def own(self, m: np.ndarray) -> np.ndarray:
        m.flags.writeable = False
        return self._owned.setdefault(id(m), m)

    def owns(self, m) -> bool:
        return self._owned.get(id(m)) is m

    def checked(self, m) -> np.ndarray:
        return m if self.owns(m) else require_hermitian(m)

    def trace(self, a: np.ndarray, b: np.ndarray) -> float:
        if self._owned.get(id(a)) is not a or self._owned.get(id(b)) is not b:
            return real_trace_product(a, b)
        # the product is symmetric in its operands, bit for bit
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        if key not in self._traces:
            self._traces[key] = real_trace_product(a, b)
        return self._traces[key]


@dataclass(frozen=True, eq=False)
class SampleBlock(_Owner):
    """An N x T sample block ``y`` validated by :func:`sample_block`, and R.

    ``y`` is a read-only view; the block owns ``r``.  It also keeps the
    fourth-moment sum ``quart`` = sum_t ||y_t||^4, which every SCM
    selector of one draw reads.  Both are formed on first use.
    """

    y: np.ndarray

    @cached_property
    def r(self) -> np.ndarray:
        return self.own(scm(self.y))

    @cached_property
    def quart(self) -> float:
        return float(np.sum(np.sum(np.abs(self.y) ** 2, axis=0) ** 2))


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
    """(R, own, check, owner) of a block or fit; a raw R is checked, must
    have a row, has no owner and trusts nothing."""
    if isinstance(base, _Owner):
        return base.r, base.own, base.checked, base
    r = require_hermitian(base)
    if r.shape[0] == 0:
        raise ValueError(f"covariance has no rows (shape {r.shape})")
    return r, (lambda m: m), require_hermitian, None


# ---------------------------------------------------------------------------
# least-squares path


@dataclass(frozen=True, eq=False)
class OlsFit(_Owner):
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
    y : ndarray
        The N x T outputs it was fitted to, a read-only view.

    ``r`` = coef coef^H + noise_var I, which the fit owns, and
    ``loo_blocks`` (:func:`ols_loo_blocks`) are formed on first use.
    """

    coef: np.ndarray
    noise_var: float
    leverage: np.ndarray
    residuals: np.ndarray
    gram_dirs: np.ndarray
    y: np.ndarray

    @cached_property
    def r(self) -> np.ndarray:
        n = self.coef.shape[0]
        return self.own(self.coef @ self.coef.conj().T
                        + self.noise_var * np.eye(n))

    @cached_property
    def loo_blocks(self) -> tuple[np.ndarray, ...]:
        return ols_loo_blocks(self)


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
    w = np.linalg.eigvalsh(gram)  # Hermitian PSD: condition w[-1] / w[0]
    if not w[0] > 0.0 or w[-1] / w[0] > 1e12:
        raise ValueError("regressor Gram matrix is singular or ill-conditioned")
    gram_dirs = np.linalg.solve(gram, x)
    coef = y @ gram_dirs.conj().T
    residuals = y - coef @ x
    noise_var = float(np.vdot(residuals, residuals).real) / (t * y.shape[0])
    leverage = np.sum(x.conj() * gram_dirs, axis=0).real
    return OlsFit(coef=coef, noise_var=noise_var, leverage=leverage,
                  residuals=residuals, gram_dirs=gram_dirs, y=y)


def ols_covariance(fit: OlsFit) -> np.ndarray:
    """Covariance estimate coef coef^H + noise_var I from a full fit."""
    return fit.r.copy()


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
    e, _, delta, phi, psi = fit.loo_blocks
    eye = np.eye(fit.r.shape[0])
    return [fit.r - delta[t] * eye - np.outer(e[:, t], phi[:, t].conj())
            - np.outer(psi[:, t], e[:, t].conj()) for t in range(delta.size)]
