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
t is column t), and so are the per-sample terms that depend on the fit
alone (:func:`ols_loo_terms`).  The fit keeps both, and the
least-squares moment accumulator of :mod:`shrinkcov.multi_target`
reads them directly without a loop over samples.

Both base estimates, :class:`SampleBlock` and :class:`OlsFit`, are owners:
each holds its samples ``y`` (a fit, its outputs), R, the targets built
from R and a truth registered on it (``own``) read-only: all a selection
needs.  A function given the owner skips the Hermitian check for
exactly those objects, matched by identity, and memoizes their pairwise
trace products, a squared norm ||M||_F^2 = tr(M M) among them: an owned
matrix cannot change, and its id is not reused while the owner lives.
It keeps the kind of each target built from its R, so a product with
its scaled identity mu I can be read as mu times a sum the owner keeps
(:func:`ols_loo_terms`).  Every other matrix is checked, and its products are taken again, on
every call: its caller may change it in place.  A selection checks it
where it reads it: the trace sweep
(:func:`shrinkcov.hermitian._trace_products`) validates each raw
matrix, a raw R included, by the rule and with the errors of
:func:`require_hermitian`, so :func:`_operands` hands them over
unchecked.  A target builder given a raw R still checks it
(:func:`_base`).  A raw R, target or truth, like raw samples, is read
in 64-bit precision.

A target built from a raw R comes back read-only for good: numpy
refuses to make it writable again.  While it lives it is registered in
a module-level weak registry, by identity, with its kind: scaled
identity, diagonal or Toeplitz (:func:`_register`).  Its structure, the
diagonal and a Toeplitz target's bands, is read from it when used
(:func:`_structure`), and a selection trusts a finite one, without a
check, only while the target is the very object registered, as an
owner trusts what it owns; a copy is raw.

A sample block forms R on first use, and a selection on the block does
not use it for matrices the block does not own.  :func:`_operands`
decides how R is read: for those matrices it hands the trace sweep R as
its :class:`_SampleFactor`, whose tiles are formed from two row blocks
of ``y`` when the sweep reaches them and dropped after, so raw samples
and raw targets are selected on without an N x N R.  A sweep of several
tiles reads tr R^2 from the T x T Gram of ``y`` when T < N
(``SampleBlock.tr_r2``), and forms R's tiles only where a target's tile
is not zero.  When every other operand is a registered target there is
no sweep: the Gram comes in closed form from the block's tr R^2, row
norms and band sums and the targets' structures
(:func:`shrinkcov.multi_target._structured_gram`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hermitian import (
    _parts,
    _require_square,
    _widened,
    frobenius_norm_sq,
    real_trace_product,
    require_hermitian,
    validate_samples,
)

__all__ = [
    "SampleBlock",
    "sample_block",
    "scm",
    "OlsFit",
    "ols_fit",
    "ols_covariance",
    "ols_loo_blocks",
    "ols_loo_terms",
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
    """Holder of read-only matrices, matched by identity, and memo of
    their pairwise trace products, ||M||_F^2 = tr(M M) among them (module
    docs)."""

    _owned: dict = field(default_factory=dict, init=False, repr=False)
    _traces: dict = field(default_factory=dict, init=False, repr=False)
    _kinds: dict = field(default_factory=dict, init=False, repr=False)

    def own(self, m: np.ndarray, kind: str | None = None) -> np.ndarray:
        """Register ``m``; a target's ``kind`` (:func:`_register`) with it."""
        m.flags.writeable = False
        if kind is not None:
            self._kinds[id(m)] = kind
        return self._owned.setdefault(id(m), m)

    def owns(self, m) -> bool:
        return self._owned.get(id(m)) is m

    def scale(self, m) -> float | None:
        """mu of an owned scaled identity target mu I, else None."""
        if self.owns(m) and self._kinds.get(id(m)) == "identity":
            return float(m[0, 0])
        return None

    def checked(self, m) -> np.ndarray:
        """An owned ``m`` as it is; any other checked in 64-bit precision."""
        return m if self.owns(m) else require_hermitian(_widened(m))

    def trace(self, a: np.ndarray, b: np.ndarray) -> float:
        # the product is symmetric in its operands, bit for bit; a key held
        # is one of two owned matrices, whose ids no other object has
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        value = self._traces.get(key)
        if value is None:
            value = real_trace_product(a, b)
            if self.owns(a) and self.owns(b):
                self._traces[key] = value
        return value


@dataclass(frozen=True, eq=False)
class SampleBlock(_Owner):
    """An N x T sample block ``y`` validated by :func:`sample_block`, and R.

    ``y`` is a read-only view; the block owns ``r``.  It also keeps the
    fourth-moment sum ``quart`` = sum_t ||y_t||^4, which every SCM
    selector of one draw reads, ``tr_r`` = ||Y||_F^2 / T, the trace the
    convex selectors' guard reads, and ``tr_r2`` = tr R^2 =
    ||Y^H Y||_F^2 / T^2 from the T x T Gram of the samples, which a trace
    sweep of several tiles reads when T < N.  The row norms ``row_norms``
    ||y_i||^2 (T times R's diagonal) and the band sums ``band_sums`` give
    R's products with registered targets in closed form.  Each is formed
    on first use.  A selection with a matrix the block does not own reads
    R from ``y`` a tile at a time (:func:`_operands`) and does not form
    ``r``.
    """

    y: np.ndarray

    @cached_property
    def r(self) -> np.ndarray:
        return self.own(scm(self.y))

    @cached_property
    def quart(self) -> float:
        return float(np.sum(np.sum(np.abs(self.y) ** 2, axis=0) ** 2))

    @cached_property
    def tr_r(self) -> float:
        return frobenius_norm_sq(self.y) / self.y.shape[1]

    @cached_property
    def tr_r2(self) -> float:
        gram = self.y.conj().T @ self.y
        return frobenius_norm_sq(gram) / self.y.shape[1] ** 2

    @cached_property
    def row_norms(self) -> np.ndarray:
        y = _parts(self.y, np.iscomplexobj(self.y))
        return np.einsum("ij,ij->i", y, y)

    @cached_property
    def band_sums(self) -> np.ndarray:
        """Re s_k = Re sum_i R[i, i + k] for k = 0..N-1: the real parts'
        and the imaginary parts' autocorrelations of the columns of ``y``
        at lag k, summed and divided by T, by one real FFT of a fast
        length at least 2N - 1, so that no lag wraps around."""
        n, t = self.y.shape
        size = _fast_length(2 * n - 1)
        y = _parts(self.y, np.iscomplexobj(self.y))
        x = np.fft.rfft(np.ascontiguousarray(y.T), size)
        power = (np.einsum("ij,ij->j", x.real, x.real)
                 + np.einsum("ij,ij->j", x.imag, x.imag))
        return np.fft.irfft(power, size)[:n] / t


def _fast_length(n: int) -> int:
    """The least 5-smooth integer 2^a 3^b 5^c that is at least ``n`` (1
    for n <= 1): a length that numpy's FFT transforms fast."""
    best = 1 << max(n - 1, 0).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:  # odd = 3^b 5^c; the least power of two after it
            best = min(best, odd << max(-(-n // odd) - 1, 0).bit_length())
            odd *= 3
        odd5 *= 5
    return best


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


class _SampleFactor:
    """R = y y^H / T of a sample block's N x T ``y``, as an operand of the
    trace sweep (:func:`shrinkcov.hermitian._trace_products`), which
    forms R one tile at a time.

    Every tile is ``finite`` when ||Y||_F^2 is at most 1e300: each entry
    of y[rows] y[cols]^H is then bounded by it, far below overflow.
    """

    def __init__(self, block: SampleBlock):
        y = self.y = block.y
        self.block = block
        self.shape = (y.shape[0], y.shape[0])
        self.dtype, self.itemsize = y.dtype, y.itemsize

    @property
    def finite(self) -> bool:
        return self.block.tr_r * self.y.shape[1] <= 1e300

    def norm_sq(self) -> float | None:
        """tr R^2 from the block's Gram (``SampleBlock.tr_r2``) when
        T < N, where the Gram is the smaller; None otherwise."""
        n, t = self.y.shape
        return self.block.tr_r2 if t < n else None

    def tile(self, rows: slice, cols: slice) -> np.ndarray:
        """R[rows, cols], scaled in place; when it is all of R, the
        product that :func:`scm` forms, bit for bit."""
        t = self.y[rows] @ self.y[cols].conj().T
        t /= self.y.shape[1]
        return t


# Targets the builders formed from a raw R, by id: (a weak reference to the target,
# its kind: "identity", "diagonal" or "toeplitz"); see :func:`_register`
_STRUCTURES: dict = {}


def _register(m: np.ndarray, kind: str) -> np.ndarray:
    """``m``, a target of ``kind`` a builder formed from a raw R, as a
    read-only array that numpy refuses to make writable again (a view of
    a read-only buffer of ``m``), registered with its kind while it
    lives."""
    m.flags.writeable = False
    m = np.asarray(memoryview(m))
    key = id(m)
    ref = weakref.ref(m, lambda _, registry=_STRUCTURES:
                      registry.pop(key, None))
    _STRUCTURES[key] = (ref, kind)
    return m


def _structure(m) -> tuple | None:
    """(diagonal, bands or None) of ``m`` if it is the very target
    registered under its id, read from it: the bands m[0, 1:] of a
    Toeplitz one.  None for any other ``m``, and for a structure that is
    not finite, which leaves the target to the trace sweep's check."""
    entry = _STRUCTURES.get(id(m))
    if entry is None or entry[0]() is not m:
        return None
    d, c = m.diagonal(), (m[0, 1:] if entry[1] == "toeplitz" else None)
    if np.isfinite(d).all() and (c is None or np.isfinite(c).all()):
        return d, c
    return None


def _base(base) -> tuple:
    """(R, own) of a block or fit, where ``own(m, kind)`` registers a
    target of ``kind`` built from R: the owner's ``own``, or for a raw R
    :func:`_register`.  A raw R is checked and must have a row.  It comes back in 64-bit precision, as :func:`validate_samples`
    returns samples: an integer or bool one as float64, so that its sums
    neither wrap nor saturate."""
    if isinstance(base, _Owner):
        return base.r, base.own
    return _rows(require_hermitian(_widened(base))), _register


def _rows(r: np.ndarray) -> np.ndarray:
    """A square ``r``, which must have a row."""
    if r.shape[0] == 0:
        raise ValueError(f"covariance has no rows (shape {r.shape})")
    return r


def _operands(base, mats) -> tuple[list, _Owner | None]:
    """([R, *mats], owner) of a block, fit or raw R (:func:`_base`), for
    trace products.  Every array in it that no owner owns is raw, and the
    trace sweep validates it (:func:`shrinkcov.multi_target._gram`); so
    here each is only widened to 64-bit precision, and a raw R checked to
    be square with a row.

    A block that does not own every one of ``mats`` gives R as its
    sample factor, which the trace sweep forms a tile at a time, so its
    ``r`` is not formed, or which gives its products with registered
    targets in closed form (:func:`_structure`); an owner of them all
    gives its ``r``, whose products with them come from its memo.
    """
    if not isinstance(base, _Owner):
        r = _rows(_require_square(_widened(base)))
        return [r, *map(_widened, mats)], None
    mats = [m if base.owns(m) else _widened(m) for m in mats]
    if isinstance(base, SampleBlock) and not all(map(base.owns, mats)):
        return [_SampleFactor(base), *mats], base
    return [base.r, *mats], base


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

    ``r`` = coef coef^H + noise_var I, which the fit owns, the
    leave-one-out blocks ``loo_blocks`` (:func:`ols_loo_blocks`) and the
    per-sample terms of the fit alone ``loo_terms``
    (:func:`ols_loo_terms`) and Re tr R ``tr_r`` are formed on first
    use, so every selection on the fit shares them.  ``loo_products(m)``
    forms a target's own per-sample terms on each call.
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
    def tr_r(self) -> float:
        return float(np.trace(self.r).real)

    @cached_property
    def loo_blocks(self) -> tuple[np.ndarray, ...]:
        return ols_loo_blocks(self)

    @cached_property
    def loo_terms(self) -> tuple[np.ndarray, ...]:
        return ols_loo_terms(self)

    def loo_products(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tr(D_t M), y_t^H M y_t) for every t of a Hermitian N x N ``m``,
        D_t = R - R_t (:func:`ols_loo_blocks`): two N x N by N x T
        products, one N x T temporary at a time."""
        e, _, delta, phi, psi = self.loo_blocks
        quad = _col_inner(self.y, m @ self.y).real
        me = m @ e
        return (delta * float(np.trace(m).real) + _col_inner(phi, me).real
                + _col_inner(me, psi).real, quad)


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


def _col_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise inner products a[:, j]^H b[:, j] of equal-shape blocks."""
    return np.einsum("ij,ij->j", a.conj(), b)


def ols_loo_terms(fit: OlsFit) -> tuple[np.ndarray, ...]:
    """Per-sample terms ``(tr_dr, tr_d2, quad_r, ny2, tr_d)`` of the fit
    alone, entry t for the refit without sample t.

    With R_t = R - D_t (:func:`ols_loo_blocks`) and y_t the output: tr(D_t
    R), tr(D_t^2), y_t^H R_t y_t, ||y_t||^2 and tr D_t.  They are column
    inner products of the blocks, and R's two products with them
    (:meth:`OlsFit.loo_products`); a target adds only its own.
    """
    e, _, delta, phi, psi = fit.loo_blocks
    y = fit.y
    n = y.shape[0]
    tr_dr, quad_r = fit.loo_products(fit.r)
    # tr(D_t^2) via scalar products of the update vectors
    pe = _col_inner(phi, e)     # phi^H e
    ep = _col_inner(e, psi)     # e^H psi
    ee = _col_inner(e, e).real
    pp = _col_inner(phi, psi)   # phi^H psi
    tr_d2 = (n * delta * delta + 2.0 * delta * (pe + ep).real
             + (pe * pe + ep * ep + 2.0 * ee * pp).real)
    ny2 = _col_inner(y, y).real
    ye = _col_inner(y, e)       # y^H e; e^H y is its conjugate
    py = _col_inner(phi, y)     # phi^H y
    ys = _col_inner(y, psi)     # y^H psi
    quad_r = quad_r - (delta * ny2 + (ye * py).real + (ys * ye.conj()).real)
    return tr_dr, tr_d2, quad_r, ny2, n * delta + (pe + ep).real


def ols_loo_covariances(x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """All T leave-one-out covariance estimates of the least-squares path."""
    fit = ols_fit(x, y)
    e, _, delta, phi, psi = fit.loo_blocks
    eye = np.eye(fit.r.shape[0])
    return [fit.r - delta[t] * eye - np.outer(e[:, t], phi[:, t].conj())
            - np.outer(psi[:, t], e[:, t].conj()) for t in range(delta.size)]
