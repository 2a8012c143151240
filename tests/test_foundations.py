import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from shrinkcov.baselines import glc_coefficients, lw_coefficients, oas_coefficient
from shrinkcov.estimators import ols_fit, scm
from shrinkcov.hermitian import (
    _tiles,
    frobenius_norm_sq,
    hermitize,
    is_psd,
    outer_product,
    real_trace_product,
    require_hermitian,
    validate_samples,
)
from shrinkcov.multi_target import mt_select
from shrinkcov.single_target import select_single_target
from shrinkcov.targets import scaled_identity_target, toeplitz_average_target

from oracles import (
    hermitian_check_dense,
    random_hermitian,
    random_psd,
    random_samples,
    trace_product_dense,
)


def test_real_trace_product_frozen():
    a = np.array([[1.0, 1j], [-1j, 2.0]])
    b = np.array([[3.0, 1 - 1j], [1 + 1j, 4.0]])
    # tr(AB) = 3 + (i)(1+i) + (-i)(1-i) + 8 = 9, purely real
    assert real_trace_product(a, b) == pytest.approx(9.0, abs=1e-14)
    assert real_trace_product(b, a) == pytest.approx(9.0, abs=1e-14)


def test_real_trace_product_matches_dense_oracle():
    rng = np.random.default_rng(71)
    for k in range(29):
        n = int(rng.integers(1, 9)) if k < 25 else (129, 513)[k % 2]
        cplx = bool(k % 2)
        a = random_hermitian(n, rng, cplx)
        b = random_hermitian(n, rng, cplx)
        got = real_trace_product(a, b)
        want = trace_product_dense(a, b)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_real_trace_product_one_hermitian_operand_any_layout():
    # Re <a, b>_F equals Re tr(ab) when either operand is Hermitian; the
    # other may be any square matrix of either field, in any memory layout
    rng = np.random.default_rng(77)
    for n in (1, 5, 130):
        h = random_hermitian(n, rng, True)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for a, b in ((h, g), (g, h), (h, g.real), (g.real, h), (h.real, g),
                     (h.T, g), (h, g[:, ::-1].T), (h, np.asfortranarray(g))):
            assert real_trace_product(a, b) == pytest.approx(
                trace_product_dense(a, b), rel=1e-12, abs=1e-12)


def test_real_trace_product_rejects_mismatched_shapes():
    # elementwise a * b.T would broadcast these into a finite wrong number
    with pytest.raises(ValueError, match=r"\(3, 3\).*\(1, 1\)"):
        real_trace_product(np.eye(3), np.array([[2.0]]))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        real_trace_product(np.ones((2, 3)), np.ones((2, 3)))
    # the Frobenius inner product pairs entries by position, so operands
    # must be square of equal shape
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
        real_trace_product(np.ones((2, 3)), np.ones((3, 2)))


def test_real_trace_product_psd_pairs_nonnegative():
    rng = np.random.default_rng(72)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a = random_psd(n, rng)
        b = random_psd(n, rng)
        assert real_trace_product(a, b) >= -1e-12


def test_frobenius_norm_sq_frozen():
    a = np.array([[1.0, 1 + 1j], [1 - 1j, 0.0]])
    assert frobenius_norm_sq(a) == pytest.approx(5.0, abs=1e-14)


def test_frobenius_norm_sq_consistency():
    rng = np.random.default_rng(73)
    a = random_hermitian(6, rng)
    assert frobenius_norm_sq(a) == pytest.approx(np.linalg.norm(a) ** 2,
                                                 rel=1e-13)
    # for hermitian a, ||a||_F^2 = Re tr(a a)
    assert frobenius_norm_sq(a) == pytest.approx(trace_product_dense(a, a),
                                                 rel=1e-13)


@pytest.mark.parametrize("shape, cplx, order", [
    ((6, 6), False, "C"), ((6, 6), True, "C"), ((4, 9), False, "C"),
    ((4, 9), True, "C"), ((7, 3), False, "F"), ((7, 3), True, "F"),
    ((2, 3, 5), True, "C"), ((5,), False, "C")])
def test_frobenius_norm_sq_any_shape_and_layout(shape, cplx, order):
    rng = np.random.default_rng(78)
    a = rng.standard_normal(shape)
    if cplx:
        a = a + 1j * rng.standard_normal(shape)
    a = np.asarray(a, order=order)
    want = np.linalg.norm(a) ** 2
    assert frobenius_norm_sq(a) == pytest.approx(want, rel=1e-13)
    assert frobenius_norm_sq(a[::-2]) == pytest.approx(
        np.linalg.norm(a[::-2]) ** 2, rel=1e-13)


def test_outer_product_frozen():
    y = np.array([1 + 1j, 2.0])
    want = np.array([[2.0, 2 + 2j], [2 - 2j, 4.0]])
    got = outer_product(y)
    assert np.allclose(got, want, atol=1e-14)
    assert np.allclose(got, got.conj().T, atol=1e-14)
    assert np.linalg.matrix_rank(got) == 1
    assert is_psd(got)


def test_is_psd():
    assert is_psd(np.eye(3))
    assert not is_psd(np.diag([1.0, -1e-6]))
    # tiny negative eigenvalue within tolerance still counts as psd
    assert is_psd(np.diag([1.0, -1e-12]))
    rng = np.random.default_rng(74)
    for _ in range(10):
        assert is_psd(random_psd(5, rng))
        assert not is_psd(random_hermitian(5, rng) - 3 * np.eye(5))


def test_is_psd_does_not_depend_on_scale():
    # an absolute floor on the tolerance called 1e-6 * diag(1, -1e-6) PSD
    assert not is_psd(1e-6 * np.diag([1.0, -1e-6]))
    rng = np.random.default_rng(75)
    cases = [np.diag([1.0, -1e-6]), np.diag([1.0, -1e-12]), np.eye(3),
             -np.eye(2), np.zeros((2, 2)), random_psd(5, rng),
             random_hermitian(5, rng) - 3 * np.eye(5)]
    for a in cases:
        for c in 10.0 ** np.arange(-8, 9):
            assert is_psd(c * a) == is_psd(a), (a, c)


def test_hermitize_and_validation():
    rng = np.random.default_rng(75)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitize(a)
    assert np.allclose(h, h.conj().T, atol=1e-15)
    require_hermitian(h)
    with pytest.raises(ValueError):
        require_hermitian(a)
    # tolerated asymmetry just below the threshold
    require_hermitian(h + 1e-14 * 1j * np.eye(4))


def _flip_tolerances(a):
    """Largest tolerance the dense check rejects ``a`` at, and the next float up."""
    dev, scale = hermitian_check_dense(a)
    assert dev > 0.0
    tol = dev / scale
    while not dev > tol * scale:
        tol = np.nextafter(tol, 0.0)
    while dev > np.nextafter(tol, np.inf) * scale:
        tol = np.nextafter(tol, np.inf)
    return tol, np.nextafter(tol, np.inf)


def _tile_side(itemsize):
    """Side of the square tiles that require_hermitian walks."""
    rows, _ = next(_tiles(1, itemsize))
    return rows.stop


def _planted_positions(n, itemsize):
    """Below-diagonal (row, col) pairs on either side of the first tile
    edge, and in the last row, plus the last diagonal entry."""
    side = _tile_side(itemsize)
    edges = {p for p in (side - 1, side) if p < n}
    rows = {(p, q) for p in edges for q in (0, p - 1) if 0 <= q < p}
    cols = {(n - 1, q) for q in edges if q < n - 1}
    return sorted(rows | cols | {(n - 1, n - 1)})


def _assert_dense_decision(a, tol):
    """require_hermitian(a, tol) accepts exactly when the dense formula
    does, and otherwise reports its deviation."""
    dev, scale = hermitian_check_dense(a)
    if dev > tol * scale:
        with pytest.raises(ValueError, match=re.escape(f"deviation {dev:.3e}")):
            require_hermitian(a, tol=tol)
    else:
        assert require_hermitian(a, tol=tol) is a


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 89, 90, 91, 128, 129, 181,
                               256, 257, 300, 511, 512, 513])
def test_require_hermitian_tiled_equals_dense_formula(n, cplx):
    rng = np.random.default_rng(1000 + n)
    h = 1e-3 * random_hermitian(n, rng, cplx)
    assert hermitian_check_dense(h)[0] == 0.0
    for tol in (0.0, -0.0, -1e-300, math.nan, math.inf):
        _assert_dense_decision(h, tol)
    # a small bump keeps the scale at 1, so the flip tolerance pins the
    # deviation; a large one makes the planted entry the peak, so it pins
    # the scale too
    for bump in (2.5e-4, 10.0):
        for p, q in _planted_positions(n, h.itemsize) if n else []:
            a = h.copy()
            a[p, q] += bump * (1 + 0.5j if cplx else 1.0)
            if p == q and not cplx:
                require_hermitian(a, tol=0.0)  # a real diagonal stays symmetric
                continue
            reject, accept = _flip_tolerances(a)
            dev = hermitian_check_dense(a)[0]
            with pytest.raises(ValueError, match=re.escape(f"deviation {dev:.3e}")):
                require_hermitian(a, tol=reject)
            assert require_hermitian(a, tol=accept) is a
            if hermitian_check_dense(a)[1] == 1.0:
                # scale 1: the tolerance pins the deviation to the bit
                assert accept == dev
            _assert_dense_decision(a, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0)])
@pytest.mark.parametrize("n", [3, 300])
def test_require_hermitian_rejects_non_finite(n, bad):
    # at n = 300, (n - 1, 0) and the entry below the first tile edge are in
    # other tiles than their finite mirrors: such a pair must be rejected
    # before anything subtracts it
    side = _tile_side(16 if isinstance(bad, complex) else 8)
    for p, q in ((0, 0), (0, n - 1), (n - 1, 0), (n - 1, n // 2), (n - 1, n - 2),
                 (side, side - 1)):
        if p >= n:
            continue
        a = np.eye(n, dtype=complex if isinstance(bad, complex) else float)
        a[p, q] = bad
        for tol in (1e-10, 0.0, -1.0, math.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite"):
                    require_hermitian(a, tol=tol)
        if p != q:  # the mirrored entry too, so the deviation is NaN
            a[q, p] = bad
            with pytest.raises(ValueError, match="non-finite"):
                require_hermitian(a)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [3, 91, 129, 300])
def test_require_hermitian_exact_symmetry_rejects_non_finite(n, cplx):
    # each matrix is its conjugate transpose entry by entry, so its
    # mirrored tiles compare equal wherever no NaN is; the finiteness
    # test must reject it
    side = _tile_side(16 if cplx else 8)
    far = min(side, n - 1)  # in another tile than entry 0 when n > side

    def hermitian_with(entries):
        a = np.eye(n, dtype=complex if cplx else float)
        for (p, q), v in entries.items():
            a[p, q], a[q, p] = v, np.conj(v)
        return a

    for bad in (np.nan, np.inf, -np.inf):
        pair = complex(bad, 1.0) if cplx else bad
        for entries in ({(0, 0): bad}, {(n - 1, n - 1): bad},
                        {(0, n - 1): pair}, {(far, 0): pair},
                        {(0, 1): pair, (far, 0): pair}):
            with pytest.raises(ValueError, match="non-finite"):
                require_hermitian(hermitian_with(entries), tol=0.0)
    # +inf with -inf, in one tile and in two
    for q in (1, far):
        for entries in ({(0, 0): np.inf, (q, q): -np.inf},
                        {(0, q): np.inf, (q, 0): -np.inf}):
            with pytest.raises(ValueError, match="non-finite"):
                require_hermitian(hermitian_with(entries), tol=0.0)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [3, 300])
def test_require_hermitian_accepts_finite_entries_whose_sum_overflows(n, cplx):
    big = np.full((n, n), 1e308)
    if cplx:  # a Hermitian imaginary part, as large
        big = big + 1e308j * (np.triu(np.ones((n, n)), 1)
                              - np.tril(np.ones((n, n)), -1))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(big.sum())
    for tol in (0.0, 1e-10):
        _assert_dense_decision(big, tol)
        assert require_hermitian(big, tol=tol) is big
    bent = big.copy()
    bent[n - 1, 0] = 0.0
    for tol in (0.0, 1e-10, -1.0):
        _assert_dense_decision(bent, tol)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cplx", [False, True])
def test_selection_path_allocates_no_dense_temporary(cplx):
    n = 512
    rng = np.random.default_rng(76)
    a = random_hermitian(n, rng, cplx)
    b = random_hermitian(n, rng, cplx)
    y = random_samples(n, 8, rng, cplx)
    assert _traced_peak(require_hermitian, a) < a.nbytes / 4
    assert _traced_peak(real_trace_product, a, b) < a.nbytes / 4
    # the real N x N output plus O(N * tile) from the Hermitian check
    out_bytes = n * n * 8
    tiles = 64 * n * a.itemsize + 65536
    assert _traced_peak(toeplitz_average_target, a) < out_bytes + tiles
    assert _traced_peak(scaled_identity_target, a) < out_bytes + tiles
    # R scaled in place: one N x N output plus O(N * T)
    assert _traced_peak(scm, y) < a.nbytes + 4 * y.nbytes + 65536
    # raw targets are checked and swept in tiles: nothing N x N but the
    # block's R
    assert (_traced_peak(mt_select, "cv", [a, b], y)
            < a.nbytes + 4 * y.nbytes + tiles)


def test_require_hermitian_on_inexact_matrix_allocates_no_dense_temporary():
    # every off-diagonal tile pair differs, so each is subtracted and
    # the peak is formed
    n = 512
    rng = np.random.default_rng(77)
    a = random_hermitian(n, rng, True)
    a += 1e-12 * np.tril(rng.standard_normal((n, n)), -1)
    assert 0.0 < hermitian_check_dense(a)[0] <= 1e-10
    assert _traced_peak(require_hermitian, a) < a.nbytes / 4


def test_validate_samples():
    y = np.zeros((3, 4))
    validate_samples(y)
    with pytest.raises(ValueError):
        validate_samples(np.zeros(3))
    with pytest.raises(ValueError):
        validate_samples(np.zeros((3, 1)), min_count=2)
    bad = y.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        validate_samples(bad)


_EMPTY = np.zeros((0, 5))
_NO_TARGET = np.zeros((0, 0))
_METHODS = ("cv", "cv_constrained", "oracle", "oracle_constrained")


_EMPTY_BLOCK_CALLS = {
    "validate_samples": lambda: validate_samples(_EMPTY),
    "scm": lambda: scm(_EMPTY),
    "lw": lambda: lw_coefficients(_EMPTY),
    "glc": lambda: glc_coefficients(_EMPTY, _NO_TARGET),
    "oas": lambda: oas_coefficient(_EMPTY),
    "ols_fit_inputs": lambda: ols_fit(_EMPTY, np.eye(2, 5)),
    "ols_fit_outputs": lambda: ols_fit(np.eye(2, 5), _EMPTY),
    **{f"single_{m}": lambda m=m: select_single_target(
        m, _NO_TARGET, samples=_EMPTY, truth=_NO_TARGET) for m in _METHODS},
    **{f"multi_{m}": lambda m=m: mt_select(
        m, [_NO_TARGET], samples=_EMPTY, truth=_NO_TARGET) for m in _METHODS},
}


@pytest.mark.parametrize("call", sorted(_EMPTY_BLOCK_CALLS))
def test_empty_sample_block_raises(call):
    # N = 0 used to give rho = tau = 0 and an MtSolution without complaint
    with pytest.raises(ValueError, match=r"no rows \(shape \(0, 5\)\)"):
        _EMPTY_BLOCK_CALLS[call]()


@pytest.mark.parametrize("method", _METHODS)
def test_rank_deficient_regressors_raise(method):
    # the fit refuses collinear regressors, so no selection sees them; a
    # full-rank fit of the same shape is a whole selection input
    x = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]])
    y = np.arange(12.0).reshape(3, 4)
    with pytest.raises(ValueError, match="singular or ill-conditioned"):
        ols_fit(x, y)
    fit = ols_fit(x + np.eye(2, 4), y)
    sol = select_single_target(method, scaled_identity_target(fit),
                               samples=fit, truth=np.eye(3))
    assert min(sol.rho, sol.tau) >= 0.0 and np.isfinite(sol.objective)
