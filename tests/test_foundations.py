import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from shrinkcov.baselines import glc_coefficients, lw_coefficients, oas_coefficient
from shrinkcov.estimators import ols_fit, scm
from shrinkcov.datagen import ar_covariance
from shrinkcov.hermitian import (
    _TILE_BYTES,
    _tiles,
    _toeplitz,
    frobenius_norm_sq,
    hermitize,
    is_psd,
    real_trace_product,
    require_hermitian,
    validate_samples,
)
from shrinkcov.multi_target import mt_select
from shrinkcov.single_target import (
    ShrinkageSolution,
    select_single_target,
    shrink,
)
from shrinkcov.targets import (
    diagonal_target,
    scaled_identity_target,
    toeplitz_average_target,
)

from oracles import (
    hermitian_check_dense,
    random_hermitian,
    random_psd,
    random_samples,
    toeplitz_dense,
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


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [3, 300])
def test_require_hermitian_rejects_a_deviation_that_overflows(n, cplx):
    # finite mirrored entries whose difference is not: the deviation is
    # infinite, which rejects the matrix without an overflow warning
    pairs = [(1e308, -1e308)]
    if cplx:
        pairs.append((1e308j, 1e308j))  # conj(a_qp) = -1e308j
    for big, mirror in pairs:
        a = np.eye(n, dtype=complex if cplx else float)
        a[0, n - 1], a[n - 1, 0] = big, mirror
        for tol in (1e-10, 0.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError,
                                   match=r"not Hermitian \(max deviation inf\)"):
                    require_hermitian(a, tol=tol)


def test_require_hermitian_rejects_a_deviation_beside_an_overflowing_modulus():
    # |a_01| overflows, so the peak is inf and tol * peak is NaN at tol 0;
    # the deviation 0.5 of the (0, 2) pair still rejects, with no warning
    # (the suite turns RuntimeWarning into an error)
    a = np.eye(3, dtype=complex)
    a[0, 1] = 1.5e308 + 1.5e308j
    a[1, 0] = np.conj(a[0, 1])
    a[0, 2], a[2, 0] = 1.0, 0.5
    with pytest.raises(ValueError, match=r"max deviation 5\.000e-01"):
        require_hermitian(a, tol=0.0)
    a[2, 0] = 1.0  # Hermitian again: a deviation of 0 passes
    assert require_hermitian(a, tol=0.0) is a


@pytest.mark.parametrize("cplx", [False, True])
def test_require_hermitian_nan_tol_accepts_no_deviation(cplx):
    rng = np.random.default_rng(79)
    h = random_hermitian(5, rng, cplx)
    assert require_hermitian(h, tol=math.nan) is h  # exact, as before
    h[4, 1] += 1e-15
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(h, tol=math.nan)
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(h, tol=np.float64(math.nan))


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
    # raw targets are checked and swept in tiles, and R is formed a tile
    # at a time from y: nothing N x N
    assert _traced_peak(mt_select, "cv", [a, b], y) < a.nbytes / 4
    assert _traced_peak(select_single_target, "cv", a, y) < a.nbytes / 4
    r = scm(y)
    convex = [scaled_identity_target(r), diagonal_target(r)]
    assert (_traced_peak(mt_select, "cv_constrained", convex, y)
            < a.nbytes / 4)


@pytest.mark.parametrize("cplx", [False, True])
def test_shrink_allocates_its_output_and_one_strip(cplx):
    n = 512
    rng = np.random.default_rng(78)
    a = random_hermitian(n, rng, cplx)
    b = random_psd(n, rng, False)
    sol = ShrinkageSolution(0.75, 0.5)
    # a real strip added into a complex output is cast through numpy's
    # ufunc buffer
    cast = np.getbufsize() * a.itemsize if cplx else 0
    assert (_traced_peak(shrink, a, b, sol)
            < a.nbytes + _TILE_BYTES + cast + 16384)


@pytest.mark.parametrize("n", [1, 5, 16, 17, 300])
def test_shrink_by_strips_keeps_the_bits_of_the_dense_formula(n):
    rng = np.random.default_rng(n)
    real, cplx = random_hermitian(n, rng, False), random_hermitian(n, rng)
    for base, target in ((real, cplx), (cplx, real), (cplx, cplx),
                         (real.astype(np.float32), real)):
        for rho, tau in ((0.3, 0.7), (np.float64(1.5), 1e-300), (0.0, 2.0)):
            want = rho * base + tau * target
            got = shrink(base, target, ShrinkageSolution(rho, tau))
            assert got.dtype == want.dtype and np.array_equal(got, want)
    # eigenvalues and a scalar broadcast as before
    w = np.arange(1.0, n + 1.0)
    assert np.array_equal(shrink(w, 2.5, ShrinkageSolution(0.5, 0.25)),
                          0.5 * w + 0.25 * 2.5)


def test_require_hermitian_on_inexact_matrix_allocates_no_dense_temporary():
    # every off-diagonal tile pair differs, so each is subtracted and
    # the peak is formed
    n = 512
    rng = np.random.default_rng(77)
    a = random_hermitian(n, rng, True)
    a += 1e-12 * np.tril(rng.standard_normal((n, n)), -1)
    assert 0.0 < hermitian_check_dense(a)[0] <= 1e-10
    assert _traced_peak(require_hermitian, a) < a.nbytes / 8
    # a real symmetric matrix with one entry moved: its peak is taken
    # over tiles, not over row strips
    s = random_hermitian(n, rng, False)
    s[n - 1, 0] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(s)
    assert _traced_peak(lambda: require_hermitian(s, tol=1.0)) < s.nbytes / 8


def _toeplitz_pair(n, m, rng, cplx):
    c, r = rng.standard_normal(n), rng.standard_normal(m)
    if cplx:
        c, r = c + 1j * rng.standard_normal(n), r + 1j * rng.standard_normal(m)
    return c, r


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
def test_toeplitz_matches_the_dense_definition(n, cplx):
    rng = np.random.default_rng(78 + n)
    shapes = [(n, n)] + ([(n, n + 3), (n + 3, n)] if n else [])
    for rows, cols in shapes:
        c, r = _toeplitz_pair(rows, cols, rng, cplx)
        got = _toeplitz(c, r)
        want = toeplitz_dense(c, r)
        assert got.shape == (rows, cols) and got.dtype == want.dtype
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
def test_toeplitz_equals_scipy_byte_for_byte(n, cplx):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(79 + n)
    c, r = _toeplitz_pair(n, n, rng, cplx)
    # the pairs the package builds: one real first row for both sides,
    # and a conjugated first column
    for got, want in ((_toeplitz(c, r), linalg.toeplitz(c, r)),
                      (_toeplitz(c.real, c.real), linalg.toeplitz(c.real)),
                      (_toeplitz(np.conj(c), c), linalg.toeplitz(np.conj(c), c))):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    for coef in (0.5, 0.9, 0.3 + 0.4j):
        first_row = np.asarray(coef) ** np.arange(n)
        want = linalg.toeplitz(np.conj(first_row), first_row)
        got = ar_covariance(n, coef)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
