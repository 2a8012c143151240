"""The trace sweep validates the raw operands it reads, skips exact zero
tiles and takes tr R^2 of raw samples from their Gram."""
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shrinkcov import estimators, hermitian
from shrinkcov.datagen import RngStream, ar_covariance, gaussian_samples
from shrinkcov.estimators import _SampleFactor, sample_block, scm
from shrinkcov.hermitian import _tiles, _trace_products, real_trace_product
from shrinkcov.multi_target import mt_oracle_moments, mt_select
from shrinkcov.single_target import select_single_target, shrink
from shrinkcov.targets import (
    diagonal_target,
    scaled_identity_target,
    toeplitz_average_target,
)

from oracles import random_hermitian, random_samples, trace_products_unfused

SIZES = (1, 2, 90, 91, 128, 129, 300)
KINDS = ("dense", "diagonal", "zero")
PLANTS = ("none", "nan", "inf", "-inf", "mirrored-inf", "within", "above",
          "huge")
REGIONS = ("upper", "lower", "diagonal")


def _position(n, side, region, pick):
    """An entry of ``region`` next to a tile edge; an upper or lower one
    lies in another tile column than its row's diagonal tile when the
    matrix has more than one tile."""
    points = sorted({0, 1, side - 1, side, n - 2, n - 1} & set(range(n)))
    p = points[pick % len(points)]
    if region == "diagonal" or n == 1:
        return p, p
    q = (p + side) % n if n > side else (p + 1) % n
    q = q if q != p else (p + 1) % n
    low, high = min(p, q), max(p, q)
    return (low, high) if region == "upper" else (high, low)


def _operand(n, cplx, kind, plant, region, pick, rng):
    if kind == "dense":
        a = random_hermitian(n, rng, cplx)
    else:
        a = np.zeros((n, n), complex if cplx else float)
        if kind == "diagonal":
            a[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n)
    side = next(_tiles(1, 16 if cplx else 8))[0].stop
    p, q = _position(n, side, region, pick)
    if plant in ("nan", "inf", "-inf"):
        a[p, q] = float(plant)
    elif plant == "mirrored-inf":  # an equal pair: only finiteness rejects it
        a[p, q] = a[q, p] = np.inf
    elif plant in ("within", "above"):
        scale = max(1.0, float(np.abs(a).max()))
        step = 1.0 - 1e-3 if plant == "within" else 1.0 + 1e-3
        a[p, q] += step * 1e-10 * scale
    elif plant == "huge":  # finite and Hermitian, but |a_ij|^2 overflows
        a *= 1e200
    return a


def _outcome(run):
    """("ok", bit patterns of the products) or ("error", message)."""
    try:
        return "ok", [float(v).hex() if v == v else "nan" for v in run()]
    except ValueError as exc:
        return "error", str(exc)


operand = st.tuples(st.booleans(), st.sampled_from(KINDS),
                    st.sampled_from(PLANTS), st.sampled_from(REGIONS),
                    st.integers(0, 5), st.booleans())


@settings(derandomize=True, deadline=None, max_examples=400)
@given(n=st.sampled_from(SIZES), ops=st.lists(operand, min_size=1, max_size=3),
       first_rows=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
# a zero tile next to a rejected non-finite operand and next to a
# non-finite one that no check reads
@example(n=300, ops=[(False, "diagonal", "none", "upper", 0, True),
                     (False, "dense", "inf", "upper", 2, True)],
         first_rows=False, seed=1)
@example(n=300, ops=[(True, "diagonal", "none", "upper", 0, True),
                     (True, "dense", "nan", "lower", 3, False)],
         first_rows=False, seed=2)
# a tolerance decision that only the last operand's deviation reaches
@example(n=129, ops=[(False, "dense", "mirrored-inf", "upper", 1, False),
                     (False, "dense", "above", "lower", 2, True)],
         first_rows=False, seed=3)
# the first operand's error wins over a later one's, whichever the walk
# meets first
@example(n=300, ops=[(False, "dense", "above", "lower", 5, True),
                     (False, "dense", "nan", "upper", 0, True)],
         first_rows=False, seed=4)
@example(n=300, ops=[(True, "dense", "above", "upper", 4, True),
                     (False, "dense", "above", "upper", 0, True)],
         first_rows=False, seed=5)
# an equal infinite pair of an operand whose tr(M^2) the oracle's rows
# do not take
@example(n=300, ops=[(False, "dense", "none", "upper", 0, False),
                     (False, "diagonal", "none", "upper", 0, True),
                     (False, "dense", "mirrored-inf", "upper", 2, True)],
         first_rows=True, seed=6)
def test_fused_sweep_decides_and_sums_as_check_then_plain_sweep(
        n, ops, first_rows, seed):
    # each operand: (complex, kind, plant, region, position, checked)
    rng = np.random.default_rng(seed)
    mats = [_operand(n, cplx, kind, plant, region, pick, rng)
            for cplx, kind, plant, region, pick, _ in ops]
    check = [k for k, spec in enumerate(ops) if spec[5]]
    k = len(mats)
    rows = max(1, k - 1) if first_rows else k  # the oracle's rows, or all
    pairs = [(i, j) for i in range(rows) for j in range(i, k)]
    tiles = list(_tiles(n, max(m.itemsize for m in mats)))
    want = _outcome(lambda: trace_products_unfused(mats, pairs, check, tiles))
    assert _outcome(lambda: _trace_products(mats, pairs, check)) == want


# ---------------------------------------------------------------------------
# the N >> T selection op: three checks per op, R's tiles only where needed


def _highdim_op(n=300, t=20, seed=5):
    sigma = ar_covariance(n, 0.5)
    return gaussian_samples(sigma, t, RngStream(seed).generator())


def test_selection_op_validates_each_raw_target_once_per_selection(
        monkeypatch, swept_checks):
    y = _highdim_op()
    r = scm(y)
    targets = [scaled_identity_target(r), diagonal_target(r),
               toeplitz_average_target(r)]
    real, checks = hermitian.require_hermitian, []
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("shrinkcov")
                and getattr(module, "require_hermitian", None) is real):
            monkeypatch.setattr(
                module, "require_hermitian",
                lambda a, *x, **k: checks.append(a) or real(a, *x, **k))
    real_tile, tiles = estimators._SampleFactor.tile, []
    monkeypatch.setattr(estimators._SampleFactor, "tile",
                        lambda f, rows, cols: tiles.append((rows, cols))
                        or real_tile(f, rows, cols))
    grid = list(_tiles(y.shape[0], y.itemsize))
    assert len(grid) > 1

    # targets built from a raw R are registered: neither selection checks
    # or sweeps them, nor forms a tile of R
    sol = select_single_target("cv", targets[0], samples=y)
    shrink(r, targets[0], sol)
    mt_select("cv", targets, samples=y)
    assert swept_checks == [] and tiles == []

    # their copies are raw: each is validated once per selection
    copies = [m.copy() for m in targets]
    sol = select_single_target("cv", copies[0], samples=y)
    assert [m is copies[0] for m in swept_checks] == [True]
    # the identity's off-diagonal tiles are zero: R is formed on the diagonal
    assert tiles == [(rows, cols) for rows, cols in grid if rows == cols]
    shrink(r, copies[0], sol)
    swept_checks.clear()
    tiles.clear()
    mt_select("cv", copies, samples=y)
    assert list(map(id, swept_checks)) == list(map(id, copies))
    assert tiles == grid  # the Toeplitz target needs every tile of R, once
    # no separate check of a raw target, nor of R, in any selection
    assert checks == []
    # an op's only checks: the target builders' checks of the caller's R
    for build in (scaled_identity_target, diagonal_target,
                  toeplitz_average_target):
        build(r)
    assert len(checks) == 3 and all(a is r for a in checks)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n, t", [(300, 20), (129, 5), (300, 299), (300, 300)])
def test_tr_r2_of_a_multi_tile_sweep_comes_from_the_samples_gram(n, t, cplx):
    rng = np.random.default_rng(n + t)
    y = random_samples(n, t, rng, cplx)
    block = sample_block(y)
    r = scm(y)
    (got,) = _trace_products([_SampleFactor(block)], [(0, 0)])
    want = real_trace_product(r, r)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    gram = y.conj().T @ y
    if t < n:
        assert got == block.tr_r2 == hermitian.frobenius_norm_sq(gram) / t ** 2
    else:  # the Gram is no smaller than R: the sweep takes it
        assert "tr_r2" not in vars(block)


def test_a_zero_tile_skips_only_a_product_with_finite_r():
    # the last rows' products overflow: R's last diagonal tile is infinite
    # where the target's is zero, so that product is 0 * inf, NaN, as in
    # the plain sweep; with R finite everywhere it is an exact 0
    rng = np.random.default_rng(9)
    y = random_samples(300, 20, rng, False)
    d = np.diag(np.r_[np.ones(256), np.zeros(44)])
    for scale, finite in ((1.0, True), (1e160, False)):
        big = y.copy()
        big[256:] *= scale
        factor = _SampleFactor(sample_block(big))
        assert factor.finite is finite
        with np.errstate(over="ignore", invalid="ignore"):  # R's overflow
            (got,) = _trace_products([factor, d], [(0, 1)], [1])
        assert np.isnan(got) is not finite


def test_two_selections_on_one_block_take_tr_r2_once(monkeypatch):
    y = _highdim_op()
    block = sample_block(y)
    t0 = scaled_identity_target(scm(y))
    real, grams = hermitian.frobenius_norm_sq, []
    monkeypatch.setattr(estimators, "frobenius_norm_sq",
                        lambda a: grams.append(a.shape) or real(a))
    first = select_single_target("cv", t0, samples=block)
    again = select_single_target("cv", t0, samples=block)
    mt_select("cv", [t0], samples=block)
    assert first == again
    assert grams.count((20, 20)) == 1


def test_one_tile_raw_selections_keep_the_memo_paths_bits():
    # one tile: the raw target is checked by require_hermitian and every
    # product is real_trace_product's einsum, as on an owned block
    for cplx in (False, True):
        rng = np.random.default_rng(3 + cplx)
        y = random_samples(40, 12, rng, cplx)
        block, raw = sample_block(y), sample_block(y)
        owned = [build(block) for build in (scaled_identity_target,
                                            diagonal_target,
                                            toeplitz_average_target)]
        copies = [m.copy() for m in owned]
        truth = random_hermitian(40, rng, cplx)
        block.own(truth)
        for method in ("cv", "cv_constrained"):
            a = mt_select(method, owned, samples=block)
            b = mt_select(method, copies, samples=raw)
            assert (a.rho, a.taus.tolist(), a.objective) == (
                b.rho, b.taus.tolist(), b.objective)
        a = mt_oracle_moments(block, owned, truth)
        b = mt_oracle_moments(raw, copies, truth.copy())
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)
        assert a.const == b.const


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_a_self_product_is_the_squared_norm_bit_for_bit(n, cplx):
    # the oracle's constant is the Gram's tr(Sigma Sigma), which an owner
    # memoizes as real_trace_product(Sigma, Sigma): for a C-contiguous
    # Hermitian matrix it is frobenius_norm_sq, bit for bit
    rng = np.random.default_rng(n + 1000 * cplx)
    for m in (random_hermitian(n, rng, cplx), scm(random_samples(n, 7, rng,
                                                                 cplx))):
        assert m.flags.c_contiguous
        assert real_trace_product(m, m) == hermitian.frobenius_norm_sq(m)
