"""Targets built from a raw R carry their structure: over several tiles
with T < N, a selection on raw samples takes its Gram in closed form
from Y, and trusts a target only while it is the very object registered,
which numpy refuses to make writable again."""
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcov import estimators, multi_target
from shrinkcov.datagen import ar_covariance
from shrinkcov.estimators import (
    _fast_length,
    _operands,
    _structure,
    sample_block,
    scm,
)
from shrinkcov.hermitian import real_trace_product, require_hermitian
from shrinkcov.multi_target import _gram, mt_select
from shrinkcov.single_target import select_single_target
from shrinkcov.targets import (
    diagonal_target,
    scaled_identity_target,
    toeplitz_average_target,
)

from oracles import gram_dense, random_samples

BUILDERS = (scaled_identity_target, diagonal_target, toeplitz_average_target)
METHODS = ("cv", "cv_constrained", "oracle", "oracle_constrained")


def test_fast_length_is_the_least_5_smooth_length():
    smooth = []
    for m in range(1, 5001 + 1):
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            smooth.append(m)
    want = np.array(smooth)
    got = [_fast_length(n) for n in range(1, 5001)]
    assert got == want[np.searchsorted(want, np.arange(1, 5001))].tolist()
    assert _fast_length(0) == 1


def _ar_samples(n, t, r, rng, cplx):
    """N x T samples whose rows are an AR(1) sequence of coefficient r."""
    e = random_samples(n, t, rng, cplx)
    y = np.empty_like(e)
    y[0] = e[0]
    for i in range(1, n):
        y[i] = r * y[i - 1] + np.sqrt(1.0 - r * r) * e[i]
    return y


def _no_sweep(*args, **kwargs):
    raise AssertionError("the closed-form Gram swept its operands")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), n=st.sampled_from((129, 130, 300, 1000)),
       cplx=st.booleans())
def test_closed_form_gram_matches_the_dense_gram(data, n, cplx):
    t = data.draw(st.integers(2, min(n - 1, 80)) | st.integers(2, n - 1),
                  label="t")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    y = _ar_samples(n, t, rng.uniform(-0.9, 0.9), rng, cplx)
    # targets of the samples' own R and of another's, of either field
    other = _ar_samples(n, int(rng.integers(2, 40)), rng.uniform(-0.9, 0.9),
                        rng, bool(rng.integers(2)))
    sources = (scm(y), scm(other))
    picks = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                               min_size=1, max_size=3), label="targets")
    built = {}
    targets = [built.setdefault(p, BUILDERS[p[0]](sources[p[1]]))
               for p in picks]  # a repeated pick is the same object twice
    block = sample_block(y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multi_target, "_trace_products", _no_sweep)
        got = _gram(_operands(block, targets)[0], block)
    want = gram_dense(y, targets)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("cplx", (False, True))
def test_every_method_selects_on_registered_targets_as_on_copies(cplx):
    n, t = 300, 20
    rng = np.random.default_rng(11 + cplx)
    y = _ar_samples(n, t, 0.6, rng, cplx)
    r = scm(y)
    targets = [build(r) for build in BUILDERS]
    truth = toeplitz_average_target(ar_covariance(n, 0.6))  # registered too
    copies = [m.copy() for m in targets]
    assert all(_structure(m) is not None for m in (*targets, truth))
    for method in METHODS:
        got = mt_select(method, targets, samples=y, truth=truth)
        want = mt_select(method, copies, samples=y, truth=truth.copy())
        np.testing.assert_allclose([got.rho, *got.taus],
                                   [want.rho, *want.taus],
                                   rtol=1e-10, atol=1e-12)
        for target, copy in zip(targets, copies):
            got = select_single_target(method, target, samples=y, truth=truth)
            want = select_single_target(method, copy, samples=y,
                                        truth=truth.copy())
            np.testing.assert_allclose([got.rho, got.tau],
                                       [want.rho, want.tau],
                                       rtol=1e-10, atol=1e-12)


def test_registered_targets_take_the_closed_form(monkeypatch):
    y = _ar_samples(200, 20, 0.5, np.random.default_rng(3), False)
    targets = [build(scm(y)) for build in BUILDERS]
    monkeypatch.setattr(multi_target, "_trace_products", _no_sweep)
    mt_select("cv", targets, samples=y)
    with pytest.raises(AssertionError, match="swept"):
        mt_select("cv", [m.copy() for m in targets], samples=y)


@pytest.mark.parametrize("n, t, cplx", [(128, 20, False), (90, 20, True),
                                         (200, 200, False), (130, 300, True)])
def test_one_tile_or_t_at_least_n_keeps_the_checked_sweep(n, t, cplx,
                                                         swept_checks):
    y = _ar_samples(n, t, 0.5, np.random.default_rng(n + t), cplx)
    targets = [build(scm(y)) for build in BUILDERS]
    mt_select("cv", targets, samples=y)
    assert list(map(id, swept_checks)) == list(map(id, targets))


# ---------------------------------------------------------------------------
# the trust boundary


def _raw(n=200, t=20, seed=4, cplx=False):
    y = _ar_samples(n, t, 0.5, np.random.default_rng(seed), cplx)
    return y, scm(y)


@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("cplx", (False, True))
def test_targets_of_a_raw_r_are_read_only_and_registered(build, cplx):
    _, r = _raw(cplx=cplx)
    m = build(r)
    assert not m.flags.writeable and _structure(m) is not None
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 1.0
    assert r.flags.writeable  # the caller's R is left as it was


@pytest.mark.parametrize("build", BUILDERS)
def test_a_copy_is_writable_and_swept(build, swept_checks):
    y, r = _raw()
    copy = build(r).copy()
    assert copy.flags.writeable and _structure(copy) is None
    mt_select("cv", [copy], samples=y)
    assert len(swept_checks) == 1 and swept_checks[0] is copy
    copy[0, 1] += 1.0  # no longer Hermitian
    with pytest.raises(ValueError) as parent:
        require_hermitian(copy)
    with pytest.raises(ValueError) as got:
        mt_select("cv", [copy], samples=y)
    assert str(got.value) == str(parent.value)
    assert "not Hermitian" in str(got.value)


@pytest.mark.parametrize("build", BUILDERS)
def test_a_target_cannot_be_made_writable_again(build):
    _, r = _raw()
    m = build(r)
    before = m.copy()
    with pytest.raises(ValueError, match="WRITEABLE"):
        m.flags.writeable = True
    with pytest.raises(ValueError, match="WRITEABLE"):
        m.setflags(write=True)
    assert not m.flags.writeable and _structure(m) is not None
    assert not m.base.obj.flags.writeable  # nor is the array it views
    np.testing.assert_array_equal(m, before)


@pytest.mark.parametrize("n", (1, 200))
def test_a_registered_target_of_another_size_gets_the_sweeps_error(n):
    y = _ar_samples(300, 20, 0.5, np.random.default_rng(6), False)
    for build in BUILDERS:
        target = build(np.eye(n))
        assert _structure(target) is not None
        with pytest.raises(ValueError) as parent:
            real_trace_product(scm(y), target)
        with pytest.raises(ValueError) as got:
            mt_select("cv", [target], samples=y)
        assert str(got.value) == str(parent.value)
        assert "trace of mismatched shapes" in str(got.value)


def test_the_registry_forgets_a_dead_target_and_its_id():
    gc.collect()
    before = dict(estimators._STRUCTURES)
    _, r = _raw()
    targets = [build(r) for build in BUILDERS]
    ids = {id(m) for m in targets}
    assert ids <= set(estimators._STRUCTURES)
    del targets
    gc.collect()
    assert set(estimators._STRUCTURES) <= set(before)
    assert ids.isdisjoint(estimators._STRUCTURES)
    # new arrays of the same shape may take a dead target's id: none is
    # mistaken for it, read-only or not
    fresh = [np.zeros_like(r.real) for _ in range(64)]
    for m in fresh:
        m.flags.writeable = False
        assert _structure(m) is None
    # nor is an array that finds a live target's entry under its id
    live = toeplitz_average_target(r)
    stranger = np.array(live)
    stranger.flags.writeable = False
    estimators._STRUCTURES[id(stranger)] = estimators._STRUCTURES[id(live)]
    try:
        assert _structure(stranger) is None and _structure(live) is not None
    finally:
        del estimators._STRUCTURES[id(stranger)]


def test_a_target_whose_band_sum_overflows_has_no_structure():
    y, _ = _raw()
    n = y.shape[0]
    r = np.eye(n)
    r[np.arange(n - 1), np.arange(1, n)] = 1e308  # band 1 sums to inf
    r[np.arange(1, n), np.arange(n - 1)] = 1e308
    with np.errstate(over="ignore"):
        target = toeplitz_average_target(r)
    assert np.isinf(target[0, 1]) and not target.flags.writeable
    assert _structure(target) is None
    with pytest.raises(ValueError) as parent:
        require_hermitian(target)
    with pytest.raises(ValueError) as got:
        mt_select("cv", [target], samples=y)
    assert str(got.value) == str(parent.value)
