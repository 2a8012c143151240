"""The validated sample block: same numbers as the raw path, trust per object."""
import numpy as np
import pytest

from shrinkcov import estimators, hermitian, multi_target
from shrinkcov.baselines import glc_coefficients, lw_coefficients, oas_coefficient
from shrinkcov.estimators import (
    SampleBlock,
    ols_covariance,
    ols_fit,
    sample_block,
    scm,
)
from shrinkcov.multi_target import (
    mt_constrained_moments,
    mt_constrained_oracle_moments,
    mt_ols_loocv_moments,
    mt_oracle_moments,
    mt_scm_loocv_moments,
    mt_select,
)
from shrinkcov.single_target import (
    ols_loo_moments,
    oracle_moments,
    scm_fast_moments,
    select_single_target,
)
from shrinkcov.targets import (
    diagonal_target,
    knowledge_aided_target,
    scaled_identity_target,
    toeplitz_average_target,
)

from oracles import random_psd, random_samples

METHODS = ("cv", "cv_constrained", "oracle", "oracle_constrained")
BUILDERS = (scaled_identity_target, diagonal_target, toeplitz_average_target)


def _data(complex_field, n=6, t=9, seed=0):
    rng = np.random.default_rng(seed + 10 * complex_field)
    y = random_samples(n, t, rng, complex_field)
    return y, random_psd(n, rng, complex_field)


def _same(a, b):
    """Bitwise equality of results made of arrays, floats and enums."""
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            _same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b or (a != a and b != b)


# ---------------------------------------------------------------------------
# a block gives the raw path's numbers bit for bit


@pytest.mark.parametrize("complex_field", (False, True))
def test_block_path_is_bit_identical_to_raw_path(complex_field):
    y, truth = _data(complex_field)
    block = sample_block(y)
    r = scm(y)
    assert np.array_equal(block.r, r)
    targets = [build(block) for build in BUILDERS]
    raw_targets = [build(r) for build in BUILDERS]
    assert _same(targets, raw_targets)
    t0, raw_t0 = targets[0], raw_targets[0]

    pairs = [
        (mt_scm_loocv_moments(block, targets),
         mt_scm_loocv_moments(y, raw_targets)),
        (mt_oracle_moments(block, targets, truth),
         mt_oracle_moments(r, raw_targets, truth)),
        (mt_constrained_moments(block, targets),
         mt_constrained_moments(y, raw_targets)),
        (mt_constrained_oracle_moments(block, targets, truth),
         mt_constrained_oracle_moments(r, raw_targets, truth)),
        (oracle_moments(block, t0, truth), oracle_moments(r, raw_t0, truth)),
        (scm_fast_moments(block, t0), scm_fast_moments(y, raw_t0)),
        (lw_coefficients(block), lw_coefficients(y)),
        (glc_coefficients(block, t0), glc_coefficients(y, raw_t0)),
        (oas_coefficient(block), oas_coefficient(y)),
        (knowledge_aided_target(block), knowledge_aided_target(y)),
    ]
    for method in METHODS:
        pairs.append((mt_select(method, targets, samples=block, truth=truth),
                      mt_select(method, raw_targets, samples=y, truth=truth)))
        pairs.append((select_single_target(method, t0, samples=block,
                                           truth=truth),
                      select_single_target(method, raw_t0, samples=y,
                                           truth=truth)))
    for k, (got, want) in enumerate(pairs):
        assert _same(got, want), k


@pytest.mark.parametrize("complex_field", (False, True))
def test_knowledge_aided_fallback_block_matches_raw(complex_field):
    y, _ = _data(complex_field, t=2)  # below the cross-validation floor T >= 3
    assert np.array_equal(knowledge_aided_target(sample_block(y)),
                          knowledge_aided_target(y))


@pytest.mark.parametrize("complex_field", (False, True))
def test_least_squares_block_path_is_bit_identical(complex_field):
    rng = np.random.default_rng(7 + complex_field)
    x = random_samples(3, 12, rng, complex_field)
    y = random_samples(5, 12, rng, complex_field)
    outputs = sample_block(y, name="outputs")
    fit, raw_fit = ols_fit(x, outputs), ols_fit(x, y)
    assert _same(fit, raw_fit)
    assert np.array_equal(fit.covariance, ols_covariance(raw_fit))
    t0 = scaled_identity_target(ols_covariance(fit))
    assert _same(mt_ols_loocv_moments(fit, outputs, [t0]),
                 mt_ols_loocv_moments(raw_fit, y, [t0]))
    assert _same(ols_loo_moments(fit, outputs, t0),
                 ols_loo_moments(raw_fit, y, t0))


def test_short_block_raises_the_raw_error():
    y, _ = _data(False, t=2)
    block = sample_block(y)
    t0 = scaled_identity_target(block)
    with pytest.raises(ValueError) as raw:
        mt_scm_loocv_moments(y, [t0])
    with pytest.raises(ValueError) as wrapped:
        mt_scm_loocv_moments(block, [t0])
    assert str(wrapped.value) == str(raw.value)
    assert "at least 3 columns" in str(raw.value)
    with pytest.raises(ValueError, match="at least 3 columns"):
        mt_select("cv", [t0], samples=block)


def test_sample_block_validates_raw_input_once_and_passes_blocks():
    y, _ = _data(True)
    block = sample_block(y)
    assert isinstance(block, SampleBlock)
    assert sample_block(block) is block
    assert sample_block(block, min_count=9) is block
    assert np.array_equal(block.y, y) and block.r is block.r
    bad = y.copy()
    bad[1, 2] = np.nan
    for samples in (bad, np.zeros((0, 3)), np.ones(4)):
        with pytest.raises(ValueError):
            sample_block(samples)


# ---------------------------------------------------------------------------
# trust is per object


def _bad_matrices(n, complex_field):
    """A non-Hermitian and a non-finite matrix of order n."""
    skew = np.eye(n, dtype=complex if complex_field else float)
    skew[0, 1] = 1.0
    nan = np.eye(n)
    nan[1, 1] = np.nan
    return skew, nan


@pytest.mark.parametrize("complex_field", (False, True))
def test_block_still_checks_targets_it_did_not_build(complex_field):
    y, truth = _data(complex_field)
    block = sample_block(y)
    t0 = scaled_identity_target(block)
    for bad in _bad_matrices(y.shape[0], complex_field):
        calls = [
            lambda: mt_scm_loocv_moments(block, [t0, bad]),
            lambda: mt_oracle_moments(block, [t0, bad], truth),
            lambda: oracle_moments(block, bad, truth),
            lambda: scm_fast_moments(block, bad),
            lambda: glc_coefficients(block, bad),
        ]
        calls += [lambda m=m: mt_select(m, [t0, bad], samples=block,
                                        truth=truth) for m in METHODS]
        calls += [lambda m=m: select_single_target(m, bad, samples=block,
                                                   truth=truth)
                  for m in METHODS]
        for call in calls:
            with pytest.raises(ValueError):
                call()


@pytest.mark.parametrize("complex_field", (False, True))
def test_block_still_checks_truth(complex_field):
    y, _ = _data(complex_field)
    block = sample_block(y)
    t0 = scaled_identity_target(block)
    for bad in _bad_matrices(y.shape[0], complex_field):
        calls = [
            lambda: mt_oracle_moments(block, [t0], bad),
            lambda: oracle_moments(block, t0, bad),
        ]
        calls += [lambda m=m: mt_select(m, [t0], samples=block, truth=bad)
                  for m in ("oracle", "oracle_constrained")]
        calls += [lambda m=m: select_single_target(m, t0, samples=block,
                                                   truth=bad)
                  for m in ("oracle", "oracle_constrained")]
        for call in calls:
            with pytest.raises(ValueError):
                call()


def test_only_the_blocks_own_matrices_skip_the_check(monkeypatch):
    y, truth = _data(True)
    block, other = sample_block(y), sample_block(y.copy())
    own = [build(block) for build in BUILDERS]
    foreign = scaled_identity_target(other)  # valid, but not block's
    copy = own[1].copy()                      # equal values, another object
    seen = []

    def counted(a, *args, **kwargs):
        seen.append(a)
        return hermitian.require_hermitian(a, *args, **kwargs)
    monkeypatch.setattr(multi_target, "require_hermitian", counted)
    monkeypatch.setattr(estimators, "require_hermitian", counted)

    mt_scm_loocv_moments(block, [*own, foreign, copy])
    assert len(seen) == 2
    assert seen[0] is foreign and seen[1] is copy
    seen.clear()
    mt_oracle_moments(block, own, truth)
    assert len(seen) == 1 and seen[0] is truth
    seen.clear()
    mt_oracle_moments(other, own, truth)   # another block trusts none of them
    assert len(seen) == 4


def test_block_matrices_are_read_only_and_scm_stays_writable():
    y, _ = _data(True)
    block = sample_block(y)
    for m in (block.y, block.r, *[build(block) for build in BUILDERS]):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0
    assert y.flags.writeable  # the caller's array is left as it was
    fresh = scm(y)
    assert fresh.flags.writeable and fresh is not scm(y)
    fresh[0, 0] = 1.0
    assert block.r[0, 0] != 1.0
    # a raw R's targets stay the caller's to change
    for build in BUILDERS:
        assert build(scm(y)).flags.writeable
    x = random_samples(2, 9, np.random.default_rng(3), True)
    cov = ols_covariance(ols_fit(x, y))
    assert cov.flags.writeable


@pytest.mark.parametrize("build", BUILDERS)
def test_raw_matrices_are_still_checked(build):
    for bad in _bad_matrices(4, True):
        with pytest.raises(ValueError):
            build(bad)


# ---------------------------------------------------------------------------
# the block's memo: trace products of its own matrices, sum_t ||y_t||^4


@pytest.mark.parametrize("complex_field", (False, True))
def test_memoized_trace_product_equals_a_fresh_call(complex_field, monkeypatch):
    y, _ = _data(complex_field)
    block = sample_block(y)
    owned = [block.r, *(build(block) for build in BUILDERS)]
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return hermitian.real_trace_product(a, b)
    monkeypatch.setattr(estimators, "real_trace_product", counted)
    for a in owned:
        for b in owned:
            fresh = hermitian.real_trace_product(a, b)
            for _ in range(2):  # the first call, then the memo
                assert block.trace(a, b) == fresh
                assert block.trace(b, a) == fresh  # symmetric, bit for bit
    k = len(owned)
    assert len(calls) == k * (k + 1) // 2  # each unordered pair once
    assert block.quart == float(np.sum(np.sum(np.abs(y) ** 2, axis=0) ** 2))


@pytest.mark.parametrize("complex_field", (False, True))
def test_matrices_the_block_does_not_own_are_never_memoized(complex_field):
    y, truth = _data(complex_field)
    block, other = sample_block(y), sample_block(y.copy())
    t0 = scaled_identity_target(block)
    raw = np.diag(np.arange(1.0, 7.0))        # the caller's, writable
    copy = t0.copy()                          # equal values, another object
    foreign = scaled_identity_target(other)   # owned, but by another block
    for m in (raw, copy, foreign):
        assert block.trace(block.r, m) == hermitian.real_trace_product(block.r, m)
    before = (mt_scm_loocv_moments(block, [t0, raw]),
              mt_oracle_moments(block, [t0, raw], truth),
              glc_coefficients(block, raw), block.trace(raw, raw))
    raw[0, 0] += 5.0
    copy[1, 1] += 5.0
    after = (mt_scm_loocv_moments(block, [t0, raw]),
             mt_oracle_moments(block, [t0, raw], truth),
             glc_coefficients(block, raw), block.trace(raw, raw))
    for old, new in zip(before[:2], after[:2]):
        assert old.a[2, 2] != new.a[2, 2] and old.a[0, 2] != new.a[0, 2]
        assert old.a[1, 1] == new.a[1, 1]  # the owned pair is unchanged
    assert before[2].tau != after[2].tau and before[3] != after[3]
    assert block.trace(block.r, copy) == \
        hermitian.real_trace_product(block.r, copy)
    # each call on the mutated raw target equals a fresh block's
    fresh = sample_block(y)
    assert _same(after[0], mt_scm_loocv_moments(fresh, [scaled_identity_target(
        fresh), raw]))
