"""One dtype contract: a selection on integer, bool or narrow input gives
the results of its 64-bit cast, bit for bit, and agrees with the naive
leave-one-out references."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcov.baselines import glc_coefficients
from shrinkcov.estimators import ols_fit, sample_block, scm
from shrinkcov.multi_target import mt_oracle_moments, mt_select
from shrinkcov.single_target import select_single_target

from oracles import (
    convex_design,
    enumerate_nonneg_qp,
    enumerate_nonneg_qp_simplex,
    mt_moments_dense,
    ols_loo_cov_refit,
    ols_refit,
    scm_leave_one_out,
    scm_naive,
)

DTYPES = ("int64", "bool", "float32", "float64", "complex64", "complex128")
SIZES = (1, 2, 90, 91, 128, 129, 300)
METHODS = ("cv", "cv_constrained", "oracle", "oracle_constrained")


def _wide(a):
    """The 64-bit cast of an input."""
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)


def _inputs(dtype, n, t, k, seed):
    """Samples whose columns share one integer squared norm s, so that
    tr R = s exactly; K targets whose integer diagonals sum to s, so that
    the convex methods accept them; a truth; and two regressor rows.  All
    are in ``dtype``, the matrices Hermitian, and every value is held
    exactly by float16 too, so that a cast changes no value."""
    rng = np.random.default_rng(seed)
    kind = np.dtype(dtype).kind
    if kind == "b":
        ones = rng.integers(1, n + 1)
        y = np.array([rng.permutation(n) < ones for _ in range(t)]).T
        s = ones
    else:
        v = rng.integers(-2, 3, n)
        v[0] = 1
        y = np.array([rng.permutation(v) * rng.choice((-1, 1))
                      for _ in range(t)]).T
        if kind == "c":  # a column times 1j keeps its norm
            y = y * rng.choice((1, 1j), t)
        s = int(v @ v)

    def hermitian(diag):
        if kind == "b":
            u = np.triu(rng.random((n, n)) < 0.3, 1)
            return u | u.T | np.diag(diag.astype(bool))
        u = (rng.integers(-2, 3, (n, n)) if kind == "i"
             else rng.standard_normal((n, n)).astype(np.float16))
        if kind == "c":
            u = u + 1j * rng.standard_normal((n, n)).astype(np.float16)
        u = np.triu(u, 1)
        return (u + u.conj().T + np.diag(diag)).astype(dtype)

    def diagonal():  # s entries of 1 for bool, else integers summing to s
        if kind == "b":
            return (rng.permutation(n) < s).astype(int)
        return rng.multinomial(s, np.full(n, 1.0 / n))
    targets = [hermitian(diagonal()) for _ in range(k)]
    truth = hermitian(rng.integers(0, 4, n))
    x = rng.integers(0 if kind == "b" else -2, 3, (2, t)).astype(dtype)
    return y.astype(dtype), targets, truth, x


def _base(name, y, x):
    return {"raw": lambda: y, "block": lambda: sample_block(y),
            "fit": lambda: ols_fit(x, y)}[name]()


def _outcomes(base, y, targets, truth, x):
    """Per method, the multi-target and single-target selections, or the
    error each raises."""
    out = []
    for method in METHODS:
        for select in (
                lambda: mt_select(method, targets, samples=_base(base, y, x),
                                  truth=truth),
                lambda: select_single_target(method, targets[0],
                                             samples=_base(base, y, x),
                                             truth=truth)):
            try:
                sol = select()
            except ValueError as exc:
                out.append(("error", str(exc)))
                continue
            out.append(("ok", *(v.tolist() if isinstance(v, np.ndarray)
                                else v for v in vars(sol).values())))
    return out


def _reference(oracle, base, y, targets, truth, x):
    """The naive cross-validation or oracle quadratic, from explicit
    leave-one-out estimates (a refit of each on the least-squares path)."""
    if oracle:
        covs = [ols_refit(x, y)[2] if base == "fit" else scm_naive(y)]
        return mt_moments_dense(covs, [truth], targets)
    r = scm_naive(y)
    covs = [ols_loo_cov_refit(x, y, i) if base == "fit"
            else scm_leave_one_out(r, y, i) for i in range(y.shape[1])]
    return mt_moments_dense(covs, [np.outer(c, c.conj()) for c in y.T],
                            targets)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(dtype=st.sampled_from(DTYPES), n=st.sampled_from(SIZES),
       t=st.sampled_from(range(3, 61)),
       base=st.sampled_from(("raw", "block", "fit")), k=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_input_selects_as_its_64_bit_cast(dtype, n, t, base, k, seed):
    y, targets, truth, x = _inputs(dtype, n, t, k, seed)
    wide = (_wide(y), [_wide(m) for m in targets], _wide(truth), _wide(x))
    got = _outcomes(base, y, targets, truth, x)
    assert got == _outcomes(base, *wide)
    if n > 129:
        return
    y, targets, truth, x = wide
    refs = {oracle: _reference(oracle, base, y, targets, truth, x)
            for oracle in (False, True)}
    for method, outcome in zip(METHODS, got[::2]):  # the mt_select ones
        if outcome[0] != "ok":
            continue
        _, rho, taus, _, objective = outcome
        m = refs[method.startswith("oracle")]
        best = (enumerate_nonneg_qp_simplex(convex_design(m))[1]
                if method.endswith("constrained")
                else enumerate_nonneg_qp(m)[1])
        tol = 1e-8 * max(1.0, m.const, *np.diag(m.a))
        assert abs(objective - best) <= tol
        assert abs(m.objective([rho, *taus]) - best) <= tol


@pytest.mark.parametrize("dtype", ["float16", "float32", "complex64"])
def test_narrow_targets_and_truths_give_the_results_of_their_64_bit_casts(
        dtype):
    # float32 targets were multiplied in float32 and float16 ones in
    # float16, and a float32 truth's oracle constant was a float32 sum
    y, targets, truth, x = _inputs(dtype, 12, 16, 2, seed=4)
    y, x = _wide(y), _wide(x)
    fit = ols_fit(x, y)

    def outcomes(targets, truth):
        out = _outcomes("block", y, targets, truth, x)
        assert all(o[0] == "ok" for o in out)
        for base in (sample_block(y), scm(y), fit):
            m = mt_oracle_moments(base, targets, truth)
            out.append((m.a.tolist(), m.b.tolist(), m.const))
        return out + [glc_coefficients(y, targets[0])]
    assert outcomes(targets, truth) == outcomes([_wide(m) for m in targets],
                                                _wide(truth))
