"""Public entry points never write to their inputs.

Every input below is a read-only array, so a write in place raises, and
its bytes are compared after all the calls.  N = 300 is above one tile
of the trace sweep and of ``shrink``'s strips, real and complex.
"""

import numpy as np
import pytest

from shrinkcov.applications import (
    lmmse_detect,
    ls_to_channel_cov,
    mmse_channel_estimate,
    mvdr_weights,
    mvdr_weights_pseudo,
    output_sinr,
    spectral_channel_estimate,
    ula_steering,
)
from shrinkcov.baselines import glc_coefficients, lw_coefficients, oas_coefficient
from shrinkcov.datagen import ar_covariance
from shrinkcov.estimators import ols_fit, sample_block, scm
from shrinkcov.multi_target import mt_select
from shrinkcov.single_target import ShrinkageSolution, select_single_target, shrink
from shrinkcov.targets import (
    diagonal_target,
    knowledge_aided_target,
    scaled_identity_target,
    toeplitz_average_target,
)

from oracles import random_samples

METHODS = ("cv", "cv_constrained", "oracle", "oracle_constrained")
TARGETS = (scaled_identity_target, diagonal_target, toeplitz_average_target)


def _frozen(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def _calls(y, x, r, targets, truth, cov, steering):
    """Every public entry point on the given read-only operands."""
    scm(y)
    for f in TARGETS:
        f(r)
    knowledge_aided_target(y)
    block, fit = sample_block(y), ols_fit(x, y)
    for samples, ts in ((y, targets), (block, [f(block) for f in TARGETS]),
                        (fit, [f(fit) for f in TARGETS])):
        for method in METHODS:
            select_single_target(method, ts[0], samples=samples, truth=truth)
            mt_select(method, ts, samples=samples, truth=truth)
    for method in METHODS:  # owned samples, raw targets
        mt_select(method, targets, samples=block, truth=truth)
    lw_coefficients(y)
    oas_coefficient(y)
    glc_coefficients(y, targets[2])
    shrink(r, targets[0], ShrinkageSolution(0.6, 0.4))
    w = mvdr_weights(cov, steering)
    mvdr_weights_pseudo(cov, steering)
    mvdr_weights_pseudo(r, steering)
    output_sinr(w, steering, 1.0, cov)
    n = cov.shape[0]
    pilot = _frozen(np.eye(n))
    mmse_channel_estimate(cov, pilot, steering)
    ls_to_channel_cov(cov, 2.0)
    basis = _frozen(np.linalg.qr(y)[0])
    eigs = _frozen(np.linspace(1.0, 2.0, basis.shape[1]))
    spectral_channel_estimate(basis, eigs, 0.5, 2.0, steering)
    lmmse_detect(_frozen(y[:, :2]), cov, steering)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [7, 300])
def test_public_entry_points_leave_read_only_inputs_unchanged(n, cplx):
    rng = np.random.default_rng(n + cplx)
    t = 12
    y = _frozen(random_samples(n, t, rng, cplx))
    x = _frozen(random_samples(2, t, rng, cplx))
    r = _frozen(scm(y))
    targets = [_frozen(f(scm(y))) for f in TARGETS]
    truth = _frozen(ar_covariance(n, 0.6j if cplx else 0.6))
    cov = _frozen(truth + np.eye(n))
    steering = _frozen(ula_steering(0.3, n))
    inputs = [y, x, r, *targets, truth, cov, steering]
    saved = [a.tobytes() for a in inputs]
    _calls(y, x, r, targets, truth, cov, steering)
    assert [a.tobytes() for a in inputs] == saved
