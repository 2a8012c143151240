import sys

import pytest

from shrinkcov import multi_target


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay acceptance verdict lines after the run.

    The acceptance tests write one PASS/FAIL line per criterion; pytest's
    fd-level capture swallows direct writes for passing tests, so the
    collected lines are printed here, where output is never captured.
    """
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def swept_checks(monkeypatch):
    """The matrices each selection validates before its trace sweep, in
    order.

    A selection checks the arrays that no owner owns in one place, by
    ``require_hermitian`` just before the sweep (``multi_target._gram``);
    the fixture records them there.
    """
    seen, real = [], multi_target.require_hermitian

    def check(a, *args, **kwargs):
        seen.append(a)
        return real(a, *args, **kwargs)
    monkeypatch.setattr(multi_target, "require_hermitian", check)
    return seen
