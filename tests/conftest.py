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
    """The matrices each trace sweep of a selection validates, in order.

    A selection validates the arrays that no owner owns inside its trace
    sweep (``hermitian._trace_products``'s ``check``), not by a separate
    ``require_hermitian`` call; the fixture records them there.
    """
    seen, real = [], multi_target._trace_products

    def sweep(mats, pairs, check=()):
        seen.extend(mats[k] for k in check)
        return real(mats, pairs, check)
    monkeypatch.setattr(multi_target, "_trace_products", sweep)
    return seen
