"""Acceptance gate: one pass/fail line per criterion, printed unconditionally."""

import pytest

from resurgentia import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.line()


def test_every_criterion_is_registered_once_in_order():
    assert [c.__name__ for c in acceptance.CRITERIA] == [f"criterion_{k}" for k in range(1, 10)]
    assert [r.number for r in acceptance.run_all()] == list(range(1, 10))
