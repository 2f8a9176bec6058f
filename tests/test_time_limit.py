"""The per-test time limit set in conftest.py."""
import time

import pytest

import conftest


def test_time_limit_fails_a_test_that_runs_past_it(request, monkeypatch):
    monkeypatch.setattr(conftest, "TIME_LIMIT_S", 1)
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="past its time limit of 1 s"):
        with conftest._time_limit(request.node, "call"):
            while True:
                time.sleep(0.01)
    assert time.monotonic() - start < 10
