import pytest

from padic_mahler import resultants


@pytest.fixture(autouse=True)
def empty_sweep_memo(monkeypatch):
    """Start every test with no cyclic resultants kept from another, so a
    test that times or traces the sweep measures its recurrence."""
    monkeypatch.setattr(resultants, "_last_sweep", ((), {}, [0]))
