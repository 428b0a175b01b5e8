import pytest

from padic_mahler import mahler, resultants


@pytest.fixture(autouse=True)
def empty_sweep_memo(monkeypatch):
    """Start every test with no cyclic resultants kept from another, so a
    test that times or traces the sweep measures its recurrence."""
    monkeypatch.setattr(resultants, "_last_sweep", ((), {}, [0]))


@pytest.fixture(autouse=True)
def empty_root_memo(monkeypatch):
    """Start every test with no float roots kept from another, so a test
    that counts root passes counts its own."""
    monkeypatch.setattr(mahler, "_last_roots", {})
