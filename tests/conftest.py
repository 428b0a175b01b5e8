import pytest

from padic_mahler import memo


@pytest.fixture(autouse=True)
def empty_memo():
    """Start every test with nothing kept from another, so a test that
    times, traces or counts the sweep or the root passes counts its own."""
    memo.clear()
