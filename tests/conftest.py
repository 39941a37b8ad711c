import pytest

from groupdeconv import charfn


@pytest.fixture()
def spreads(monkeypatch):
    """The u_max of every spread of a sample made while the test runs."""
    calls = []

    class Counted(charfn.GaussianSpread):
        def __init__(self, y, u_max, mass=None):
            calls.append(u_max)
            super().__init__(y, u_max, mass)

    monkeypatch.setattr(charfn, "GaussianSpread", Counted)
    return calls
