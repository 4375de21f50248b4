import pytest

from hermdens.reps import diagonal
from hermdens.symb import SignedRational


@pytest.fixture
def rational_builds(monkeypatch):
    """A one-element list counting SignedRational constructions from here on."""
    count = [0]
    init = SignedRational.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SignedRational, "__init__", counting_init)
    return count


def a_t(n: int, t: int):
    """A_t = diag(1_{2n-t}, pi^{-1} 1_t)."""
    if not 0 <= t <= 2 * n:
        raise ValueError(f"need 0 <= t <= 2n, got t={t}, n={n}")
    return diagonal((0,) * (2 * n - t) + (-1,) * t)
