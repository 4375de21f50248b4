import pytest

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
