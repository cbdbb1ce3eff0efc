import pytest

from diskpath import pipeline


@pytest.fixture
def no_walk(monkeypatch):
    """Make the witness walk find nothing, so a request goes on to the width
    shortcut, the decompositions and the dynamic program."""
    monkeypatch.setattr(pipeline, "long_walk", lambda *args: None)
