import pytest

from twinmdp.nets import Adam


@pytest.fixture
def frozen_gradients(monkeypatch):
    """Every gradient handed to Adam, in order; the parameters never move, so a
    fit and its reference loop see the same network at every step."""
    grads = []
    monkeypatch.setattr(Adam, "step", lambda self, grad: grads.append(grad.copy()))
    return grads
