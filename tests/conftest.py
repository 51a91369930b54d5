import numpy as np
import pytest


@pytest.fixture
def decompositions(monkeypatch):
    """(name, shape) of every eigh, eigvalsh, svd and spectral norm the test runs."""
    calls = []

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            if name != "norm" or (args[:1] or (kwargs.get("ord"),))[0] == 2:
                calls.append((name, np.shape(a)))
            return real(a, *args, **kwargs)

        return wrapped

    for name in ("eigh", "eigvalsh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls
