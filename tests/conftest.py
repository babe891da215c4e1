import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from xchmc import builtin_target

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def gauss1d():
    return builtin_target("gaussian", 1)


@pytest.fixture
def gauss2d():
    return builtin_target("gaussian", 2, variances=[1.0, 4.0])


@pytest.fixture
def dwell1d():
    return builtin_target("double_well", 1)


@pytest.fixture
def dwell2d():
    return builtin_target("double_well", 2)


@pytest.fixture
def banana2d():
    return builtin_target("banana", 2, curvature=0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def counting():
    """``counting(model)`` -> (model whose potential and gradient count their calls, counts)."""
    def make(model):
        calls = {"potential": 0, "gradient": 0}

        def potential(x):
            calls["potential"] += 1
            return model.potential(x)

        def gradient(x):
            calls["gradient"] += 1
            return model.gradient(x)
        return dataclasses.replace(model, potential=potential, gradient=gradient), calls
    return make
