"""Shared fixtures for the repro test suite."""

import numpy as np
import pytest

from repro.gpu.arch import FERMI_M2090, KEPLER_K40M, MAXWELL_GM204


@pytest.fixture
def kepler():
    return KEPLER_K40M


@pytest.fixture
def fermi():
    return FERMI_M2090


@pytest.fixture
def maxwell():
    return MAXWELL_GM204


@pytest.fixture(params=[KEPLER_K40M, FERMI_M2090, MAXWELL_GM204],
                ids=["kepler", "fermi", "maxwell"])
def any_arch(request):
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
