import numpy as np
import pytest
from hypothesis import settings

import sdedensity as sd

# CI runs with --hypothesis-profile=ci; local runs keep Hypothesis' default
# profile, and the config fuzz test is derandomized in both
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def bm_model():
    return sd.CoefficientModel(
        mu=sd.PiecewiseFunction((), (sd.Constant(0.0),)),
        sigma=sd.PiecewiseFunction((), (sd.Constant(1.0),)),
    )


@pytest.fixture(scope="session")
def window6():
    return sd.LocalWindow(xi=0.0, delta=6.0, delta0=1.0, l_sigma=1.0)


@pytest.fixture(scope="session")
def sin_sigma():
    """sigma(z) = 2 + sin(z): smooth, elliptic, non-constant."""
    return sd.PiecewiseFunction((), (sd.Sinusoid(offset=2.0, amplitude=1.0),))


@pytest.fixture(scope="session")
def sin_window():
    return sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)


@pytest.fixture(scope="session")
def sin_sigma_star(sin_sigma, sin_window):
    return sd.build_sigma_star(sin_sigma, sin_window)


@pytest.fixture(scope="session")
def bm_ensemble(bm_model):
    cfg = sd.SimConfig(x0=0.0, t_final=0.25, h=2.0**-8, n_paths=20_000, seed=101)
    return sd.simulate(bm_model, cfg)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(424242)
