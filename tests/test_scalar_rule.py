"""Every pointwise evaluator follows numpy's 0-d rule: the result is shaped like
the input, and a scalar input gives a numpy scalar (``[()]`` of a 0-d array)
with the bits of the same point evaluated inside a 1-d array."""

import numpy as np
import pytest

import sdedensity as sd

WAVE = sd.Sinusoid(2.0, 0.5, 3.0, 0.1)
SIGMA = sd.PiecewiseFunction((0.25,), (WAVE, sd.Affine(WAVE(0.25) - 0.225, 0.9)))  # continuous
MU = sd.PiecewiseFunction((-0.4, 0.6), (sd.Constant(1.0), sd.Polynomial((0.5, -1.0, 2.0)),
                                        sd.HolderPower(0.3, 0.6, 1.5)))
WINDOW = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)
SIGMA_STAR = sd.build_sigma_star(SIGMA, WINDOW)
LAMPERTI = sd.build_lamperti_map(SIGMA, WINDOW)
BUMP = sd.make_bump(WINDOW, 0.2)
BM = sd.ReferenceModel("brownian_drift", mu0=0.3, sigma0=1.2, x0=0.1)
GBM = sd.ReferenceModel("geometric_bm", mu0=0.05, sigma0=0.25, x0=1.0)

EVALUATORS = {
    **{f"{type(p).__name__}.{m}": getattr(p, m)
       for p in (sd.Polynomial((0.5, -1.0, 2.0)), sd.Sinusoid(2.0, 0.5, 3.0, 0.1),
                 sd.HolderPower(0.3, 0.6, 1.5))
       for m in ("__call__", "derivative")},
    "PiecewiseFunction.__call__": MU,
    "PiecewiseFunction.derivative": MU.derivative,
    "PiecewiseFunction, one constant": sd.PiecewiseFunction((), (sd.Constant(2.0),)),
    "WeakDerivative": sd.WeakDerivative(SIGMA_STAR),
    "DriftFunctional": sd.DriftFunctional(MU, SIGMA_STAR),
    "CutoffFunction.__call__": BUMP,
    "CutoffFunction.derivative": BUMP.derivative,
    "CutoffFunction.second_derivative": BUMP.second_derivative,
    "LampertiMap.forward_many": LAMPERTI.forward_many,
    "LampertiMap.inverse_many": LAMPERTI.inverse_many,
    "exact_density, normal": lambda x: sd.exact_density(BM, 0.5, x),
    "exact_density, lognormal": lambda x: sd.exact_density(GBM, 0.5, x),
    "exact_cf": lambda y: sd.exact_cf(BM, 0.5, y),
    "localized_cf": lambda y: sd.localized_cf(BM, BUMP, 0.5, y),
}


@pytest.mark.parametrize("f", EVALUATORS.values(), ids=EVALUATORS)
@pytest.mark.parametrize("x", [0.7, 0.37, -0.55])
def test_scalar_in_numpy_scalar_out_and_shape_kept(f, x):
    scalar, row = f(x), f(np.array([x]))
    assert isinstance(scalar, np.generic)
    assert type(scalar) is type(row[0])
    assert np.asarray(scalar).tobytes() == row[:1].tobytes()
    assert np.shape(f(np.full((2, 3), x))) == (2, 3)
