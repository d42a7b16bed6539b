"""Property-based checks of the structural invariants."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import sdedensity as sd

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
small_pos = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


@given(values=st.lists(finite, min_size=2, max_size=6), x=finite)
def test_piecewise_constant_selects_right_piece(values, x):
    bps = tuple(float(i) for i in range(1, len(values)))
    f = sd.PiecewiseFunction(bps, tuple(sd.Constant(v) for v in values))
    idx = int(np.searchsorted(np.asarray(bps), x, side="right"))
    assert f(x) == values[idx]


@given(c=finite, lo=finite, width=small_pos)
def test_constant_sigma_star_floor(c, lo, width):
    c = c if abs(c) > 0.5 else 0.5
    w = sd.LocalWindow(xi=lo, delta=width, delta0=width / 2, l_sigma=abs(c) / 2)
    s = sd.build_sigma_star(sd.PiecewiseFunction((), (sd.Constant(c),)), w)
    xs = np.linspace(lo - 3 * width, lo + 3 * width, 64)
    assert np.all(np.abs(s(xs)) >= w.l_sigma)


@given(shoulder=st.floats(min_value=0.05, max_value=0.45), x=finite)
def test_bump_range_and_support(shoulder, x):
    w = sd.LocalWindow(xi=0.0, delta=4.0, delta0=1.0, l_sigma=1.0)
    phi = sd.make_bump(w, shoulder)
    v = phi(x)
    assert 0.0 <= v <= 1.0
    if abs(x) >= 3.0:
        assert v == 0.0


@given(k=st.integers(min_value=1, max_value=20))
def test_plateau_family_norms_constant(k):
    phik = sd.make_plateau_sequence(k)
    assert phik.c2_norm == sd.make_plateau_sequence(1).c2_norm
    assert phik(k * 1.0) == 1.0
    assert phik(k + 1.0) == 0.0


@settings(max_examples=25, deadline=None)
@given(offset=st.floats(min_value=1.5, max_value=4.0),
       amp=st.floats(min_value=0.0, max_value=1.0))
def test_forward_map_monotone(offset, amp):
    w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=offset - amp)
    sig = sd.PiecewiseFunction((), (sd.Sinusoid(offset=offset, amplitude=amp),))
    m = sd.build_lamperti_map(sig, w)
    xs = np.linspace(-2.5, 2.5, 201)
    assert np.all(np.diff(m.forward_many(xs)) > 0)


@given(y=finite, eps=st.floats(min_value=1e-4, max_value=0.99),
       r1=st.floats(min_value=0.0, max_value=5.0),
       r2=st.floats(min_value=0.0, max_value=5.0))
def test_fixed_bound_monotone_in_remainder(y, eps, r1, r2):
    lo, hi = sorted((r1, r2))
    assert sum(sd.fixed_lookback_bound(y, eps, lo)) <= sum(sd.fixed_lookback_bound(y, eps, hi))


@given(y=st.floats(min_value=1.0 + 1e-6, max_value=1e6))
def test_lookback_rule_positive_and_even(y):
    v = sd.epsilon_rule(y)
    assert v > 0.0
    assert sd.epsilon_rule(-y) == v


@given(c=st.floats(min_value=-3.0, max_value=3.0),
       gamma=st.floats(min_value=0.05, max_value=1.0))
def test_holder_norm_of_constant(c, gamma):
    xs = np.linspace(0.0, 1.0, 16)
    assert sd.holder_norm(xs, np.full(16, c), gamma) == abs(c)


@given(gamma=st.floats(min_value=0.1, max_value=0.95))
@settings(max_examples=20, deadline=None)
def test_refinement_never_shrinks_seminorm(gamma):
    xs = np.linspace(-1, 1, 65)
    f_coarse = np.abs(xs) ** 0.8
    xs_fine = np.linspace(-1, 1, 129)  # superset of the coarse grid
    f_fine = np.abs(xs_fine) ** 0.8
    coarse = sd.holder_norm(xs, f_coarse, gamma)
    fine = sd.holder_norm(xs_fine, f_fine, gamma)
    assert fine >= coarse * (1 - 1e-12)


@given(x=finite, y=st.floats(min_value=-20, max_value=20),
       eps=st.floats(min_value=1e-3, max_value=1.0))
def test_conditional_cf_modulus_formula(x, y, eps):
    # the CF of one frozen-coefficient step from x with mu = 0.7, sigma = 1.3
    v = sd.exact_cf(sd.ReferenceModel("brownian_drift", mu0=0.7, sigma0=1.3, x0=x), eps, y)
    assert abs(abs(v) - math.exp(-0.5 * y * y * 1.3**2 * eps)) <= 1e-12


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=5, deadline=None)
def test_simulation_reproducible_for_any_seed(seed):
    model = sd.CoefficientModel(
        mu=sd.PiecewiseFunction((), (sd.Constant(0.0),)),
        sigma=sd.PiecewiseFunction((), (sd.Constant(1.0),)),
    )
    cfg = sd.SimConfig(x0=0.0, t_final=0.125, h=2.0**-5, n_paths=300, seed=seed)
    a = sd.simulate(model, cfg, threads=1)
    b = sd.simulate(model, cfg, threads=3)
    assert np.array_equal(a.states, b.states)
