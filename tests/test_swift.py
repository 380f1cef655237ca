"""Wavelet engine checks: every FFT path against an independent brute-force
or quadrature oracle, plus the discretization-selection behaviors."""

import dataclasses
import importlib
import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from swiftcal import (
    HestonParams,
    MarketContext,
    NoConvergenceError,
    OptionQuote,
    SwiftParams,
    chf_cui,
    chf_with_gradient,
    density_area,
    payoff_coefficients,
    price_multi_strike,
    select_scale,
    select_truncation,
)
from swiftcal.calibrate import DEFAULT_BOUNDS, discretization_plan
from swiftcal.experiments import swift_prices
from swiftcal.reference import QuadratureConfig, price_cp
from swiftcal.fixtures import (PARAM_SETS, STRESS_CONTEXT, set1_quotes, set2_quotes,
                               stress_quotes)
from swiftcal.swift import (
    _AREA_TOL,
    DEFAULT_L,
    MAX_J,
    MAX_SCALE,
    SCALE_TOL,
    MultiStrikePricer,
    _ChfSweep,
    _cosine_at,
    _cosine_spectrum,
    _next_pow2,
    _payoff_transform,
    _phase_matrix,
    _TAIL_STAGES,
    _scaled_freqs,
    _scales,
    _tail_grid,
    _tail_masses,
    _twiddle_table,
    _twiddles,
    _u_tilde,
    group_by_maturity,
    interval_params,
    select_groups,
    share_sweep,
    truncation_width,
)

from conftest import price_jacobian_fd
from oracles import density_coefficients, per_strike_price, per_strike_price_and_gradient


def direct_density(theta, tau, ctx, x, sp):
    """Defining sum for the density coefficients, no FFT."""
    omega = sp.density_freqs()
    u = omega / 2.0**sp.m
    vals = chf_cui(omega, tau, theta, ctx) * np.exp(-1j * omega * x)
    pref = 2.0**(sp.m / 2.0) / sp.j_density
    return np.array([pref * np.sum(np.real(vals * np.exp(1j * k * u)))
                     for k in sp.k_range])


def direct_payoff(sp):
    """Defining sum for the payoff coefficients, no FFT."""
    omega = sp.density_freqs()
    u = omega / 2.0**sp.m
    vals = _payoff_transform(sp, omega)
    pref = 2.0**(sp.m / 2.0) / sp.j_density
    return np.array([pref * np.sum(np.real(vals * np.exp(1j * k * u)))
                     for k in sp.k_range])


@pytest.mark.parametrize("module", ["swiftcal", "swiftcal.swift"])
def test_every_exported_name_resolves(module):
    # a stale __all__ entry breaks `from module import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def sinc_basis(m, k, y):
    return 2.0**(m / 2.0) * np.sinc(2.0**m * y - k)


SMALL_SP = SwiftParams(m=3, eta=12, j_density=64, x_high=1.5)


def test_density_fft_equals_direct_sum(theta2, ctx):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-0.8, 0.8)
        tau = rng.uniform(0.1, 1.5)
        fft_val = density_coefficients(theta2, tau, ctx, x, SMALL_SP)
        direct = direct_density(theta2, tau, ctx, x, SMALL_SP)
        assert np.max(np.abs(fft_val - direct)) < 1e-12


def test_payoff_fft_equals_direct_sum():
    fft_val = payoff_coefficients(SMALL_SP)
    direct = direct_payoff(SMALL_SP)
    assert np.max(np.abs(fft_val - direct)) < 1e-12


def test_payoff_coefficients_match_quadrature():
    # generous J so the cosine expansion converges well past the tolerance
    sp = SwiftParams(m=3, eta=8, j_density=2**17, x_high=1.0)
    coeffs = payoff_coefficients(sp)
    for i, k in enumerate(sp.k_range):
        val, err = quad(lambda y: sinc_basis(sp.m, k, y) * (np.exp(y) - 1.0),
                        0.0, sp.x_high, limit=400, epsabs=1e-13, epsrel=1e-12)
        assert abs(coeffs[i] - val) <= 1e-8 * max(abs(val), 1e-300), k


def test_overflowing_payoff_window_raises_named_error():
    # e^1000 is past the float range: a named error, and no numpy warning
    # (tier-1 turns any escaping warning into a failure)
    sp = SwiftParams(m=0, eta=1023, j_density=2048, x_high=1000.0)
    with pytest.raises(NoConvergenceError, match=r"x_high=1000\b.*overflows"):
        payoff_coefficients(sp)
    assert np.all(np.isfinite(payoff_coefficients(dataclasses.replace(sp, x_high=700.0))))


def test_overflowing_payoff_window_refused_by_swift_prices(ctx):
    # a point of the calibration box whose tau=30 interval at its selected
    # scale ends near x_high = 1.8e4
    theta = HestonParams(kappa=4e-4, v_bar=1.1e-6, sigma=3.72, rho=0.08, v0=1.89)
    quotes = [OptionQuote(strike=k, maturity=30.0) for k in (0.5, 0.9, 1.0, 1.1, 2.0)]
    with pytest.raises(NoConvergenceError, match=r"x_high=.*overflows"):
        swift_prices(theta, ctx, quotes)


def test_payoff_boundary_robustness(theta2, ctx):
    # widening the truncation by one wavelet width must not move the price
    # (the density carries no mass near the boundary)
    tau, strike = 0.5, 1.05
    m = select_scale(theta2, tau, ctx, 1e-7)
    sp = select_truncation(theta2, tau, ctx, m, [strike])
    width = 2.0**-sp.m
    sp_wide = dataclasses.replace(sp, eta=sp.eta + 1, x_high=sp.x_high + width)
    p = price_multi_strike(theta2, ctx, tau, [strike], sp)[0]
    p_wide = price_multi_strike(theta2, ctx, tau, [strike], sp_wide)[0]
    assert abs(p - p_wide) < 1e-10


def test_density_mass_and_tail_decay(theta2, ctx):
    m = select_scale(theta2, 1.0, ctx, 1e-6)
    sp = select_truncation(theta2, 1.0, ctx, m, [1.0])
    dens = density_coefficients(theta2, 1.0, ctx, 0.0, sp)
    assert abs(density_area(dens, sp) - 1.0) < 1e-4
    edge = max(abs(dens[0]), abs(dens[-1]))
    assert edge <= 1e-6 * np.max(np.abs(dens))


def test_density_area_detects_halved_eta(theta2, ctx):
    # with a snug interval (L=6) halving the series coverage loses mass the
    # area statistic must flag; the default 10-sigma interval is so generous
    # that half of it still holds all but ~1e-6 of the mass
    sp = select_truncation(theta2, 1.0, ctx, 4, [1.0], L=6.0)
    eta = sp.eta // 2  # the payoff window shrinks with the wavelet range
    half = dataclasses.replace(sp, eta=eta, x_high=min(sp.x_high, eta / 2.0**sp.m))
    dens = density_coefficients(theta2, 1.0, ctx, 0.0, half)
    assert density_area(dens, half) < 1.0 - 1e-3


def test_density_area_zero_vector():
    assert density_area(np.zeros(2 * SMALL_SP.eta), SMALL_SP) == 0.0
    assert density_area(np.array([]), SMALL_SP) == 0.0


def test_select_scale_behaviors(stress_theta, theta2, ctx100, ctx):
    # deterministic and monotone in tolerance
    m1 = select_scale(stress_theta, 0.04, ctx100, 1e-6)
    assert m1 == select_scale(stress_theta, 0.04, ctx100, 1e-6)
    assert select_scale(stress_theta, 0.04, ctx100, 1e-8) >= m1
    # long maturities resolve at much coarser scales than short ones
    assert select_scale(stress_theta, 45.0, ctx100, 1e-6) <= 3
    assert m1 >= 7
    with pytest.raises(NoConvergenceError):
        # the tail mass at MAX_SCALE is about 1.5e-158 here
        select_scale(stress_theta, 0.04, ctx100, 1e-200)
    with pytest.raises(ValueError):
        select_scale(theta2, 1.0, ctx, 2.0)


def test_scale_three_prices_long_maturity_rows(stress_theta, ctx100):
    # the published long-maturity stress values, scale pinned at 3
    for strike, want in ((50.0, 65.565), (100.0, 46.911), (200.0, 27.198)):
        sp = select_truncation(stress_theta, 45.0, ctx100, 3, [strike])
        assert sp.m == 3
        p = price_multi_strike(stress_theta, ctx100, 45.0, [strike], sp)[0]
        assert abs(p - want) < 1e-3


def test_scale_seven_prices_short_maturity_rows(stress_theta, ctx100):
    # scale 3 underprices two-week expiries; scale 7 suffices
    for strike, want in ((50.0, 50.000), (100.0, 1.046)):
        sp = select_truncation(stress_theta, 0.04, ctx100, 7, [strike])
        p = price_multi_strike(stress_theta, ctx100, 0.04, [strike], sp)[0]
        assert abs(p - want) < 1e-3
    with pytest.raises(NoConvergenceError, match="at scale 3"):
        # the density cannot be recovered at scale 3 for this expiry
        select_truncation(stress_theta, 0.04, ctx100, 3, [100.0])


def _grown_width(theta, tau, ctx, x_max, sp):
    """The half-width c behind a selection's x_high = max(x_max + c, 0):
    the cumulant width grown by the selection's 1.25 steps."""
    c = truncation_width(theta, tau, ctx, DEFAULT_L)
    while max(x_max + c, 0.0) < sp.x_high:
        c *= 1.25
    assert max(x_max + c, 0.0) == sp.x_high
    return c


def test_select_truncation_symmetric_for_atm(theta2, ctx):
    # at the money the interval is [-c, c]: x_high is the (grown) cumulant
    # width, and the discretization is the symmetric interval's
    sp = select_truncation(theta2, 0.5, ctx, 5, [ctx.spot])
    c = _grown_width(theta2, 0.5, ctx, 0.0, sp)
    assert sp == interval_params(5, c, 0.0, 0.0)


def test_select_truncation_interval_straddles_zero(stress_theta, ctx100):
    # deep OTM short expiry: upper end clamps to the payoff kink
    sp = select_truncation(stress_theta, 0.04, ctx100, 7, [200.0])
    assert sp.x_high == 0.0
    assert price_multi_strike(stress_theta, ctx100, 0.04, [200.0], sp)[0] == 0.0
    # deep ITM short expiry: the window reaches past the strike's x = ln 2
    sp2 = select_truncation(stress_theta, 0.04, ctx100, 7, [50.0])
    assert sp2.x_high > math.log(2.0)


def test_select_truncation_reprices_set1_against_reference(theta2, ctx, set1_priced):
    tau = set1_priced.quotes[0].maturity
    strikes = [q.strike for q in set1_priced.quotes]
    m = select_scale(theta2, tau, ctx, 1e-7)
    sp = select_truncation(theta2, tau, ctx, m, strikes)
    prices = price_multi_strike(theta2, ctx, tau, strikes, sp)
    for strike, p in zip(strikes, prices):
        cp = price_cp(theta2, ctx, OptionQuote(strike, tau), QuadratureConfig())
        assert abs(p - cp) < 1e-7


def _set2_selections(theta, ctx):
    """(tau, strikes, SwiftParams) per set2 maturity, selected at theta."""
    quotes = set2_quotes()
    for tau, idx in group_by_maturity(quotes).items():
        strikes = [quotes[i].strike for i in idx]
        m = select_scale(theta, tau, ctx, 1e-7)
        yield tau, strikes, select_truncation(theta, tau, ctx, m, strikes)


@pytest.mark.parametrize("name", ["theta2", "fx", "ir", "eq"])
def test_select_truncation_sizes_density_and_payoff_grids(name, ctx):
    # one grid for density and payoff: J_d just above 2 eta, and the payoff
    # window inside the wavelet range, which covers the interval
    # [x_min - c, x_max + c] clamped to straddle 0
    theta = PARAM_SETS[name]
    for tau, strikes, sp in _set2_selections(theta, ctx):
        x = np.log(ctx.spot / np.asarray(strikes))
        c = _grown_width(theta, tau, ctx, x.max(), sp)
        span = max(abs(min(x.min() - c, 0.0)), sp.x_high)
        assert sp.eta == max(1, math.ceil(2.0**sp.m * span))
        assert sp.j_density == _next_pow2(2 * sp.eta + 1)
        assert sp.x_high <= sp.eta / 2.0**sp.m


@pytest.mark.parametrize("name", ["theta1", "theta2", "fx", "ir", "eq"])
def test_density_grid_keeps_prices_and_reference_error(name, ctx):
    """The selected J_d prices like the finer grid of the SWIFT payoff rule,
    J >= pi/2 (2^m span + eta), and no worse against the oracle.

    The oracle is the quadrature pricer at (1536 nodes, u_max 2400), checked
    converged against (2048, 3200).  Errors are per unit strike, the scale
    the prices carry."""
    theta = PARAM_SETS[name]
    ref_qc = QuadratureConfig(nodes=1536, u_max=2400.0)
    check_qc = QuadratureConfig(nodes=2048, u_max=3200.0)
    err_new = err_old = 0.0
    for tau, strikes, sp in _set2_selections(theta, ctx):
        new = MultiStrikePricer(ctx, tau, strikes, sp).prices(theta)
        x = np.log(ctx.spot / np.asarray(strikes))
        c = _grown_width(theta, tau, ctx, x.max(), sp)
        span = max(abs(min(x.min() - c, 0.0)), sp.x_high)
        j_rule = max(_next_pow2(np.pi / 2.0 * (2.0**sp.m * span + sp.eta)),
                     sp.j_density)
        full = dataclasses.replace(sp, j_density=j_rule)
        old = MultiStrikePricer(ctx, tau, strikes, full).prices(theta)
        k = np.asarray(strikes)
        assert np.max(np.abs(new - old) / k) <= 1e-8, tau
        ref = np.array([price_cp(theta, ctx, OptionQuote(s, tau), ref_qc)
                        for s in strikes])
        check = np.array([price_cp(theta, ctx, OptionQuote(s, tau), check_qc)
                          for s in strikes])
        assert np.max(np.abs(ref - check)) <= 1e-9, tau
        err_new = max(err_new, float(np.max(np.abs(new - ref) / k)))
        err_old = max(err_old, float(np.max(np.abs(old - ref) / k)))
    assert err_new <= err_old + 1e-9, (err_new, err_old)


def test_low_and_high_truncation_multiplier_agree(stress_theta, ctx100):
    # the adaptive mass check compensates a too-small initial multiplier
    for L in (6.0, 10.0):
        sp = select_truncation(stress_theta, 0.04, ctx100, 7, [100.0], L=L)
        p = price_multi_strike(stress_theta, ctx100, 0.04, [100.0], sp)[0]
        assert abs(p - 1.046) < 1e-3, L


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
def test_truncation_multiplier_outside_the_positive_reals_rejected(theta2, ctx, L):
    # no CLI path sets L; the library calls that take it still refuse a
    # multiplier that sizes no interval
    with pytest.raises(ValueError, match="L must be positive and finite"):
        truncation_width(theta2, 0.5, ctx, L)
    with pytest.raises(ValueError, match="L must be positive and finite"):
        select_truncation(theta2, 0.5, ctx, 5, [1.0], L=L)


def test_selection_refuses_a_grid_above_max_j(ctx):
    # a point inside the calibration box whose tau=45 cumulant interval needs
    # 2^23 density terms at its selected scale: refused before the sweep
    corner = HestonParams(kappa=1e-4, v_bar=4.0, sigma=5.0, rho=0.999, v0=4.0)
    assert select_scale(corner, 45.0, ctx) == 8
    with pytest.raises(NoConvergenceError,
                       match=r"scale 8 needs j_density = 2\^23, above MAX_J"):
        select_truncation(corner, 45.0, ctx, 8, [0.9, 1.1])


def test_interval_params_refuses_what_no_grid_holds():
    # the one rule that refuses an interval: a half-width that is not
    # finite at scale m (a NaN or infinite c, or 2^m c past the float
    # range) and a span needing more than MAX_J terms; the largest span
    # that fits is accepted.  At scale 12 a half-span of 128 is eta = 2^19,
    # J_d = 2^21.
    for m, c in ((5, math.inf), (5, math.nan), (12, 1e305)):
        with pytest.raises(NoConvergenceError,
                           match=f"interval at scale {m} is not finite"):
            interval_params(m, c, -0.1, 0.1)
    with pytest.raises(NoConvergenceError, match=r"interval at scale 12 needs "
                       r"j_density = 2\^21, above MAX_J = 2\^20$"):
        interval_params(12, 127.9, -0.1, 0.1)
    assert interval_params(12, 127.8, -0.1, 0.1).j_density == MAX_J


def test_invalid_swift_params_rejected():
    with pytest.raises(ValueError):  # 2 eta >= J
        SwiftParams(m=3, eta=32, j_density=64, x_high=1.0)
    with pytest.raises(ValueError):  # J not a power of two
        SwiftParams(m=3, eta=4, j_density=48, x_high=0.5)
    for x_high in (-0.5, math.nan):  # the payoff window [0, x_high]
        with pytest.raises(ValueError, match="x_high must be nonnegative"):
            SwiftParams(m=3, eta=4, j_density=64, x_high=x_high)
    # the window ends inside the wavelet range, at eta/2^m = 0.5 at most
    with pytest.raises(ValueError, match=r"at most eta/2\^m = 0.5, got"):
        SwiftParams(m=3, eta=4, j_density=64, x_high=0.5 + 1e-12)
    assert SwiftParams(m=3, eta=4, j_density=64, x_high=0.5).x_high == 0.5
    for m in (-1, MAX_SCALE + 1):  # the scale range, checked before any grid
        with pytest.raises(ValueError, match=r"m must be in \[0, 12\]"):
            dataclasses.replace(SMALL_SP, m=m)
    assert dataclasses.replace(SMALL_SP, m=MAX_SCALE, x_high=0.0).m == MAX_SCALE
    # the grid size, likewise
    with pytest.raises(ValueError, match=f"j_density = {2 * MAX_J}, above MAX_J"):
        dataclasses.replace(SMALL_SP, j_density=2 * MAX_J)
    assert dataclasses.replace(SMALL_SP, j_density=MAX_J).j_density == MAX_J


def test_empty_strikes_and_mixed_contexts_rejected(theta2, ctx, ctx100):
    with pytest.raises(ValueError, match="nonempty"):
        select_truncation(theta2, 0.5, ctx, 6, [])
    sp = select_truncation(theta2, 0.5, ctx, 6, [1.0])
    pricers = [MultiStrikePricer(c, 0.5, [1.0], sp) for c in (ctx, ctx100)]
    with pytest.raises(ValueError, match="one market context"):
        share_sweep(pricers)


def test_selection_sweep_is_the_pricers_first(theta2, ctx, ctx100):
    # the sweep of the accepted grid, given to a block of one, prices bitwise
    # as the pricer's own sweep would (a lone sweep is its own block); a
    # sweep of another grid, maturity or market is refused, and a block of
    # sweeps at two parameter vectors starts empty
    strikes = [0.8, 1.0, 1.25]
    (sp, first), = select_groups(theta2, [(0.5, strikes)], ctx, 5)
    assert _ChfSweep.joined([first]) is first
    sweep = [first]
    pricer = MultiStrikePricer(ctx, 0.5, strikes, sp)
    share_sweep([pricer], sweep)
    assert pricer._sweep is sweep[0]
    assert np.array_equal(pricer.prices(theta2),
                          price_multi_strike(theta2, ctx, 0.5, strikes, sp))
    other = select_truncation(theta2, 0.5, ctx, 6, strikes)
    for pricer in (MultiStrikePricer(ctx, 0.5, strikes, other),
                   MultiStrikePricer(ctx, 0.25, strikes, sp),
                   MultiStrikePricer(ctx100, 0.5, strikes, sp)):
        with pytest.raises(ValueError, match="own grid"):
            share_sweep([pricer], sweep)
    with pytest.raises(ValueError, match="own grid"):  # one sweep per pricer
        share_sweep([MultiStrikePricer(ctx, 0.5, strikes, sp)] * 2, sweep)
    theta_b = HestonParams.from_array(theta2.as_array() * 1.01)
    (sp_b, sweep_b), = select_groups(theta_b, [(0.5, strikes)], ctx, 5)
    sweep.append(sweep_b)
    assert (sp_b.m, sp_b.j_density) == (sp.m, sp.j_density)  # one grid
    mixed = [MultiStrikePricer(ctx, 0.5, strikes, sp) for _ in sweep]
    share_sweep(mixed, sweep)
    assert mixed[1]._sweep is mixed[0]._sweep and mixed[0]._sweep._key is None
    alone = MultiStrikePricer(ctx, 0.5, strikes, sp)
    for theta in (theta_b, theta2):
        for pricer in mixed:
            assert np.array_equal(pricer.prices(theta), alone.prices(theta))
            assert all(np.array_equal(g, w) for g, w in zip(
                pricer.prices_and_jacobian(theta), alone.prices_and_jacobian(theta)))


def test_multi_strike_equals_single(theta2, ctx, set1_priced):
    tau = set1_priced.quotes[0].maturity
    strikes = [q.strike for q in set1_priced.quotes]
    sp = select_truncation(theta2, tau, ctx, select_scale(theta2, tau, ctx, 1e-7),
                           strikes)
    multi = price_multi_strike(theta2, ctx, tau, strikes, sp)
    single = np.array([per_strike_price(theta2, ctx, OptionQuote(k, tau), sp)
                       for k in strikes])
    assert np.max(np.abs(multi - single)) < 1e-10


def test_multi_strike_single_entry_degenerate(theta2, ctx):
    sp = select_truncation(theta2, 0.5, ctx, 5, [1.1])
    multi = price_multi_strike(theta2, ctx, 0.5, [1.1], sp)
    single = per_strike_price(theta2, ctx, OptionQuote(1.1, 0.5), sp)
    assert multi.shape == (1,)
    assert abs(multi[0] - single) < 1e-13


def test_coefficient_set_fields(theta2, ctx):
    sp = select_truncation(theta2, 0.5, ctx, 5, [1.0])
    density = density_coefficients(theta2, 0.5, ctx, 0.0, sp)
    pricer = MultiStrikePricer(ctx, 0.5, [1.0], sp)
    assert density.shape == (2 * sp.eta,)
    assert pricer.payoff.shape == (2 * sp.eta,)
    assert pricer.u_tilde.shape == (sp.j_density,)
    # tail decay invariant of an adequate set
    assert max(abs(density[0]), abs(density[-1])) \
        <= 1e-6 * np.max(np.abs(density))
    # u_tilde really is the payoff spectrum
    u = sp.density_freqs() / 2.0**sp.m
    direct = np.array([np.sum(pricer.payoff * np.exp(1j * uj * sp.k_range))
                       for uj in u[:8]])
    assert np.max(np.abs(direct - pricer.u_tilde[:8])) < 1e-10


def test_grid_pricer_matches_multi_strike(theta2, ctx):
    sp0 = select_truncation(theta2, 1.0, ctx, 5, [0.5, 2.0])
    sp = dataclasses.replace(sp0, j_density=256)
    x_grid, grid_prices = MultiStrikePricer(ctx, 1.0, [], sp).grid_prices(theta2)
    k = np.arange(sp.j_density)
    assert np.allclose(x_grid, (2.0 * k - sp.j_density) / 2.0**(sp.m + 1))
    inside = np.abs(x_grid) <= sp.x_high  # the interval: the strikes are symmetric
    strikes = ctx.spot * np.exp(-x_grid[inside])
    multi = price_multi_strike(theta2, ctx, 1.0, strikes, sp)
    assert np.max(np.abs(multi - grid_prices[inside])) < 1e-10


def test_grid_monotone_in_strike_without_correlation(ctx):
    th = HestonParams(kappa=1.5768, v_bar=0.0398, sigma=0.0175, rho=0.0,
                      v0=0.0175)
    sp0 = select_truncation(th, 1.0, ctx, 5, [0.5, 2.0])
    sp = dataclasses.replace(sp0, j_density=256)
    x_grid, prices = MultiStrikePricer(ctx, 1.0, [], sp).grid_prices(th)
    usable = np.abs(x_grid) <= math.log(2.0)  # the strikes' own range
    order = np.argsort(-x_grid[usable])  # ascending strike
    assert np.all(np.diff(prices[usable][order]) <= 1e-12)


def test_grid_spline_interpolation(theta2, ctx):
    sp0 = select_truncation(theta2, 1.0, ctx, 5, [0.5, 2.0])
    sp = dataclasses.replace(sp0, j_density=256)
    x_grid, prices = MultiStrikePricer(ctx, 1.0, [], sp).grid_prices(theta2)
    inside = np.abs(x_grid) <= sp.x_high  # the interval: the strikes are symmetric
    spline = CubicSpline(x_grid[inside], prices[inside], bc_type="natural")
    rng = np.random.default_rng(7)
    x_probe = rng.uniform(-0.6, 0.6, 100)
    direct = price_multi_strike(theta2, ctx, 1.0, ctx.spot * np.exp(-x_probe), sp)
    assert np.max(np.abs(spline(x_probe) - direct)) < 1e-5


def test_put_call_parity(theta2, ctx):
    ctx_r = MarketContext(spot=1.0, rate=0.03, dividend=0.01)
    sp = select_truncation(theta2, 0.75, ctx_r, 6, [0.9, 1.1])
    for strike in (0.9, 1.1):
        call = per_strike_price(theta2, ctx_r, OptionQuote(strike, 0.75, kind="call"), sp)
        put = per_strike_price(theta2, ctx_r, OptionQuote(strike, 0.75, kind="put"), sp)
        want = ctx_r.spot * np.exp(-0.01 * 0.75) - strike * np.exp(-0.03 * 0.75)
        assert abs(call - put - want) < 1e-9


def test_call_prices_monotone_in_strike(theta2, ctx, set1_priced):
    prices = np.array([q.price for q in set1_priced.quotes])
    strikes = np.array([q.strike for q in set1_priced.quotes])
    order = np.argsort(strikes)
    assert np.all(np.diff(prices[order]) <= 1e-12)


def test_price_jacobian_matches_finite_differences(theta2, ctx):
    strikes = np.array([0.8, 0.9, 1.0, 1.1, 1.3])
    sp = select_truncation(theta2, 0.5, ctx, select_scale(theta2, 0.5, ctx, 1e-7),
                           strikes)
    _, jac = MultiStrikePricer(ctx, 0.5, strikes, sp).prices_and_jacobian(theta2)
    fd = price_jacobian_fd(
        lambda th: price_multi_strike(th, ctx, 0.5, strikes, sp), theta2)
    rel = np.abs(jac - fd) / np.maximum(np.abs(fd), 1e-12)
    assert rel.max() < 1e-5


def test_single_quote_gradient_matches_multi(theta2, ctx):
    strikes = np.array([0.9, 1.2])
    sp = select_truncation(theta2, 0.5, ctx, 6, strikes)
    prices, jac = MultiStrikePricer(ctx, 0.5, strikes, sp).prices_and_jacobian(theta2)
    for i, strike in enumerate(strikes):
        p, g = per_strike_price_and_gradient(theta2, ctx, OptionQuote(strike, 0.5), sp)
        assert abs(p - prices[i]) < 1e-12
        assert np.max(np.abs(g - jac[i])) < 1e-12


def test_phase_matrix_two_tables_match_direct_exponentials(ctx):
    sp = SwiftParams(m=9, eta=4096, j_density=16384, x_high=8.0)
    omega = sp.density_freqs()
    for quotes in (set1_quotes(), set2_quotes()):
        strikes = np.array([q.strike for q in quotes])
        x = np.log(ctx.spot / strikes)
        direct = np.exp(-1j * np.outer(x, omega))
        assert np.max(np.abs(_phase_matrix(x, sp.m, sp.j_density) - direct)) < 1e-12


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("j_density,j_wide", [(4, 8), (64, 256), (1024, 4096)])
def test_twiddle_tables_are_the_direct_exponentials_bitwise(j_density, j_wide):
    # the cached tables replace np.exp(-1j pi k / 2J) at two sizes each,
    # negative k and the widest eta = J/2 - 1 included
    rng = np.random.default_rng(5)
    for j in (j_density, j_wide):
        two_j = 2 * j
        for eta in sorted({1, max(1, j // 4), max(1, j // 2 - 1)}):
            k = np.arange(1 - eta, eta + 1)
            direct = np.exp(-1j * np.pi * k / two_j)
            assert _bits(_twiddles(two_j, eta)) == _bits(direct)
            spectrum = rng.standard_normal(two_j) + 1j * rng.standard_normal(two_j)
            assert _bits(_cosine_at(spectrum, eta)) == _bits(
                direct * spectrum[np.mod(k, two_j)])
        table = _twiddle_table(two_j)
        assert table.size == two_j and _twiddle_table(two_j) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
    # U-tilde scatters the payoff terms at the wrapped density indices
    eta = j_density // 2 - 1
    sp = SwiftParams(m=2, eta=eta, j_density=j_density, x_high=0.25)
    payoff = rng.standard_normal(2 * eta)
    k, two_j = sp.k_range, 2 * j_density
    buf = np.zeros(two_j, dtype=np.complex128)
    buf[np.mod(k, two_j)] = payoff * np.exp(-1j * np.pi * k / two_j)
    direct = (np.fft.ifft(buf) * two_j)[1:j_density + 1]
    assert _bits(_u_tilde(payoff, sp)) == _bits(direct)


@pytest.mark.parametrize("j_density", [2**k for k in range(1, 17)])
def test_unscaled_inverse_ffts_are_the_scaled_ones_bitwise(j_density):
    # norm="forward" skips ifft's 1/2J and the spectra's later * 2J: both
    # scalings are exact for a power-of-two 2J, so the spectra keep their bits
    # (inputs within 1e+-30 keep every output far from the subnormals)
    rng = np.random.default_rng(j_density)
    two_j = 2 * j_density
    values = (rng.standard_normal(j_density) + 1j * rng.standard_normal(j_density)) \
        * 10.0**rng.uniform(-30, 30, j_density)
    buf = np.zeros(two_j, dtype=np.complex128)
    buf[1:j_density + 1] = values
    assert _bits(_cosine_spectrum(values, j_density)) == _bits(np.fft.ifft(buf) * two_j)
    if j_density < 4:  # no SwiftParams holds J_d = 2, since 2 eta < J_d
        return
    sp = SwiftParams(m=3, eta=j_density // 2 - 1, j_density=j_density, x_high=0.1)
    payoff = rng.standard_normal(2 * sp.eta) * 10.0**rng.uniform(-30, 30, 2 * sp.eta)
    k = sp.k_range
    buf = np.zeros(two_j, dtype=np.complex128)
    buf[np.mod(k, two_j)] = payoff * np.exp(-1j * np.pi * k / two_j)
    assert _bits(_u_tilde(payoff, sp)) == _bits(
        (np.fft.ifft(buf) * two_j)[1:j_density + 1])


def test_frequency_grids_are_cached_read_only_direct_expressions():
    # selection, pricer builds and later calibrations share one grid per
    # (m, J); each is bitwise the expression it replaces
    for m, j in ((0, 2), (5, 64), (9, 16384)):
        grid = _scaled_freqs(m, j)
        jj = np.arange(1, j + 1)
        assert _bits(grid) == _bits(np.pi * (2 * jj - 1) / (2 * j) * 2.0**m)
        assert _scaled_freqs(m, j) is grid and not grid.flags.writeable
    sp = SwiftParams(m=5, eta=20, j_density=64, x_high=0.5)
    assert sp.density_freqs() is _scaled_freqs(5, 64)


def test_pricer_phases_are_the_two_table_product_bitwise(ctx):
    # the coarse/fine product the pricer has always been built from, kept
    # conjugated as interleaved reals
    for sp in (SMALL_SP, dataclasses.replace(SMALL_SP, m=0, eta=1, j_density=4, x_high=1.0),
               SwiftParams(m=9, eta=2000, j_density=4096, x_high=3.0)):
        strikes = np.array([q.strike for q in set2_quotes()])
        x = np.log(ctx.spot / strikes)
        j_d, b = sp.j_density, min(64, sp.j_density)
        delta = np.pi * 2.0**sp.m / j_d
        coarse = np.exp(-1j * np.outer(x, delta / 2.0 + delta * b * np.arange(j_d // b)))
        fine = np.exp(-1j * np.outer(x, delta * np.arange(b)))
        direct = (coarse[:, :, None] * fine[:, None, :]).reshape(len(x), j_d)
        assert _bits(MultiStrikePricer(ctx, 1.0, strikes, sp).real_phases) == _bits(
            np.conj(direct).view(np.float64))


def _two_table_product(x, m, j_d):
    """The coarse/fine phase product, spelled out and never cached."""
    b = min(64, j_d)
    delta = np.pi * 2.0**m / j_d
    coarse = np.exp(-1j * np.outer(x, delta / 2.0 + delta * b * np.arange(j_d // b)))
    fine = np.exp(-1j * np.outer(x, delta * np.arange(b)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(x), j_d)


@pytest.fixture
def phase_cache(monkeypatch):
    """An empty table store for one test; its budget patchable."""
    from swiftcal import swift

    monkeypatch.setattr(swift, "_tables", {})
    return swift


def _size(table):
    return sum(a.nbytes for a in (table if isinstance(table, tuple) else (table,)))


def _held(swift):
    return sum(map(_size, swift._tables.values()))


def _phase_tables(swift):
    """The phase tables in the store, oldest first."""
    return [t for (build, _), t in swift._tables.items()
            if build is swift._phase_product.__wrapped__]


def test_phase_tables_are_the_uncached_product_bitwise(ctx, phase_cache):
    # strike rows as selection and pricers ask for them, and one- and
    # two-edge growth rows; the first call builds, the second reads the cache
    keys = set()
    for quotes in (set1_quotes(), set2_quotes()):
        x = np.log(ctx.spot / np.array([q.strike for q in quotes]))
        for rows in (x, -x, x[:1], np.unique([x.min(), x.max()])):
            for m, j_d in ((0, 2), (3, 64), (6, 512), (9, 4096)):
                want = _bits(_two_table_product(rows, m, j_d))
                assert _bits(_phase_matrix(rows, m, j_d)) == want
                assert _bits(_phase_matrix(rows.copy(), m, j_d)) == want
                keys.add((rows.tobytes(), m, j_d))
    assert len(_phase_tables(phase_cache)) == len(keys)


def test_phase_tables_repeat_as_one_read_only_object(ctx, phase_cache):
    strikes = np.array([q.strike for q in set2_quotes()[:5]])
    x = np.log(ctx.spot / strikes)
    table = _phase_matrix(x, 5, 256)
    assert _phase_matrix(x.copy(), 5, 256) is table
    assert _phase_matrix(x, 6, 256) is not table and _phase_matrix(x, 5, 512) is not table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    pricer = MultiStrikePricer(ctx, 0.5, strikes, SwiftParams(m=5, eta=100, j_density=256,
                                                              x_high=1.0))
    assert not pricer.real_phases.flags.writeable
    with pytest.raises(ValueError):
        pricer.real_phases[0, 0] = 0.0
    # a second pricer over the same strikes and grid reads the same table
    again = MultiStrikePricer(ctx, 1.5, strikes, pricer.sp)
    assert again.real_phases.base is pricer.real_phases.base


def test_phase_cache_holds_at_most_its_byte_budget(phase_cache, monkeypatch):
    budget = 256 * 1024
    monkeypatch.setattr(phase_cache, "_TABLE_BUDGET", budget)
    rng = np.random.default_rng(11)
    inserted = 0
    for i in range(40):
        x = rng.uniform(-1.0, 1.0, rng.integers(1, 9))
        j_d = int(2**rng.integers(4, 11))
        table = _phase_matrix(x, int(rng.integers(0, 10)), j_d)
        inserted += table.nbytes
        assert _held(phase_cache) <= budget
        assert next(reversed(phase_cache._tables.values())) is table
    assert inserted > 2 * budget
    assert len(_phase_tables(phase_cache)) < 40


def test_phase_table_above_the_budget_is_returned_not_kept(phase_cache, monkeypatch):
    monkeypatch.setattr(phase_cache, "_TABLE_BUDGET", 64 * 1024)
    x = np.linspace(-0.5, 0.5, 5)
    small = _phase_matrix(x[:1], 2, 64)
    large = _phase_matrix(x, 4, 1024)  # 80 KiB
    assert large.nbytes > phase_cache._TABLE_BUDGET
    assert _bits(large) == _bits(_two_table_product(x, 4, 1024))
    assert not large.flags.writeable
    assert _phase_tables(phase_cache) == [small]
    assert _phase_matrix(x, 4, 1024) is not large


def test_threads_building_one_pricer_set_share_equal_tables(ctx, phase_cache):
    quotes = set2_quotes()
    groups = [(tau, [quotes[i].strike for i in idx])
              for tau, idx in group_by_maturity(quotes).items()]
    sps = [SwiftParams(m=m, eta=j // 2 - 1, j_density=j, x_high=0.5)
           for m, j in ((4, 256), (6, 1024), (8, 4096))]
    start = threading.Barrier(4)

    def build(_):
        start.wait(timeout=60)
        return [MultiStrikePricer(ctx, tau, strikes, sp).real_phases
                for sp in sps for tau, strikes in groups]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches inside the cache
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            tables = list(pool.map(build, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got in tables[1:]:
        assert [_bits(t) for t in got] == [_bits(t) for t in tables[0]]
    want = [_bits(np.conj(_two_table_product(np.log(ctx.spot / np.array(strikes)),
                                              sp.m, sp.j_density)).view(np.float64))
            for sp in sps for _, strikes in groups]
    assert [_bits(t) for t in tables[0]] == want
    assert len(_phase_tables(phase_cache)) == len(want)
    assert _held(phase_cache) <= phase_cache._TABLE_BUDGET


def _phase_table_in_child():
    from swiftcal.swift import _phase_matrix as phases

    phases(np.array([0.125, -0.25]), 3, 128)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_does_not_wait_on_the_parents_lock(phase_cache):
    # a child forked while the parent holds the cache's lock takes its own
    with phase_cache._tables_lock:
        child = multiprocessing.get_context("fork").Process(target=_phase_table_in_child)
        child.start()
    child.join(timeout=30)
    if child.exitcode is None:
        child.kill()
        child.join()
    assert child.exitcode == 0


def _one_table_of_each_kind(i):
    """Calls of the five stored builders, their arguments varied with i."""
    from swiftcal.reference import _grid

    return [(_scaled_freqs, (i % (MAX_SCALE + 1), 2**(4 + i % 6))),
            (_twiddle_table, (2**(3 + i % 9),)),
            (_tail_grid, (1 + i % 4, *_TAIL_STAGES[i % 3])),
            (_phase_matrix, (np.linspace(-0.5, 0.5, 1 + i % 4) + i, i % 8,
                             2**(4 + i % 5))),
            (_grid, (8 + i, 100.0 + i))]


def test_tables_of_every_kind_share_one_byte_budget(phase_cache, monkeypatch):
    # frequency grids, twiddles, tail grids, phase tables and quadrature
    # nodes count against one budget, and the oldest insert leaves first
    budget = 256 * 1024
    monkeypatch.setattr(phase_cache, "_TABLE_BUDGET", budget)
    store, inserts, inserted, kinds = phase_cache._tables, [], 0, set()
    for i in range(60):
        for f, args in _one_table_of_each_kind(i) * 2:  # the second pass reads
            before = set(store)
            table = f(*args)
            new = [key for key in store if key not in before]
            assert len(new) <= 1 and (new or any(t is table for t in store.values()))
            if new:
                inserts += new
                inserted += _size(table)
            assert _held(phase_cache) <= budget
            assert list(store) == inserts[len(inserts) - len(store):]
        kinds = max(kinds, {build.__name__ for build, _ in store}, key=len)
    assert kinds == {"_scaled_freqs", "_twiddle_table", "_tail_grid", "_phase_product",
                     "_grid"}
    assert inserted > 2 * budget


def test_tuple_tables_are_read_only_in_every_member(phase_cache):
    from swiftcal.reference import _grid

    for table, want in ((_tail_grid(2, 0, 7), _tail_grid.__wrapped__(2, 0, 7)),
                        (_grid(16, 200.0), _grid.__wrapped__(16, 200.0))):
        assert isinstance(table, tuple) and len(table) == len(want)
        for a, b in zip(table, want):
            assert _bits(a) == _bits(b)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


def test_tuple_table_above_the_budget_is_returned_not_kept(phase_cache, monkeypatch):
    budget = 32 * 1024
    monkeypatch.setattr(phase_cache, "_TABLE_BUDGET", budget)
    small = _tail_grid(1, 10, 13)
    large = _tail_grid(1, 0, 7)
    assert sum(a.nbytes for a in small) <= budget < sum(a.nbytes for a in large)
    assert not any(a.flags.writeable for a in large)
    want = _tail_grid.__wrapped__(1, 0, 7)
    assert [_bits(a) for a in large] == [_bits(a) for a in want]
    assert list(phase_cache._tables) == [(_tail_grid.__wrapped__, (1, 10, 13))]
    assert _tail_grid(1, 10, 13) is small and _tail_grid(1, 0, 7) is not large


def test_threads_building_every_kind_get_one_stored_table(phase_cache):
    x = np.linspace(-0.3, 0.3, 5)
    calls = [(f, args) for m, j in ((3, 256), (6, 1024), (9, 4096))
             for f, args in ((_scaled_freqs, (m, j)), (_twiddle_table, (2 * j,)),
                             (_phase_matrix, (x, m, j)))]
    calls += [(_tail_grid, (groups, *stage))
              for groups in (1, 2, 3) for stage in _TAIL_STAGES]
    start = threading.Barrier(4)

    def build(_):
        start.wait(timeout=60)
        return [f(*args) for f, args in calls]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches inside the store
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            tables = list(pool.map(build, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got in tables[1:]:
        assert all(a is b for a, b in zip(got, tables[0], strict=True))
    stored = list(phase_cache._tables.values())
    assert len(stored) == len(calls)
    assert all(any(t is s for s in stored) for t in tables[0])
    for (f, args), table in zip(calls, tables[0]):
        want = (_two_table_product(x, *args[1:]) if f is _phase_matrix
                else f.__wrapped__(*args))
        if not isinstance(want, tuple):
            table, want = (table,), (want,)
        assert [_bits(a) for a in table] == [_bits(b) for b in want]


def _tables_in_child():
    from swiftcal import swift

    held = len(swift._tables)
    swift._tail_grid(1, 0, 7)
    swift._scaled_freqs(4, 64)
    assert len(swift._tables) == held + 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_inserts_while_the_parent_holds_the_store_lock(phase_cache):
    with phase_cache._tables_lock:
        child = multiprocessing.get_context("fork").Process(target=_tables_in_child)
        child.start()
    child.join(timeout=30)
    if child.exitcode is None:
        child.kill()
        child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("quotes", [set1_quotes(), set2_quotes()], ids=["set1", "set2"])
def test_real_phase_product_is_the_complex_product(theta2, ctx, quotes):
    # prices and Jacobian columns are Re(P c) with P the complex phase matrix,
    # taken as a real product of half the flops
    for tau, idx in group_by_maturity(quotes).items():
        strikes = np.array([quotes[i].strike for i in idx])
        sp = select_truncation(theta2, tau, ctx, select_scale(theta2, tau, ctx), strikes)
        pricer = MultiStrikePricer(ctx, tau, strikes, sp)
        value, grad = chf_with_gradient(pricer.omega, tau, theta2, ctx)
        phases = _phase_matrix(np.log(ctx.spot / strikes), sp.m, sp.j_density)
        scale = strikes * math.exp(-ctx.rate * tau) * 2.0**(sp.m / 2.0) / sp.j_density
        want = scale[:, None] * (phases @ (np.vstack([value, grad]) * pricer.u_tilde).T).real
        prices, jac = pricer.prices_and_jacobian(theta2)
        for got in (np.column_stack([prices, jac]),
                    np.column_stack([pricer.prices(theta2), jac])):
            assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want), axis=0)), tau


@pytest.mark.parametrize("name", ["theta2", "fx", "ir", "eq"])
def test_tail_masses_bitwise_the_direct_trapezoid(name, ctx):
    # the cached grid changes no mass: numpy's linspace and trapezoid on a
    # fresh sweep give the same bits, at every scale and at the lowest few
    theta = PARAM_SETS[name]
    for tau in (0.1, 1.0, 5.0):
        for cap in (MAX_SCALE, 3, MAX_SCALE):
            lo = 2.0**np.arange(cap + 1) * np.pi
            u = np.linspace(lo, 4.0 * lo, 129, axis=1)
            vals = np.abs(chf_cui(u.ravel(), tau, theta, ctx)).reshape(u.shape)
            direct = np.trapezoid(vals, u, axis=1) / np.pi
            assert _bits(_tail_masses(theta, [tau], ctx)[0][:cap + 1]) == _bits(direct)
        # the selected scale is the first whose tail mass is within tolerance
        m = select_scale(theta, tau, ctx)
        masses = _tail_masses(theta, [tau], ctx)[0]
        assert masses[m] <= SCALE_TOL
        assert np.all(masses[:m] > SCALE_TOL)


def _first_passing(theta, taus, ctx):
    """The scale rule read off the full tail table: per maturity the first
    scale within SCALE_TOL, or the message selecting it alone raises."""
    out = []
    for tau, row in zip(taus, _tail_masses(theta, taus, ctx)):
        ok = row <= SCALE_TOL
        out.append(int(ok.argmax()) if ok.any() else
                   f"transform tail mass still above {SCALE_TOL} at scale {MAX_SCALE} "
                   f"(tau={tau})")
    return out


# the calibration box, log-uniform in v0, v_bar, sigma and kappa
_BOX_LO, _BOX_HI = np.log(np.array(DEFAULT_BOUNDS[:4])).T
_BOX = [HestonParams.from_array([*np.exp(row[:4]), row[4]]) for row in
        np.random.default_rng(29).uniform([*_BOX_LO, DEFAULT_BOUNDS[4][0]],
                                          [*_BOX_HI, DEFAULT_BOUNDS[4][1]], size=(40, 5))]


def test_staged_scales_are_the_first_passing_row_of_the_full_table(ctx):
    # the stages tile scales 0 to MAX_SCALE, each stage's masses are bitwise
    # the full table's columns, and the staged rule returns the full table's
    # first passing scale or the same error, with cases that resolve in each
    # stage and that fail at scale 12
    firsts, stops = zip(*_TAIL_STAGES)
    assert firsts[0] == 0 and firsts[1:] == stops[:-1] and stops[-1] == MAX_SCALE + 1
    cases = [(theta, sorted({q.maturity for q in quotes()}), c)
             for theta in PARAM_SETS.values()
             for quotes, c in ((set1_quotes, ctx), (set2_quotes, ctx),
                               (stress_quotes, STRESS_CONTEXT))]
    cases += [(theta, [0.04, 0.5, 5.0, 30.0], ctx) for theta in _BOX]
    seen = set()
    for theta, taus, c in cases:
        full = _tail_masses(theta, taus, c)
        for first, stop in _TAIL_STAGES:
            assert _bits(_tail_masses(theta, taus, c, first, stop)) == _bits(
                full[:, first:stop])
        staged = _scales(theta, taus, c, SCALE_TOL)
        assert all(isinstance(s, (int, NoConvergenceError)) for s in staged)
        assert [s if isinstance(s, int) else str(s) for s in staged] == _first_passing(
            theta, taus, c)
        seen.update(next(k for k, stop in enumerate(stops) if s < stop)
                    if isinstance(s, int) else "failed" for s in staged)
    assert seen == {0, 1, 2, "failed"}


@pytest.mark.parametrize("name,tau,rows", [("theta2", 1.0, [7]), ("fx", 0.5, [7, 3]),
                                           ("theta2", 1e-5, [7, 3, 3])])
def test_scale_rule_sweeps_each_tail_row_at_most_once(name, tau, rows, ctx, monkeypatch):
    # a maturity resolved in the first stage sweeps 7 scales of 129 points;
    # one resolved later, or failing at scale 12, adds one call per stage
    swift = importlib.import_module("swiftcal.swift")
    sweeps = []
    chf = swift.chf_cui_parts

    def counted(u, *args, **kwargs):
        sweeps.append(np.size(u))
        return chf(u, *args, **kwargs)

    monkeypatch.setattr(swift, "chf_cui_parts", counted)
    outcome, = _scales(PARAM_SETS[name], [tau], ctx, SCALE_TOL)
    assert sweeps == [r * 129 for r in rows]
    assert isinstance(outcome, NoConvergenceError) == (sum(rows) == MAX_SCALE + 1)


def reference_truncation(theta, tau, ctx, m, strikes):
    """select_truncation's rule, spelled out on density_coefficients: grow
    the cumulant half-width by 1.25 until the mass at both edges is within
    _AREA_TOL, at most 12 steps, at scale m."""
    x = np.log(ctx.spot / np.asarray(strikes, dtype=float))
    x_min, x_max = float(x.min()), float(x.max())
    c = truncation_width(theta, tau, ctx, DEFAULT_L)
    for _ in range(12):
        sp = interval_params(m, c, x_min, x_max)
        if all(abs(density_area(density_coefficients(theta, tau, ctx, xc, sp), sp)
                   - 1.0) <= _AREA_TOL for xc in (x_min, x_max)):
            return sp
        c *= 1.25
    raise NoConvergenceError("reference selection failed at scale m")


@pytest.mark.parametrize("name", ["theta2", "fx", "ir", "eq", "fx-mirrored"])
def test_select_truncation_matches_the_reference_rule(name, ctx):
    # the edge shifts come from the phase tables, not direct exponentials;
    # the selected discretization must not notice.  The set2 targets' heavy
    # left tails make the x_min check bind; fx with rho mirrored to +0.9
    # has the heavy right tail that makes the x_max check bind.
    if name == "fx-mirrored":
        theta = dataclasses.replace(PARAM_SETS["fx"], rho=0.9)
    else:
        theta = PARAM_SETS[name]
    quotes = set2_quotes()
    for tau, idx in group_by_maturity(quotes).items():
        strikes = [quotes[i].strike for i in idx]
        m = select_scale(theta, tau, ctx)
        assert select_truncation(theta, tau, ctx, m, strikes) == \
            reference_truncation(theta, tau, ctx, m, strikes)


def test_select_truncation_matches_the_reference_rule_at_long_maturity(
        stress_theta, ctx100):
    for strike in (50.0, 100.0, 200.0):
        assert select_truncation(stress_theta, 45.0, ctx100, 3, [strike]) == \
            reference_truncation(stress_theta, 45.0, ctx100, 3, [strike])


@pytest.mark.parametrize("name", ["theta2", "fx"])
def test_one_strike_selection_checks_its_edge_once_per_step(name, ctx, monkeypatch):
    # a one-strike group's two extremes are one edge, whose mass each growth
    # step checks once: the set3 protocol, every set2 quote its own group
    from swiftcal import swift

    calls = {"interval_params": 0, "density_area": 0}
    for attr in calls:
        def counted(*args, _attr=attr, _original=getattr(swift, attr)):
            calls[_attr] += 1
            return _original(*args)

        monkeypatch.setattr(swift, attr, counted)
    plan = list(discretization_plan(set2_quotes(), ctx, PARAM_SETS[name],
                                    split_groups=True))
    assert len(plan) == 40
    assert calls["density_area"] == calls["interval_params"], calls


@pytest.mark.parametrize("name", ["stress", "theta2", "fx", "ir", "eq"])
def test_select_truncation_keeps_the_pinned_scale(name, ctx, ctx100):
    # select_scale alone chooses m: at a pinned scale selection grows the
    # interval and returns that scale, or raises; it never moves to another
    if name == "stress":
        theta, context = PARAM_SETS["stress"], ctx100
        groups = [(tau, strikes) for tau in (45.0, 0.04)
                  for strikes in ([50.0], [100.0], [200.0], [50.0, 100.0, 200.0])]
    else:
        theta, context, quotes = PARAM_SETS[name], ctx, set2_quotes()
        groups = [(tau, [quotes[i].strike for i in idx])
                  for tau, idx in group_by_maturity(quotes).items()]
    kept = failed = 0
    for tau, strikes in groups:
        for m in range(3, 9):
            try:
                sp = select_truncation(theta, tau, context, m, strikes)
            except NoConvergenceError as exc:
                assert f"at scale {m} " in str(exc)
                failed += 1
                continue
            assert sp.m == m, (tau, strikes, m)
            kept += 1
    assert kept > 0
    if name == "stress":  # scale 3 cannot hold the two-week density
        assert failed > 0


def _groups(quotes):
    return [(tau, [quotes[i].strike for i in idx])
            for tau, idx in group_by_maturity(quotes).items()]


def _selected_alone(theta, groups, ctx, m):
    """The per-group loop, one selection per group: (SwiftParams, first-sweep
    bits) per group, up to the first group that fails, then that error's
    message."""
    out = []
    for tau, strikes in groups:
        try:
            (sp, sweep), = select_groups(theta, [(tau, strikes)], ctx, m)
        except NoConvergenceError as exc:
            return out + [str(exc)]
        out.append((sp, _bits(sweep.parts(theta)[0])))
    return out


def _selected_together(theta, groups, ctx, m):
    out = []
    try:
        for sp, sweep in select_groups(theta, groups, ctx, m):
            out.append((sp, _bits(sweep.parts(theta)[0])))
    except NoConvergenceError as exc:
        out.append(str(exc))
    return out


_JITTERED = [HestonParams.from_array(PARAM_SETS[name].as_array() * row) for name, row in
             zip(("theta2", "fx", "ir", "eq") * 4,
                 np.random.default_rng(23).uniform(0.9, 1.1, size=(16, 5)))]


@pytest.mark.parametrize("theta", [PARAM_SETS[n] for n in ("theta2", "fx", "ir", "eq",
                                                            "stress")] + _JITTERED,
                         ids=["theta2", "fx", "ir", "eq", "stress"]
                         + [f"jitter{k}" for k in range(16)])
def test_groups_selected_together_as_each_alone_bitwise(theta, ctx):
    # one tail sweep and one block per growth round decide every group as
    # selecting it alone does: the tail masses, the SwiftParams and the
    # accepted sweep bit for bit, and the first failing group's error after
    # the groups before it, at the selected scales and at pinned ones (scale
    # 3 holds the stress quotes' tau=45 group but not the tau=0.04 one)
    for quotes, c in ((set1_quotes(), ctx), (set2_quotes(), ctx),
                      (stress_quotes(), STRESS_CONTEXT)):
        groups = _groups(quotes)
        taus = [tau for tau, _ in groups]
        together = _tail_masses(theta, taus, c)
        for tau, row in zip(taus, together):
            assert _bits(row) == _bits(_tail_masses(theta, [tau], c)[0])
        for m in (None, 7, 3):
            alone = _selected_alone(theta, groups, c, m)
            assert _selected_together(theta, groups, c, m) == alone, (len(groups), m)


@pytest.mark.parametrize("name", ["theta2", "fx", "ir", "eq"])
def test_split_plan_selects_each_quote_as_alone_bitwise(name, ctx, monkeypatch):
    # a split plan is one select_groups call with a group per quote: each
    # quote's SwiftParams and first sweep are bitwise those of selecting it
    # alone
    calibrate = importlib.import_module("swiftcal.calibrate")
    theta, quotes, calls = PARAM_SETS[name], set2_quotes(), []

    def counted(*args, _select=calibrate.select_groups):
        calls.append(args)
        return _select(*args)

    monkeypatch.setattr(calibrate, "select_groups", counted)
    plan = [(p.sp, _bits(p._sweep.parts(theta)[0][p._cols]))
            for p, _ in discretization_plan(quotes, ctx, theta, split_groups=True)]
    assert len(calls) == 1
    assert plan == _selected_alone(theta, [(q.maturity, [q.strike]) for q in quotes],
                                   ctx, None)


def test_rounds_past_max_j_sweep_in_several_blocks(ctx, monkeypatch):
    # ir on set2 grows through rounds of 6,656, 11,264 and 6,144 frequencies;
    # with MAX_J at 4,096 each round and the tail sweep split into blocks
    # of at most that, and the selection does not change
    swift = importlib.import_module("swiftcal.swift")
    theta, groups = PARAM_SETS["ir"], _groups(set2_quotes())
    want = _selected_alone(theta, groups, ctx, None)
    sweeps = []
    chf = swift.chf_cui_parts

    def counted(u, *args, **kwargs):
        sweeps.append(np.size(u))
        return chf(u, *args, **kwargs)

    monkeypatch.setattr(swift, "chf_cui_parts", counted)
    unlimited = _selected_together(theta, groups, ctx, None)
    blocks = sweeps[:]
    monkeypatch.setattr(swift, "MAX_J", 4096)
    sweeps.clear()
    assert _selected_together(theta, groups, ctx, None) == unlimited == want
    assert max(sweeps) <= 4096 < max(blocks)
    assert sum(sweeps) == sum(blocks) and len(sweeps) > len(blocks)


def test_packed_pricers_answer_alone_in_any_call_order(theta2, theta2_start, ctx):
    # members of one shared sweep, asked out of order and at changing
    # parameters, answer bit for bit as they do unpacked, also when the
    # block starts from the selection's sweeps at theta2, asked first there
    # or elsewhere
    strikes = [0.9, 1.0, 1.1]
    theta_b = HestonParams.from_array(theta2.as_array() * 1.01)

    def pricers(sweeps):
        out = []
        for tau in (0.25, 0.5, 1.0):
            (sp, sweep), = select_groups(theta2, [(tau, strikes)], ctx)
            sweeps.append(sweep)
            out.append(MultiStrikePricer(ctx, tau, strikes, sp))
        return out

    calls = [(2, "jac", theta2), (0, "price", theta_b), (1, "jac", theta2),
             (1, "jac", theta_b), (2, "jac", theta_b), (0, "jac", theta2_start),
             (0, "jac", theta2_start), (2, "price", theta2_start)]
    for from_selection, order in ((False, calls), (True, calls), (True, calls[1:])):
        sweeps = []
        packed, alone = pricers(sweeps), pricers([])
        share_sweep(packed, sweeps if from_selection else None)
        assert len({id(p._sweep) for p in packed}) == 1
        if from_selection:  # the block lists the members' intermediates, not copies
            chunks = [c for s in sweeps for c in s._parts[1]]
            block = packed[0]._sweep._parts[1]
            assert len(block) == len(chunks)
            assert all(a is b for bc, c in zip(block, chunks) for a, b in zip(bc, c))
        for k, kind, theta in order:
            if kind == "price":
                assert np.array_equal(packed[k].prices(theta), alone[k].prices(theta))
            else:
                got = packed[k].prices_and_jacobian(theta)
                want = alone[k].prices_and_jacobian(theta)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), (k, theta)


def test_correlation_gradient_vanishes_without_vol_of_vol(ctx):
    # sigma = 1e-5 is the smallest scale at which the compact form is still
    # numerically clean here (the 2 kappa v_bar / sigma^2 prefactor amplifies
    # log-term roundoff as sigma -> 0 at ordinary variance levels)
    th = HestonParams(kappa=1.5, v_bar=0.04, sigma=1e-5, rho=-0.5, v0=0.04)
    strikes = np.array([0.9, 1.0, 1.1])
    sp = select_truncation(th, 0.5, ctx, 8, strikes)
    _, jac = MultiStrikePricer(ctx, 0.5, strikes, sp).prices_and_jacobian(th)
    assert np.max(np.abs(jac[:, 4])) < 1e-6  # rho column


def test_gradient_call_cost_bounded(theta2, ctx, set1_priced):
    tau = set1_priced.quotes[0].maturity
    strikes = [q.strike for q in set1_priced.quotes]
    sp = select_truncation(theta2, tau, ctx, select_scale(theta2, tau, ctx, 1e-7),
                           strikes)

    calls = 40  # a batch spans several milliseconds, not one 0.1 ms call

    def batch(f):
        t0 = time.perf_counter()
        for _ in range(calls):
            f()
        return (time.perf_counter() - t0) / calls

    sides = (lambda: price_multi_strike(theta2, ctx, tau, strikes, sp),
             lambda: MultiStrikePricer(ctx, tau, strikes, sp).prices_and_jacobian(theta2))
    # the sides alternate batch by batch, and each round compares its own two
    # batches: host phases last longer than a round, so they meet both sides
    # alike, where the best batch of each side may come from different phases
    rounds = np.array([[batch(f) for f in sides] for _ in range(9)])
    ratio = float(np.median(rounds[:, 1] / rounds[:, 0]))
    t_price, t_both = rounds.min(axis=0) * 1e6
    assert ratio <= 2.5, (f"price and Jacobian {ratio:.2f}x price alone; best batches "
                          f"{t_price:.0f} and {t_both:.0f} us per call")


def test_zero_volatility_limit_approaches_intrinsic(ctx100):
    # Degenerate point-mass density: the payoff-expansion truncation tails
    # decay only algebraically against it (no density width, no oscillation
    # cancellation), so convergence toward forward intrinsic is slow in the
    # scale; assert the achievable behavior rather than an exact limit.
    th = HestonParams(kappa=1.0, v_bar=1e-12, sigma=1e-8, rho=0.0, v0=1e-12)
    strike = 50.0
    x = math.log(ctx100.spot / strike)
    errs = {}
    for m in (8, 12):
        eta = math.ceil(2.0**m * (x + 2.0))
        j = 1 << math.ceil(math.log2(max((math.pi / 2) * (2.0**m * (x + 2) + eta),
                                         2 * eta + 1)))
        sp = SwiftParams(m=m, eta=eta, j_density=j, x_high=x + 2.0)
        p = price_multi_strike(th, ctx100, 1.0, [strike], sp)[0]
        errs[m] = abs(p - (ctx100.spot - strike))
    assert errs[12] < 5e-4
    assert errs[12] < 0.1 * errs[8]
