"""Wavelet engine checks: every FFT path against an independent brute-force
or quadrature oracle, plus the discretization-selection behaviors."""

import dataclasses
import math
import time

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
    density_area,
    density_coefficients,
    payoff_coefficients,
    price_and_gradient_multi_strike,
    price_and_gradient_single,
    price_multi_strike,
    price_single,
    price_strike_grid,
    select_scale,
    select_truncation,
)
from swiftcal.reference import QuadratureConfig, price_cp
from swiftcal.fixtures import PARAM_SETS, set1_quotes, set2_quotes
from swiftcal.swift import (
    MultiStrikePricer,
    _j_for,
    _next_pow2,
    _payoff_transform,
    group_by_maturity,
    pack_sweeps,
)

from conftest import price_jacobian_fd


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
    omega = sp.payoff_freqs()
    u = omega / 2.0**sp.m
    vals = _payoff_transform(sp, omega)
    pref = 2.0**(sp.m / 2.0) / sp.j_payoff
    return np.array([pref * np.sum(np.real(vals * np.exp(1j * k * u)))
                     for k in sp.k_range])


def sinc_basis(m, k, y):
    return 2.0**(m / 2.0) * np.sinc(2.0**m * y - k)


SMALL_SP = SwiftParams(m=3, eta=12, j_density=64, j_payoff=64,
                       c=1.5, x_low=-1.5, x_high=1.5)


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
    sp = SwiftParams(m=3, eta=8, j_density=2**17, j_payoff=2**17,
                     c=1.0, x_low=-1.0, x_high=1.0)
    coeffs = payoff_coefficients(sp)
    for i, k in enumerate(sp.k_range):
        val, err = quad(lambda y: sinc_basis(sp.m, k, y) * (np.exp(y) - 1.0),
                        0.0, sp.x_high, limit=400, epsabs=1e-13, epsrel=1e-12)
        assert abs(coeffs[i] - val) <= 1e-8 * max(abs(val), 1e-300), k


def test_put_payoff_coefficients_rejected():
    with pytest.raises(ValueError):
        payoff_coefficients(SMALL_SP, kind="put")


def test_payoff_boundary_robustness(theta2, ctx):
    # widening the truncation by one wavelet width must not move the price
    # (the density carries no mass near the boundary)
    tau, strike = 0.5, 1.05
    m = select_scale(theta2, tau, ctx, 1e-7)
    sp = select_truncation(theta2, tau, ctx, m, [strike])
    width = 2.0**-sp.m
    sp_wide = SwiftParams(m=sp.m, eta=sp.eta + 1, j_density=sp.j_density,
                          j_payoff=sp.j_payoff, c=sp.c + width,
                          x_low=sp.x_low - width, x_high=sp.x_high + width)
    p = price_single(theta2, ctx, OptionQuote(strike, tau), sp)
    p_wide = price_single(theta2, ctx, OptionQuote(strike, tau), sp_wide)
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
    half = SwiftParams(m=sp.m, eta=sp.eta // 2, j_density=sp.j_density,
                       j_payoff=sp.j_payoff, c=sp.c, x_low=sp.x_low,
                       x_high=sp.x_high)
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
        select_scale(stress_theta, 0.04, ctx100, 1e-6, max_scale=3)
    with pytest.raises(ValueError):
        select_scale(theta2, 1.0, ctx, 2.0)


def test_scale_three_prices_long_maturity_rows(stress_theta, ctx100):
    # the published long-maturity stress values, scale pinned at 3
    for strike, want in ((50.0, 65.565), (100.0, 46.911), (200.0, 27.198)):
        sp = select_truncation(stress_theta, 45.0, ctx100, 3, [strike],
                               max_scale=3)
        assert sp.m == 3
        p = price_single(stress_theta, ctx100, OptionQuote(strike, 45.0), sp)
        assert abs(p - want) < 1e-3


def test_scale_seven_prices_short_maturity_rows(stress_theta, ctx100):
    # scale 3 underprices two-week expiries; scale 7 suffices
    for strike, want in ((50.0, 50.000), (100.0, 1.046)):
        sp = select_truncation(stress_theta, 0.04, ctx100, 7, [strike],
                               max_scale=7)
        p = price_single(stress_theta, ctx100, OptionQuote(strike, 0.04), sp)
        assert abs(p - want) < 1e-3
    with pytest.raises(NoConvergenceError):
        # the density cannot be recovered at scale 3 for this expiry
        select_truncation(stress_theta, 0.04, ctx100, 3, [100.0], max_scale=3)


def test_select_truncation_symmetric_for_atm(theta2, ctx):
    sp = select_truncation(theta2, 0.5, ctx, 5, [ctx.spot])
    assert sp.x_low == -sp.x_high
    assert sp.x_high == sp.c


def test_select_truncation_interval_straddles_zero(stress_theta, ctx100):
    # deep OTM short expiry: upper end clamps to the payoff kink
    sp = select_truncation(stress_theta, 0.04, ctx100, 7, [200.0], max_scale=8)
    assert sp.x_high == 0.0
    assert price_single(stress_theta, ctx100, OptionQuote(200.0, 0.04), sp) == 0.0
    # deep ITM short expiry: lower end clamps instead
    sp2 = select_truncation(stress_theta, 0.04, ctx100, 7, [50.0], max_scale=8)
    assert sp2.x_low == 0.0 or sp2.x_low < 0.0  # clamp only when needed
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
    # J_d just above 2 eta; J_p by the payoff rule over the same interval
    for _, _, sp in _set2_selections(PARAM_SETS[name], ctx):
        span = max(abs(sp.x_low), sp.x_high)
        assert sp.j_density == _next_pow2(2 * sp.eta + 1)
        assert sp.j_payoff == _j_for(sp.m, sp.eta, span)


@pytest.mark.parametrize("name", ["theta1", "theta2", "fx", "ir", "eq"])
def test_density_grid_keeps_prices_and_reference_error(name, ctx):
    """The selected J_d prices like J_d = J_p and no worse against the oracle.

    The oracle is the quadrature pricer at (1536 nodes, u_max 2400), checked
    converged against (2048, 3200).  Errors are per unit strike, the scale
    the prices carry."""
    theta = PARAM_SETS[name]
    ref_qc = QuadratureConfig(nodes=1536, u_max=2400.0)
    check_qc = QuadratureConfig(nodes=2048, u_max=3200.0)
    err_new = err_old = 0.0
    for tau, strikes, sp in _set2_selections(theta, ctx):
        new = MultiStrikePricer(ctx, tau, strikes, sp).prices(theta)
        full = dataclasses.replace(sp, j_density=sp.j_payoff)
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
        sp = select_truncation(stress_theta, 0.04, ctx100, 7, [100.0], L=L,
                               max_scale=7)
        p = price_single(stress_theta, ctx100, OptionQuote(100.0, 0.04), sp)
        assert abs(p - 1.046) < 1e-3, L


def test_invalid_swift_params_rejected():
    with pytest.raises(ValueError):  # 2 eta >= J
        SwiftParams(m=3, eta=32, j_density=64, j_payoff=64, c=1.0,
                    x_low=-1.0, x_high=1.0)
    with pytest.raises(ValueError):  # J not a power of two
        SwiftParams(m=3, eta=4, j_density=48, j_payoff=64, c=1.0,
                    x_low=-1.0, x_high=1.0)
    with pytest.raises(ValueError):  # interval must straddle zero
        SwiftParams(m=3, eta=4, j_density=64, j_payoff=64, c=1.0,
                    x_low=0.5, x_high=1.5)


def test_empty_strikes_and_mixed_contexts_rejected(theta2, ctx, ctx100):
    with pytest.raises(ValueError, match="nonempty"):
        select_truncation(theta2, 0.5, ctx, 6, [])
    sp = select_truncation(theta2, 0.5, ctx, 6, [1.0])
    pricers = [MultiStrikePricer(c, 0.5, [1.0], sp) for c in (ctx, ctx100)]
    with pytest.raises(ValueError, match="one market context"):
        pack_sweeps(pricers)


def test_selection_sweep_is_the_pricers_first(theta2, ctx, ctx100):
    # the sweep of the accepted grid, adopted, prices bitwise as the pricer's
    # own sweep would; a sweep of another grid, maturity or market is refused
    strikes = [0.8, 1.0, 1.25]
    sweep = []
    sp = select_truncation(theta2, 0.5, ctx, 5, strikes, sweep_out=sweep)
    assert len(sweep) == 1
    assert np.array_equal(price_multi_strike(theta2, ctx, 0.5, strikes, sp,
                                             sweep=sweep[0]),
                          price_multi_strike(theta2, ctx, 0.5, strikes, sp))
    other = select_truncation(theta2, 0.5, ctx, 6, strikes)
    for pricer in (MultiStrikePricer(ctx, 0.5, strikes, other),
                   MultiStrikePricer(ctx, 0.25, strikes, sp),
                   MultiStrikePricer(ctx100, 0.5, strikes, sp)):
        with pytest.raises(ValueError, match="own grid"):
            pricer.adopt_sweep(sweep[0])


def test_multi_strike_equals_single(theta2, ctx, set1_priced):
    tau = set1_priced.quotes[0].maturity
    strikes = [q.strike for q in set1_priced.quotes]
    sp = select_truncation(theta2, tau, ctx, select_scale(theta2, tau, ctx, 1e-7),
                           strikes)
    multi = price_multi_strike(theta2, ctx, tau, strikes, sp)
    single = np.array([price_single(theta2, ctx, OptionQuote(k, tau), sp)
                       for k in strikes])
    assert np.max(np.abs(multi - single)) < 1e-10


def test_multi_strike_single_entry_degenerate(theta2, ctx):
    sp = select_truncation(theta2, 0.5, ctx, 5, [1.1])
    multi = price_multi_strike(theta2, ctx, 0.5, [1.1], sp)
    single = price_single(theta2, ctx, OptionQuote(1.1, 0.5), sp)
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
    sp = SwiftParams(m=5, eta=sp0.eta, j_density=256, j_payoff=256,
                     c=sp0.c, x_low=sp0.x_low, x_high=sp0.x_high)
    x_grid, grid_prices = price_strike_grid(theta2, ctx, 1.0, sp)
    k = np.arange(sp.j_density)
    assert np.allclose(x_grid, (2.0 * k - sp.j_density) / 2.0**(sp.m + 1))
    inside = (x_grid >= sp.x_low) & (x_grid <= sp.x_high)
    strikes = ctx.spot * np.exp(-x_grid[inside])
    multi = price_multi_strike(theta2, ctx, 1.0, strikes, sp)
    assert np.max(np.abs(multi - grid_prices[inside])) < 1e-10


def test_grid_monotone_in_strike_without_correlation(ctx):
    th = HestonParams(kappa=1.5768, v_bar=0.0398, sigma=0.0175, rho=0.0,
                      v0=0.0175)
    sp0 = select_truncation(th, 1.0, ctx, 5, [0.5, 2.0])
    sp = SwiftParams(m=5, eta=sp0.eta, j_density=256, j_payoff=256,
                     c=sp0.c, x_low=sp0.x_low, x_high=sp0.x_high)
    x_grid, prices = price_strike_grid(th, ctx, 1.0, sp)
    usable = (x_grid >= sp.x_low + sp.c) & (x_grid <= sp.x_high - sp.c)
    order = np.argsort(-x_grid[usable])  # ascending strike
    assert np.all(np.diff(prices[usable][order]) <= 1e-12)


def test_grid_spline_interpolation(theta2, ctx):
    sp0 = select_truncation(theta2, 1.0, ctx, 5, [0.5, 2.0])
    sp = SwiftParams(m=5, eta=sp0.eta, j_density=256, j_payoff=256,
                     c=sp0.c, x_low=sp0.x_low, x_high=sp0.x_high)
    x_grid, prices = price_strike_grid(theta2, ctx, 1.0, sp)
    inside = (x_grid >= sp.x_low) & (x_grid <= sp.x_high)
    spline = CubicSpline(x_grid[inside], prices[inside], bc_type="natural")
    rng = np.random.default_rng(7)
    x_probe = rng.uniform(-0.6, 0.6, 100)
    direct = price_multi_strike(theta2, ctx, 1.0, ctx.spot * np.exp(-x_probe), sp)
    assert np.max(np.abs(spline(x_probe) - direct)) < 1e-5


def test_put_call_parity(theta2, ctx):
    ctx_r = MarketContext(spot=1.0, rate=0.03, dividend=0.01)
    sp = select_truncation(theta2, 0.75, ctx_r, 6, [0.9, 1.1])
    for strike in (0.9, 1.1):
        call = price_single(theta2, ctx_r, OptionQuote(strike, 0.75, kind="call"), sp)
        put = price_single(theta2, ctx_r, OptionQuote(strike, 0.75, kind="put"), sp)
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
    _, jac = price_and_gradient_multi_strike(theta2, ctx, 0.5, strikes, sp)
    fd = price_jacobian_fd(
        lambda th: price_multi_strike(th, ctx, 0.5, strikes, sp), theta2)
    rel = np.abs(jac - fd) / np.maximum(np.abs(fd), 1e-12)
    assert rel.max() < 1e-5


def test_single_quote_gradient_matches_multi(theta2, ctx):
    strikes = np.array([0.9, 1.2])
    sp = select_truncation(theta2, 0.5, ctx, 6, strikes)
    prices, jac = price_and_gradient_multi_strike(theta2, ctx, 0.5, strikes, sp)
    for i, strike in enumerate(strikes):
        p, g = price_and_gradient_single(theta2, ctx, OptionQuote(strike, 0.5), sp)
        assert abs(p - prices[i]) < 1e-12
        assert np.max(np.abs(g - jac[i])) < 1e-12


def test_phase_matrix_two_tables_match_direct_exponentials(ctx):
    sp = SwiftParams(m=9, eta=4096, j_density=16384, j_payoff=16384, c=1.0,
                     x_low=-8.0, x_high=8.0)
    omega = sp.density_freqs()
    for quotes in (set1_quotes(), set2_quotes()):
        strikes = np.array([q.strike for q in quotes])
        pricer = MultiStrikePricer(ctx, 1.0, strikes, sp)
        x = np.log(ctx.spot / strikes)
        direct = np.exp(-1j * np.outer(x, omega))
        assert np.max(np.abs(pricer.phases - direct)) < 1e-12


def test_packed_pricers_answer_alone_in_any_call_order(theta2, theta2_start, ctx):
    # members of one shared sweep, asked out of order and at changing
    # parameters, answer bit for bit as they do unpacked
    strikes = [0.9, 1.0, 1.1]
    theta_b = HestonParams.from_array(theta2.as_array() * 1.01)

    def pricers():
        out = []
        for tau in (0.25, 0.5, 1.0):
            sp = select_truncation(theta2, tau, ctx, select_scale(theta2, tau, ctx),
                                   strikes)
            out.append(MultiStrikePricer(ctx, tau, strikes, sp))
        return out

    packed, alone = pricers(), pricers()
    pack_sweeps(packed)
    assert len({id(p._sweep) for p in packed}) == 1
    calls = [(2, "jac", theta2), (0, "price", theta_b), (1, "jac", theta2),
             (1, "jac", theta_b), (2, "jac", theta_b), (0, "jac", theta2_start),
             (0, "jac", theta2_start), (2, "price", theta2_start)]
    for k, kind, theta in calls:
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
    _, jac = price_and_gradient_multi_strike(th, ctx, 0.5, strikes, sp)
    assert np.max(np.abs(jac[:, 4])) < 1e-6  # rho column


def test_gradient_call_cost_bounded(theta2, ctx, set1_priced):
    tau = set1_priced.quotes[0].maturity
    strikes = [q.strike for q in set1_priced.quotes]
    sp = select_truncation(theta2, tau, ctx, select_scale(theta2, tau, ctx, 1e-7),
                           strikes)

    def best(f, n=9):
        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            f()
            out.append(time.perf_counter() - t0)
        return min(out)

    t_price = best(lambda: price_multi_strike(theta2, ctx, tau, strikes, sp))
    t_both = best(lambda: price_and_gradient_multi_strike(theta2, ctx, tau,
                                                          strikes, sp))
    assert t_both <= 2.5 * t_price, (t_price, t_both)


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
        sp = SwiftParams(m=m, eta=eta, j_density=j, j_payoff=j, c=2.0,
                         x_low=-2.0, x_high=x + 2.0)
        p = price_single(th, ctx100, OptionQuote(strike, 1.0), sp)
        errs[m] = abs(p - (ctx100.spot - strike))
    assert errs[12] < 5e-4
    assert errs[12] < 0.1 * errs[8]
