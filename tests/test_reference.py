"""Quadrature reference pricer: published stress values, convergence
behavior, the documented deep-OTM non-convergence, and gradients."""

import math

import numpy as np
import pytest

from swiftcal import (
    ChfOverflowError,
    HestonParams,
    MarketContext,
    OptionQuote,
    QuadratureConfig,
    price_and_gradient_cp,
    price_cp,
    prices_cp,
)
from swiftcal.fixtures import (PARAM_SETS, STRESS_SPOT, set1_quotes, set2_quotes,
                               stress_quotes)

from conftest import price_jacobian_fd


def bs_call(spot, strike, tau, rate, vol):
    d1 = (math.log(spot / strike) + (rate + vol * vol / 2) * tau) / (vol * math.sqrt(tau))
    d2 = d1 - vol * math.sqrt(tau)
    n = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return spot * n(d1) - strike * math.exp(-rate * tau) * n(d2)


def test_black_scholes_limit(ctx100):
    # vanishing vol-of-vol with flat variance: an independent closed form
    th = HestonParams(kappa=1.0, v_bar=0.04, sigma=1e-6, rho=0.0, v0=0.04)
    for strike in (80.0, 100.0, 125.0):
        got = price_cp(th, ctx100, OptionQuote(strike, 1.0), QuadratureConfig())
        want = bs_call(100.0, strike, 1.0, 0.0, 0.2)
        assert abs(got - want) < 1e-4
    ctx_r = MarketContext(spot=100.0, rate=0.04, dividend=0.015)
    got = price_cp(th, ctx_r, OptionQuote(100.0, 2.0), QuadratureConfig())
    fwd = 100.0 * math.exp((0.04 - 0.015) * 2.0)
    want = math.exp(-0.04 * 2.0) * bs_call(fwd, 100.0, 2.0, 0.0, 0.2)
    assert abs(got - want) < 1e-4


def test_short_maturity_stress_values(stress_theta, ctx100):
    qc = QuadratureConfig(nodes=64, u_max=200.0)
    for strike, want in ((50.0, 50.000), (100.0, 1.046)):
        got = price_cp(stress_theta, ctx100, OptionQuote(strike, 0.04), qc)
        assert abs(got - want) < 1e-3
    # deep OTM short expiry: the headline number, documented as unreliable
    got = price_cp(stress_theta, ctx100, OptionQuote(200.0, 0.04), qc)
    assert abs(got - 1.079e-3) < 1e-5


def test_long_maturity_stress_values(stress_theta, ctx100):
    qc = QuadratureConfig(nodes=64, u_max=6.0)
    for strike, want in ((50.0, 65.565), (100.0, 46.911), (200.0, 27.198)):
        got = price_cp(stress_theta, ctx100, OptionQuote(strike, 45.0), qc)
        assert abs(got - want) < 1e-3
        got = price_cp(stress_theta, ctx100, OptionQuote(strike, 45.0),
                       QuadratureConfig(nodes=64, u_max=200.0))
        assert abs(got - want) < 1e-2


def test_node_doubling_converged_away_from_pathology(stress_theta, ctx100):
    for strike in (50.0, 100.0):
        a = price_cp(stress_theta, ctx100, OptionQuote(strike, 0.04),
                     QuadratureConfig(64, 200.0))
        b = price_cp(stress_theta, ctx100, OptionQuote(strike, 0.04),
                     QuadratureConfig(128, 200.0))
        assert abs(a - b) < 1e-6


def test_deep_otm_short_expiry_never_converges_in_umax(stress_theta, ctx100):
    # raising the truncation changes the estimate materially and even flips
    # its sign: the method has no usable answer here and must show it
    quote = OptionQuote(200.0, 0.04)
    vals = [price_cp(stress_theta, ctx100, quote, QuadratureConfig(64, u))
            for u in (100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0)]
    spread = max(vals) - min(vals)
    assert spread > 1e-3 * 1.079e-3
    assert min(vals) < 0.0 < max(vals)
    diffs = np.diff(vals)
    assert np.any(diffs > 0) and np.any(diffs < 0)  # non-monotone in ubar


def test_gradient_matches_finite_differences(theta2, ctx, set2_priced):
    qc = QuadratureConfig()
    quotes = set2_priced.quotes[::7]
    for q in quotes:
        grad = price_and_gradient_cp(theta2, ctx, q, qc)[1]
        fd = price_jacobian_fd(
            lambda th: np.array([price_cp(th, ctx, q, qc)]), theta2).ravel()
        # 1e-5 componentwise, with an absolute floor where the FD oracle's
        # own noise dominates (entries ~1e-7 on prices ~1e-7: the stencil
        # cannot resolve better than ~1e-10 absolute in double precision)
        floor = 1e-4 * max(1.0, np.max(np.abs(fd)))
        assert np.all(np.abs(grad - fd) <= 1e-5 * np.maximum(np.abs(fd), floor)), \
            (q.strike, q.maturity)


def test_price_and_gradient_consistent(theta2, ctx):
    # one inversion assembly serves both: the prices agree to the bit
    qc = QuadratureConfig()
    for q in [OptionQuote(1.1, 0.75)] + set2_quotes()[::3]:
        for quote in (q, OptionQuote(q.strike, q.maturity, kind="put")):
            p, grad = price_and_gradient_cp(theta2, ctx, quote, qc)
            assert p == price_cp(theta2, ctx, quote, qc) and grad.shape == (5,)


def test_correlation_gradient_sign_deep_otm(ctx):
    # strongly negative correlation thins the right tail: an OTM call gets
    # cheaper as rho decreases, so the rho-gradient must be positive
    th = HestonParams(kappa=2.0, v_bar=0.09, sigma=0.6, rho=-0.9, v0=0.09)
    q = OptionQuote(1.6, 0.5)
    grad = price_and_gradient_cp(th, ctx, q, QuadratureConfig())[1]
    fd = price_jacobian_fd(
        lambda t: np.array([price_cp(t, ctx, q, QuadratureConfig())]), th).ravel()
    assert np.sign(grad[4]) == np.sign(fd[4])
    assert grad[4] > 0


def test_correlation_gradient_vanishes_without_vol_of_vol(ctx):
    th = HestonParams(kappa=1.5, v_bar=0.04, sigma=1e-5, rho=-0.5, v0=0.04)
    for strike in (0.9, 1.0, 1.1):
        grad = price_and_gradient_cp(th, ctx, OptionQuote(strike, 0.5),
                                     QuadratureConfig())[1]
        assert abs(grad[4]) < 1e-6


def test_repeated_pricing_builds_no_table(theta2, ctx, monkeypatch):
    # the node table is built once per (nodes, u_max): a second price, a
    # second price and gradient and a second quote-set request at one config
    # insert nothing into the store
    from swiftcal import swift

    monkeypatch.setattr(swift, "_tables", {})
    qc, q = QuadratureConfig(48, 150.0), OptionQuote(1.1, 0.75, kind="put")
    price_cp(theta2, ctx, q, qc)
    price_and_gradient_cp(theta2, ctx, q, qc)
    prices_cp(theta2, ctx, set2_quotes(), qc)
    held = list(swift._tables.items())
    price_cp(theta2, ctx, q, qc)
    price_and_gradient_cp(theta2, ctx, q, qc)
    prices_cp(theta2, ctx, set2_quotes(), qc)
    assert len(held) == 1
    assert [(k, id(t)) for k, t in swift._tables.items()] == [(k, id(t)) for k, t in held]


def test_put_call_parity(theta2, ctx):
    ctx_r = MarketContext(spot=1.0, rate=0.02, dividend=0.005)
    qc = QuadratureConfig()
    for strike in (0.85, 1.15):
        call = price_cp(theta2, ctx_r, OptionQuote(strike, 0.6, kind="call"), qc)
        put = price_cp(theta2, ctx_r, OptionQuote(strike, 0.6, kind="put"), qc)
        want = math.exp(-0.005 * 0.6) - strike * math.exp(-0.02 * 0.6)
        assert abs(call - put - want) < 1e-12


def test_overflowing_chf_raises_the_named_error():
    # at rate 700 the chf at -u + i holds +inf beside -inf from tau = 1.2
    # on; the finiteness check names the overflow, with no numpy warning
    # before it (the suite fails on one)
    ctx, theta = MarketContext(spot=1.0, rate=700.0), PARAM_SETS["theta2"]
    assert np.all(np.isfinite(prices_cp(theta, ctx, [OptionQuote(1.0, 1.0)])))
    with pytest.raises(ChfOverflowError, match="overflowed double precision"):
        prices_cp(theta, ctx, [OptionQuote(1.0, 1.2)])


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(nodes=1)
    with pytest.raises(ValueError):
        QuadratureConfig(u_max=-5.0)


def _bitwise_cases():
    """(label, context, quotes) of the set-pricing cases: set1, set2 and
    stress, each quote as a call and as a put, in a seeded order that
    interleaves maturities, at a nonzero rate and dividend; plus a
    one-quote set and an empty set."""
    rng = np.random.default_rng(3)
    for name, quotes, spot in (("set1", set1_quotes(), 1.0), ("set2", set2_quotes(), 1.0),
                               ("stress", stress_quotes(), STRESS_SPOT)):
        both = [OptionQuote(q.strike, q.maturity, kind=kind)
                for q in quotes for kind in ("call", "put")]
        yield name, MarketContext(spot=spot, rate=0.03, dividend=0.01), [
            both[i] for i in rng.permutation(len(both))]
    yield "one quote", MarketContext(spot=1.0, rate=0.03, dividend=0.01), [
        OptionQuote(1.1, 0.75, kind="put")]
    yield "empty", MarketContext(spot=1.0, rate=0.03, dividend=0.01), []


@pytest.mark.parametrize("block", [None, 3], ids=["one-block", "3-quote-blocks"])
@pytest.mark.parametrize("qc", [QuadratureConfig(), QuadratureConfig(1536, 2400.0)],
                         ids=["default", "1536-2400"])
def test_prices_cp_equals_price_cp_bitwise(qc, block, monkeypatch):
    # one sweep over a set's distinct maturities prices every quote to the
    # bits price_cp gives it alone, on every parameter set; with the block
    # bound patched to 3 quotes, a set is priced in row blocks, each with
    # its own chf call over several maturities, to the same bits
    from swiftcal import reference

    if block is not None:
        monkeypatch.setattr(reference, "_BLOCK", block * 2 * qc.nodes)
    for label, ctx, quotes in _bitwise_cases():
        for name, theta in PARAM_SETS.items():
            want = np.array([price_cp(theta, ctx, q, qc) for q in quotes])
            got = prices_cp(theta, ctx, quotes, qc)
            assert got.shape == (len(quotes),), (label, name)
            assert got.tobytes() == want.tobytes(), (label, name)


def test_run_price_sweeps_the_quote_set_once(theta2, ctx, monkeypatch):
    # a set2 cp request is one chf call over 2 x nodes frequencies for each
    # of its 8 distinct maturities
    from swiftcal import reference
    from swiftcal.experiments import run_price
    from swiftcal.quotes import QuoteFile

    sizes = []
    sweep = reference.chf_cui_parts

    def counted(u, *args, **kwargs):
        sizes.append(np.size(u))
        return sweep(u, *args, **kwargs)

    monkeypatch.setattr(reference, "chf_cui_parts", counted)
    quotes = set2_quotes()
    run_price("cp", theta2, QuoteFile(context=ctx, quotes=quotes))
    maturities = len({q.maturity for q in quotes})
    assert maturities == 8
    assert sizes == [2 * QuadratureConfig().nodes * maturities]
