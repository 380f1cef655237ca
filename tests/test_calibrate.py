"""Damped least-squares driver: step algebra oracles, stopping behavior,
backend interchangeability and the two quote-set protocols."""

import importlib
import math
from dataclasses import asdict

import numpy as np
import pytest

from swiftcal import (
    CalibrationConfig,
    CpBackend,
    HestonParams,
    KswiftBackend,
    MarketContext,
    MultiStrikePricer,
    OptionQuote,
    SingularSystemError,
    StopReason,
    SwiftBackend,
    calibrate,
    lm_step,
    price_and_gradient_cp,
    price_cp,
    select_scale,
    select_truncation,
)
from swiftcal.calibrate import discretization_plan
from swiftcal.experiments import (PricingOverrides, make_calibration_backend,
                                  run_generate, run_generate_grid, run_price)
from swiftcal.fixtures import PARAM_SETS, set2_quotes
from swiftcal.quotes import QuoteFile
from swiftcal.swift import _TAIL_STAGES, group_by_maturity, put_offsets, select_groups

from oracles import per_strike_price, per_strike_price_and_gradient


@pytest.fixture
def chf_sweeps(monkeypatch):
    """Sizes of the chf value and gradient calls the pricers make, in order."""
    swift = importlib.import_module("swiftcal.swift")
    calls = {"chf": [], "grad": []}
    chf, grad = swift.chf_cui_parts, swift.chf_gradient_from_parts

    def counted_chf(u, *args, **kwargs):
        calls["chf"].append(np.size(u))
        return chf(u, *args, **kwargs)

    def counted_grad(tau, theta, value, parts):
        calls["grad"].append(np.size(value))
        return grad(tau, theta, value, parts)

    monkeypatch.setattr(swift, "chf_cui_parts", counted_chf)
    monkeypatch.setattr(swift, "chf_gradient_from_parts", counted_grad)
    return calls


@pytest.fixture
def group_evals(monkeypatch):
    """Per-group pricing passes: MultiStrikePricer price and Jacobian calls."""
    calls = []
    for name in ("prices", "prices_and_jacobian"):
        method = getattr(MultiStrikePricer, name)

        def counted(self, theta, _method=method):
            calls.append(self)
            return _method(self, theta)

        monkeypatch.setattr(MultiStrikePricer, name, counted)
    return calls


def test_lm_step_zero_residual():
    jac = np.random.default_rng(0).normal(size=(5, 12))
    delta = lm_step(jac, np.zeros(12), mu=0.1)
    assert np.all(delta == 0.0)


def test_lm_step_steepest_descent_limit():
    rng = np.random.default_rng(1)
    jac = rng.normal(size=(5, 20))
    resid = rng.normal(size=20)
    grad = jac @ resid
    delta = lm_step(jac, resid, mu=1e12)
    assert np.max(np.abs(delta - grad / 1e12) / np.abs(grad / 1e12)) < 1e-6


def test_lm_step_matches_dense_solve():
    rng = np.random.default_rng(2)
    jac = rng.normal(size=(5, 30))
    resid = rng.normal(size=30)
    mu = 0.01
    delta = lm_step(jac, resid, mu)
    want = np.linalg.solve(jac @ jac.T + mu * np.eye(5), jac @ resid)
    assert np.max(np.abs(delta - want)) < 1e-10


def test_lm_step_singular_raises():
    jac = np.zeros((5, 8))
    resid = np.ones(8)
    with pytest.raises(SingularSystemError):
        # mu underflows against a zero normal matrix only at mu = 0; force a
        # genuinely singular solve through non-finite inputs instead
        lm_step(jac * np.nan, resid, mu=1e-3)
    with pytest.raises(ValueError):
        lm_step(jac, resid, mu=0.0)


def test_residuals_order_and_objective(theta2, ctx, set2_priced):
    backend = KswiftBackend(set2_priced.quotes, ctx, theta2)
    r = backend.prices(theta2) - [q.price for q in set2_priced.quotes]
    assert r.shape == (len(set2_priced.quotes),)
    assert np.linalg.norm(r) < 1e-9  # self-consistency at the generator


def test_residuals_nonzero_from_perturbed_start(theta2_start, ctx, set2_priced):
    backend = KswiftBackend(set2_priced.quotes, ctx, theta2_start)
    r = backend.prices(theta2_start) - [q.price for q in set2_priced.quotes]
    assert np.linalg.norm(r) > 1e-4  # the sigma perturbation is visible


def test_kswift_backend_groups_by_maturity(theta2, ctx, set2_priced, group_evals):
    backend = KswiftBackend(set2_priced.quotes, ctx, theta2)
    n_groups = len({q.maturity for q in set2_priced.quotes})
    backend.prices(theta2)
    assert len(group_evals) == len(set(group_evals)) == n_groups
    group_evals.clear()
    backend.prices_and_jacobian(theta2)
    assert len(group_evals) == len(set(group_evals)) == n_groups


def test_kswift_packs_small_groups_split_protocol_does_not(theta2, theta2_start, ctx,
                                                           set2_priced, chf_sweeps,
                                                           group_evals):
    quotes = set2_priced.quotes
    backend = KswiftBackend(quotes, ctx, theta2_start)
    n_groups = len(backend.swift_params)
    chf_sweeps["chf"].clear()
    backend.prices(theta2)
    assert len(group_evals) == n_groups
    assert 0 < len(chf_sweeps["chf"]) < n_groups
    # set3: every quote its own group and its own sweep, so the speed
    # comparison still measures per-quote recomputation
    split = KswiftBackend(quotes, ctx, theta2_start, split_groups=True)
    chf_sweeps["chf"].clear()
    split.prices(theta2)
    assert len(chf_sweeps["chf"]) == len(quotes)
    split.prices_and_jacobian(theta2_start)
    assert len(chf_sweeps["chf"]) == 2 * len(quotes)
    assert len(chf_sweeps["grad"]) == len(quotes)


def _nudged(theta):
    return HestonParams.from_array(theta.as_array() * [1.01, 0.99, 1.01, 0.99, 1.0])


@pytest.mark.parametrize("target", ["theta2", "fx", "ir", "eq"])
def test_run_price_sweeps_each_selected_grid_once(ctx, target, chf_sweeps):
    # every sweep block starts from the selection's sweeps of the grids it
    # accepted, so a request sweeps the grids selection tries and nothing
    # more, at the default scale and at a pinned one (scale 6 is too coarse
    # for fx: run_price refuses its out-of-band calls).  Selecting the groups
    # together sweeps the frequencies of selecting each alone, in fewer calls
    theta, quotes = PARAM_SETS[target], set2_quotes()
    groups = group_by_maturity(quotes).items()
    pairs = [(tau, [quotes[i].strike for i in idx]) for tau, idx in groups]
    for ov in (PricingOverrides(), PricingOverrides(m=7)):
        chf_sweeps["chf"].clear()
        for tau, strikes in pairs:
            m = select_scale(theta, tau, ctx) if ov.m is None else ov.m
            select_truncation(theta, tau, ctx, m, strikes)
        alone = chf_sweeps["chf"][:]
        chf_sweeps["chf"].clear()
        list(select_groups(theta, pairs, ctx, ov.m))
        selection = chf_sweeps["chf"][:]
        assert sum(selection) == sum(alone) and len(selection) < len(alone), ov
        chf_sweeps["chf"].clear()
        run_price("swift", theta, QuoteFile(context=ctx, quotes=quotes), ov)
        assert chf_sweeps["chf"] == selection, ov  # no second sweep of sum J_d
        assert chf_sweeps["grad"] == []


def test_split_plan_sweeps_each_maturity_tail_once(theta2_start, ctx, set2_priced,
                                                   chf_sweeps):
    # the scale rule's tail sweep covers each of set2's 8 maturities once,
    # split into a group per quote or not: 7 scales of 129 points each in the
    # first stage, then 3 more for the 5 maturities whose scale is 7 or 8
    # (scales 8, 7, 7, 7, 7, 6, 6, 6 in maturity order); no row is swept twice
    taus = sorted({q.maturity for q in set2_priced.quotes})
    scales = [select_scale(theta2_start, tau, ctx) for tau in taus]
    assert scales == [8, 7, 7, 7, 7, 6, 6, 6]
    tail = [sum(stop - first for m in scales if m >= first) * 129
            for first, stop in _TAIL_STAGES if max(scales) >= first]
    assert tail == [8 * 7 * 129, 5 * 3 * 129] and sum(tail) < 8 * 13 * 129
    for split in (False, True):
        chf_sweeps["chf"].clear()
        list(discretization_plan(set2_priced.quotes, ctx, theta2_start,
                                 split_groups=split))
        assert chf_sweeps["chf"][:2] == tail, split


def test_generate_grid_sweeps_its_grid_once(ctx, chf_sweeps):
    # the grid is priced from the selected pricer's U-tilde and its sweep at
    # theta: fx at B=0.5, tau=2 sweeps the tail grid's first two stages (its
    # scale is 8), the three grids its selection tries, and its
    # 16,384-frequency grid once; the rows are a fresh pricer's grid_prices,
    # bit for bit
    theta, tau = PARAM_SETS["fx"], 2.0
    qf = run_generate_grid(theta, ctx, 0.5, tau)
    assert chf_sweeps["chf"] == [7 * 129, 3 * 129, 4096, 8192, 16384]
    assert chf_sweeps["grad"] == []
    (pricer, _), = discretization_plan([OptionQuote(ctx.spot * math.exp(s * 0.5), tau)
                                        for s in (-1.0, 1.0)], ctx, theta)
    x_grid, prices = MultiStrikePricer(ctx, tau, [], pricer.sp).grid_prices(theta)
    keep = np.abs(x_grid) <= 0.5
    assert [(q.strike, q.price) for q in qf.quotes] == sorted(zip(
        (ctx.spot * np.exp(-x_grid[keep])).tolist(),
        np.maximum(prices[keep], 0.0).tolist()))


@pytest.mark.parametrize("target", ["fx", "ir"])
@pytest.mark.parametrize("split", [False, True])
def test_adopted_sweeps_bitwise_fresh_pricers(ctx, target, split, chf_sweeps):
    # a backend's sweep blocks start from the selection's sweeps; prices and
    # Jacobians equal those of pricers that sweep for themselves, at the
    # selection's parameters (the selection's sweeps) and after them (the
    # blocks' own sweeps)
    quotes = run_generate(PARAM_SETS[target], ctx, set2_quotes()).quotes
    theta0 = PARAM_SETS[target]
    backend = KswiftBackend(quotes, ctx, theta0, split_groups=split)
    groups = ([(q.maturity, [i]) for i, q in enumerate(quotes)] if split
              else group_by_maturity(quotes).items())
    fresh = [(MultiStrikePricer(ctx, tau, [quotes[i].strike for i in idx], sp), idx)
             for (tau, idx), sp in zip(groups, backend.swift_params)]
    offsets = put_offsets(quotes, ctx)
    chf_sweeps["chf"].clear()
    got = backend.prices(theta0)
    assert chf_sweeps["chf"] == []
    want = np.empty(len(quotes))
    for pricer, idx in fresh:
        want[idx] = pricer.prices(theta0)
    assert np.array_equal(got, want + offsets)
    for theta in (theta0, _nudged(theta0)):
        got_p, got_j = backend.prices_and_jacobian(theta)
        want_j = np.empty((len(quotes), 5))
        for pricer, idx in fresh:
            want[idx], want_j[idx] = pricer.prices_and_jacobian(theta)
        assert np.array_equal(got_p, want + offsets)
        assert np.array_equal(got_j, want_j)


@pytest.mark.parametrize("target,start", [("theta2", "theta2-start"), ("ir", "ir"),
                                          ("fx", "fx")])
def test_kswift_sweeps_every_frequency_once(ctx, target, start, chf_sweeps):
    # a price evaluation at the selection's parameters sweeps nothing (every
    # block starts from the selection's sweeps), the Jacobian at the same
    # parameters reuses them, and a Jacobian at new parameters sweeps and
    # differentiates sum J_d: no frequency is swept twice or skipped
    quotes = run_generate(PARAM_SETS[target], ctx, set2_quotes()).quotes
    theta0 = PARAM_SETS[start]
    backend = KswiftBackend(quotes, ctx, theta0)
    sum_jd = sum(sp.j_density for sp in backend.swift_params)
    chf_sweeps["chf"].clear()
    backend.prices(theta0)
    assert chf_sweeps["chf"] == []
    backend.prices_and_jacobian(theta0)
    assert chf_sweeps["chf"] == []
    assert sum(chf_sweeps["grad"]) == sum_jd
    backend.prices_and_jacobian(_nudged(theta0))
    assert sum(chf_sweeps["chf"]) == sum_jd
    assert sum(chf_sweeps["grad"]) == 2 * sum_jd


@pytest.mark.parametrize("target,start", [("theta2", "theta2-start"), ("ir", "ir")])
def test_packed_sweeps_bitwise_per_group(ctx, target, start, chf_sweeps):
    quotes = run_generate(PARAM_SETS[target], ctx, set2_quotes()).quotes
    theta0 = PARAM_SETS[start]
    backend = KswiftBackend(quotes, ctx, theta0)
    j_d = [sp.j_density for sp in backend.swift_params]
    alone = [(MultiStrikePricer(ctx, tau, [quotes[i].strike for i in idx], sp), idx)
             for (tau, idx), sp in zip(group_by_maturity(quotes).items(),
                                       backend.swift_params)]

    def per_group(theta, jacobian):
        prices, jac = np.empty(len(quotes)), np.empty((len(quotes), 5))
        for pricer, idx in alone:
            if jacobian:
                prices[idx], jac[idx] = pricer.prices_and_jacobian(theta)
            else:
                prices[idx] = pricer.prices(theta)
        return prices + put_offsets(quotes, ctx), jac

    prices = backend.prices(theta0)
    assert np.array_equal(prices, per_group(theta0, False)[0])
    for theta in (theta0, _nudged(theta0)):  # reused sweep, then a fresh one
        chf_sweeps["chf"].clear()
        got = backend.prices_and_jacobian(theta)
        packed = chf_sweeps["chf"][:]
        want = per_group(theta, True)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        # every group shares the backend's one sweep
        assert packed == ([] if theta is theta0 else [sum(j_d)])


def test_backends_on_no_quotes_price_nothing(theta2, ctx):
    # an empty quote set selects nothing, and an empty block is no block
    for split in (False, True):
        backend = KswiftBackend([], ctx, theta2, split_groups=split)
        assert backend.prices(theta2).shape == (0,)
        prices, jac = backend.prices_and_jacobian(theta2)
        assert prices.shape == (0,) and jac.shape == (0, 5)


def test_backend_prices_agree(theta2, ctx, set2_priced):
    quotes = set2_priced.quotes
    fast = KswiftBackend(quotes, ctx, theta2).prices(theta2)
    slow = SwiftBackend(quotes, ctx, theta2).prices(theta2)
    reference = CpBackend(quotes, ctx).prices(theta2)
    assert np.max(np.abs(fast - slow)) < 1e-10
    assert np.max(np.abs(fast - reference)) < 1e-7
    # the two wavelet backends run one kernel on one discretization, so
    # Jacobians agree too; fx has the largest grids of the fixtures
    for theta in (theta2, PARAM_SETS["fx"]):
        grouped = KswiftBackend(quotes, ctx, theta).prices_and_jacobian(theta)
        alone = SwiftBackend(quotes, ctx, theta).prices_and_jacobian(theta)
        for got, want in zip(alone, grouped):
            assert np.max(np.abs(got - want)) < 1e-10, theta


def test_cp_prices_assemble_no_gradient(theta2, ctx, set1_priced, monkeypatch):
    # a price-only evaluation (every LM trial step) prices through price_cp,
    # bitwise the prices of prices_and_jacobian
    from swiftcal import reference

    backend = CpBackend(set1_priced.quotes, ctx)
    want = backend.prices_and_jacobian(theta2)[0]

    def no_gradient(*args, **kwargs):
        raise AssertionError("a price-only evaluation swept the gradient")

    monkeypatch.setattr(reference, "chf_with_gradient", no_gradient)
    assert np.array_equal(backend.prices(theta2), want)


def test_backend_supports_puts_via_parity(theta2, ctx):
    from swiftcal import OptionQuote
    quotes = [OptionQuote(1.1, 0.5, kind="call"), OptionQuote(1.1, 0.5, kind="put")]
    backend = KswiftBackend(quotes, ctx, theta2)
    call, put = backend.prices(theta2)
    assert abs(call - put - (1.0 - 1.1)) < 1e-9


def _parity_paths(theta, ctx, quotes):
    """(prices, Jacobian or None) of every pricing path, in quote order."""
    sp = {}
    for tau in {q.maturity for q in quotes}:
        strikes = [q.strike for q in quotes if q.maturity == tau]
        sp[tau] = select_truncation(theta, tau, ctx, select_scale(theta, tau, ctx, 1e-7),
                                    strikes)

    def rows(fn):
        out = [fn(q) for q in quotes]
        return np.array([o[0] for o in out]), np.array([o[1] for o in out])

    report = run_price("swift", theta, QuoteFile(context=ctx, quotes=quotes))
    return {
        "per_strike_price": (np.array([per_strike_price(theta, ctx, q, sp[q.maturity])
                                       for q in quotes]), None),
        "per_strike_price_and_gradient": rows(
            lambda q: per_strike_price_and_gradient(theta, ctx, q, sp[q.maturity])),
        "kswift": KswiftBackend(quotes, ctx, theta).prices_and_jacobian(theta),
        "kswift_prices": (KswiftBackend(quotes, ctx, theta).prices(theta), None),
        "swift": SwiftBackend(quotes, ctx, theta).prices_and_jacobian(theta),
        "run_price_swift": (np.array([r["price"] for r in report.rows]), None),
        "price_cp": (np.array([price_cp(theta, ctx, q) for q in quotes]), None),
        "price_and_gradient_cp": rows(lambda q: price_and_gradient_cp(theta, ctx, q)),
    }


def test_put_parity_on_every_pricing_path(theta2):
    ctx = MarketContext(spot=1.0, rate=0.03, dividend=0.01)
    pairs = [(k, tau) for tau in (0.25, 1.0) for k in (0.9, 1.1)]
    quotes = [OptionQuote(k, tau, kind=kind) for k, tau in pairs
              for kind in ("call", "put")]
    want = np.array([ctx.spot * np.exp(-ctx.dividend * tau) - k * np.exp(-ctx.rate * tau)
                     for k, tau in pairs])
    for name, (prices, jac) in _parity_paths(theta2, ctx, quotes).items():
        calls, puts = prices[0::2], prices[1::2]
        assert np.max(np.abs(calls - puts - want)) < 1e-12, name
        if jac is not None:
            assert np.array_equal(jac[0::2], jac[1::2]), name


def test_self_calibration_stops_immediately(theta2, ctx, set2_priced):
    backend = KswiftBackend(set2_priced.quotes, ctx, theta2)
    res = calibrate(set2_priced.quotes, theta2, ctx, CalibrationConfig(), backend)
    assert res.stop_reason is StopReason.RESIDUAL_TOL
    assert res.iterations <= 1
    assert res.calibrated


def test_set2_calibration_from_perturbed_start(theta2, theta2_start, ctx,
                                               set2_priced):
    backend = KswiftBackend(set2_priced.quotes, ctx, theta2_start)
    res = calibrate(set2_priced.quotes, theta2_start, ctx,
                    CalibrationConfig(), backend)
    assert res.stop_reason is StopReason.RESIDUAL_TOL
    assert res.iterations <= 30
    assert res.final_objective <= 1e-10
    assert np.max(np.abs(res.theta_hat.as_array() - theta2.as_array())) < 1e-2
    # trace is per accepted step and the objective is monotone
    objectives = [t[0] for t in res.per_iteration_trace]
    assert len(objectives) == res.iterations
    assert all(b < a for a, b in zip(objectives, objectives[1:]))


def test_set1_calibration_reprices_within_tolerance(theta2, theta2_start, ctx,
                                                    set1_priced):
    backend = KswiftBackend(set1_priced.quotes, ctx, theta2_start)
    res = calibrate(set1_priced.quotes, theta2_start, ctx,
                    CalibrationConfig(), backend)
    assert res.stop_reason is StopReason.RESIDUAL_TOL
    # single-expiry fits land on a different parameter vector yet reprice
    # every quote; that is the documented degeneracy, not a defect
    assert np.max(np.abs(res.theta_hat.as_array() - theta2.as_array())) > 1e-3
    reprice = KswiftBackend(set1_priced.quotes, ctx, res.theta_hat).prices(res.theta_hat)
    observed = np.array([q.price for q in set1_priced.quotes])
    assert np.max(np.abs(reprice - observed)) <= 1e-6


def test_backend_equivalence_fitted_parameters(theta2_start, ctx, set2_priced):
    cfg = CalibrationConfig()
    fitted = {}
    for name in ("kswift", "swift", "cp"):
        backend = make_calibration_backend(name, set2_priced.quotes, ctx, theta2_start)
        res = calibrate(set2_priced.quotes, theta2_start, ctx, cfg, backend)
        assert res.stop_reason is StopReason.RESIDUAL_TOL, name
        fitted[name] = res
    assert fitted["kswift"].iterations == fitted["swift"].iterations
    assert fitted["kswift"].iterations == fitted["cp"].iterations
    for a in ("swift", "cp"):
        diff = np.abs(fitted["kswift"].theta_hat.as_array()
                      - fitted[a].theta_hat.as_array())
        assert np.max(diff) <= 1e-4, a
        ratio = fitted[a].final_objective / fitted["kswift"].final_objective
        assert 0.1 < ratio < 10.0


def test_calibration_deterministic(theta2_start, ctx, set2_priced):
    cfg = CalibrationConfig()
    runs = []
    for _ in range(2):
        backend = KswiftBackend(set2_priced.quotes, ctx, theta2_start)
        runs.append(calibrate(set2_priced.quotes, theta2_start, ctx, cfg, backend))
    assert runs[0].per_iteration_trace == runs[1].per_iteration_trace
    assert np.array_equal(runs[0].theta_hat.as_array(), runs[1].theta_hat.as_array())


def test_max_iterations_reported_not_raised(theta2, theta2_start, ctx,
                                            set2_priced):
    cfg = CalibrationConfig(max_iterations=2)
    backend = KswiftBackend(set2_priced.quotes, ctx, theta2_start)
    res = calibrate(set2_priced.quotes, theta2_start, ctx, cfg, backend)
    assert res.stop_reason is StopReason.MAX_ITERATIONS
    assert res.iterations == 2
    assert not res.calibrated


def test_flat_gradient_stop(theta2_start, ctx, set2_priced):
    # an unreachable eps1 forces the run down to the gradient criterion
    # (from a perturbed start: the discretization floor keeps ||r|| > 0)
    cfg = CalibrationConfig(eps1=1e-300, eps2=1e-8)
    backend = KswiftBackend(set2_priced.quotes, ctx, theta2_start)
    res = calibrate(set2_priced.quotes, theta2_start, ctx, cfg, backend)
    assert res.stop_reason is StopReason.FLAT_GRADIENT


class _FrozenBackend:
    """Prices that never move with theta, at a fixed residual and Jacobian."""

    def __init__(self, residual: float, jacobian: np.ndarray):
        self.residual, self.jacobian = residual, jacobian
        self.price_evals = self.jac_evals = 0

    def prices(self, theta):
        self.price_evals += 1
        return np.full(len(self.jacobian), self.residual)

    def prices_and_jacobian(self, theta):
        self.jac_evals += 1
        return np.full(len(self.jacobian), self.residual), self.jacobian


def _frozen_fit(theta, backend, cfg=CalibrationConfig()):
    quotes = [OptionQuote(1.0, 0.5, price=0.0)] * len(backend.jacobian)
    with np.errstate(all="ignore"):
        res = calibrate(quotes, theta, MarketContext(spot=1.0), cfg, backend)
    assert res.stop_reason is StopReason.STAGNANT_STEP
    assert res.theta_hat == theta and res.iterations == 0 and res.per_iteration_trace == []
    assert backend.jac_evals == 1
    return res


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_jacobian_stops_on_singular_system(theta2, bad):
    # every damped solve is singular, and a non-finite mu cannot be raised
    # any further: the run stops without pricing a trial step
    backend = _FrozenBackend(1.0, np.full((5, 5), bad))
    _frozen_fit(theta2, backend)
    assert backend.price_evals == 1


def test_step_below_eps3_stops_stagnant(theta2):
    # a steep Jacobian and a small residual: the gradient J r = 1e-4 is far
    # from flat, but the step ~1e-16 is below eps3 |theta|
    backend = _FrozenBackend(1e-10, 1e6 * np.eye(5))
    _frozen_fit(theta2, backend, CalibrationConfig(eps1=1e-12))
    assert backend.price_evals == 1


def test_rejected_trials_until_mu_cap_stop_stagnant(theta2):
    # prices that never move reject every trial; mu climbs tenfold from
    # 1e-3 * 100 to its 1e12 cap, and a tiny eps3 rules out the step test
    backend = _FrozenBackend(100.0, 10.0 * np.eye(5))
    _frozen_fit(theta2, backend, CalibrationConfig(eps3=1e-300))
    assert backend.price_evals == 1 + 14  # trials at mu = 0.1, 1, ..., 1e12


def test_singular_solve_at_finite_mu_retries_tenfold(theta2, monkeypatch):
    # one singular damped solve at a finite mu: mu grows tenfold and the
    # same linearization is solved again, without pricing a trial step
    cal = importlib.import_module("swiftcal.calibrate")
    mus, solve = [], cal.lm_step

    def singular_once(jacobian, residual, mu):
        mus.append(mu)
        if len(mus) == 1:
            raise SingularSystemError("singular damped system")
        return solve(jacobian, residual, mu)

    monkeypatch.setattr(cal, "lm_step", singular_once)
    backend = _FrozenBackend(100.0, 10.0 * np.eye(5))
    _frozen_fit(theta2, backend, CalibrationConfig(eps3=1e-300))
    assert mus[:2] == pytest.approx([0.1, 1.0], rel=1e-12)
    assert backend.price_evals == 1 + 13  # trials at mu = 1, 10, ..., 1e12


class _LinearBackend:
    """Residuals A (theta - theta*) with Jacobian ``jac_scale`` A, logged.

    A ``jac_scale`` other than 1 makes the linear model mispredict every
    step by a known factor.  From its ``reject_from``-th price call on,
    every price is 1e3, so every later trial is rejected.
    """

    def __init__(self, theta_star, jac_scale=1.0, reject_from=None):
        self.a = np.random.default_rng(5).standard_normal((8, 5))
        self.theta_star, self.jac_scale = theta_star.as_array(), jac_scale
        self.reject_from = reject_from
        self.events = []  # ("p" or "j", theta vector) per backend call

    def _residual(self, theta):
        return self.a @ (theta.as_array() - self.theta_star)

    def prices(self, theta):
        self.events.append(("p", theta.as_array()))
        if self.reject_from is not None and sum(
                e[0] == "p" for e in self.events) >= self.reject_from:
            return np.full(len(self.a), 1e3)
        return self._residual(theta)

    def prices_and_jacobian(self, theta):
        self.events.append(("j", theta.as_array()))
        return self._residual(theta), self.jac_scale * self.a


@pytest.fixture
def solves(monkeypatch):
    """(Jacobian, residual, mu, theta) of every damped step, in order."""
    cal = importlib.import_module("swiftcal.calibrate")
    calls, bounded = [], cal._bounded_step

    def logged(jac, residual, mu, theta):
        calls.append((jac.copy(), residual.copy(), mu, theta.copy()))
        return bounded(jac, residual, mu, theta)

    monkeypatch.setattr(cal, "_bounded_step", logged)
    return calls


def _linear_fit(theta2, backend, cfg=CalibrationConfig()):
    start = HestonParams.from_array(1.05 * theta2.as_array())
    quotes = [OptionQuote(1.0, 0.5, price=0.0)] * len(backend.a)
    return calibrate(quotes, start, MarketContext(spot=1.0), cfg, backend)


def test_secant_update_reproduces_the_step_it_was_made_from(theta2, solves):
    # a Jacobian 0.8 A overshoots each Gauss-Newton step by 1/0.8, which
    # still gains 15/16 of the predicted reduction: J is updated, not
    # assembled, and the update maps the step taken onto the residual change
    backend = _LinearBackend(theta2, jac_scale=0.8)
    res = _linear_fit(theta2, backend)
    assert res.stop_reason is StopReason.RESIDUAL_TOL
    assert res.jacobian_evals == 1 < res.iterations
    for (_, r0, _, t0), (jac, r1, _, t1) in zip(solves, solves[1:]):
        step, change = t1 - t0, r1 - r0
        assert np.max(np.abs(jac.T @ step - change)) <= 1e-12 * np.max(np.abs(change))
        assert not np.allclose(jac.T, 0.8 * backend.a)  # J did move


def test_low_gain_step_is_followed_by_a_fresh_assembly(theta2, solves):
    # with a Jacobian 0.6 A each step overshoots by 1/0.6 and gains only
    # 5/9 of the predicted reduction: every accepted step asks for a fresh
    # Jacobian at the new iterate before anything else is priced
    backend = _LinearBackend(theta2, jac_scale=0.6)
    res = _linear_fit(theta2, backend)
    assert res.stop_reason is StopReason.RESIDUAL_TOL
    assert res.jacobian_evals == res.iterations >= 2
    accepted = [i for i, (kind, _) in enumerate(backend.events)
                if kind == "p" and i > 0]
    assert len(accepted) == res.iterations
    for i in accepted[:-1]:
        assert backend.events[i + 1][0] == "j"
        assert np.array_equal(backend.events[i + 1][1], backend.events[i][1])
    assert all(np.array_equal(jac.T, 0.6 * backend.a) for jac, *_ in solves)


def test_rejection_under_updated_jacobian_retries_fresh_at_same_mu(theta2, solves):
    # the first step updates J; from then on every trial is rejected, and
    # the first rejection brings a fresh J at the same iterate and mu
    backend = _LinearBackend(theta2, reject_from=3)
    res = _linear_fit(theta2, backend)
    assert res.stop_reason is StopReason.STAGNANT_STEP and res.iterations == 1
    assert res.jacobian_evals == 2
    kinds = "".join(kind for kind, _ in backend.events)
    assert kinds.startswith("pjppjp")  # start, J, accepted, rejected, J, rejected
    (_, _, mu_updated, theta_a), (_, _, mu_fresh, theta_b) = solves[1:3]
    assert mu_fresh == mu_updated and np.array_equal(theta_a, theta_b)
    assert solves[3][2] == 10.0 * mu_fresh  # only a fresh J's rejection grows mu


def test_singular_solve_under_updated_jacobian_keeps_it(theta2, solves, monkeypatch):
    # a singular damped solve raises mu tenfold on any Jacobian: under a
    # secant-updated J it is solved again on that J, not on a fresh one
    cal = importlib.import_module("swiftcal.calibrate")
    solve, raised = cal.lm_step, []

    def singular_once_after_first_step(jacobian, residual, mu):
        if len(backend.events) > 2 and not raised:
            raised.append(mu)
            raise SingularSystemError("singular damped system")
        return solve(jacobian, residual, mu)

    monkeypatch.setattr(cal, "lm_step", singular_once_after_first_step)
    backend = _LinearBackend(theta2)
    res = _linear_fit(theta2, backend)
    assert res.stop_reason is StopReason.RESIDUAL_TOL
    assert res.jacobian_evals == 1 < res.iterations
    assert "".join(kind for kind, _ in backend.events).startswith("pjpp")
    (jac_a, _, mu_a, theta_a), (jac_b, _, mu_b, theta_b) = solves[1:3]
    assert mu_a == raised[0] and mu_b == 10.0 * mu_a
    assert np.array_equal(jac_a, jac_b) and np.array_equal(theta_a, theta_b)


@pytest.mark.parametrize("case", ["flat", "small-step", "mu-cap", "singular-at-cap"])
def test_stops_come_straight_after_a_fresh_assembly(theta2, solves, monkeypatch,
                                                    case):
    # every step of the exact linear model updates J; a FlatGradient or
    # StagnantStep stop is only taken after J is assembled afresh at the
    # final iterate
    cfg = {"flat": CalibrationConfig(eps1=1e-300, eps2=1e-9, eps3=1e-300),
           "small-step": CalibrationConfig(eps1=1e-300, eps2=1e-300, eps3=1e-4),
           }.get(case, CalibrationConfig(eps3=1e-300))
    backend = _LinearBackend(theta2, reject_from=3 if case == "mu-cap" else None)
    if case == "singular-at-cap":
        cal = importlib.import_module("swiftcal.calibrate")
        solve = cal.lm_step

        def singular_after_first_step(jacobian, residual, mu):
            if len(backend.events) > 2:
                raise SingularSystemError("singular damped system")
            return solve(jacobian, residual, mu)

        monkeypatch.setattr(cal, "lm_step", singular_after_first_step)
    res = _linear_fit(theta2, backend, cfg)
    want = StopReason.FLAT_GRADIENT if case == "flat" else StopReason.STAGNANT_STEP
    assert res.stop_reason is want
    assert res.iterations >= 1 and res.jacobian_evals == 2
    last_j = max(i for i, (kind, _) in enumerate(backend.events) if kind == "j")
    assert np.array_equal(backend.events[last_j][1], res.theta_hat.as_array())
    if case != "mu-cap":  # nothing is priced after that assembly
        assert last_j == len(backend.events) - 1
    if case != "flat":  # the stop's last damped solve used it
        assert np.array_equal(solves[-1][0].T, backend.a)


def test_set2_fits_keep_their_stop_reasons_on_half_the_assemblies(ctx):
    # 8 seeded +-10% starts per target, as `converge` draws them: every fit
    # stops where it stopped when each accepted step assembled a fresh
    # Jacobian (all on ResidualTol), on at most half as many assemblies as
    # accepted steps
    quotes = set2_quotes()
    for name in ("fx", "ir", "eq"):
        target = PARAM_SETS[name]
        qf = run_generate(target, ctx, quotes)
        starts = target.as_array() * np.random.default_rng(0).uniform(0.9, 1.1, (8, 5))
        fits = []
        for vec in starts:
            start = HestonParams.from_array(vec)
            backend = KswiftBackend(qf.quotes, ctx, start)
            fits.append(calibrate(qf.quotes, start, ctx, CalibrationConfig(), backend))
        assert [f.stop_reason for f in fits] == [StopReason.RESIDUAL_TOL] * 8, name
        assert 2 * sum(f.jacobian_evals for f in fits) <= sum(f.iterations for f in fits), name


def test_start_outside_bounds_rejected(theta2, ctx, set2_priced):
    cfg = CalibrationConfig()  # kappa = 60 lies outside DEFAULT_BOUNDS
    bad = HestonParams(kappa=60.0, v_bar=0.04, sigma=0.3, rho=0.0, v0=0.04)
    backend = KswiftBackend(set2_priced.quotes, ctx, theta2)
    with pytest.raises(ValueError):
        calibrate(set2_priced.quotes, bad, ctx, cfg, backend)


def test_missing_prices_rejected(theta2, ctx):
    from swiftcal import OptionQuote
    quotes = [OptionQuote(1.0, 0.5)]
    backend = KswiftBackend(quotes, ctx, theta2)
    with pytest.raises(ValueError):
        calibrate(quotes, theta2, ctx, CalibrationConfig(), backend)


def test_calibration_with_put_quotes(theta2, theta2_start, ctx, set2_priced):
    # replace half the calls by parity-converted puts: the fit must not move
    from swiftcal import OptionQuote
    mixed = []
    for i, q in enumerate(set2_priced.quotes):
        if i % 2:
            put_price = q.price - ctx.spot + q.strike  # r = q = 0
            mixed.append(OptionQuote(q.strike, q.maturity,
                                     price=max(put_price, 0.0), kind="put"))
        else:
            mixed.append(q)
    backend = KswiftBackend(mixed, ctx, theta2_start)
    res = calibrate(mixed, theta2_start, ctx, CalibrationConfig(), backend)
    assert res.stop_reason is StopReason.RESIDUAL_TOL
    assert np.max(np.abs(res.theta_hat.as_array() - theta2.as_array())) < 1e-2


def test_split_groups_protocol_same_math(theta2, theta2_start, ctx, set2_priced):
    cfg = CalibrationConfig()
    grouped = KswiftBackend(set2_priced.quotes, ctx, theta2_start)
    split = KswiftBackend(set2_priced.quotes, ctx, theta2_start,
                          split_groups=True)
    assert np.max(np.abs(grouped.prices(theta2) - split.prices(theta2))) < 1e-12
    res_a = calibrate(set2_priced.quotes, theta2_start, ctx, cfg, grouped)
    res_b = calibrate(set2_priced.quotes, theta2_start, ctx, cfg, split)
    assert res_a.iterations == res_b.iterations


@pytest.mark.parametrize("target", ["theta2", "fx", "ir", "eq"])
def test_one_selection_rule_on_every_swift_path(ctx, target):
    # every wavelet path selects at the one default scale tolerance
    theta = PARAM_SETS[target]
    quotes = set2_quotes()
    want = {}
    for tau, idx in group_by_maturity(quotes).items():
        strikes = [quotes[i].strike for i in idx]
        want[tau] = select_truncation(theta, tau, ctx, select_scale(theta, tau, ctx),
                                      strikes)
    report = run_price("swift", theta, QuoteFile(context=ctx, quotes=quotes))
    assert report.metadata["config"] == {repr(tau): asdict(sp)
                                         for tau, sp in want.items()}
    assert KswiftBackend(quotes, ctx, theta).swift_params == list(want.values())
    assert SwiftBackend(quotes, ctx, theta)._sp == [want[q.maturity] for q in quotes]
