"""Damped least-squares driver: step algebra oracles, stopping behavior,
backend interchangeability and the two quote-set protocols."""

import importlib
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
    price_and_gradient_single,
    price_cp,
    price_single,
    residuals,
    select_scale,
    select_truncation,
)
from swiftcal.experiments import make_calibration_backend, run_generate, run_price
from swiftcal.fixtures import PARAM_SETS, set2_quotes
from swiftcal.quotes import QuoteFile
from swiftcal.swift import PACK_FREQS, group_by_maturity, put_offsets


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
    r = residuals(theta2, set2_priced.quotes, ctx, backend)
    assert r.shape == (len(set2_priced.quotes),)
    assert np.linalg.norm(r) < 1e-9  # self-consistency at the generator


def test_residuals_nonzero_from_perturbed_start(theta2_start, ctx, set2_priced):
    backend = KswiftBackend(set2_priced.quotes, ctx, theta2_start)
    r = residuals(theta2_start, set2_priced.quotes, ctx, backend)
    assert np.linalg.norm(r) > 1e-4  # the sigma perturbation is visible


def test_kswift_backend_groups_by_maturity(theta2, ctx, set2_priced):
    backend = KswiftBackend(set2_priced.quotes, ctx, theta2)
    n_groups = len({q.maturity for q in set2_priced.quotes})
    before = backend.group_eval_count
    backend.prices(theta2)
    assert backend.group_eval_count - before == n_groups
    before = backend.group_eval_count
    backend.prices_and_jacobian(theta2)
    assert backend.group_eval_count - before == n_groups


def test_kswift_packs_small_groups_split_protocol_does_not(theta2, theta2_start, ctx,
                                                           set2_priced, chf_sweeps):
    quotes = set2_priced.quotes
    backend = KswiftBackend(quotes, ctx, theta2_start)
    n_groups = len(backend.swift_params)
    chf_sweeps["chf"].clear()
    before = backend.group_eval_count
    backend.prices(theta2)
    assert backend.group_eval_count - before == n_groups
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


def _packed_jd(swift_params):
    """J_d of the groups the packing rule puts into blocks of two or more:
    consecutive groups fill a block until it holds PACK_FREQS frequencies."""
    packed, block = [], []
    for sp in swift_params:
        block.append(sp.j_density)
        if sum(block) >= PACK_FREQS:
            packed += block if len(block) > 1 else []
            block = []
    return packed + (block if len(block) > 1 else [])


@pytest.mark.parametrize("target", ["theta2", "fx", "ir", "eq"])
def test_run_price_sweeps_each_selected_grid_once(ctx, target, chf_sweeps):
    # the pricer starts from the selection's sweep of the grid it accepted,
    # so a request sweeps the grids selection tries and nothing more
    theta, quotes = PARAM_SETS[target], set2_quotes()
    for tau, idx in group_by_maturity(quotes).items():
        select_truncation(theta, tau, ctx, select_scale(theta, tau, ctx),
                          [quotes[i].strike for i in idx])
    selection = chf_sweeps["chf"][:]
    chf_sweeps["chf"].clear()
    run_price("swift", theta, QuoteFile(context=ctx, quotes=quotes))
    assert chf_sweeps["chf"] == selection  # no second sweep of sum J_d
    assert chf_sweeps["grad"] == []


@pytest.mark.parametrize("target", ["fx", "ir"])
@pytest.mark.parametrize("split", [False, True])
def test_adopted_sweeps_bitwise_fresh_pricers(ctx, target, split, chf_sweeps):
    # a backend's lone groups start from the selection's sweep; prices and
    # Jacobians equal those of pricers that sweep for themselves, at the
    # selection's parameters (adopted sweep) and after them (own sweep)
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
    if split:
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
    # a price evaluation at the selection's parameters sweeps the packed
    # blocks (a lone group starts from its selection's sweep), the Jacobian
    # at the same parameters reuses every sweep, and a Jacobian at new
    # parameters sweeps and differentiates sum J_d: no frequency is swept
    # twice or skipped
    quotes = run_generate(PARAM_SETS[target], ctx, set2_quotes()).quotes
    theta0 = PARAM_SETS[start]
    backend = KswiftBackend(quotes, ctx, theta0)
    sum_jd = sum(sp.j_density for sp in backend.swift_params)
    chf_sweeps["chf"].clear()
    backend.prices(theta0)
    assert sum(chf_sweeps["chf"]) == sum(_packed_jd(backend.swift_params))
    chf_sweeps["chf"].clear()
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

    chf_sweeps["chf"].clear()
    prices = backend.prices(theta0)
    packed = chf_sweeps["chf"][:]
    assert np.array_equal(prices, per_group(theta0, False)[0])
    for theta in (theta0, _nudged(theta0)):  # reused sweep, then a fresh one
        got, want = backend.prices_and_jacobian(theta), per_group(theta, True)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
    if target == "ir":
        # the first block packs a small group with one that fills a block on
        # its own; every later group is a block of one, which starts from the
        # selection's sweep and so sweeps nothing at theta0
        assert j_d[0] < PACK_FREQS <= j_d[1]
        assert packed == [j_d[0] + j_d[1]]


def test_backend_prices_agree(theta2, ctx, set2_priced):
    quotes = set2_priced.quotes
    fast = KswiftBackend(quotes, ctx, theta2).prices(theta2)
    slow = SwiftBackend(quotes, ctx, theta2).prices(theta2)
    reference = CpBackend(quotes, ctx).prices(theta2)
    assert np.max(np.abs(fast - slow)) < 1e-10
    assert np.max(np.abs(fast - reference)) < 1e-7


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
        "price_single": (np.array([price_single(theta, ctx, q, sp[q.maturity])
                                   for q in quotes]), None),
        "price_and_gradient_single": rows(
            lambda q: price_and_gradient_single(theta, ctx, q, sp[q.maturity])),
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


def test_start_outside_bounds_rejected(theta2, ctx, set2_priced):
    cfg = CalibrationConfig(bounds=((1e-6, 4), (1e-6, 4), (1e-4, 5),
                                    (1e-4, 50), (-0.999, 0.999)))
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
