"""Experiment drivers behind the command-line surface.

Every driver returns an :class:`ExperimentReport` whose rows carry the
deterministic results and whose metadata records the full configuration
that produced them (seeds, discretizations, quadrature setups, wall times).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calibrate import (
    CalibrationConfig,
    CalibrationResult,
    CpBackend,
    KswiftBackend,
    StopReason,
    SwiftBackend,
    calibrate,
)
from .fixtures import CONVERGE_TARGETS, PARAM_SETS
from .heston import HestonParams, MarketContext, PARAM_ORDER, cumulants
from .quotes import QuoteFile
from .reference import QuadratureConfig, price_cp
from .reports import ExperimentReport
from .swift import (
    OptionQuote,
    SwiftParams,
    _j_for,
    price_multi_strike,
    price_strike_grid,
    select_scale,
    select_truncation,
)

DEFAULT_SCALE_TOL = 1e-7


@dataclass
class PricingOverrides:
    """Optional discretization overrides from the command line.

    m pins the wavelet scale exactly (the adaptive interval check may still
    widen the interval, but the scale never escalates).  eta and j switch to
    fully manual mode and skip the adaptive checks.  u_max/form configure
    the quadrature pricer; L the truncation-width rule.
    """

    m: Optional[int] = None
    eta: Optional[int] = None
    j: Optional[int] = None
    u_max: Optional[float] = None
    form: str = "cui"
    L: float = 10.0
    scale_tol: float = DEFAULT_SCALE_TOL


def _swift_params_for(theta: HestonParams, tau: float, ctx: MarketContext,
                      strikes: Sequence[float], ov: PricingOverrides) -> SwiftParams:
    if ov.eta is not None or ov.j is not None:
        if ov.m is None:
            raise ValueError("--eta/--j overrides require --m")
        c1, c2, c4 = cumulants(theta, tau, ctx)
        c = abs(c1) + ov.L * math.sqrt(c2 + math.sqrt(c4))
        x = np.log(ctx.spot / np.asarray(strikes, dtype=float))
        x_low = min(float(x.min()) - c, 0.0)
        x_high = max(float(x.max()) + c, 0.0)
        span = max(abs(x_low), x_high)
        eta = ov.eta if ov.eta is not None else max(1, math.ceil(2.0**ov.m * span))
        j = ov.j if ov.j is not None else _j_for(ov.m, eta, span)
        return SwiftParams(m=ov.m, eta=eta, j_density=j, j_payoff=j,
                           c=c, x_low=x_low, x_high=x_high)
    if ov.m is not None:
        # pinned scale: forbid escalation by capping at m
        return select_truncation(theta, tau, ctx, ov.m, strikes, L=ov.L,
                                 max_scale=ov.m)
    m = select_scale(theta, tau, ctx, ov.scale_tol)
    return select_truncation(theta, tau, ctx, m, strikes, L=ov.L)


def _group_quotes(quotes: Sequence[OptionQuote]):
    groups: dict = {}
    for i, q in enumerate(quotes):
        groups.setdefault(q.maturity, []).append(i)
    return groups


def _parity_adjust(prices, quotes, ctx):
    out = np.asarray(prices, dtype=float).copy()
    for i, q in enumerate(quotes):
        if q.kind == "put":
            out[i] += q.strike * np.exp(-ctx.rate * q.maturity) \
                - ctx.spot * np.exp(-ctx.dividend * q.maturity)
    return out


def swift_prices(theta: HestonParams, ctx: MarketContext,
                 quotes: Sequence[OptionQuote],
                 ov: PricingOverrides = PricingOverrides()):
    """Wavelet prices for a quote list, grouped by maturity.

    Returns (prices, per-group SwiftParams keyed by maturity).
    """
    prices = np.empty(len(quotes))
    used = {}
    for tau, idx in _group_quotes(quotes).items():
        strikes = [quotes[i].strike for i in idx]
        sp = _swift_params_for(theta, tau, ctx, strikes, ov)
        used[tau] = sp
        prices[idx] = price_multi_strike(theta, ctx, tau, strikes, sp)
    return _parity_adjust(prices, quotes, ctx), used


def cp_prices(theta: HestonParams, ctx: MarketContext,
              quotes: Sequence[OptionQuote],
              ov: PricingOverrides = PricingOverrides()):
    qc = QuadratureConfig(u_max=ov.u_max) if ov.u_max else QuadratureConfig()
    return np.array([price_cp(theta, ctx, q, qc, form=ov.form)
                     for q in quotes]), qc


def run_price(backend: str, theta: HestonParams, qf: QuoteFile,
              ov: PricingOverrides = PricingOverrides()) -> ExperimentReport:
    """Price every quote in the file with the selected backend."""
    t0 = time.perf_counter()
    if backend in ("swift", "kswift"):
        prices, used = swift_prices(theta, qf.context, qf.quotes, ov)
        config = {repr(tau): _sp_meta(sp) for tau, sp in used.items()}
    elif backend == "cp":
        prices, qc = cp_prices(theta, qf.context, qf.quotes, ov)
        config = {"nodes": qc.nodes, "u_max": qc.u_max, "form": ov.form}
    else:
        raise ValueError(f"unknown backend {backend!r}")
    elapsed = time.perf_counter() - t0
    rows = [{"maturity": q.maturity, "strike": q.strike, "kind": q.kind,
             "price": float(p)} for q, p in zip(qf.quotes, prices)]
    meta = {"backend": backend, "config": config,
            "spot": qf.context.spot, "rate": qf.context.rate,
            "dividend": qf.context.dividend,
            "wall_times": {"price_s": elapsed}}
    return ExperimentReport(experiment="price", rows=rows, metadata=meta)


def _sp_meta(sp: SwiftParams) -> dict:
    return {"m": sp.m, "eta": sp.eta, "j_density": sp.j_density,
            "j_payoff": sp.j_payoff, "c": sp.c,
            "x_low": sp.x_low, "x_high": sp.x_high}


def run_generate(theta: HestonParams, ctx: MarketContext,
                 quotes: Sequence[OptionQuote], noise: float = 0.0,
                 seed: int = 0,
                 ov: PricingOverrides = PricingOverrides()) -> QuoteFile:
    """Synthetic call prices for a strike/maturity set via the wavelet pricer.

    Additive Gaussian noise (scale ``noise``, seeded) is optional and off by
    default; prices are clamped at zero (deep out-of-the-money strikes price
    to numerical zero, which may land a hair negative).
    """
    prices, _ = swift_prices(theta, ctx, quotes, ov)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        prices = prices + noise * rng.standard_normal(len(prices))
    prices = np.maximum(prices, 0.0)
    priced = [OptionQuote(strike=q.strike, maturity=q.maturity,
                          price=float(p), kind=q.kind)
              for q, p in zip(quotes, prices)]
    return QuoteFile(context=ctx, quotes=priced)


def run_generate_grid(theta: HestonParams, ctx: MarketContext, m: int,
                      j_density: int, tau: float,
                      L: float = 10.0) -> QuoteFile:
    """Calls at the dyadic strike grid x_k = (2k - J_d)/2^{m+1}.

    The grid layout is fixed by (m, J_d); the series half-width is capped at
    the J_d/2 validity bound, so only the central band of the grid carries
    accurate prices (the wings are outside any coverage J_d permits).
    """
    c1, c2, c4 = cumulants(theta, tau, ctx)
    c = abs(c1) + L * math.sqrt(c2 + math.sqrt(c4))
    half = j_density / 2.0**(m + 1)
    span = half + c
    eta = min(max(1, math.ceil(2.0**m * span)), j_density // 2 - 1)
    j_payoff = max(_j_for(m, eta, span), j_density)
    sp = SwiftParams(m=m, eta=eta, j_density=j_density, j_payoff=j_payoff,
                     c=c, x_low=-span, x_high=span)
    x_grid, prices = price_strike_grid(theta, ctx, tau, sp)
    quotes = [OptionQuote(strike=float(ctx.spot * np.exp(-x)), maturity=tau,
                          price=float(max(p, 0.0)))
              for x, p in zip(x_grid, prices)]
    return QuoteFile(context=ctx, quotes=quotes)


def make_calibration_backend(name: str, quotes, ctx, theta_ref,
                             ov: PricingOverrides = PricingOverrides(),
                             split_groups: bool = False):
    if name == "kswift":
        return KswiftBackend(quotes, ctx, theta_ref, scale_tol=ov.scale_tol,
                             L=ov.L, split_groups=split_groups)
    if name == "swift":
        return SwiftBackend(quotes, ctx, theta_ref, scale_tol=ov.scale_tol, L=ov.L)
    if name == "cp":
        qc = QuadratureConfig(u_max=ov.u_max) if ov.u_max else QuadratureConfig()
        return CpBackend(quotes, ctx, qc=qc, form=ov.form)
    raise ValueError(f"unknown backend {name!r}; expected swift, kswift or cp")


def run_calibrate(backend_name: str, qf: QuoteFile, theta0: HestonParams,
                  config: CalibrationConfig = CalibrationConfig(),
                  ov: PricingOverrides = PricingOverrides(),
                  split_groups: bool = False):
    """Calibrate a quote file; returns (report, CalibrationResult)."""
    t0 = time.perf_counter()
    backend = make_calibration_backend(backend_name, qf.quotes, qf.context,
                                       theta0, ov, split_groups=split_groups)
    setup_s = time.perf_counter() - t0
    result = calibrate(qf.quotes, theta0, qf.context, config, backend)
    fitted = result.theta_hat
    row = {"stop_reason": result.stop_reason.value,
           "iterations": result.iterations,
           "final_objective": result.final_objective,
           "final_residual_norm": result.final_residual_norm}
    row.update({name: getattr(fitted, name) for name in PARAM_ORDER})
    meta = {
        "backend": backend_name,
        "start": {name: getattr(theta0, name) for name in PARAM_ORDER},
        "config": {"eps1": config.eps1, "eps2": config.eps2,
                   "eps3": config.eps3, "max_iterations": config.max_iterations,
                   "mu0": config.mu0},
        "n_quotes": len(qf.quotes),
        "wall_times": {"setup_s": setup_s, "calibrate_s": result.wall_time},
    }
    if hasattr(backend, "swift_params"):
        meta["swift_params"] = [_sp_meta(sp) for sp in backend.swift_params]
    report = ExperimentReport(experiment="calibrate", rows=[row], metadata=meta)
    return report, result


def _timed_calibration(backend_name, qf, theta0, config, ov, split_groups=False):
    """One timed build-plus-calibrate pass (setup counts toward solve time)."""
    t0 = time.perf_counter()
    backend = make_calibration_backend(backend_name, qf.quotes, qf.context,
                                       theta0, ov, split_groups=split_groups)
    result = calibrate(qf.quotes, theta0, qf.context, config, backend)
    return time.perf_counter() - t0, result


def run_speed(set_name: str, quotes: Sequence[OptionQuote], ctx: MarketContext,
              target: HestonParams, start: HestonParams, reps: int = 100,
              config: CalibrationConfig = CalibrationConfig(),
              ov: PricingOverrides = PricingOverrides()) -> ExperimentReport:
    """Calibration wall times per backend on one strike/maturity set.

    set3 is the set2 data with every maturity group split to a single quote
    (full per-quote recomputation inside the grouped backend); it only makes
    sense for the grouped backend, so that is all it runs.  The no-reuse
    backend is timed over fewer repetitions (it is orders of magnitude
    slower; averaging it like the fast paths would dominate the run).
    """
    qf = run_generate(target, ctx, quotes, ov=ov)
    plans = ([("kswift", reps, True)] if set_name == "set3" else
             [("swift", max(1, reps // 20), False),
              ("kswift", reps, False),
              ("cp", reps, False)])
    rows, times = [], {}
    for name, n, split in plans:
        samples = []
        result = None
        for _ in range(n):
            dt, result = _timed_calibration(name, qf, start, config, ov,
                                            split_groups=split)
            samples.append(dt)
        times[name] = {"mean_s": float(np.mean(samples)),
                       "min_s": float(np.min(samples)), "reps": n}
        rows.append({"set": set_name, "method": name,
                     "iterations": result.iterations,
                     "stop_reason": result.stop_reason.value,
                     "final_objective": result.final_objective})
    meta = {"set": set_name, "n_quotes": len(qf.quotes), "reps": reps,
            "target": {p: getattr(target, p) for p in PARAM_ORDER},
            "start": {p: getattr(start, p) for p in PARAM_ORDER},
            "wall_times": times}
    if "kswift" in times and "cp" in times:
        meta["ratio_cp_over_kswift"] = times["cp"]["mean_s"] / times["kswift"]["mean_s"]
    if "kswift" in times and "swift" in times:
        meta["ratio_swift_over_kswift"] = (times["swift"]["mean_s"]
                                           / times["kswift"]["mean_s"])
    return ExperimentReport(experiment="speed", rows=rows, metadata=meta)


def _converge_trial(payload):
    """One trial of the random-start study (module-level: process-pool safe)."""
    qf, start_vec, config, ov = payload
    theta0 = HestonParams.from_array(start_vec)
    t0 = time.perf_counter()
    backend = make_calibration_backend("kswift", qf.quotes, qf.context,
                                       theta0, ov)
    res = calibrate(qf.quotes, theta0, qf.context, config, backend)
    return res, time.perf_counter() - t0


def run_converge(target_name: str, quotes: Sequence[OptionQuote],
                 ctx: MarketContext, trials: int = 100, seed: int = 0,
                 config: CalibrationConfig = CalibrationConfig(),
                 ov: PricingOverrides = PricingOverrides(),
                 workers: int = 1) -> ExperimentReport:
    """Repeated calibrations from uniform +-10% starts around a named target.

    Start vectors are drawn up front from the seeded generator and each
    trial is self-contained, so the row contents are bitwise reproducible
    for a fixed seed regardless of the worker count; wall times go to
    metadata.  ``workers > 1`` fans trials out over processes (the trials
    are numpy-bound and too fine-grained for threads to help).
    """
    if target_name not in CONVERGE_TARGETS:
        raise ValueError(f"target must be one of {CONVERGE_TARGETS}")
    target = PARAM_SETS[target_name]
    qf = run_generate(target, ctx, quotes, ov=ov)
    rng = np.random.default_rng(seed)
    starts = target.as_array() * rng.uniform(0.9, 1.1, size=(trials, 5))
    payloads = [(qf, vec, config, ov) for vec in starts]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_converge_trial, payloads, chunksize=4))
    else:
        outcomes = [_converge_trial(p) for p in payloads]

    results = [r for r, _ in outcomes]
    trial_times = [dt for _, dt in outcomes]
    errors = np.abs(np.array([r.theta_hat.as_array() for r in results])
                    - target.as_array())
    converged = [r.stop_reason is StopReason.RESIDUAL_TOL for r in results]
    row = {"target": target_name, "trials": trials,
           "share_converged": float(np.mean(converged)),
           "mean_iterations": float(np.mean([r.iterations for r in results])),
           "mean_final_objective": float(np.mean([r.final_objective
                                                  for r in results]))}
    row.update({f"mean_abs_err_{p}": float(e)
                for p, e in zip(PARAM_ORDER, errors.mean(axis=0))})
    meta = {"seed": seed, "backend": "kswift", "trials": trials,
            "target": {p: getattr(target, p) for p in PARAM_ORDER},
            "config": {"eps1": config.eps1, "eps2": config.eps2,
                       "eps3": config.eps3,
                       "max_iterations": config.max_iterations},
            "maturity_note": ("strike/maturity set2 substitutes for the "
                              "unavailable original maturities"),
            "wall_times": {"mean_trial_s": float(np.mean(trial_times)),
                           "total_s": float(np.sum(trial_times))}}
    return ExperimentReport(experiment="converge", rows=[row], metadata=meta)

