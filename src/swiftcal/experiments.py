"""Experiment drivers behind the command-line surface.

Every driver returns an :class:`ExperimentReport` whose rows carry the
deterministic results and whose metadata records the full configuration
that produced them (seeds, discretizations, quadrature setups, wall times).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .calibrate import (
    _MU0,
    CalibrationConfig,
    CpBackend,
    KswiftBackend,
    SwiftBackend,
    calibrate,
    discretization_plan,
)
from .fixtures import CONVERGE_TARGETS, PARAM_SETS
from .heston import HestonParams, MarketContext, PARAM_ORDER
from .quotes import QuoteFile
from .reference import QuadratureConfig, prices_cp
from .reports import ExperimentReport
from .swift import (
    DEFAULT_L,
    SCALE_TOL,
    NoConvergenceError,
    OptionQuote,
    put_offsets,
)
# Unused here: perfbench/tracing.py rebinds these names in this module,
# until the benchmark counts without rebinding (price_cp: until it wraps
# prices_cp, which run_price calls instead).
from .reference import price_cp  # noqa: F401
from .swift import price_multi_strike, select_scale, select_truncation  # noqa: F401

# Slack of the no-arbitrage band per unit of discounted strike: far above the
# wavelet pricer's error on the benchmark sets, far below a failed expansion.
_BAND_TOL = 1e-4
# The same for the cp quadrature, whose default cutoff misprices deep
# out-of-the-money short-dated calls: up to 3.6e-4 on +-10% fx points, far
# below a failed quadrature (a call of 1.4988 at tau=1000 and forward 1).
_CP_BAND_TOL = 2e-3


@dataclass
class PricingOverrides:
    """Optional pricing overrides of ``price``.

    m pins the swift backend's scale, 0 to ``swift.MAX_SCALE``, in place of
    ``select_scale``; the interval is still selected and its density mass
    checked.  u_max configures the cp backend's quadrature.  ``scale_tol``
    and ``L`` are the fixed ``swift.SCALE_TOL`` and ``swift.DEFAULT_L``,
    readable here but not settings.
    """

    m: Optional[int] = None
    u_max: float = QuadratureConfig.u_max
    scale_tol = SCALE_TOL
    L = DEFAULT_L


def _check_band(calls, strikes, tau, ctx: MarketContext,
                slack: float = _BAND_TOL) -> None:
    """Raise NoConvergenceError, naming tau and K, at the first call outside
    [max(F - P, 0) - d, F + d], F = S e^{-q tau}, P = K e^{-r tau}, d = slack P;
    tau is one maturity or one per call."""
    taus = np.ravel(tau).tolist()
    fwd = ctx.spot * np.array([math.exp(-ctx.dividend * t) for t in taus])
    pv = strikes * np.array([math.exp(-ctx.rate * t) for t in taus])
    lo, hi = np.maximum(fwd - pv, 0.0) - slack * pv, fwd + slack * pv
    outside = np.flatnonzero(~((calls >= lo) & (calls <= hi)))
    if outside.size:
        i = outside[0]
        raise NoConvergenceError(
            f"call price {calls[i]:.6g} at tau={np.broadcast_to(tau, calls.shape)[i]:g}, "
            f"K={strikes[i]:g} lies outside its no-arbitrage band "
            f"[{lo[i]:.6g}, {hi[i]:.6g}]")


def swift_prices(theta: HestonParams, ctx: MarketContext,
                 quotes: Sequence[OptionQuote], m: Optional[int] = None):
    """Wavelet prices for a quote list from its :func:`discretization_plan` at
    theta, so a selected grid is swept once; m pins the scale of every group.

    Returns (prices, per-group SwiftParams keyed by maturity).

    Raises:
        NoConvergenceError: a call, before its parity offset, fails :func:`_check_band`.
    """
    prices = np.empty(len(quotes))
    used = {}
    for pricer, idx in discretization_plan(quotes, ctx, theta, m=m):
        used[pricer.tau] = pricer.sp
        calls = pricer.prices(theta)
        _check_band(calls, pricer.strikes, pricer.tau, ctx)
        prices[idx] = calls
    return prices + put_offsets(quotes, ctx), used


def run_price(backend: str, theta: HestonParams, qf: QuoteFile,
              ov: PricingOverrides = PricingOverrides()) -> ExperimentReport:
    """Price every quote in the file with the swift or the cp backend.

    swift sweeps each selected grid once (:func:`swift_prices`); cp prices
    the whole file with one :func:`prices_cp` call, one chf sweep over its
    distinct maturities.

    Raises:
        NoConvergenceError: a call, before its parity offset, fails
            :func:`_check_band`, whose slack is ``_CP_BAND_TOL`` for cp.
    """
    t0 = time.perf_counter()
    if backend == "swift":
        prices, used = swift_prices(theta, qf.context, qf.quotes, ov.m)
        config = {repr(tau): asdict(sp) for tau, sp in used.items()}
    elif backend == "cp":
        qc = QuadratureConfig(u_max=ov.u_max)
        prices = prices_cp(theta, qf.context, qf.quotes, qc)
        _check_band(prices - put_offsets(qf.quotes, qf.context),
                    np.array([q.strike for q in qf.quotes]),
                    [q.maturity for q in qf.quotes], qf.context, _CP_BAND_TOL)
        config = asdict(qc)
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


def run_generate(theta: HestonParams, ctx: MarketContext,
                 quotes: Sequence[OptionQuote], noise: float = 0.0,
                 seed: int = 0, m: Optional[int] = None) -> QuoteFile:
    """Synthetic call prices for a strike/maturity set via the wavelet pricer.

    Additive Gaussian noise (scale ``noise``, finite and nonnegative,
    seeded) is optional and off by default; prices are clamped at zero (deep
    out-of-the-money strikes price to numerical zero, which may land a hair
    negative).  m pins the wavelet scale, as ``price --m`` does.
    """
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be nonnegative and finite, got {noise}")
    prices, _ = swift_prices(theta, ctx, quotes, m)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        prices = prices + noise * rng.standard_normal(len(prices))
    prices = np.maximum(prices, 0.0)
    priced = [OptionQuote(strike=q.strike, maturity=q.maturity,
                          price=float(p), kind=q.kind)
              for q, p in zip(quotes, prices)]
    return QuoteFile(context=ctx, quotes=priced)


def run_generate_grid(theta: HestonParams, ctx: MarketContext, band: float,
                      tau: float, m: Optional[int] = None) -> QuoteFile:
    """Calls at maturity tau at the dyadic log-moneyness points j/2^m in +-band.

    One FFT prices the grid :func:`discretization_plan` selects for the edge
    strikes S e^{-+band} (m pins the scale, as in :func:`run_generate`), from
    the selected pricer's payoff spectrum and selection sweep; only
    the band's rows are written, through :func:`_check_band`, negatives
    clamped at zero.  Inputs are checked before any grid is built."""
    if not 0.0 < tau < math.inf:
        raise ValueError(f"grid tau must be positive and finite, got {tau}")
    if not 0.0 < band < math.inf:
        raise ValueError(f"grid band B must be positive and finite, got {band}")
    try:
        edges = [OptionQuote(ctx.spot * math.exp(s * band), tau) for s in (-1.0, 1.0)]
    except (OverflowError, ValueError):
        raise ValueError(f"grid band B={band:g} puts an edge strike out of range") from None
    (pricer, _), = discretization_plan(edges, ctx, theta, m=m)
    x_grid, prices = pricer.grid_prices(theta)
    keep = np.abs(x_grid) <= band
    strikes, calls = ctx.spot * np.exp(-x_grid[keep]), prices[keep]
    _check_band(calls, strikes, tau, ctx)
    return QuoteFile(context=ctx, quotes=[OptionQuote(float(k), tau, float(max(p, 0.0)))
                                          for k, p in zip(strikes, calls)])


def make_calibration_backend(name: str, quotes, ctx, theta_ref,
                             u_max: float = QuadratureConfig.u_max,
                             split_groups: bool = False):
    """The calibration backend named swift, kswift or cp (u_max: cp's quadrature)."""
    if name == "kswift":
        return KswiftBackend(quotes, ctx, theta_ref, split_groups=split_groups)
    if name == "swift":
        return SwiftBackend(quotes, ctx, theta_ref)
    if name == "cp":
        return CpBackend(quotes, ctx, qc=QuadratureConfig(u_max=u_max))
    raise ValueError(f"unknown backend {name!r}; expected swift, kswift or cp")


def run_calibrate(backend_name: str, qf: QuoteFile, theta0: HestonParams,
                  config: CalibrationConfig = CalibrationConfig(),
                  u_max: float = QuadratureConfig.u_max, split_groups: bool = False):
    """Build a backend and fit a quote file with it (u_max: cp's quadrature,
    split_groups: kswift's); returns (report, result).  Every driver times a
    fit as the report's ``setup_s`` (the build) plus ``calibrate_s`` (the
    fit); module-level, so process pools can run it."""
    t0 = time.perf_counter()
    backend = make_calibration_backend(backend_name, qf.quotes, qf.context,
                                       theta0, u_max, split_groups)
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
        "config": {**asdict(config), "mu0": _MU0},
        "n_quotes": len(qf.quotes),
        "jacobian_evals": result.jacobian_evals,
        "wall_times": {"setup_s": setup_s, "calibrate_s": result.wall_time},
    }
    if hasattr(backend, "swift_params"):
        meta["swift_params"] = [asdict(sp) for sp in backend.swift_params]
    if hasattr(backend, "qc"):
        meta["quadrature"] = asdict(backend.qc)
    report = ExperimentReport(experiment="calibrate", rows=[row], metadata=meta)
    return report, result


def run_speed(set_name: str, quotes: Sequence[OptionQuote], ctx: MarketContext,
              target: HestonParams, start: HestonParams, reps: int = 100,
              config: CalibrationConfig = CalibrationConfig(),
              u_max: float = QuadratureConfig.u_max) -> ExperimentReport:
    """Calibration wall times per backend on one strike/maturity set.

    Quotes and fits select every group's scale; u_max sets cp's quadrature.

    set3 is the set2 data with every maturity group split to a single quote
    (full per-quote recomputation inside the grouped backend); it only makes
    sense for the grouped backend, so that is all it runs.  The no-reuse
    backend is timed over fewer repetitions (it is orders of magnitude
    slower; averaging it like the fast paths would dominate the run).
    Repetitions alternate between the backends, one of each per round, so
    load on the host during the run falls on every backend alike.  Each
    repetition is one :func:`run_calibrate` fit, timed as its report's
    ``setup_s + calibrate_s`` (backend build included).
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    qf = run_generate(target, ctx, quotes)
    plans = ([("kswift", reps, True)] if set_name == "set3" else
             [("swift", max(1, reps // 20), False),
              ("kswift", reps, False),
              ("cp", reps, False)])
    samples = {name: [] for name, _, _ in plans}
    results = {}
    for i in range(reps):
        for name, n, split in plans:
            if i < n:
                report, results[name] = run_calibrate(name, qf, start, config,
                                                      u_max, split)
                wall = report.metadata["wall_times"]
                samples[name].append(wall["setup_s"] + wall["calibrate_s"])
    rows, times = [], {}
    for name, n, _ in plans:
        result = results[name]
        times[name] = {"mean_s": float(np.mean(samples[name])),
                       "min_s": float(np.min(samples[name])), "reps": n}
        rows.append({"set": set_name, "method": name,
                     "iterations": result.iterations,
                     "stop_reason": result.stop_reason.value,
                     "final_objective": result.final_objective})
    meta = {"set": set_name, "n_quotes": len(qf.quotes), "reps": reps,
            "target": {p: getattr(target, p) for p in PARAM_ORDER},
            "start": {p: getattr(start, p) for p in PARAM_ORDER},
            "config": asdict(config),
            "jacobian_evals": {name: r.jacobian_evals for name, r in results.items()},
            "wall_times": times}
    if "cp" in times:
        meta["quadrature"] = asdict(QuadratureConfig(u_max=u_max))
    if "kswift" in times and "cp" in times:
        meta["ratio_cp_over_kswift"] = times["cp"]["mean_s"] / times["kswift"]["mean_s"]
    if "kswift" in times and "swift" in times:
        meta["ratio_swift_over_kswift"] = (times["swift"]["mean_s"]
                                           / times["kswift"]["mean_s"])
    return ExperimentReport(experiment="speed", rows=rows, metadata=meta)


def run_converge(target_name: str, quotes: Sequence[OptionQuote],
                 ctx: MarketContext, trials: int = 100, seed: int = 0,
                 config: CalibrationConfig = CalibrationConfig(),
                 workers: int = 1) -> ExperimentReport:
    """Repeated calibrations from uniform +-10% starts around a named target.

    Quotes and kswift fits select every group's scale; nothing sets it.

    Start vectors are drawn up front from the seeded generator and each
    trial is self-contained, so the row contents are bitwise reproducible
    for a fixed seed regardless of the worker count; wall times go to
    metadata.  ``workers > 1`` fans trials out over processes (the trials
    are numpy-bound and too fine-grained for threads to help).  Every
    process, parent or worker, runs the library alike: it splits long chf
    sweeps over the CPUs it may run on, and BLAS keeps the thread count the
    environment sets.  Each trial is one kswift :func:`run_calibrate` fit,
    timed as its report's ``setup_s + calibrate_s`` (backend build included).
    """
    if target_name not in CONVERGE_TARGETS:
        raise ValueError(f"target must be one of {CONVERGE_TARGETS}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    target = PARAM_SETS[target_name]
    qf = run_generate(target, ctx, quotes)
    rng = np.random.default_rng(seed)
    starts = [HestonParams.from_array(vec) for vec in
              target.as_array() * rng.uniform(0.9, 1.1, size=(trials, 5))]
    trial = partial(run_calibrate, "kswift", qf, config=config)

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(trial, starts, chunksize=4))
    else:
        outcomes = [trial(start) for start in starts]

    walls = [report.metadata["wall_times"] for report, _ in outcomes]
    trial_times = [wall["setup_s"] + wall["calibrate_s"] for wall in walls]
    results = [r for _, r in outcomes]
    errors = np.abs(np.array([r.theta_hat.as_array() for r in results])
                    - target.as_array())
    converged = [r.calibrated for r in results]
    row = {"target": target_name, "trials": trials,
           "share_converged": float(np.mean(converged)),
           "mean_iterations": float(np.mean([r.iterations for r in results])),
           "mean_final_objective": float(np.mean([r.final_objective
                                                  for r in results]))}
    row.update({f"mean_abs_err_{p}": float(e)
                for p, e in zip(PARAM_ORDER, errors.mean(axis=0))})
    meta = {"seed": seed, "backend": "kswift", "trials": trials,
            "target": {p: getattr(target, p) for p in PARAM_ORDER},
            "config": asdict(config),
            "maturity_note": ("strike/maturity set2 substitutes for the "
                              "unavailable original maturities"),
            "wall_times": {"mean_trial_s": float(np.mean(trial_times)),
                           "total_s": float(np.sum(trial_times))}}
    return ExperimentReport(experiment="converge", rows=[row], metadata=meta)

