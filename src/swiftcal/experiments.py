"""Experiment drivers behind the command-line surface.

Every driver returns an :class:`ExperimentReport` whose rows carry the
deterministic results and whose metadata records the full configuration
that produced them (seeds, discretizations, quadrature setups, wall times).
"""

from __future__ import annotations

import ctypes
import glob
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .calibrate import (
    _MU0,
    CalibrationConfig,
    CalibrationResult,
    CpBackend,
    KswiftBackend,
    StopReason,
    SwiftBackend,
    calibrate,
)
from .fixtures import CONVERGE_TARGETS, PARAM_SETS
from .heston import HestonParams, MarketContext, PARAM_ORDER
from .quotes import QuoteFile
from .reference import QuadratureConfig, price_cp
from .reports import ExperimentReport
from .swift import (
    DEFAULT_L,
    SCALE_TOL,
    OptionQuote,
    group_by_maturity,
    interval_params,
    price_multi_strike,
    price_strike_grid,
    put_offsets,
    select_scale,
    select_truncation,
    truncation_width,
)


@dataclass
class PricingOverrides:
    """Optional discretization overrides from the command line.

    m pins the wavelet scale exactly (the adaptive interval check may still
    widen the interval, but the scale never escalates).  eta and j switch to
    fully manual mode and skip the adaptive checks.  u_max configures the
    quadrature pricer; L the truncation-width rule.  ``scale_tol`` is
    the fixed ``swift.SCALE_TOL``, readable here but not a setting.
    """

    m: Optional[int] = None
    eta: Optional[int] = None
    j: Optional[int] = None
    u_max: float = QuadratureConfig.u_max
    L: float = DEFAULT_L
    scale_tol = SCALE_TOL


def _swift_params_for(theta: HestonParams, tau: float, ctx: MarketContext,
                      strikes: Sequence[float], ov: PricingOverrides):
    """(SwiftParams, the selection's chf sweep of its grid or None)."""
    if ov.eta is not None or ov.j is not None:
        if ov.m is None:
            raise ValueError("--eta/--j overrides require --m")
        x = np.log(ctx.spot / np.asarray(strikes, dtype=float))
        return interval_params(ov.m, truncation_width(theta, tau, ctx, ov.L),
                               float(x.min()), float(x.max()), ov.eta, ov.j), None
    sweep: list = []
    if ov.m is not None:
        # pinned scale: forbid escalation by capping at m
        sp = select_truncation(theta, tau, ctx, ov.m, strikes, L=ov.L,
                               max_scale=ov.m, sweep_out=sweep)
    else:
        m = select_scale(theta, tau, ctx)
        sp = select_truncation(theta, tau, ctx, m, strikes, L=ov.L, sweep_out=sweep)
    return sp, sweep[0]


def swift_prices(theta: HestonParams, ctx: MarketContext,
                 quotes: Sequence[OptionQuote],
                 ov: PricingOverrides = PricingOverrides()):
    """Wavelet prices for a quote list, grouped by maturity.

    Each group is priced from the chf sweep its selection made at theta, so
    a selected grid is swept once; manual ``eta``/``j`` overrides select
    nothing and sweep in the pricer.

    Returns (prices, per-group SwiftParams keyed by maturity).
    """
    prices = np.empty(len(quotes))
    used = {}
    for tau, idx in group_by_maturity(quotes).items():
        strikes = [quotes[i].strike for i in idx]
        sp, sweep = _swift_params_for(theta, tau, ctx, strikes, ov)
        used[tau] = sp
        prices[idx] = price_multi_strike(theta, ctx, tau, strikes, sp, sweep=sweep)
    return prices + put_offsets(quotes, ctx), used


def run_price(backend: str, theta: HestonParams, qf: QuoteFile,
              ov: PricingOverrides = PricingOverrides()) -> ExperimentReport:
    """Price every quote in the file with the selected backend."""
    t0 = time.perf_counter()
    if backend in ("swift", "kswift"):
        prices, used = swift_prices(theta, qf.context, qf.quotes, ov)
        config = {repr(tau): asdict(sp) for tau, sp in used.items()}
    elif backend == "cp":
        qc = QuadratureConfig(u_max=ov.u_max)
        prices = np.array([price_cp(theta, qf.context, q, qc) for q in qf.quotes])
        config = {"nodes": qc.nodes, "u_max": qc.u_max}
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
                      L: float = DEFAULT_L) -> QuoteFile:
    """Calls at the dyadic strike grid x_k = (2k - J_d)/2^{m+1}.

    The grid layout is fixed by (m, J_d), J_d a power of two of at least 4;
    the series half-width is the J_d/2 - 1 validity bound, so only the
    central band of the grid carries accurate prices (the wings are outside
    any coverage J_d permits).
    """
    if j_density < 4 or j_density & (j_density - 1):
        raise ValueError(f"grid J must be a power of two >= 4, got {j_density}")
    half = j_density / 2.0**(m + 1)
    sp = interval_params(m, truncation_width(theta, tau, ctx, L), -half, half,
                         eta=j_density // 2 - 1)
    x_grid, prices = price_strike_grid(theta, ctx, tau, sp)
    quotes = [OptionQuote(strike=float(ctx.spot * np.exp(-x)), maturity=tau,
                          price=float(max(p, 0.0)))
              for x, p in zip(x_grid, prices)]
    return QuoteFile(context=ctx, quotes=quotes)


def make_calibration_backend(name: str, quotes, ctx, theta_ref,
                             ov: PricingOverrides = PricingOverrides(),
                             split_groups: bool = False):
    """The calibration backend named swift, kswift or cp, configured from ov."""
    if name == "kswift":
        return KswiftBackend(quotes, ctx, theta_ref, L=ov.L, split_groups=split_groups)
    if name == "swift":
        return SwiftBackend(quotes, ctx, theta_ref, L=ov.L)
    if name == "cp":
        return CpBackend(quotes, ctx, qc=QuadratureConfig(u_max=ov.u_max))
    raise ValueError(f"unknown backend {name!r}; expected swift, kswift or cp")


def run_calibrate(backend_name: str, qf: QuoteFile, theta0: HestonParams,
                  config: CalibrationConfig = CalibrationConfig(),
                  ov: PricingOverrides = PricingOverrides()):
    """Calibrate a quote file; returns (report, CalibrationResult)."""
    t0 = time.perf_counter()
    backend = make_calibration_backend(backend_name, qf.quotes, qf.context,
                                       theta0, ov)
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
                   "mu0": _MU0},
        "n_quotes": len(qf.quotes),
        "wall_times": {"setup_s": setup_s, "calibrate_s": result.wall_time},
    }
    if hasattr(backend, "swift_params"):
        meta["swift_params"] = [asdict(sp) for sp in backend.swift_params]
    report = ExperimentReport(experiment="calibrate", rows=[row], metadata=meta)
    return report, result


def _openblas():
    """numpy's bundled OpenBLAS, loaded through ctypes, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                        "libscipy_openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


def _one_blas_thread() -> None:
    """Process-pool initializer: the worker's OpenBLAS runs one thread.

    The phase products are small; with every core per worker, the pool's
    workers contend for cores and the pool runs slower than one process.
    Does nothing where numpy's bundled OpenBLAS is not found.
    """
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def _timed_calibration(backend_name, qf, theta0, config, ov, split_groups=False):
    """One timed build-plus-calibrate pass (setup counts toward solve time).

    Module-level, so process pools can run it.
    """
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
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
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
    are numpy-bound and too fine-grained for threads to help), each
    limited to one OpenBLAS thread; metadata records that count as
    ``blas_threads_per_worker``, null when no limit was set.
    """
    if target_name not in CONVERGE_TARGETS:
        raise ValueError(f"target must be one of {CONVERGE_TARGETS}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    target = PARAM_SETS[target_name]
    qf = run_generate(target, ctx, quotes, ov=ov)
    rng = np.random.default_rng(seed)
    starts = [HestonParams.from_array(vec) for vec in
              target.as_array() * rng.uniform(0.9, 1.1, size=(trials, 5))]
    trial = partial(_timed_calibration, "kswift", qf, config=config, ov=ov)

    blas_threads = None
    if workers > 1:
        blas_threads = 1 if _openblas() is not None else None
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_one_blas_thread) as pool:
            outcomes = list(pool.map(trial, starts, chunksize=4))
    else:
        outcomes = [trial(start) for start in starts]

    trial_times = [dt for dt, _ in outcomes]
    results = [r for _, r in outcomes]
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
            "blas_threads_per_worker": blas_threads,
            "wall_times": {"mean_trial_s": float(np.mean(trial_times)),
                           "total_s": float(np.sum(trial_times))}}
    return ExperimentReport(experiment="converge", rows=[row], metadata=meta)

