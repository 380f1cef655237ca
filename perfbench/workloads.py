"""The benchmark's workloads: seeded inputs, one job at a time, checked outputs.

Every workload is a closed loop in one process, one job at a time.  Job
``i`` of a workload is fully determined by the seed and ``i``, so a run can
replay the same jobs traced and untraced.  ``run`` times only the calls into
swiftcal; the output checks run afterwards, outside the timed region and
outside any trace.

A workload's job set is ``ROUNDS`` rounds of a fixed mix of job kinds
(``ROUND``): ``JOBS`` jobs in all, the same number whatever the machine's
speed, so a faster program is timed on the same inputs, not on more of them.
The mix of each round is chosen so that the median job does not fall in the
middle of one wide cluster of job times, where it would move with the inputs
the seed draws.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import qmc

from swiftcal import (CalibrationConfig, HestonParams, QuadratureConfig, price_cp,
                      select_scale, select_truncation)
from swiftcal.experiments import PricingOverrides, run_generate
from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS, set1_quotes, set2_quotes
from swiftcal.quotes import QuoteFile

CTX = DEFAULT_CONTEXT
CONFIG = CalibrationConfig()

# Multi-expiry fits must recover the target to this (the acceptance suite's
# bound on mean parameter errors).  A single expiry does not identify the
# parameters (fitted errors of ~0.2 at ResidualTol), so set1 fits are checked
# by repricing instead, as the acceptance suite does.
PARAM_TOL = 1e-2
REPRICE_TOL = 1e-6

# Sobol points drawn per job stream: a power of two, of which a workload
# takes its ROUNDS first.
SOBOL_POINTS = 32

# One-shot prices against the converged quadrature reference; the gaps are
# reported as max_price_err.  swift at its default selection misses by up to
# 2e-6 on +-10% fx points (tau=1.43, K=1.3046); its bound is the 1e-5 price
# error select_truncation's docstring names as the cost of a 1e-6 mass
# defect.  The default quadrature (64 nodes, u_max=200) truncates: on the fx
# points it is off by up to 3e-4 (reference.py leaves u_max to the caller);
# its bound is the acceptance suite's 1e-3 for the quadrature pricer.
PRICE_TOL = {"swift": 1e-5, "cp": 1e-3}

# The reference is (1536 nodes, u_max=2400), checked against (2048, 3200).
# Lower cut-offs are not converged on the +-10% fx points: u_max=400 is off
# by 4.7e-7 at tau=0.119, K=1.3939 (the whole of the swift "error" such a
# reference reports), u_max=800 by up to 5.7e-7, u_max=1200 by 1.2e-8.
REFERENCE = QuadratureConfig(nodes=1536, u_max=2400.0)
REFERENCE_CHECK = QuadratureConfig(nodes=2048, u_max=3200.0)
REFERENCE_AGREE_TOL = 1e-9


class ReferenceMismatch(RuntimeError):
    """The two quadrature reference settings disagree."""


@dataclass
class Outcome:
    """What one job did, as the metrics need it."""

    wall_s: float                     # time in the swiftcal calls
    calibrated: bool = False          # stopped on ResidualTol / priced right
    quotes: int = 0
    setup_s: Optional[float] = None   # backend build or selection
    param_err: Optional[float] = None
    price_err: Optional[float] = None
    backend: Optional[str] = None
    failure: Optional[str] = None     # raised error or failed check
    gauge_s: Optional[float] = None   # host-speed gauge around the job


def _jitters(theta: HestonParams, seed: int, key, n: int):
    """``n`` +-10% jitters of ``theta`` for the stream ``(seed, key)``.

    Each coordinate spans [0.9, 1.1] times the parameter, the box
    ``run_converge`` draws its starts from, along a scrambled Sobol sequence:
    every prefix covers the box evenly.  Job costs depend on the start, so a
    run reads much the same median whatever the seed.
    """
    if n > SOBOL_POINTS:
        raise ValueError(f"at most {SOBOL_POINTS} jitters per stream, not {n}")
    rng = np.random.default_rng([seed, *key])
    u = qmc.Sobol(d=5, scramble=True, seed=rng).random(SOBOL_POINTS)[:n]
    return [HestonParams.from_array(theta.as_array() * (0.9 + 0.2 * row))
            for row in u]


def _calibrate_mod():
    # swiftcal re-exports the function ``calibrate`` over the submodule name
    return importlib.import_module("swiftcal.calibrate")


def _calibration_job(quotes, start, tracer, job_id):
    """Backend build plus LM at default tolerances, as a user runs a fit."""
    cal = _calibrate_mod()
    with tracer.job(job_id):
        t0 = time.perf_counter()
        backend = cal.KswiftBackend(quotes, CTX, start)
        t1 = time.perf_counter()
        result = cal.calibrate(quotes, start, CTX, CONFIG, backend)
        t2 = time.perf_counter()
    return result, t2 - t0, t1 - t0


def _fit_outcome(result, wall, setup, target, quotes, reprice) -> Outcome:
    """A fit that claims ResidualTol must have found the target.

    Any other stop is a legitimate answer ("not calibrated"), which
    ``share_calibrated`` counts; it is not an error.
    """
    err = float(np.max(np.abs(result.theta_hat.as_array() - target.as_array())))
    failure = None
    if result.calibrated and reprice:
        fitted = result.theta_hat
        model = _calibrate_mod().KswiftBackend(quotes, CTX, fitted).prices(fitted)
        dev = float(np.max(np.abs(model - [q.price for q in quotes])))
        if dev > REPRICE_TOL:
            failure = f"fitted parameters reprice {dev:.2e} away from the quotes"
    elif result.calibrated and err > PARAM_TOL:
        failure = f"fitted parameters {err:.2e} away from the target"
    return Outcome(wall_s=wall, calibrated=result.calibrated, quotes=len(quotes),
                   setup_s=setup, param_err=err, failure=failure)


class SurfaceShort:
    """kswift fits to set1 (1 expiry x 40 strikes) and set2 (8 x 5) at theta2.

    Short maturities and small J_d: per-evaluation LM work, per-group numpy
    dispatch and the phase product dominate; selection is a small share.
    Two set2 fits per set1 fit put the median inside the set2 cluster.
    """

    name = "surface-short"
    ROUND = ("set2", "set1", "set2")
    ROUNDS = 16
    JOBS = len(ROUND) * ROUNDS

    def __init__(self, seed: int):
        self.target = PARAM_SETS["theta2"]
        self.quotes = {name: run_generate(self.target, CTX, make()).quotes
                       for name, make in (("set1", set1_quotes), ("set2", set2_quotes))}
        self.starts = [_jitters(PARAM_SETS["theta2-start"], seed, (slot,), self.ROUNDS)
                       for slot in range(len(self.ROUND))]

    def run(self, i: int, tracer) -> Outcome:
        rnd, slot = divmod(i, len(self.ROUND))
        name = self.ROUND[slot]
        quotes = self.quotes[name]
        start = self.starts[slot][rnd]
        result, wall, setup = _calibration_job(quotes, start, tracer, i)
        return _fit_outcome(result, wall, setup, self.target, quotes,
                            reprice=(name == "set1"))


class ConvergeLong:
    """One random-start trial at a time, fx/ir/eq round-robin, on set2 strikes.

    The work of one ``run_converge`` trial, through the public
    ``KswiftBackend`` and ``calibrate``.  Heavy-tailed long-dated targets
    push J_d up, so characteristic sweeps and truncation selection dominate.
    """

    name = "converge-long"
    ROUND = ("fx", "ir", "eq")
    ROUNDS = 32
    JOBS = len(ROUND) * ROUNDS

    def __init__(self, seed: int):
        self.quotes = {t: run_generate(PARAM_SETS[t], CTX, set2_quotes()).quotes
                       for t in self.ROUND}
        self.starts = [_jitters(PARAM_SETS[t], seed, (slot,), self.ROUNDS)
                       for slot, t in enumerate(self.ROUND)]

    def run(self, i: int, tracer) -> Outcome:
        rnd, slot = divmod(i, len(self.ROUND))
        target_name = self.ROUND[slot]
        target, quotes = PARAM_SETS[target_name], self.quotes[target_name]
        start = self.starts[slot][rnd]
        result, wall, setup = _calibration_job(quotes, start, tracer, i)
        return _fit_outcome(result, wall, setup, target, quotes, reprice=False)


def _selection(theta: HestonParams, quotes) -> None:
    """The discretization selection ``run_price`` performs for swift."""
    ov = PricingOverrides()
    groups: dict = {}
    for q in quotes:
        groups.setdefault(q.maturity, []).append(q.strike)
    for tau, strikes in groups.items():
        m = select_scale(theta, tau, CTX, ov.scale_tol)
        select_truncation(theta, tau, CTX, m, strikes, L=ov.L)


class PriceOneshot:
    """``run_price`` with swift and cp on set2 at theta2, fx, ir and eq.

    No frozen pricer and no Jacobian: selection is paid on every swift
    request, and cp requests are the only quadrature traffic.  Each target
    contributes ``ROUNDS`` seeded +-10% points.  Round ``j`` prices point
    ``j`` of every target with swift, and of every target but one (a
    different one each round) with cp.  Prices are checked against a
    converged quadrature reference computed at set-up.  The set-up time of a
    swift request is the selection ``run_price`` performs for its point,
    timed just before the request; a cp request selects nothing and has none.

    cp requests cost the same at every point and are the cheapest; swift
    requests spread over 20x across the targets (theta2 cheapest, fx
    dearest) and 2x across the points of one target.  Three cp requests per
    four swift requests put the median request in the middle of the theta2
    swift requests, the cluster whose cost varies least with the point; the
    dear requests move ``quotes_per_s`` and the tail.
    """

    name = "price-oneshot"
    TARGETS = ("theta2", "fx", "ir", "eq")
    ROUND = ("swift",) * len(TARGETS) + ("cp",) * (len(TARGETS) - 1)
    ROUNDS = 32
    JOBS = len(ROUND) * ROUNDS

    def __init__(self, seed: int):
        self.qf = QuoteFile(context=CTX, quotes=set2_quotes())
        self.points = {t: _jitters(PARAM_SETS[t], seed, (k,), self.ROUNDS)
                       for k, t in enumerate(self.TARGETS)}
        self.reference = {(t, j): _reference(theta, self.qf.quotes, f"{t} point {j}")
                          for t, points in self.points.items()
                          for j, theta in enumerate(points)}

    def run(self, i: int, tracer) -> Outcome:
        exp = importlib.import_module("swiftcal.experiments")
        j, pos = divmod(i, len(self.ROUND))
        backend = self.ROUND[pos]
        targets = self.TARGETS
        if backend == "cp":
            skipped = j % len(targets)
            targets = targets[:skipped] + targets[skipped + 1:]
        target_name = targets[pos % len(self.TARGETS)]
        theta = self.points[target_name][j]
        setup = None
        if backend == "swift":  # timed apart: run_price does not expose it
            t0 = time.perf_counter()
            _selection(theta, self.qf.quotes)
            setup = time.perf_counter() - t0
        with tracer.job(i):
            t0 = time.perf_counter()
            report = exp.run_price(backend, theta, self.qf)
            wall = time.perf_counter() - t0
        prices = np.array([row["price"] for row in report.rows])
        gap = float(np.max(np.abs(prices - self.reference[target_name, j])))
        failure = None
        if gap > PRICE_TOL[backend]:
            failure = f"{backend} price {gap:.2e} away from the reference"
        return Outcome(wall_s=wall, calibrated=failure is None, quotes=len(prices),
                       setup_s=setup, price_err=gap, backend=backend,
                       failure=failure)


def _reference(theta: HestonParams, quotes, label: str) -> np.ndarray:
    """Quadrature prices at ``REFERENCE``, confirmed by ``REFERENCE_CHECK``."""
    ref = np.array([price_cp(theta, CTX, q, REFERENCE) for q in quotes])
    alt = np.array([price_cp(theta, CTX, q, REFERENCE_CHECK) for q in quotes])
    gap = float(np.max(np.abs(ref - alt)))
    if gap > REFERENCE_AGREE_TOL:
        raise ReferenceMismatch(f"quadrature reference not converged at {label}: "
                                f"{REFERENCE} and {REFERENCE_CHECK} differ by {gap:.2e}")
    return ref


WORKLOADS = {w.name: w for w in (SurfaceShort, ConvergeLong, PriceOneshot)}
