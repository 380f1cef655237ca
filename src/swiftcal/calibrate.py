"""Damped least-squares calibration of the five model parameters.

Minimizes f(theta) = 1/2 ||r(theta)||^2 over the residuals
r_i = V(theta; K_i, tau_i) - V*_i with a Levenberg-Marquardt iteration

    delta = (J J^T + mu I)^{-1} J r,    theta <- theta - delta,

where J is the 5 x n Jacobian of the residuals.  Large mu recovers a scaled
steepest-descent step, small mu the Gauss-Newton step; the Gauss-Newton
Hessian approximation J J^T is used throughout (the second-order residual
term is never formed).

Jacobian schedule (the secant L-M variant of Madsen, Nielsen & Tingleff,
*Methods for Non-Linear Least Squares Problems*, 2004, section 3.4): the
backend's analytic J is assembled at the start, and after an accepted step
s = theta_new - theta_old (the clipped step taken), y = r_new - r_old, it is
kept and updated by Broyden's rank-one formula

    J <- J + s (y - J^T s)^T / (s^T s)

when the actual reduction of f is at least 0.75 of the reduction the linear
model r + J^T s predicted.  Otherwise J is assembled afresh at theta_new.
A trial step rejected under an updated J is retried at the same mu on a
fresh J, and a FlatGradient or StagnantStep stop is only ever reported on a
fresh J, so no stop reason rests on a secant approximation.

Each pass of the driver tries at most one damped step and ends in a stop,
a tenfold mu increase, a fresh J at the same mu or an accepted step.
Stopping criteria, checked in order on every pass:

    ||r||        <= eps1   -> ResidualTol   (the only "calibrated" outcome)
    ||J r||_inf  <= eps2   -> FlatGradient
    ||delta||    <= eps3 ||theta||  -> StagnantStep

Damping schedule (the reference literature defers to a library and states
none): mu starts at 1e-3 * max diag(J J^T), is divided by 10 on every
accepted step and multiplied by 10 on every singular damped solve and on
every rejection under a fresh J, clamped to [1e-12, 1e12].  Iterates are
projected onto per-parameter boxes after each trial step.

Parameter vectors, Jacobian columns and bounds are all ordered per
``PARAM_ORDER`` = (v0, v_bar, sigma, kappa, rho).

Three interchangeable pricing backends are provided:

* ``KswiftBackend``  - wavelet pricer, quotes grouped by maturity, all
  theta-independent work (payoff spectrum, phase factors) done once and
  all groups swept together, on the pricers :func:`discretization_plan`
  lays out.
* ``SwiftBackend``   - the same pricer without reuse: every evaluation
  rebuilds a one-quote pricer per quote, payoff spectrum, phase row and
  characteristic sweep included (the slow formulation the grouped one is
  benchmarked against).
* ``CpBackend``      - the quadrature reference pricer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .heston import HestonParams, MarketContext
from .reference import QuadratureConfig, price_and_gradient_cp, price_cp
from .swift import (
    MultiStrikePricer,
    OptionQuote,
    group_by_maturity,
    put_offsets,
    select_groups,
    share_sweep,
)
# Unused here: perfbench/tracing.py rebinds these names in this module,
# until the benchmark counts without rebinding.
from .swift import select_scale, select_truncation  # noqa: F401

# The parameter box: (lo, hi) per parameter in PARAM_ORDER, wide enough for
# every realistic fit.
DEFAULT_BOUNDS: Tuple[Tuple[float, float], ...] = (
    (1e-6, 4.0),      # v0
    (1e-6, 4.0),      # v_bar
    (1e-4, 5.0),      # sigma
    (1e-4, 50.0),     # kappa
    (-0.999, 0.999),  # rho
)
_LO, _HI = np.array(DEFAULT_BOUNDS).T

_MU0 = 1e-3  # initial damping per unit of max diag(J J^T)
_MU_MIN, _MU_MAX = 1e-12, 1e12
# Gain ratio (actual over linear-model reduction of the objective) at or
# above which an accepted step updates the Jacobian by secant.
_GAIN_SECANT = 0.75


class SingularSystemError(np.linalg.LinAlgError):
    """The damped normal equations were numerically singular."""


class StopReason(Enum):
    RESIDUAL_TOL = "ResidualTol"
    FLAT_GRADIENT = "FlatGradient"
    STAGNANT_STEP = "StagnantStep"
    MAX_ITERATIONS = "MaxIterations"


@dataclass(frozen=True)
class CalibrationConfig:
    """Stopping tolerances and iteration cap.

    The damping schedule is fixed (see the module docstring) and the
    parameter box is ``DEFAULT_BOUNDS``.
    """

    eps1: float = 1e-6
    eps2: float = 1e-12
    eps3: float = 1e-12
    max_iterations: int = 100

    def __post_init__(self):
        if not all(0 < e < math.inf for e in (self.eps1, self.eps2, self.eps3)):
            raise ValueError("tolerances must be positive and finite, got "
                             f"{self.eps1}, {self.eps2}, {self.eps3}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass
class CalibrationResult:
    theta_hat: HestonParams
    iterations: int
    jacobian_evals: int
    stop_reason: StopReason
    final_objective: float
    wall_time: float
    per_iteration_trace: List[Tuple[float, float, float]] = field(default_factory=list)

    @property
    def final_residual_norm(self) -> float:
        return float(np.sqrt(2.0 * self.final_objective))

    @property
    def calibrated(self) -> bool:
        """Only a ResidualTol stop counts as a successful calibration."""
        return self.stop_reason is StopReason.RESIDUAL_TOL


def discretization_plan(quotes: Sequence[OptionQuote], ctx: MarketContext,
                        theta_ref: HestonParams, m: Optional[int] = None,
                        split_groups: bool = False):
    """Yield (MultiStrikePricer, quote indices) per maturity group, frozen at
    theta_ref: the one place a quote set's discretization is chosen.

    All groups are selected together by :func:`~swiftcal.swift.select_groups`:
    the scales from the tail swept over every maturity in stages, each
    maturity only up to the stage that resolves it (or ``m`` when it pins
    one), the intervals in growth rounds that sweep the new grids of all
    groups still growing as one block, each decision the one a lone group's
    :func:`~swiftcal.swift.select_scale` and
    :func:`~swiftcal.swift.select_truncation` make.  Each group's pricer
    starts from its slice of the block that swept its accepted grid at
    theta_ref (:func:`~swiftcal.swift.share_sweep`), so every selected grid
    is swept once there.  Pricers are built and yielded one group at a
    time; a group whose selection failed raises its error when reached.
    ``split_groups=True`` makes every quote its own group and changes
    nothing else: each group is still decided as if selected alone.
    """
    if split_groups:
        groups = [(q.maturity, [i]) for i, q in enumerate(quotes)]
    else:
        groups = list(group_by_maturity(quotes).items())
    pairs = [(tau, [quotes[i].strike for i in idx]) for tau, idx in groups]
    for (tau, strikes), (_, idx), (sp, sweep) in zip(
            pairs, groups, select_groups(theta_ref, pairs, ctx, m)):
        pricer = MultiStrikePricer(ctx, tau, strikes, sp)
        share_sweep([pricer], [sweep])
        yield pricer, np.asarray(idx)


class KswiftBackend:
    """Grouped wavelet backend: one coefficient workspace per maturity.

    Reads the pricers of :func:`discretization_plan`: the discretization is
    selected once at construction (at ``theta_ref``, normally the
    calibration start) and frozen for all subsequent evaluations, so the
    per-iteration cost is one matrix product per maturity group and one
    characteristic function sweep for all groups, a block
    (:func:`~swiftcal.swift.share_sweep`) that a large quote set splits
    across threads.  The block starts from the selection's sweeps at
    ``theta_ref``, so neither ``prices(theta_ref)`` nor the Jacobian at
    ``theta_ref`` sweeps anything.

    ``split_groups=True`` degrades every group to a single quote and shares
    nothing (the worst-case protocol for this backend: full coefficient
    reuse is lost and the characteristic function is swept once per quote).
    """

    name = "kswift"

    def __init__(self, quotes: Sequence[OptionQuote], ctx: MarketContext,
                 theta_ref: HestonParams, split_groups: bool = False):
        self.ctx = ctx
        self.quotes = list(quotes)
        self._pricers = list(discretization_plan(self.quotes, ctx, theta_ref,
                                                 split_groups=split_groups))
        if not split_groups:
            share_sweep([p for p, _ in self._pricers])
        self._put_offsets = put_offsets(self.quotes, ctx)

    @property
    def swift_params(self):
        """Frozen discretization per maturity group (reporting metadata)."""
        return [p.sp for p, _ in self._pricers]

    def prices(self, theta: HestonParams) -> np.ndarray:
        out = np.empty(len(self.quotes))
        for pricer, idx in self._pricers:
            out[idx] = pricer.prices(theta)
        return out + self._put_offsets

    def prices_and_jacobian(self, theta: HestonParams):
        prices = np.empty(len(self.quotes))
        jac = np.empty((len(self.quotes), 5))
        for pricer, idx in self._pricers:
            p, j = pricer.prices_and_jacobian(theta)
            prices[idx] = p
            jac[idx] = j
        return prices + self._put_offsets, jac


class SwiftBackend:
    """Per-quote wavelet backend with no cross-quote or cross-call reuse.

    Reads only the ``SwiftParams`` of :func:`discretization_plan`, the same
    frozen per-maturity discretization as ``KswiftBackend``, and drops its
    pricers and sweeps: every evaluation prices each quote through a fresh
    one-quote :class:`~swiftcal.swift.MultiStrikePricer`, so the payoff
    spectrum, the phase row and the characteristic sweep are all rebuilt
    per quote and per call.
    """

    name = "swift"

    def __init__(self, quotes: Sequence[OptionQuote], ctx: MarketContext,
                 theta_ref: HestonParams):
        self.ctx = ctx
        self.quotes = list(quotes)
        self._sp = [None] * len(self.quotes)
        for pricer, idx in discretization_plan(self.quotes, ctx, theta_ref):
            for i in idx:
                self._sp[i] = pricer.sp
        self._put_offsets = put_offsets(self.quotes, ctx)

    def prices(self, theta: HestonParams) -> np.ndarray:
        return self.prices_and_jacobian(theta)[0]

    def prices_and_jacobian(self, theta: HestonParams):
        rows = [MultiStrikePricer(self.ctx, q.maturity, [q.strike], sp)
                .prices_and_jacobian(theta) for q, sp in zip(self.quotes, self._sp)]
        return (np.array([p[0] for p, _ in rows]) + self._put_offsets,
                np.array([j[0] for _, j in rows]))


class CpBackend:
    """Quadrature reference backend; price and gradient share nodes."""

    name = "cp"

    def __init__(self, quotes: Sequence[OptionQuote], ctx: MarketContext,
                 qc: QuadratureConfig = QuadratureConfig()):
        self.ctx = ctx
        self.quotes = list(quotes)
        self.qc = qc

    def prices(self, theta: HestonParams) -> np.ndarray:
        return np.array([price_cp(theta, self.ctx, q, self.qc) for q in self.quotes])

    def prices_and_jacobian(self, theta: HestonParams):
        rows = [price_and_gradient_cp(theta, self.ctx, q, self.qc)
                for q in self.quotes]
        return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def _observed(quotes: Sequence[OptionQuote]) -> np.ndarray:
    prices = [q.price for q in quotes]
    if any(p is None for p in prices):
        raise ValueError("every quote needs an observed price for calibration")
    return np.array(prices, dtype=float)


def lm_step(jacobian: np.ndarray, residual: np.ndarray, mu: float) -> np.ndarray:
    """Solve the 5x5 damped normal equations (J J^T + mu I) delta = J r.

    ``jacobian`` is 5 x n.  The returned delta points uphill (it is the
    preconditioned gradient); the driver updates theta <- theta - delta.

    Raises:
        SingularSystemError: the damped matrix is numerically singular
            (the driver responds by raising mu).
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    a = jacobian @ jacobian.T + mu * np.eye(jacobian.shape[0])
    g = jacobian @ residual
    try:
        delta = np.linalg.solve(a, g)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(delta)):
        raise SingularSystemError("damped normal equations produced non-finite step")
    return delta


def _bounded_step(jac: np.ndarray, residual: np.ndarray, mu: float,
                  theta: np.ndarray) -> np.ndarray:
    """Damped step with active-set treatment of the parameter box.

    Solves the damped normal equations; any parameter the raw step would
    push past its bound is pinned *at* the bound and eliminated, and the
    system is re-solved on the free parameters with the pinned displacement
    folded into the residual.  Plain componentwise clipping stalls here:
    once a degenerate data set (single expiry) drives one parameter onto
    its bound, the clipped full-space step wastes almost all its length on
    the blocked coordinate and the iteration crawls; re-solving lets the
    free parameters use the whole linear model.  Returns the displacement
    delta with theta - delta inside the box.
    """
    n_par = theta.size
    free = np.ones(n_par, dtype=bool)
    delta = np.zeros(n_par)
    for _ in range(n_par):
        if not free.any():
            break
        r_eff = residual - jac[~free].T @ delta[~free]
        delta[free] = lm_step(jac[free], r_eff, mu)
        target = theta - delta
        viol = free & ((target < _LO) | (target > _HI))
        if not viol.any():
            break
        delta[viol] = np.where(target[viol] < _LO[viol],
                               theta[viol] - _LO[viol],
                               theta[viol] - _HI[viol])
        free &= ~viol
    return delta


def calibrate(quotes: Sequence[OptionQuote], theta0: HestonParams,
              ctx: MarketContext, config: CalibrationConfig, backend,
              ) -> CalibrationResult:
    """Levenberg-Marquardt driver; see the module docstring for the scheme.

    ``iterations`` counts accepted steps and ``jacobian_evals`` the fresh
    Jacobian assemblies (``backend.prices_and_jacobian`` calls); a start
    that already satisfies the residual tolerance returns with both 0.
    Each pass of its one loop tries one damped step; a rejected trial
    raises mu, or under a secant-updated Jacobian asks for a fresh one.
    The trace records (objective, mu, step norm) per accepted step.
    ``MaxIterations`` is reported in ``stop_reason`` rather than raised.
    """
    t_start = time.perf_counter()
    observed = _observed(quotes)
    theta_vec = np.asarray(theta0.as_array(), dtype=float)
    if not np.array_equal(theta_vec, np.clip(theta_vec, _LO, _HI)):
        raise ValueError("initial guess lies outside DEFAULT_BOUNDS")

    r = backend.prices(HestonParams.from_array(theta_vec)) - observed
    objective = 0.5 * float(r @ r)
    mu: Optional[float] = None
    iterations = jacobian_evals = 0
    jac: Optional[np.ndarray] = None  # 5 x n; None: assemble afresh at theta_vec
    fresh = False  # jac is the backend's Jacobian at theta_vec, not a secant update
    trace: List[Tuple[float, float, float]] = []

    while True:  # one pass per trial step
        if np.linalg.norm(r) <= config.eps1:
            stop = StopReason.RESIDUAL_TOL
            break
        if iterations >= config.max_iterations:
            stop = StopReason.MAX_ITERATIONS
            break
        if jac is None:
            _, jac_rows = backend.prices_and_jacobian(HestonParams.from_array(theta_vec))
            jac, fresh = jac_rows.T, True
            jacobian_evals += 1
        grad = jac @ r
        stop, delta, obj_try = None, None, math.inf  # no trial point yet
        if np.max(np.abs(grad)) <= config.eps2:
            stop = StopReason.FLAT_GRADIENT
        else:
            if mu is None:
                mu = _MU0 * float(np.max(np.sum(jac * jac, axis=1)))
            try:
                delta = _bounded_step(jac, r, mu, theta_vec)
            except SingularSystemError:
                pass  # no step at this mu
        if delta is not None:
            if np.linalg.norm(delta) <= config.eps3 * np.linalg.norm(theta_vec):
                stop = StopReason.STAGNANT_STEP
            else:
                theta_try = np.clip(theta_vec - delta, _LO, _HI)
                r_try = backend.prices(HestonParams.from_array(theta_try)) - observed
                obj_try = 0.5 * float(r_try @ r_try)
        if stop is None and not obj_try < objective:
            # a singular solve raises mu on any Jacobian, a rejected trial
            # only on a fresh one; a NaN mu (non-finite Jacobian) never grows
            if (fresh or delta is None) and mu < _MU_MAX:
                mu = min(mu * 10.0, _MU_MAX)
                continue
            stop = StopReason.STAGNANT_STEP
        if stop is not None:
            if fresh:
                break
            jac = None  # no stop or rejection rests on a secant-updated Jacobian
            continue

        step = theta_try - theta_vec  # the clipped step actually taken
        linear = jac.T @ step  # the linear model's change of r
        predicted = -float(step @ grad) - 0.5 * float(linear @ linear)
        if objective - obj_try >= _GAIN_SECANT * predicted > 0.0:  # gain ratio
            # a new array: the backend's own Jacobian is never written to
            jac = jac + np.outer(step, r_try - r - linear) / float(step @ step)
            fresh = False
        else:
            jac = None
        theta_vec, r, objective = theta_try, r_try, obj_try
        mu = max(mu / 10.0, _MU_MIN)
        iterations += 1
        trace.append((objective, mu, float(np.linalg.norm(delta))))

    return CalibrationResult(
        theta_hat=HestonParams.from_array(theta_vec),
        iterations=iterations,
        jacobian_evals=jacobian_evals,
        stop_reason=stop,
        final_objective=objective,
        wall_time=time.perf_counter() - t_start,
        per_iteration_trace=trace,
    )
