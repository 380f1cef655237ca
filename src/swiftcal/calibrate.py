"""Damped least-squares calibration of the five model parameters.

Minimizes f(theta) = 1/2 ||r(theta)||^2 over the residuals
r_i = V(theta; K_i, tau_i) - V*_i with a Levenberg-Marquardt iteration

    delta = (J J^T + mu I)^{-1} J r,    theta <- theta - delta,

where J is the 5 x n Jacobian of the residuals.  Large mu recovers a scaled
steepest-descent step, small mu the Gauss-Newton step; the Gauss-Newton
Hessian approximation J J^T is used throughout (the second-order residual
term is never formed).

Stopping criteria, checked in order each iteration:

    ||r||        <= eps1   -> ResidualTol   (the only "calibrated" outcome)
    ||J r||_inf  <= eps2   -> FlatGradient
    ||delta||    <= eps3 ||theta||  -> StagnantStep

Damping schedule (the reference literature defers to a library and states
none): mu starts at 1e-3 * max diag(J J^T), is divided by 10 on every
accepted step and multiplied by 10 on every rejection, clamped to
[1e-12, 1e12].  Iterates are projected onto per-parameter boxes after each
trial step.

Parameter vectors, Jacobian columns and bounds are all ordered per
``PARAM_ORDER`` = (v0, v_bar, sigma, kappa, rho).

Three interchangeable pricing backends are provided:

* ``KswiftBackend``  - wavelet pricer, quotes grouped by maturity, all
  theta-independent work (payoff spectrum, phase factors) done once and
  small groups swept together.
* ``SwiftBackend``   - wavelet pricer without reuse: every quote recomputes
  its density and payoff coefficients on every evaluation (the slow
  formulation the grouped one is benchmarked against).
* ``CpBackend``      - the quadrature reference pricer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .heston import HestonParams, MarketContext
from .reference import QuadratureConfig, price_and_gradient_cp
from .swift import (
    DEFAULT_L,
    PACK_FREQS,
    MultiStrikePricer,
    OptionQuote,
    group_by_maturity,
    pack_sweeps,
    price_and_gradient_single,
    put_offsets,
    select_scale,
    select_truncation,
)

# (lo, hi) per parameter in PARAM_ORDER; wide enough for every realistic fit.
DEFAULT_BOUNDS: Tuple[Tuple[float, float], ...] = (
    (1e-6, 4.0),      # v0
    (1e-6, 4.0),      # v_bar
    (1e-4, 5.0),      # sigma
    (1e-4, 50.0),     # kappa
    (-0.999, 0.999),  # rho
)

_MU0 = 1e-3  # initial damping per unit of max diag(J J^T)
_MU_MIN, _MU_MAX = 1e-12, 1e12


class SingularSystemError(np.linalg.LinAlgError):
    """The damped normal equations were numerically singular."""


class StopReason(Enum):
    RESIDUAL_TOL = "ResidualTol"
    FLAT_GRADIENT = "FlatGradient"
    STAGNANT_STEP = "StagnantStep"
    MAX_ITERATIONS = "MaxIterations"


@dataclass(frozen=True)
class CalibrationConfig:
    """Stopping tolerances, iteration cap and parameter box.

    The damping schedule is fixed (see the module docstring).
    """

    eps1: float = 1e-6
    eps2: float = 1e-12
    eps3: float = 1e-12
    max_iterations: int = 100
    bounds: Tuple[Tuple[float, float], ...] = DEFAULT_BOUNDS

    def __post_init__(self):
        if min(self.eps1, self.eps2, self.eps3) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")

    def clip(self, vec: np.ndarray) -> np.ndarray:
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return np.clip(vec, lo, hi)

    def contains(self, vec: np.ndarray) -> bool:
        return bool(np.all(vec == self.clip(vec)))


@dataclass
class CalibrationResult:
    theta_hat: HestonParams
    iterations: int
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


def _selected_groups(quotes: Sequence[OptionQuote], ctx: MarketContext,
                     theta_ref: HestonParams, L: float,
                     groups: Iterable[Tuple[float, List[int]]]):
    """Yield (tau, quote indices, strikes, SwiftParams, sweep) per maturity
    group: the discretization selected at theta_ref and the selection's chf
    sweep of its grid (see :func:`~swiftcal.swift.select_truncation`)."""
    for tau, idx in groups:
        strikes = [quotes[i].strike for i in idx]
        m = select_scale(theta_ref, tau, ctx)
        sweep: list = []
        sp = select_truncation(theta_ref, tau, ctx, m, strikes, L=L, sweep_out=sweep)
        yield tau, idx, strikes, sp, sweep[0]


class KswiftBackend:
    """Grouped wavelet backend: one coefficient workspace per maturity.

    The discretization is selected once at construction (at ``theta_ref``,
    normally the calibration start) and frozen for all subsequent
    evaluations, so the per-iteration cost is one matrix product per
    maturity group and one characteristic function sweep per block of
    groups: consecutive small groups share a sweep (see
    :func:`~swiftcal.swift.pack_sweeps`), a group of ``PACK_FREQS`` density
    frequencies or more has its own.  A group that sweeps alone starts from
    the selection's sweep of its grid at ``theta_ref``, so the first
    ``prices(theta_ref)`` sweeps only the packed blocks and the Jacobian at
    ``theta_ref`` sweeps nothing.

    ``group_eval_count`` counts per-group pricing passes, letting tests
    assert that an evaluation touches each maturity exactly once.

    ``split_groups=True`` degrades every group to a single quote and packs
    nothing (the worst-case protocol for this backend: full coefficient
    reuse is lost and the characteristic function is swept once per quote).
    """

    name = "kswift"

    def __init__(self, quotes: Sequence[OptionQuote], ctx: MarketContext,
                 theta_ref: HestonParams, L: float = DEFAULT_L,
                 split_groups: bool = False):
        self.ctx = ctx
        self.quotes = list(quotes)
        self.group_eval_count = 0
        if split_groups:
            groups = [(q.maturity, [i]) for i, q in enumerate(self.quotes)]
        else:
            groups = list(group_by_maturity(self.quotes).items())
        self._pricers = []
        for k, (tau, idx, strikes, sp, sweep) in enumerate(_selected_groups(
                self.quotes, ctx, theta_ref, L, groups)):
            pricer = MultiStrikePricer(ctx, tau, strikes, sp)
            # Packing replaces an adopted sweep.  A group below PACK_FREQS
            # that is not the last always joins a block, so its selection
            # sweep is dropped here: holding every small group's sweep until
            # packing made the set2 build about 5% slower (allocator traffic).
            if split_groups or sp.j_density >= PACK_FREQS or k == len(groups) - 1:
                pricer.adopt_sweep(sweep)
            self._pricers.append((pricer, np.asarray(idx)))
        if not split_groups:
            pack_sweeps([p for p, _ in self._pricers])
        self._put_offsets = put_offsets(self.quotes, ctx)

    @property
    def swift_params(self):
        """Frozen discretization per maturity group (reporting metadata)."""
        return [p.sp for p, _ in self._pricers]

    def prices(self, theta: HestonParams) -> np.ndarray:
        out = np.empty(len(self.quotes))
        for pricer, idx in self._pricers:
            out[idx] = pricer.prices(theta)
            self.group_eval_count += 1
        return out + self._put_offsets

    def prices_and_jacobian(self, theta: HestonParams):
        prices = np.empty(len(self.quotes))
        jac = np.empty((len(self.quotes), 5))
        for pricer, idx in self._pricers:
            p, j = pricer.prices_and_jacobian(theta)
            prices[idx] = p
            jac[idx] = j
            self.group_eval_count += 1
        return prices + self._put_offsets, jac


class SwiftBackend:
    """Per-quote wavelet backend with no cross-quote or cross-call reuse.

    Uses the same frozen per-maturity discretization as ``KswiftBackend``
    (and drops the selection's sweep) but prices quote by quote, rebuilding
    density and payoff coefficients (six FFTs and a characteristic sweep per
    quote) on every evaluation.
    """

    name = "swift"

    def __init__(self, quotes: Sequence[OptionQuote], ctx: MarketContext,
                 theta_ref: HestonParams, L: float = DEFAULT_L):
        self.ctx = ctx
        self.quotes = list(quotes)
        self._sp = [None] * len(self.quotes)
        for _, idx, _, sp, _ in _selected_groups(self.quotes, ctx, theta_ref, L,
                                                 group_by_maturity(self.quotes).items()):
            for i in idx:
                self._sp[i] = sp

    def prices(self, theta: HestonParams) -> np.ndarray:
        return self.prices_and_jacobian(theta)[0]

    def prices_and_jacobian(self, theta: HestonParams):
        rows = [price_and_gradient_single(theta, self.ctx, q, sp)
                for q, sp in zip(self.quotes, self._sp)]
        return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


class CpBackend:
    """Quadrature reference backend; price and gradient share nodes."""

    name = "cp"

    def __init__(self, quotes: Sequence[OptionQuote], ctx: MarketContext,
                 qc: QuadratureConfig = QuadratureConfig()):
        self.ctx = ctx
        self.quotes = list(quotes)
        self.qc = qc

    def prices(self, theta: HestonParams) -> np.ndarray:
        return self.prices_and_jacobian(theta)[0]

    def prices_and_jacobian(self, theta: HestonParams):
        rows = [price_and_gradient_cp(theta, self.ctx, q, self.qc)
                for q in self.quotes]
        return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def residuals(theta: HestonParams, quotes: Sequence[OptionQuote],
              ctx: MarketContext, backend) -> np.ndarray:
    """Model-minus-market residuals in quote order."""
    observed = _observed(quotes)
    return backend.prices(theta) - observed


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
                  theta: np.ndarray, config: CalibrationConfig) -> np.ndarray:
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
    lo = np.array([b[0] for b in config.bounds])
    hi = np.array([b[1] for b in config.bounds])
    n_par = theta.size
    free = np.ones(n_par, dtype=bool)
    delta = np.zeros(n_par)
    for _ in range(n_par):
        if not free.any():
            break
        r_eff = residual - jac[~free].T @ delta[~free]
        delta[free] = lm_step(jac[free], r_eff, mu)
        target = theta - delta
        viol = free & ((target < lo) | (target > hi))
        if not viol.any():
            break
        delta[viol] = np.where(target[viol] < lo[viol],
                               theta[viol] - lo[viol],
                               theta[viol] - hi[viol])
        free &= ~viol
    return delta


def calibrate(quotes: Sequence[OptionQuote], theta0: HestonParams,
              ctx: MarketContext, config: CalibrationConfig, backend,
              ) -> CalibrationResult:
    """Levenberg-Marquardt driver; see the module docstring for the scheme.

    ``iterations`` counts accepted steps (equivalently Jacobian
    evaluations beyond the initial one); a start that already satisfies the
    residual tolerance returns with ``iterations == 0``.  Rejected trial
    steps only adjust mu.  The trace records (objective, mu, step norm) per
    accepted step.  ``MaxIterations`` is reported in ``stop_reason`` rather
    than raised.
    """
    t_start = time.perf_counter()
    observed = _observed(quotes)
    theta_vec = np.asarray(theta0.as_array(), dtype=float)
    if not config.contains(theta_vec):
        raise ValueError("initial guess lies outside the configured bounds")

    r = backend.prices(HestonParams.from_array(theta_vec)) - observed
    objective = 0.5 * float(r @ r)
    mu: Optional[float] = None
    iterations = 0
    trace: List[Tuple[float, float, float]] = []
    stop: Optional[StopReason] = None

    while True:
        if np.linalg.norm(r) <= config.eps1:
            stop = StopReason.RESIDUAL_TOL
            break
        if iterations >= config.max_iterations:
            stop = StopReason.MAX_ITERATIONS
            break

        _, jac_rows = backend.prices_and_jacobian(HestonParams.from_array(theta_vec))
        jac = jac_rows.T  # 5 x n
        grad = jac @ r
        if np.max(np.abs(grad)) <= config.eps2:
            stop = StopReason.FLAT_GRADIENT
            break
        if mu is None:
            mu = _MU0 * float(np.max(np.sum(jac * jac, axis=1)))

        while True:  # damping adjustments until a step is accepted
            try:
                delta = _bounded_step(jac, r, mu, theta_vec, config)
            except SingularSystemError:
                if not mu < _MU_MAX:  # a NaN mu (non-finite Jacobian) never grows
                    stop = StopReason.STAGNANT_STEP
                    break
                mu = min(mu * 10.0, _MU_MAX)
                continue
            if np.linalg.norm(delta) <= config.eps3 * np.linalg.norm(theta_vec):
                stop = StopReason.STAGNANT_STEP
                break
            theta_try = config.clip(theta_vec - delta)
            r_try = backend.prices(HestonParams.from_array(theta_try)) - observed
            obj_try = 0.5 * float(r_try @ r_try)
            if obj_try < objective:
                theta_vec, r, objective = theta_try, r_try, obj_try
                mu = max(mu / 10.0, _MU_MIN)
                iterations += 1
                trace.append((objective, mu, float(np.linalg.norm(delta))))
                break
            if mu >= _MU_MAX:
                stop = StopReason.STAGNANT_STEP
                break
            mu = min(mu * 10.0, _MU_MAX)
        if stop is not None:
            break

    return CalibrationResult(
        theta_hat=HestonParams.from_array(theta_vec),
        iterations=iterations,
        stop_reason=stop,
        final_objective=objective,
        wall_time=time.perf_counter() - t_start,
        per_iteration_trace=trace,
    )
