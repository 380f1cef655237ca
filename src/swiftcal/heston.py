"""Heston model characteristic function, its parameter gradient, and cumulants.

Model dynamics under the risk-neutral measure:

    dS_t = (r - q) S_t dt + sqrt(v_t) S_t dW_1
    dv_t = kappa (v_bar - v_t) dt + sigma sqrt(v_t) dW_2,   d<W_1, W_2> = rho dt

Transform convention used throughout this package: for the density f of the
log return z = ln(S_T / S_t),

    fhat(u) = E[exp(-i u z)] = integral f(z) exp(-i u z) dz,

i.e. the *negative*-exponent transform.  Consequences worth remembering:

* fhat(0) = 1 and fhat(i) = exp((r - q) tau)  (martingale identity),
* the conditional transform of y = ln(S_T / K) given x = ln(S_t / K) is
  fhat(u; x) = exp(-i u x) fhat(u).

One closed form is provided, ``chf_cui``: the compact form with simple
parameter derivatives, continuous in u over the full parameter domain, and
the one every pricer evaluates.  The test suite checks it against the
classic branch-cut-free form, which it keeps as an oracle.

The compact form has one evaluation, the stabilized ``chf_cui_parts``;
``chf_cui`` returns its value and ``chf_gradient_from_parts`` the gradient
from its intermediates.  It runs as a core of the terms that depend on u
and theta alone (xi, d, d +- xi) and a tau stage.  A pricer sweeping one
grid passes the grid's parameter-free terms (``chf_grid_terms``) back in as
``grid_terms``.  The broadcast rule: one frequency row swept at a column of
maturities (``u`` the row repeated, ``broadcast_rows``, and ``tau`` of shape
(rows, 1)) computes the core once and broadcasts the tau stage over the
rows, each row bitwise its own one-dimensional sweep.  ``modulus=True``
asks for |fhat| alone, exp(Re log fhat), with no argument or complex
exponential formed.  Both functions split a large sweep into contiguous
chunks, one thread each, with results bitwise those of one chunk.

Gradient ordering: all five-component parameter gradients in this package are
ordered (v0, v_bar, sigma, kappa, rho) -- see ``PARAM_ORDER``.  Note this is
*not* the field order of ``HestonParams``; use ``HestonParams.as_array`` /
``from_array`` instead of hand-rolling conversions.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

# Canonical ordering of the five model parameters in every gradient,
# Jacobian column, bounds vector and calibration step of this package.
PARAM_ORDER = ("v0", "v_bar", "sigma", "kappa", "rho")

# A sweep is split into chunks of at least this many frequencies, so one of
# 8,192 or more splits in two.  Below it, handing a chunk to another thread
# costs more than the thread saves: on 2 vCPUs, two chunks against one read
# 1.12x at 4,096 frequencies and 1.44x at 8,192 for the value alone, 0.77x
# and 1.23x for value plus gradient (fx, per-element tau, alternating medians).
_CHUNK_FLOOR = 4096
# the chf's floating-point errors are tested by _check_finite, not warned of
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")
_pool = None  # executor of the chunk worker threads, made on first use
_pool_lock = threading.Lock()
# a forked child inherits no worker thread, and may inherit the lock held
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        after_in_child=lambda: globals().update(_pool=None, _pool_lock=threading.Lock()))


class ChfOverflowError(ArithmeticError):
    """Characteristic function evaluation left the double-precision range.

    Raised when an evaluation produces non-finite values.  Callers can lower
    the frequency range (smaller quadrature cutoff / wavelet scale).
    """


class ParamOverflowError(ChfOverflowError):
    """The parameters alone leave the double-precision range, at every
    frequency: no smaller frequency range helps."""


@dataclass(frozen=True)
class HestonParams:
    """The five Heston parameters.

    Attributes:
        kappa: mean-reversion rate of the variance, 1/years (> 0).
        v_bar: long-run variance level (> 0).
        sigma: volatility of variance ("vol of vol", > 0).
        rho:   correlation between price and variance shocks, in [-1, 1].
        v0:    initial variance (> 0).
    """

    kappa: float
    v_bar: float
    sigma: float
    rho: float
    v0: float

    def __post_init__(self):
        for name in ("kappa", "v_bar", "sigma", "v0"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not -1.0 <= self.rho <= 1.0:  # NaN fails this too
            raise ValueError(f"rho must be in [-1, 1], got {self.rho}")

    def as_array(self) -> np.ndarray:
        """Parameters as a vector in ``PARAM_ORDER`` = (v0, v_bar, sigma, kappa, rho)."""
        return np.array([self.v0, self.v_bar, self.sigma, self.kappa, self.rho])

    @classmethod
    def from_array(cls, vec) -> "HestonParams":
        """Inverse of :meth:`as_array`."""
        v0, v_bar, sigma, kappa, rho = (float(v) for v in vec)
        return cls(kappa=kappa, v_bar=v_bar, sigma=sigma, rho=rho, v0=v0)


@dataclass(frozen=True)
class MarketContext:
    """Market-side inputs shared by all quotes: spot, rate and dividend yield."""

    spot: float
    rate: float = 0.0
    dividend: float = 0.0

    def __post_init__(self):
        if not 0 < self.spot < math.inf:
            raise ValueError(f"spot must be positive and finite, got {self.spot}")
        if not (math.isfinite(self.rate) and math.isfinite(self.dividend)):
            raise ValueError(f"rate and dividend must be finite, "
                             f"got {self.rate} and {self.dividend}")

    @property
    def drift(self) -> float:
        """Risk-neutral log-return drift rate r - q."""
        return self.rate - self.dividend


def chf_grid_terms(u):
    """Parameter-free frequency terms (u, iu, u^2 - iu) shared by every form."""
    u = np.asarray(u, dtype=np.complex128)
    iu = 1j * u
    return u, iu, u * u - iu


def broadcast_rows(row, count: int) -> np.ndarray:
    """``count`` rows that are all the contiguous one-dimensional ``row``: a
    view, as ``np.broadcast_to`` makes, at a fraction of its per-call cost,
    and read-only when ``row`` is (the stored tables are).  The ``u`` of a
    sweep broadcast over maturities."""
    return np.ndarray((count, row.size), row.dtype, row, 0, (0, row.itemsize))


def _check_finite(values) -> None:
    # elementwise, so +inf beside -inf warns of nothing on its way to the error
    if not np.isfinite(values).all():
        raise ChfOverflowError(
            "characteristic function overflowed double precision; "
            "reduce the frequency range"
        )


def chf_cui(u, tau: float, theta: HestonParams, ctx: MarketContext):
    """Characteristic function of ln(S_T/S_t), compact form.

    Accepts scalar or array ``u`` (real or complex); returns a matching
    complex scalar/array: the value of :func:`chf_cui_parts`.  The
    hyperbolic terms cosh(d tau/2), sinh(d tau/2) of the textbook compact
    form overflow for large Re(d) tau; :func:`chf_cui_parts` factors
    exp(d tau / 2) out of every ratio and keeps the leading exponential in
    log space, which removes the overflow without changing the value.

    Raises:
        ChfOverflowError: if the evaluation produces non-finite values.
    """
    out = chf_cui_parts(u, tau, theta, ctx)[0]
    return out if out.ndim else complex(out)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_edges(length: int, size: int) -> tuple:
    """Edges of the contiguous chunks a sweep of ``size`` values is split
    into along its first axis, of ``length`` frequencies or rows: at most one
    per usable CPU and per row, none below ``_CHUNK_FLOOR`` values."""
    if size < 2 * _CHUNK_FLOOR:
        return 0, length
    count = min(size // _CHUNK_FLOOR, _usable_cpus(), length)
    return tuple(length * i // count for i in range(count + 1))


def _executor() -> ThreadPoolExecutor:
    """The worker threads, made on first use in each process (a forked child
    starts with none)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, _usable_cpus() - 1),
                                       thread_name_prefix="swiftcal-chf")
        return _pool


def _run(lanes) -> list:
    """Results of the lanes' callables, in order.  Each lane runs on one
    thread, the last on the calling thread and the others on the worker
    threads; an exception in any lane is raised here."""
    def run(lane):
        return [task() for task in lane]

    futures = [_executor().submit(run, lane) for lane in lanes[:-1]]
    try:
        last = run(lanes[-1])
    finally:
        wait(futures)
    return [out for f in futures for out in f.result()] + last


def _ndim(tau) -> int:
    """np.ndim(tau), without the microseconds np.ndim takes on a float."""
    return getattr(tau, "ndim", 0)


def _by_row(tau) -> tuple:
    """(tau, whether a sweep at tau broadcasts over rows).  A one-row column
    is swept as its row at a scalar tau, bitwise the same: on small arrays
    numpy's broadcasting costs more per call than one row could save."""
    if _ndim(tau) != 2:
        return tau, False
    return (tau.item(), False) if len(tau) == 1 else (tau, True)


def _at(tau, a: int, b: int):
    """The maturity of frequencies (or rows) a..b-1: a scalar tau, or its slice."""
    return tau[a:b] if _ndim(tau) else tau


def chf_cui_parts(u, tau: float, theta: HestonParams, ctx: MarketContext,
                  grid_terms=None, modulus: bool = False):
    """fhat(u) plus the stabilized intermediates the gradient reuses.

    The one stabilized evaluation of the compact form: every exp(d tau / 2)
    factor is cancelled and log B stays in log space.  It runs in two
    stages: a core of the terms that depend on u and theta alone
    (:func:`_core`), and a tau stage.  ``grid_terms``, the
    :func:`chf_grid_terms` of a one-dimensional ``u``, lets a caller that
    sweeps one grid repeatedly skip recomputing them.  ``tau`` is a scalar
    or, for a one-dimensional ``u``, one maturity per frequency: a sweep over
    several maturities' grids at once equals the per-maturity sweeps bitwise.
    Complex products with a temporary operand are written ``np.multiply``:
    from 256 KiB on, numpy evaluates ``a * (b + c)`` in place with the
    operands swapped, and a complex multiply can round a * b and b * a apart
    in the last bit.

    Broadcast over maturities: a two-dimensional ``u`` whose rows are one
    frequency row, with ``tau`` a column of one maturity per row (shape
    (rows, 1)) and ``grid_terms`` those of the row (by default of ``u[0]``).
    The core is computed once, on the row, and the tau stage broadcasts it
    over the rows; each row is bitwise the one-dimensional sweep of the row
    at its scalar tau.

    ``modulus`` asks for |fhat| alone, as exp(Re log fhat): the stage skips
    q, both arguments and the complex exponential, and returns no
    intermediates.  It is |fhat| to a few units in the last place, not
    bitwise ``np.abs`` of the value.

    A large sweep is evaluated in contiguous chunks, at most one per usable
    CPU and none below ``_CHUNK_FLOOR`` values, split by frequencies, or by
    rows when broadcast: all chunks but the last run on worker threads, the
    last on the calling thread.  Every value is elementwise, so the result
    is bitwise that of one chunk; a small sweep is one chunk through the
    same code.

    Returns (value, parts).  ``value`` has the shape of ``u``; ``parts`` is
    an opaque sequence of per-chunk intermediates, in frequency (or row)
    order, consumed by :func:`chf_gradient_from_parts`; holding on to it
    lets a pricer reuse the transcendental-heavy work of a price evaluation
    when the gradient at the same parameters is requested next (the gradient
    assembly itself is purely rational in these intermediates).  The parts
    of consecutive one-dimensional sweeps, listed one after the other, are
    the parts of their concatenated frequencies.  With ``modulus``, value
    is |fhat| (real) and parts is None.

    Raises:
        ChfOverflowError: if the evaluation produces non-finite values.
    """
    shape = np.shape(u)
    tau, by_row = _by_row(tau)
    if grid_terms is None:
        grid_terms = chf_grid_terms(np.asarray(u)[0] if by_row else np.ravel(u))
    value = np.empty(shape if by_row else grid_terms[0].size,
                     dtype=np.float64 if modulus else np.complex128)
    stage = _modulus_stage if modulus else _value_stage
    core = None
    if by_row:  # one core, shared by every chunk of rows
        with np.errstate(**_QUIET):
            core = _core(grid_terms, theta)

    def chunk(terms, t, out):
        with np.errstate(**_QUIET):
            return stage(core if by_row else _core(terms, theta), t, theta, ctx, out)

    edges = _chunk_edges(len(value), value.size)
    if len(edges) == 2:  # one chunk, on the calling thread
        parts = [chunk(grid_terms, tau, value)]
    else:
        parts = _run([[functools.partial(
            chunk, grid_terms if by_row else [g[a:b] for g in grid_terms],
            _at(tau, a, b), value[a:b])] for a, b in zip(edges, edges[1:])])
    return value.reshape(shape), None if modulus else parts


def _two_kvb(theta: HestonParams) -> float:
    """2 kappa v_bar / sigma^2, the weight of log B in log fhat.

    Raises:
        ParamOverflowError: sigma^2 underflows to zero, or the weight
            overflows, so it has no float value.
    """
    if theta.sigma**2 == 0.0:
        raise ParamOverflowError(f"sigma = {theta.sigma:g} squares to zero in "
                                 "double precision")
    two_kvb = 2.0 * theta.kappa * theta.v_bar / theta.sigma**2
    if not math.isfinite(two_kvb):
        raise ParamOverflowError(
            f"2 kappa v_bar / sigma^2 overflows double precision (kappa = "
            f"{theta.kappa:g}, v_bar = {theta.v_bar:g}, sigma = {theta.sigma:g})")
    return two_kvb


def _core(grid_terms, theta: HestonParams):
    """The tau-free terms of the compact form at a chunk of frequencies, or
    at the row of a broadcast sweep: 2 kappa v_bar / sigma^2, the grid
    terms, xi, d, d + xi, d - xi and d - kappa = sigma rho iu + d - xi.

    log B = log d - log q + (kappa - d) tau/2 keeps exp((kappa - d) tau/2) in
    log space.  With q = d (1 + z), z = (d - xi)(decay - 1)/(2d), and d - xi
    formed as sigma^2 u2 / (d + xi) where d ~ xi, z and kappa - d =
    -(sigma rho iu + d - xi) keep full relative precision.
    """
    u, iu, u2 = grid_terms
    sigma, kappa, rho = theta.sigma, theta.kappa, theta.rho
    two_kvb = _two_kvb(theta)
    sri = iu * (sigma * rho)
    xi = sri + kappa
    s2u2 = sigma**2 * u2
    d = np.sqrt(xi * xi + s2u2)
    dpx = d + xi
    dmx = d - xi
    np.divide(s2u2, dpx, out=dmx, where=d.real * xi.real + d.imag * xi.imag >= 0.0)
    dmk = sri + dmx
    return two_kvb, u, iu, u2, xi, d, dpx, dmx, dmk


def _tau_terms(core, tau, theta: HestonParams):
    """decay = exp(-d tau), v0 A2 exp(-d tau/2), A and log|1 + z|: the
    part of the tau stage the value and the modulus share."""
    _, _, _, u2, xi, d, _, dmx, _ = core
    decay = np.exp(d * -tau)  # |.| <= 1 since Re(d) >= 0
    one_m = 1.0 - decay
    a2 = np.multiply(d, 1.0 + decay)
    a2 += xi * one_m
    a2 *= 0.5  # v0 A2 exp(-d tau/2)
    big_a = u2 * one_m
    big_a *= 0.5 * theta.v0
    big_a /= a2
    z = np.multiply(dmx, one_m)
    z /= -2.0 * d  # (d - xi)(decay - 1)/(2d), signs moved to the divisor
    # the real parts of the logs combine into -log|1 + z| (no branch cut)
    log_abs_1pz = 0.5 * np.log1p(z.real * (z.real + 2.0) + z.imag * z.imag)
    return decay, a2, big_a, log_abs_1pz


def _value_stage(core, tau, theta: HestonParams, ctx: MarketContext, out):
    """The tau stage of :func:`chf_cui_parts`: writes fhat into ``out`` and
    returns the chunk's intermediates."""
    two_kvb, u, iu, u2, xi, d, dpx, dmx, dmk = core
    decay, a2, big_a, log_abs_1pz = _tau_terms(core, tau, theta)
    q = 0.5 * (dpx + dmx * decay)
    # the imaginary parts of the logs stay two arguments, so the branch is
    # that of log d - log q
    big_d = (-0.5 * tau) * dmk
    big_d.real -= log_abs_1pz
    big_d.imag += np.arctan2(d.imag, d.real)
    big_d.imag -= np.arctan2(q.imag, q.real)
    np.multiply(iu, tau * _drift_coef(theta, ctx), out=out)
    out -= big_a
    out += two_kvb * big_d
    np.exp(out, out=out)
    _check_finite(out)
    return u, iu, xi, u2, d, decay, a2, big_a, big_d


def _modulus_stage(core, tau, theta: HestonParams, ctx: MarketContext, out) -> None:
    """The tau stage of :func:`chf_cui_parts` for |fhat| alone: writes
    exp(Re log fhat) into ``out``, the real parts of the value stage's
    log, so no argument and no complex exponential is formed."""
    two_kvb, _, iu, _, _, _, _, _, dmk = core
    _, _, big_a, log_abs_1pz = _tau_terms(core, tau, theta)
    log_b = (-0.5 * tau) * dmk.real  # Re log B
    log_b -= log_abs_1pz
    np.multiply(iu.real, tau * _drift_coef(theta, ctx), out=out)
    out -= big_a.real
    out += two_kvb * log_b
    np.exp(out, out=out)
    _check_finite(out)


def _drift_coef(theta: HestonParams, ctx: MarketContext) -> float:
    """The coefficient of iu tau in log fhat: kappa v_bar rho / sigma - (r - q)."""
    return theta.kappa * theta.v_bar * theta.rho / theta.sigma - ctx.drift


def chf_gradient_from_parts(tau: float, theta: HestonParams, value, parts):
    """Gradient h(u) fhat(u) from a previous :func:`chf_cui_parts` call.

    ``tau`` is the scalar, per-frequency or per-row maturity of that call;
    after a broadcast sweep the tau-free terms (1/d, sigma iu and the
    partials of d) are formed once and broadcast over the rows.

    Rational in the stored intermediates: no square roots, logarithms or
    exponentials are evaluated, which is what makes reusing the price
    evaluation's characteristic values during calibration worthwhile.  The
    divisions share three reciprocals, 1/d, 1/a2 and 1/(sigma iu), and the
    five rows are written into one preallocated array, chunk by chunk of
    ``parts``; the chunks are spread over the same threads as the value's,
    in contiguous runs of about equal size.

    The h components are assembled from the closed-form partials of the
    intermediates (d, A1, A2, A, log B) with every unbounded factor
    exp(d tau / 2) cancelled in ratio form, so the gradient is available in
    exactly the regimes where the stabilized value is.  At u = 0 the
    gradient is identically zero (fhat == 1 for every parameter value) and
    is returned as exact zeros.

    Returns:
        complex array of shape (5,) + value.shape, ordered per ``PARAM_ORDER``.
    """
    tau, by_row = _by_row(tau)
    flat = value if by_row else np.ravel(value)
    grad = np.empty((5,) + flat.shape, dtype=np.complex128)
    if len(parts) == 1:  # one chunk, on the calling thread
        _gradient_chunk(tau, theta, flat, parts[0], grad)
        return grad.reshape((5,) + np.shape(value))
    lanes = len(_chunk_edges(len(flat), flat.size)) - 1
    runs = [[] for _ in range(lanes)]
    start = 0
    for chunk in parts:
        stop = start + len(chunk[-1])  # log B: the chunk's frequencies or rows
        runs[(start + stop) * lanes // (2 * len(flat))].append(functools.partial(
            _gradient_chunk, _at(tau, start, stop), theta, flat[start:stop], chunk,
            grad[:, start:stop]))
        start = stop
    _run([run for run in runs if run])
    return grad.reshape((5,) + np.shape(value))


def _gradient_chunk(tau, theta: HestonParams, value, parts, out) -> None:
    """One chunk of :func:`chf_gradient_from_parts`, written into ``out``."""
    u, iu, xi, u2, d, decay, a2, big_a, big_d = parts
    sigma, kappa, v_bar, v0, rho = (
        theta.sigma, theta.kappa, theta.v_bar, theta.v0, theta.rho)
    two_kvb = _two_kvb(theta)

    zero_mask = (u == 0)
    has_zero = bool(zero_mask.any())
    with np.errstate(**_QUIET):
        if has_zero:
            # guard the divisions below; masked entries are zeroed at the end
            iu = np.where(zero_mask, 1j, iu)
            u2 = np.where(zero_mask, 1.0 + 0.0j, u2)
        inv_d = 1.0 / d
        inv_a2 = 1.0 / a2
        siu = sigma * iu
        inv_siu = 1.0 / siu
        one_p = 1.0 + decay
        w = u2 * one_p * inv_d * inv_a2  # u2 (1 + decay) / (d a2)
        xt = 2.0 + tau * xi

        # Partials w.r.t. rho, all expressed as ratios against a2 so the
        # exp(d tau / 2) factors cancel:
        #   d_drho          = xi sigma iu / d
        #   (dA2/drho)/A2   = sigma iu (2 + xi tau) c_rho / (2 d a2)
        #   (dA1/drho)/A2   = v0 iu u2 tau xi sigma (1+decay) / (4 d a2)
        # with c_rho = (xi (1+decay) + d (1-decay)) / 2.
        d_drho = siu * xi * inv_d
        r2_rho = (0.25 * siu * xt * (xi * one_p + np.multiply(d, 1.0 - decay))
                  * inv_d * inv_a2)
        dA_drho = (0.25 * v0 * tau) * siu * xi * w - big_a * r2_rho

        # Partials w.r.t. sigma (same ratio treatment); the cross term
        # (2 + xi tau) / (v0 tau xi iu) * (dA1/drho)/A2 is sigma (2 + xi tau) w / 4.
        d_dsigma = (rho / sigma) * d_drho + sigma * u2 * inv_d
        r2_sigma = ((rho / sigma) * r2_rho + (0.25 * sigma) * xt * w
                    + (sigma * tau / (2.0 * v0)) * big_a)
        dA_dsigma = ((0.25 * v0 * tau) * u2 * one_p * d_dsigma * inv_a2
                     - big_a * r2_sigma)

        out[0] = (-1.0 / v0) * big_a
        out[1] = (two_kvb / v_bar) * big_d + (kappa * rho * tau / sigma) * iu
        out[2] = ((-kappa * v_bar * rho * tau / sigma**2) * iu - dA_dsigma
                  - (2.0 * two_kvb / sigma) * big_d
                  + two_kvb * (d_dsigma * inv_d - r2_sigma))
        # d/dkappa acts through xi (1/(sigma iu) times the rho-derivative)
        # plus the explicit exp(kappa tau / 2) factor inside log B.
        out[3] = ((v_bar * rho * tau / sigma) * iu
                  - (dA_drho + two_kvb * r2_rho) * inv_siu
                  + (2.0 * v_bar / sigma**2) * big_d
                  + two_kvb * (xi * inv_d * inv_d + 0.5 * tau))
        out[4] = ((kappa * v_bar * tau / sigma) * iu - dA_drho
                  + two_kvb * (d_drho * inv_d - r2_rho))
        out *= value
        if has_zero:
            out[..., zero_mask] = 0.0

    _check_finite(out)


def chf_with_gradient(u, tau: float, theta: HestonParams, ctx: MarketContext):
    """Vectorized fhat(u) and gradient d fhat/d theta = h(u) fhat(u).

    Returns:
        (value, gradient): ``value`` with the shape of ``u``; ``gradient``
        with shape (5,) + u.shape, ordered per ``PARAM_ORDER``.
    """
    value, parts = chf_cui_parts(u, tau, theta, ctx)
    return value, chf_gradient_from_parts(tau, theta, value, parts)


def cumulants(theta: HestonParams, tau: float, ctx: MarketContext):
    """First and second cumulant of z = ln(S_T/S_t).

    With m(s) = E[v_s] = v_bar + (v0 - v_bar) e^{-kappa s} and
    B(s) = (1 - e^{-kappa (tau - s)}) / kappa, the exact moments are

        c1 = (r - q) tau - 1/2 int m
        c2 = int m  -  sigma rho int B m  +  (sigma^2 / 4) int B^2 m,

    (the three variance terms are the martingale part, the leverage
    covariance and the variance of the integrated-variance drift).  All
    integrals are elementary and are written below in decaying exponentials
    so large kappa*tau cannot overflow.  No higher cumulant is computed: the
    truncation rule consuming these values (``swift.truncation_width``) is
    backed by an adaptive density-mass check, which covers heavy tails.
    c2 is clamped at zero as a numerical guard.  A kappa whose square
    underflows gives a non-finite c2, without a warning:
    ``swift.interval_params`` refuses the interval it implies.

    Returns:
        (c1, c2) floats, c2 >= 0.
    """
    kappa, v_bar, sigma, rho, v0 = (
        theta.kappa, theta.v_bar, theta.sigma, theta.rho, theta.v0)
    ekt = np.exp(-kappa * tau)
    ekt2 = np.exp(-2.0 * kappa * tau)
    dv = v0 - v_bar

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        int_m = v_bar * tau + dv * (1.0 - ekt) / kappa
        int_bm = (int_m - v_bar * (1.0 - ekt) / kappa - dv * tau * ekt) / kappa
        int_b2m = (int_m
                   - 2.0 * v_bar * (1.0 - ekt) / kappa
                   - 2.0 * dv * tau * ekt
                   + v_bar * (1.0 - ekt2) / (2.0 * kappa)
                   + dv * (ekt - ekt2) / kappa) / kappa**2

        c1 = ctx.drift * tau - 0.5 * int_m
        c2 = int_m - sigma * rho * int_bm + sigma**2 / 4.0 * int_b2m
    return float(c1), max(float(c2), 0.0)
