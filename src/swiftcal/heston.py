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
from its intermediates.  A pricer sweeping one grid passes the grid's
parameter-free terms (``chf_grid_terms``) back in as ``grid_terms``.  Both
split a large sweep into contiguous chunks, one thread each, with results
bitwise those of one chunk.

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


def _check_finite(values) -> None:
    # a single reduction: any inf/nan poisons the sum
    total = np.asarray(values).sum()
    if not (np.isfinite(total.real) and np.isfinite(total.imag)):
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


def _chunk_edges(n: int) -> tuple:
    """Edges of the contiguous chunks an n-frequency sweep is split into: at
    most one per usable CPU, none below ``_CHUNK_FLOOR``."""
    if n < 2 * _CHUNK_FLOOR:
        return 0, n
    count = min(n // _CHUNK_FLOOR, _usable_cpus())
    return tuple(n * i // count for i in range(count + 1))


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


def _at(tau, a: int, b: int):
    """The maturity of frequencies a..b-1: a scalar tau, or its slice."""
    return tau if np.ndim(tau) == 0 else tau[a:b]


def chf_cui_parts(u, tau: float, theta: HestonParams, ctx: MarketContext,
                  grid_terms=None):
    """fhat(u) plus the stabilized intermediates the gradient reuses.

    The one stabilized evaluation of the compact form: every exp(d tau / 2)
    factor is cancelled and log B stays in log space.  ``grid_terms``, the
    :func:`chf_grid_terms` of a one-dimensional ``u``, lets a caller that
    sweeps one grid repeatedly skip recomputing them.  ``tau`` is a scalar
    or, for a one-dimensional ``u``, one maturity per frequency: a sweep over
    several maturities' grids at once equals the per-maturity sweeps bitwise.
    Complex products with a temporary operand are written ``np.multiply``:
    from 256 KiB on, numpy evaluates ``a * (b + c)`` in place with the
    operands swapped, and a complex multiply can round a * b and b * a apart
    in the last bit.

    A large sweep is evaluated in contiguous chunks, at most one per usable
    CPU and none below ``_CHUNK_FLOOR`` frequencies: all chunks but the last
    run on worker threads, the last on the calling thread.  Every value is
    elementwise, so the result is bitwise that of one chunk; a small sweep
    is one chunk through the same code.

    Returns (value, parts).  ``value`` has the shape of ``u``; ``parts`` is
    an opaque sequence of per-chunk intermediates, in frequency order,
    consumed by :func:`chf_gradient_from_parts`; holding on to it lets a
    pricer reuse the transcendental-heavy work of a price evaluation when
    the gradient at the same parameters is requested next (the gradient
    assembly itself is purely rational in these intermediates).  The parts
    of consecutive sweeps, listed one after the other, are the parts of
    their concatenated frequencies.

    Raises:
        ChfOverflowError: if the evaluation produces non-finite values.
    """
    shape = np.shape(u)
    if grid_terms is None:
        grid_terms = chf_grid_terms(np.ravel(u))
    value = np.empty(grid_terms[0].size, dtype=np.complex128)
    edges = _chunk_edges(value.size)
    if len(edges) == 2:  # one chunk, on the calling thread
        return value.reshape(shape), [_parts_chunk(grid_terms, tau, theta, ctx, value)]
    parts = _run([[functools.partial(_parts_chunk, [g[a:b] for g in grid_terms],
                                     _at(tau, a, b), theta, ctx, value[a:b])]
                  for a, b in zip(edges, edges[1:])])
    return value.reshape(shape), parts


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


def _parts_chunk(grid_terms, tau, theta: HestonParams, ctx: MarketContext, out):
    """One chunk of :func:`chf_cui_parts`: writes fhat into ``out`` and
    returns the chunk's intermediates."""
    u, iu, u2 = grid_terms
    sigma, kappa, v_bar, v0, rho = (
        theta.sigma, theta.kappa, theta.v_bar, theta.v0, theta.rho)
    two_kvb = _two_kvb(theta)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xi = iu * (sigma * rho)
        xi += kappa
        d = np.sqrt(xi * xi + sigma**2 * u2)
        decay = np.exp(d * -tau)  # |.| <= 1 since Re(d) >= 0
        one_m = 1.0 - decay
        a2 = np.multiply(d, 1.0 + decay)
        a2 += xi * one_m
        a2 *= 0.5  # v0 A2 exp(-d tau/2)
        big_a = u2 * one_m
        big_a *= 0.5 * v0
        big_a /= a2
        # log B = log d - log q + (kappa - d) tau/2 keeps exp((kappa - d) tau/2)
        # in log space.  With q = d (1 + z), z = (d - xi)(decay - 1)/(2d), and
        # d - xi formed as sigma^2 u2 / (d + xi) where d ~ xi, z and kappa - d =
        # -(sigma rho iu + d - xi) keep full relative precision.  The real parts
        # of the logs combine into -log|1 + z| (no branch cut); the imaginary
        # parts stay two arguments, so the branch is that of log d - log q.
        dpx = d + xi
        dmx = d - xi
        np.divide(sigma**2 * u2, dpx, out=dmx,
                  where=d.real * xi.real + d.imag * xi.imag >= 0.0)
        q = 0.5 * (dpx + dmx * decay)
        z = np.multiply(dmx, decay - 1.0)
        z /= 2.0 * d
        big_d = (-0.5 * tau) * (iu * (sigma * rho) + dmx)
        big_d.real -= 0.5 * np.log1p(z.real * (z.real + 2.0) + z.imag * z.imag)
        big_d.imag += np.arctan2(d.imag, d.real)
        big_d.imag -= np.arctan2(q.imag, q.real)
        np.multiply(iu, tau * (kappa * v_bar * rho / sigma - ctx.drift), out=out)
        out -= big_a
        out += two_kvb * big_d
        np.exp(out, out=out)
    _check_finite(out)
    return u, iu, xi, u2, d, decay, a2, big_a, big_d


def chf_gradient_from_parts(tau: float, theta: HestonParams, value, parts):
    """Gradient h(u) fhat(u) from a previous :func:`chf_cui_parts` call.

    ``tau`` is the scalar or per-frequency maturity of that call.

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
    flat = np.ravel(value)
    grad = np.empty((5, flat.size), dtype=np.complex128)
    if len(parts) == 1:  # one chunk, on the calling thread
        _gradient_chunk(tau, theta, flat, parts[0], grad)
        return grad.reshape((5,) + np.shape(value))
    lanes = len(_chunk_edges(flat.size)) - 1
    runs = [[] for _ in range(lanes)]
    start = 0
    for chunk in parts:
        stop = start + chunk[0].size
        runs[(start + stop) * lanes // (2 * flat.size)].append(functools.partial(
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
            out[:, zero_mask] = 0.0

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
