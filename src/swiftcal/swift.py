"""Shannon-wavelet Fourier pricing engine with FFT accelerations.

The risk-neutral density of y = ln(S_T/K) given x = ln(S_t/K) is projected
onto the Shannon scaling family phi_{m,k}(y) = 2^{m/2} sinc(2^m y - k) at
scale m, with k truncated to the symmetric range [1 - eta, eta].  Density and
payoff coefficients come from cosine expansions of sinc evaluated at the
half-integer frequencies u_j = pi (2j - 1) / (2J); both reduce to length-2J
DFTs.  A European call is then

    price = K e^{-r tau} sum_k D_{m,k}(x) U_{m,k},

where D are the density coefficients at log-moneyness x = ln(S0/K) and U the
strike-free payoff coefficients.  Equivalently, interchanging the k and j
sums factors the valuation into an x-independent part (reused across all
strikes of one maturity) and J_d phase factors per strike -- the multi-strike
path.  Choosing strikes on the dyadic grid x_k = (2k - J_d)/2^{m+1} turns the
whole strike sweep into one more FFT.

Coordinate convention for the coefficient integrals: the cosine-expansion
frequencies act in the scaled variable z = 2^m y, i.e. the transform of the
payoff is evaluated at omega_j = u_j 2^m.  The prefactor 2^{m/2}/J then makes
the coefficients match the defining inner products <f, phi_{m,k}>,
<g, phi_{m,k}> -- the quadrature oracles in the test suite pin this down.

Puts are priced from calls via put-call parity throughout (exact; no second
payoff expansion is carried).  ``parity_offset`` is the one parity rule of the
package; every pricer adds it to the call price of a put.  The discretization
rule is likewise written once: ``truncation_width`` gives the cumulant
half-width, ``interval_params`` the interval, eta and J it implies, and
``group_by_maturity`` the quote groups that share them.  One plan,
``calibrate.discretization_plan``, applies it to a quote set: per group it
selects the discretization and builds the ``MultiStrikePricer``, which starts
from the selection's sweep.  A calibration backend then joins all its
pricers into one sweep block (``share_sweep``), so each evaluation makes one
chf call, split across threads when large (``heston.chf_cui_parts``).

Selection and pricer builds evaluate only the chf and the payoff transform
point by point.  Grid-only factors come from tables: the twiddles
e^{-i pi k/(2J)} from one cached table per size (``_twiddle_table``), the
shifts e^{-i omega x} from two small ones (``_phase_matrix``), and
``select_scale``'s tail grid and chf grid terms from a cache per scale set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .heston import (
    HestonParams,
    MarketContext,
    chf_cui,
    chf_cui_parts,
    chf_gradient_from_parts,
    chf_grid_terms,
    chf_with_gradient,
    cumulants,
)

__all__ = [
    "OptionQuote", "SwiftParams", "NoConvergenceError", "GridSizeError",
    "group_by_maturity", "parity_offset", "put_offsets", "truncation_width",
    "interval_params", "select_scale", "select_truncation", "density_coefficients",
    "payoff_coefficients", "density_area",
    "price_single", "price_and_gradient_single", "price_multi_strike",
    "price_and_gradient_multi_strike", "price_strike_grid", "MultiStrikePricer",
    "share_sweep",
]

OPTION_KINDS = ("call", "put")
SCALE_TOL = 1e-7  # transform tail mass a selected scale may leave out
MAX_SCALE = 12  # finest wavelet scale: select_scale's last, SwiftParams' limit
MAX_J = 2**20  # largest J_d or J_p a SwiftParams may hold (16 MiB per array)
DEFAULT_L = 10.0  # truncation-width multiplier of the cumulant rule
# Density mass defect select_truncation accepts; strict, since a defect of
# 1e-6 beyond a far right edge can already cost ~1e-5 in price.
_AREA_TOL = 3e-8
_TAIL_QUAD_POINTS = 129  # trapezoid points per scale in _tail_masses


class NoConvergenceError(RuntimeError):
    """Discretization selection could not meet its tolerance."""


class GridSizeError(ValueError):
    """A discretization asks for more than ``MAX_J`` cosine terms."""


@dataclass(frozen=True)
class OptionQuote:
    """One market observation (price is optional for pure pricing).

    kind is "call" or "put".
    """

    strike: float
    maturity: float
    price: Optional[float] = None
    kind: str = "call"

    def __post_init__(self):
        if not 0 < self.strike < math.inf:
            raise ValueError(f"strike must be positive and finite, got {self.strike}")
        if not 0 < self.maturity < math.inf:
            raise ValueError(f"maturity must be positive and finite, got {self.maturity}")
        if self.price is not None and not 0 <= self.price < math.inf:
            raise ValueError(f"price must be nonnegative and finite, got {self.price}")
        if self.kind not in OPTION_KINDS:
            raise ValueError(f"kind must be one of {OPTION_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class SwiftParams:
    """Discretization tuple for the wavelet pricer.

    Attributes:
        m:         wavelet scale (resolution 2^-m in log-moneyness), 0 to
                   ``MAX_SCALE``.
        eta:       series truncation half-width; k runs over [1 - eta, eta].
        j_density: cosine terms J_d for the density coefficients (power of two,
                   more than 2*eta, which is all the density needs).  J_d
                   sets the cost of every characteristic sweep and phase
                   product.
        j_payoff:  cosine terms J_p for the payoff coefficients (power of two,
                   more than 2*eta; selection sizes it by the payoff rule of
                   :func:`_j_for`).  Paid once per pricer build.  Neither J
                   may exceed ``MAX_J``.
        c:         payoff truncation half-width from the cumulant rule.
        x_low:     left end of the extended truncation interval (<= 0).
        x_high:    right end of the extended truncation interval (>= 0).
    """

    m: int
    eta: int
    j_density: int
    j_payoff: int
    c: float
    x_low: float
    x_high: float

    def __post_init__(self):
        if not 0 <= self.m <= MAX_SCALE:
            raise ValueError(f"m must be in [0, {MAX_SCALE}], got {self.m}")
        if self.eta < 1:
            raise ValueError(f"eta must be positive, got {self.eta}")
        for name, j in (("j_density", self.j_density), ("j_payoff", self.j_payoff)):
            if j < 2 or (j & (j - 1)) != 0:
                raise ValueError(f"{name} must be a power of two >= 2, got {j}")
            if j > MAX_J:
                raise GridSizeError(f"{name} = {j}, above MAX_J = {MAX_J}")
            if 2 * self.eta >= j:
                raise ValueError(f"need 2*eta < {name}: eta={self.eta}, {name}={j}")
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not (self.x_low <= 0.0 <= self.x_high):
            raise ValueError(
                f"interval must straddle 0, got [{self.x_low}, {self.x_high}]")

    @property
    def k_range(self) -> np.ndarray:
        """Wavelet indices k = 1 - eta, ..., eta."""
        return np.arange(1 - self.eta, self.eta + 1)

    def density_freqs(self) -> np.ndarray:
        """Scaled density frequencies omega_j = u_j^d 2^m, j = 1..J_d."""
        return _scaled_freqs(self.m, self.j_density)

    def payoff_freqs(self) -> np.ndarray:
        """Scaled payoff frequencies omega_j = u_j^p 2^m, j = 1..J_p."""
        return _scaled_freqs(self.m, self.j_payoff)


@functools.lru_cache(maxsize=32)
def _scaled_freqs(m: int, j_count: int) -> np.ndarray:
    """Read-only pi (2j - 1)/(2J) 2^m, j = 1..J: the grid of a scale and size,
    shared by selection, pricer builds and calibrations that revisit it."""
    j = np.arange(1, j_count + 1)
    omega = np.pi * (2 * j - 1) / (2 * j_count) * 2.0**m
    omega.flags.writeable = False
    return omega


def group_by_maturity(quotes: Sequence[OptionQuote]) -> dict:
    """Quote indices per maturity, {tau: [i, ...]}, in first-seen order."""
    groups: dict = {}
    for i, q in enumerate(quotes):
        groups.setdefault(q.maturity, []).append(i)
    return groups


def parity_offset(ctx: MarketContext, strike, tau: float):
    """Put minus call at one strike and maturity, K e^{-r tau} - S e^{-q tau}.

    Parameter-free, so a put shares its call's parameter gradient.
    """
    return strike * np.exp(-ctx.rate * tau) - ctx.spot * np.exp(-ctx.dividend * tau)


def put_offsets(quotes: Sequence[OptionQuote], ctx: MarketContext) -> np.ndarray:
    """:func:`parity_offset` for every put and 0 for every call, in quote order."""
    return np.array([parity_offset(ctx, q.strike, q.maturity) if q.kind == "put"
                     else 0.0 for q in quotes])


def _cosine_spectrum(values: np.ndarray, j_count: int) -> np.ndarray:
    """2J times the inverse DFT of values zero-extended to length 2J."""
    two_j = 2 * j_count
    buf = np.zeros(two_j, dtype=np.complex128)
    buf[1:j_count + 1] = values
    return np.fft.ifft(buf) * two_j


@functools.lru_cache(maxsize=None)
def _twiddle_table(two_j: int) -> np.ndarray:
    """Read-only e^{-i pi k/two_j}, k = -two_j/2..two_j/2 - 1, built once per
    size by the direct expression, so each entry is bitwise that value."""
    k = np.arange(-(two_j // 2), two_j // 2)
    table = np.exp(-1j * np.pi * k / two_j)
    table.flags.writeable = False
    return table


def _twiddles(two_j: int, eta: int) -> np.ndarray:
    """e^{-i pi k/two_j} for k = 1-eta..eta (2 eta < two_j/2), from the table."""
    half = two_j // 2
    return _twiddle_table(two_j)[half + 1 - eta:half + eta + 1]


def _cosine_at(spectrum: np.ndarray, eta: int) -> np.ndarray:
    """sum_{j=1}^{J} values[j-1] e^{i pi (2j-1) k / (2J)} for k = 1-eta..eta.

    Read from the :func:`_cosine_spectrum` of values: the twiddle
    e^{-i pi k/(2J)} uses the true (possibly negative) k and comes from the
    cached :func:`_twiddle_table`, while the spectrum index wraps mod 2J.
    """
    two_j = spectrum.size
    wrapped = np.concatenate((spectrum[two_j + 1 - eta:], spectrum[:eta + 1]))
    return _twiddles(two_j, eta) * wrapped


@functools.lru_cache(maxsize=None)
def _tail_grid(scales: tuple):
    """(nodes, spacing, chf grid terms) of :func:`_tail_masses` at these
    scales: the nodes flat, the spacing one row per scale; read-only."""
    lo = 2.0**np.array(scales) * np.pi
    u = np.linspace(lo, 4.0 * lo, _TAIL_QUAD_POINTS, axis=1)
    grid = (u.ravel(), np.diff(u, axis=1), chf_grid_terms(u.ravel()))
    for a in (*grid[:2], *grid[2]):
        a.flags.writeable = False
    return grid


def _tail_masses(theta: HestonParams, tau: float, ctx: MarketContext,
                 scales: np.ndarray) -> np.ndarray:
    """Two-sided transform mass beyond |u| = 2^m pi for each m in scales.

    Integrates |fhat| over [2^m pi, 2^{m+2} pi] by the trapezoidal rule (the
    continuation beyond two octaves is negligible whenever the result is
    anywhere near tolerance) and doubles it via Hermitian symmetry,
    normalized by 1/(2 pi).  All scales share one characteristic sweep, on a
    grid cached per scale set; the trapezoid is numpy's, term for term.
    """
    u, d, terms = _tail_grid(tuple(np.asarray(scales).tolist()))
    vals = np.abs(chf_cui_parts(u, tau, theta, ctx, terms)[0]).reshape(d.shape[0], -1)
    return (d * (vals[:, 1:] + vals[:, :-1]) / 2.0).sum(axis=1) / np.pi


def select_scale(theta: HestonParams, tau: float, ctx: MarketContext,
                 tol: float = SCALE_TOL) -> int:
    """Smallest scale m whose estimated projection-error bound is within tol:
    the one rule that chooses m.

    Every pricing and calibration path selects at the default ``SCALE_TOL``.

    Raises:
        NoConvergenceError: no scale up to ``MAX_SCALE`` meets ``tol``.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    passed = np.flatnonzero(_tail_masses(theta, tau, ctx,
                                         np.arange(MAX_SCALE + 1)) <= tol)
    if passed.size:
        return int(passed[0])
    raise NoConvergenceError(
        f"transform tail mass still above {tol} at scale {MAX_SCALE}")


def _next_pow2(n: float) -> int:
    return 1 << max(1, math.ceil(math.log2(max(n, 2.0))))


def _j_for(m: int, eta: int, span: float) -> int:
    """Payoff J_p: smallest power of two with 2*eta < J and
    J >= pi/2 (2^m span + eta), the SWIFT rule for a payoff that jumps at the
    interval edge."""
    j = _next_pow2((np.pi / 2.0) * (2.0**m * span + eta))
    while j <= 2 * eta:
        j *= 2
    return j


def truncation_width(theta: HestonParams, tau: float, ctx: MarketContext,
                     L: float) -> float:
    """Cumulant half-width c = |c1| + L sqrt(c2) of the truncation rule."""
    if not 0.0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L}")
    c1, c2 = cumulants(theta, tau, ctx)
    return abs(c1) + L * math.sqrt(c2)


def interval_params(m: int, c: float, x_min: float, x_max: float,
                    eta: Optional[int] = None) -> SwiftParams:
    """Discretization at scale m for log-moneyness in [x_min, x_max].

    The interval is [x_min - c, x_max + c] clamped to straddle 0 (the payoff
    kink must stay inside the expansion window).  eta defaults to the
    smallest half-width covering it at scale m; ``generate --grid`` passes
    the half-width its grid fixes.  J_d is the smallest power of two above
    2 eta (the density coefficients need only that many distinct cosine
    terms) and J_p comes from :func:`_j_for` (the payoff jumps at x_high, so
    its expansion needs the finer grid).
    """
    x_low = min(x_min - c, 0.0)
    x_high = max(x_max + c, 0.0)
    span = max(abs(x_low), x_high)
    if eta is None:
        eta = max(1, math.ceil(2.0**m * span))
    return SwiftParams(m=m, eta=eta, j_density=_next_pow2(2 * eta + 1),
                       j_payoff=_j_for(m, eta, span), c=c, x_low=x_low,
                       x_high=x_high)


def select_truncation(theta: HestonParams, tau: float, ctx: MarketContext,
                      m: int, strikes: Sequence[float], L: float = DEFAULT_L,
                      sweep_out: Optional[list] = None) -> SwiftParams:
    """Pick (eta, J_d, J_p, interval) at scale m for a strike set at maturity tau.

    The half-width c starts from :func:`truncation_width`; the interval is
    the per-strike log-moneyness range extended by c on both sides, with eta,
    J_d and J_p from :func:`interval_params` (J_d just above 2 eta, J_p by
    the payoff rule).  The recovered density mass is checked at the extreme
    log-moneyness values, from the same J_d coefficients pricing uses, so a
    grid too coarse for the density fails the check.  On failure the
    interval -- and eta with it -- is grown geometrically (heavy-tailed
    parameter sets leak mass past the cumulant interval, and what leaks past
    the right edge gets amplified by the call payoff), up to 12 steps.  The
    scale stays m: :func:`select_scale` alone chooses it.  The mass defect
    accepted is the fixed ``_AREA_TOL``; L defaults to ``DEFAULT_L``.

    Growth steps often keep J_d, which with m alone fixes the chf sweep and
    the density spectra at x_min and x_max: each is computed once per grid
    and re-read at every step's wavelet indices.  Growth never returns to an
    earlier grid, so only the current one is kept.  Only the chf is
    evaluated per point: the edge shifts e^{-i omega x} come from the
    pricer's two small phase tables (:func:`_phase_matrix`) and the
    twiddles from the cached :func:`_twiddle_table`.

    Given a list as ``sweep_out``, selection appends the accepted grid's
    sweep at ``theta``; handed to :func:`share_sweep` with the pricer built
    for the result, it is that pricer's first sweep.

    Raises:
        NoConvergenceError: the mass check still fails after 12 growth
            steps, or the interval needs a grid above ``MAX_J`` at scale m.
    """
    strikes = np.asarray(strikes, dtype=float)
    if strikes.size == 0:
        raise ValueError("strikes must be nonempty")
    c = truncation_width(theta, tau, ctx, L)
    x = np.log(ctx.spot / strikes)
    x_min, x_max = float(x.min()), float(x.max())

    edges = np.unique([x_min, x_max])  # one spectrum per distinct edge
    j_d = None  # J_d of the current sweep; spectra: its {edge: density spectrum}
    for _ in range(12):
        try:
            sp = interval_params(m, c, x_min, x_max)
        except GridSizeError as exc:  # refused before any grid is built
            raise NoConvergenceError(
                f"the interval at scale {m} needs {exc} (tau={tau})") from None
        if sp.j_density != j_d:
            j_d, spectra = sp.j_density, {}
            sweep = _ChfSweep(sp.density_freqs(), tau, ctx)
            f_vals = sweep.parts(theta)[0]
            shifts = _phase_matrix(edges, m, j_d)
        for e in (0, edges.size - 1):
            if e not in spectra:
                spectra[e] = _cosine_spectrum(f_vals * shifts[e], j_d)
            density = _density_at(spectra[e], sp)
            if abs(density_area(density, sp) - 1.0) > _AREA_TOL:
                break
        else:
            if sweep_out is not None:
                sweep_out.append(sweep)
            return sp
        c *= 1.25
    raise NoConvergenceError(
        f"density mass check failed at scale {m} after 12 growth steps "
        f"(tau={tau}, strikes in [{strikes.min():.4g}, {strikes.max():.4g}])")


def _density_at(spectrum: np.ndarray, sp: SwiftParams) -> np.ndarray:
    """D_{m,k}, k = 1-eta..eta, from the cosine spectrum of fhat e^{-i omega x}."""
    return 2.0**(sp.m / 2.0) / sp.j_density * _cosine_at(spectrum, sp.eta).real


def density_coefficients(theta: HestonParams, tau: float, ctx: MarketContext,
                         x: float, sp: SwiftParams) -> np.ndarray:
    """Density coefficients D_{m,k}(x), k = 1-eta..eta, via one length-2J_d FFT.

    D_{m,k}(x) = (2^{m/2}/J_d) sum_j Re( fhat(u_j 2^m) e^{-i u_j 2^m x} e^{i k u_j} ).
    """
    omega = sp.density_freqs()
    values = chf_cui(omega, tau, theta, ctx) * np.exp(-1j * omega * x)
    return _density_at(_cosine_spectrum(values, sp.j_density), sp)


def _payoff_transform(sp: SwiftParams, omega: np.ndarray) -> np.ndarray:
    """integral over [0, x_high] of (e^y - 1) e^{-i omega y} dy, closed form."""
    iw = 1j * omega
    phase = np.exp(-iw * sp.x_high)
    return (np.exp(sp.x_high) * phase - 1.0) / (1.0 - iw) + (phase - 1.0) / iw


def payoff_coefficients(sp: SwiftParams, kind: str = "call") -> np.ndarray:
    """Payoff coefficients U_{m,k}, k = 1-eta..eta, via one length-2J_p FFT.

    The call payoff vanishes on y <= 0, so the closed-form antiderivative is
    taken over [0, x_high].  Only calls carry an expansion; puts are priced
    via parity, so asking for put coefficients is an error by design.
    """
    if kind != "call":
        raise ValueError(
            f"payoff expansion only exists for calls (got {kind!r}); "
            "puts are priced via put-call parity")
    if sp.x_high == 0.0:
        return np.zeros(2 * sp.eta)
    values = _payoff_transform(sp, sp.payoff_freqs())
    coeff = _cosine_at(_cosine_spectrum(values, sp.j_payoff), sp.eta)
    return 2.0**(sp.m / 2.0) / sp.j_payoff * coeff.real


def density_area(density: np.ndarray, sp: SwiftParams) -> float:
    """Trapezoidal mass of the recovered density over the wavelet range.

    2^{-m/2} (D_{1-eta}/2 + sum_{k=2-eta}^{eta-1} D_k + D_eta/2); close to 1
    when the interval and eta capture the distribution.
    """
    d = np.asarray(density, dtype=float)
    if d.size == 0:
        return 0.0
    interior = d[1:-1].sum() if d.size > 2 else 0.0
    return float(2.0**(-sp.m / 2.0) * (0.5 * d[0] + interior + 0.5 * d[-1]))


def _u_tilde(payoff: np.ndarray, sp: SwiftParams) -> np.ndarray:
    """U-tilde_j = sum_k U_{m,k} e^{i u_j^d k}, j = 1..J_d, by one FFT."""
    two_j, eta = 2 * sp.j_density, sp.eta
    terms = payoff * _twiddles(two_j, eta)
    buf = np.zeros(two_j, dtype=np.complex128)
    buf[:eta + 1] = terms[eta - 1:]
    buf[two_j + 1 - eta:] = terms[:eta - 1]
    spectrum = np.fft.ifft(buf) * two_j
    return spectrum[1:sp.j_density + 1]


def _phase_matrix(x: np.ndarray, m: int, j_d: int) -> np.ndarray:
    """e^{-i x_s omega_j}, one row per log-moneyness x_s, j = 1..J_d at scale m.

    Built from two small tables: omega_j = omega_1 + (j - 1) delta is an
    arithmetic progression, so with j - 1 = a B + b (B = 64) each entry is
    e^{-i x (omega_1 + a B delta)} times e^{-i x b delta}, n (J_d/B + B)
    complex exponentials instead of n J_d.
    """
    b = min(64, j_d)
    delta = np.pi * 2.0**m / j_d
    coarse = np.exp(-1j * np.outer(x, delta / 2.0 + delta * b * np.arange(j_d // b)))
    fine = np.exp(-1j * np.outer(x, delta * np.arange(b)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(x), j_d)


def _expand_single(ctx: MarketContext, quote: OptionQuote, sp: SwiftParams, sweep):
    """(price, gradient or None) of one quote by the per-strike expansion.

    ``sweep(omega, tau)`` returns fhat(omega) and its gradient or None.  Each
    transform row gets one density FFT against the payoff coefficients;
    parity goes to the price row alone.
    """
    omega = sp.density_freqs()
    value, grad = sweep(omega, quote.maturity)
    shift = np.exp(-1j * omega * math.log(ctx.spot / quote.strike))
    payoff = payoff_coefficients(sp)
    scale = quote.strike * math.exp(-ctx.rate * quote.maturity)
    rows = [value] if grad is None else [value, *grad]
    out = [scale * float(_density_at(_cosine_spectrum(row * shift, sp.j_density), sp)
                         @ payoff) for row in rows]
    if quote.kind == "put":
        out[0] += parity_offset(ctx, quote.strike, quote.maturity)
    return out[0], (None if grad is None else np.array(out[1:]))


def price_single(theta: HestonParams, ctx: MarketContext, quote: OptionQuote,
                 sp: SwiftParams) -> float:
    """Single-quote price through the per-strike density expansion."""
    return _expand_single(ctx, quote, sp,
                          lambda omega, tau: (chf_cui(omega, tau, theta, ctx), None))[0]


def price_and_gradient_single(theta: HestonParams, ctx: MarketContext,
                              quote: OptionQuote, sp: SwiftParams):
    """Price and parameter gradient through the per-strike expansion.

    Recomputes density, payoff and the five parameter-partial density
    coefficient vectors from scratch (seven FFTs); this is deliberately the
    no-reuse formulation -- the multi-strike path exists precisely to beat it.
    """
    return _expand_single(ctx, quote, sp,
                          lambda omega, tau: chf_with_gradient(omega, tau, theta, ctx))


def price_multi_strike(theta: HestonParams, ctx: MarketContext, tau: float,
                       strikes, sp: SwiftParams) -> np.ndarray:
    """Call prices for many strikes of one maturity, sharing F_j and U-tilde.

    One-shot use of :class:`MultiStrikePricer`.
    """
    return MultiStrikePricer(ctx, tau, strikes, sp).prices(theta)


def price_and_gradient_multi_strike(theta: HestonParams, ctx: MarketContext,
                                    tau: float, strikes, sp: SwiftParams):
    """Prices and the n x 5 Jacobian in one shared-factor pass.

    One-shot use of :meth:`MultiStrikePricer.prices_and_jacobian`.
    """
    return MultiStrikePricer(ctx, tau, strikes, sp).prices_and_jacobian(theta)


def price_strike_grid(theta: HestonParams, ctx: MarketContext, tau: float,
                      sp: SwiftParams):
    """Call prices at the J_d dyadic grid points x_k = (2k - J_d)/2^{m+1}.

    One length-2J_d FFT prices the whole grid.  Accuracy holds for grid
    points inside [x_low, x_high]; points beyond the truncation interval are
    returned but carry no coverage guarantee.

    Returns:
        (x_grid, prices): parallel arrays of length J_d; the strike behind
        x is ctx.spot * exp(-x).
    """
    payoff = payoff_coefficients(sp)
    ut = _u_tilde(payoff, sp)
    omega = sp.density_freqs()
    f_vals = chf_cui(omega, tau, theta, ctx)

    j_d = sp.j_density
    j = np.arange(1, j_d + 1)
    buf = np.zeros(2 * j_d, dtype=np.complex128)
    # e^{-i u_j 2^m x_k} = e^{i pi k/(2J_d)} e^{-2 pi i j k/(2J_d)} e^{i pi (2j-1)/4}
    buf[1:j_d + 1] = f_vals * ut * np.exp(1j * np.pi * (2 * j - 1) / 4.0)
    spectrum = np.fft.fft(buf)

    k = np.arange(j_d)
    vals = (np.exp(1j * np.pi * k / (2 * j_d)) * spectrum[:j_d]).real
    x_grid = (2.0 * k - j_d) / 2.0**(sp.m + 1)
    strikes = ctx.spot * np.exp(-x_grid)
    prices = strikes * math.exp(-ctx.rate * tau) * (2.0**(sp.m / 2.0) / j_d) * vals
    return x_grid, prices


class MultiStrikePricer:
    """Multi-strike evaluator for one maturity; the package's multi-strike kernel.

    The call price at strike K_s, x_s = ln(S0/K_s), is

        K_s e^{-r tau} (2^{m/2}/J_d) Re sum_j e^{-i x_s omega_j} F_j U-tilde_j

    with F_j = fhat(omega_j) and U-tilde the payoff spectrum: one
    characteristic sweep serves every strike, and the Jacobian swaps F_j for
    the partials h_i F_j, a six-column instead of a one-column product.

    Construction freezes the discretization and precomputes U-tilde and the
    phase matrix of :func:`_phase_matrix` (the sweep forms the chf grid terms
    on its first evaluation).  Only the real part of the phase product is
    needed, Re(P c) = Re(P) Re(c) - Im(P) Im(c), so the pricer keeps conj(P)
    as an n x 2J_d real matrix, ``real_phases``, whose product with c viewed
    as interleaved reals is that sum: half the flops of the complex product.
    Repeated evaluation -- the inner loop of calibration -- costs one
    characteristic sweep plus a matrix product, and the intermediates of the
    last sweep are kept so that a gradient request at the same parameters
    (accept, then linearize) reuses them.

    The sweep is the pricer's own unless :func:`share_sweep` has attached
    it to a block of several pricers; the pricer then reads its slice of the
    block's sweep, bitwise its own (see
    :func:`~swiftcal.heston.chf_cui_parts`).  :func:`share_sweep` can also
    start a pricer or a block from the sweeps :func:`select_truncation` made
    of their grids, so an evaluation at the selection's parameters sweeps
    nothing.
    """

    def __init__(self, ctx: MarketContext, tau: float, strikes, sp: SwiftParams):
        self.ctx = ctx
        self.tau = float(tau)
        self.strikes = np.asarray(strikes, dtype=float)
        self.sp = sp
        self.payoff = payoff_coefficients(sp)
        self.u_tilde = _u_tilde(self.payoff, sp)
        self.omega = sp.density_freqs()
        self._sweep = _ChfSweep(self.omega, self.tau, ctx)
        self._cols = slice(0, sp.j_density)  # this pricer's part of the sweep
        # conj(e^{-i x omega}) is e^{-i (-x) omega} bit for bit: no conj pass
        self.real_phases = _phase_matrix(-np.log(ctx.spot / self.strikes), sp.m,
                                         sp.j_density).view(np.float64)
        self._scale = (self.strikes * math.exp(-ctx.rate * self.tau)
                       * 2.0**(sp.m / 2.0) / sp.j_density)

    def prices(self, theta: HestonParams) -> np.ndarray:
        f_vals = self._sweep.parts(theta)[0][self._cols]
        return self._scale * (self.real_phases
                              @ (f_vals * self.u_tilde).view(np.float64))

    def prices_and_jacobian(self, theta: HestonParams):
        value, grad = self._sweep.value_and_gradient(theta)
        cols = np.empty((6, self.sp.j_density), dtype=np.complex128)
        np.multiply(value[self._cols], self.u_tilde, out=cols[0])
        np.multiply(grad[:, self._cols], self.u_tilde, out=cols[1:])
        out = self.real_phases @ cols.view(np.float64).T
        return self._scale * out[:, 0], self._scale[:, None] * out[:, 1:]


class _ChfSweep:
    """The characteristic sweep of one pricer, or of a block of several.

    A block sweeps the members' concatenated frequencies with a per-element
    tau, in one :func:`~swiftcal.heston.chf_cui_parts` call that splits a
    large sweep across threads.  The value, intermediates and gradient at
    the last parameters asked for are kept, and recomputed only when the
    parameters change; the gradient is assembled on the first request for
    it at those parameters.  :func:`select_truncation` evaluates each grid
    through one, and :func:`share_sweep` starts a pricer or block from the
    sweeps of the grids selection accepted.  Grid terms are formed on the
    first evaluation, so a sweep replaced before then costs nothing.
    """

    def __init__(self, omega, tau, ctx: MarketContext):
        self.omega, self.tau, self.ctx = omega, tau, ctx
        self._grid_terms = None
        self._key = None
        self._parts = None
        self._grad = None

    def parts(self, theta: HestonParams):
        key = theta.as_array().tobytes()
        if key != self._key:
            if self._grid_terms is None:
                self._grid_terms = chf_grid_terms(self.omega)
            self._parts = chf_cui_parts(self.omega, self.tau, theta, self.ctx,
                                        self._grid_terms)
            self._key = key
            self._grad = None
        return self._parts

    def value_and_gradient(self, theta: HestonParams):
        value, parts = self.parts(theta)
        if self._grad is None:
            self._grad = chf_gradient_from_parts(self.tau, theta, value, parts)
        return value, self._grad


def share_sweep(pricers: Sequence[MultiStrikePricer], sweeps=None) -> None:
    """Let pricers share one characteristic sweep, a block.

    The block sweeps the members' concatenated frequencies with a
    per-element tau, so it costs one chf call and one gradient call per
    evaluation where its members cost one each, and a large block is split
    across threads (:func:`~swiftcal.heston.chf_cui_parts`).  It is swept
    when a member asks at new parameters, and its gradient, once assembled,
    serves every member until the parameters change.  The pricers must
    share one market context.

    The block starts from ``sweeps``, one per pricer, by default the
    members' own: sweeps of the members' grids at one parameter vector,
    such as the ones :func:`select_truncation` made, or sweeps not yet
    evaluated, which start it empty.  A lone member takes its sweep as it
    is; several have their values concatenated and their intermediates
    listed, not copied, so an evaluation at those parameters sweeps nothing.
    """
    if len({p.ctx for p in pricers}) > 1:
        raise ValueError("pricers sharing a sweep must share one market context")
    if sweeps is None:
        sweeps = [p._sweep for p in pricers]
    # a density grid is fixed by its size and first frequency
    if len(sweeps) != len(pricers) or any(
            s.ctx != p.ctx or s.omega.size != p.omega.size
            or s.omega[0] != p.omega[0] or np.any(s.tau != p.tau)
            for p, s in zip(pricers, sweeps)):
        raise ValueError("a pricer starts only from a sweep of its own grid")
    if len({s._key for s in sweeps}) > 1:
        raise ValueError("a block starts from sweeps at one parameter vector")
    if len(pricers) < 2:
        for p, s in zip(pricers, sweeps):
            p._sweep = s
        return
    block = _ChfSweep(
        np.concatenate([p.omega for p in pricers]),
        np.repeat([p.tau for p in pricers], [p.sp.j_density for p in pricers]),
        pricers[0].ctx)
    if sweeps[0]._key is not None:
        block._key, block._parts = sweeps[0]._key, (
            np.concatenate([s._parts[0] for s in sweeps]),
            [chunk for s in sweeps for chunk in s._parts[1]])
    start = 0
    for p in pricers:
        p._sweep, p._cols = block, slice(start, start + p.sp.j_density)
        start += p.sp.j_density
