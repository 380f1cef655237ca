"""Shannon-wavelet Fourier pricing engine with FFT accelerations.

The risk-neutral density of y = ln(S_T/K) given x = ln(S_t/K) is projected
onto the Shannon scaling family phi_{m,k}(y) = 2^{m/2} sinc(2^m y - k) at
scale m, with k truncated to the symmetric range [1 - eta, eta].  Density and
payoff coefficients come from cosine expansions of sinc evaluated at the
half-integer frequencies u_j = pi (2j - 1) / (2J_d) of one grid, J_d the
power of two just above 2 eta; both reduce to length-2J_d DFTs.  One grid
serves both because the payoff window [0, x_high] lies inside the wavelet
range, x_high <= eta/2^m.  A European call is then

    price = K e^{-r tau} sum_k D_{m,k}(x) U_{m,k},

where D are the density coefficients at log-moneyness x = ln(S0/K) and U the
strike-free payoff coefficients.  Interchanging the k and j sums factors
the valuation into an x-independent part (reused across all strikes of one
maturity) and J_d phase factors per strike: ``MultiStrikePricer``, the
kernel every quote is priced through, a lone quote included (the per-strike
sum above is kept only as a test oracle).  Choosing strikes on the dyadic
grid x_k = (2k - J_d)/2^{m+1} turns the whole strike sweep into one more FFT.

Coordinate convention for the coefficient integrals: the cosine-expansion
frequencies act in the scaled variable z = 2^m y, i.e. the transform of the
payoff is evaluated at omega_j = u_j 2^m.  The prefactor 2^{m/2}/J then makes
the coefficients match the defining inner products <f, phi_{m,k}>,
<g, phi_{m,k}> -- the quadrature oracles in the test suite pin this down.

Puts are priced from calls via put-call parity throughout (exact; no second
payoff expansion is carried).  ``parity_offset`` is the one parity rule of the
package; every pricer adds it to the call price of a put.  The discretization
rule is likewise written once: ``truncation_width`` gives the cumulant
half-width, ``interval_params`` the eta, J_d and x_high it implies, and
``group_by_maturity`` the quote groups that share them.  One plan,
``calibrate.discretization_plan``, applies it to a quote set, grouped by
maturity or one group per quote: one ``select_groups`` call selects every
group's discretization together (the scale rule's tail sweep in ascending
stages of scales, each over the maturities no earlier stage resolved, one
stored stage grid broadcast over them, then one sweep block per growth
round, each decision the one ``select_scale`` and
``select_truncation`` make for the group alone), and the plan builds each
group's ``MultiStrikePricer``, which starts from its slice of the block
that swept its grid.  A calibration backend then joins all its
pricers into one sweep block (``share_sweep``), so each evaluation makes one
chf call, split across threads when large (``heston.chf_cui_parts``).

Selection and pricer builds evaluate only the chf and the payoff transform
point by point.  Grid-only factors come from one store of tables held to
64 MiB in all (``_stored``): the frequency grids (``_scaled_freqs``), the
twiddles e^{-i pi k/(2J)} (``_twiddle_table``), the phase tables e^{-i x
omega} of growth edges and pricer strikes (``_phase_matrix``), the scale
rule's tail grids (``_tail_grid``, one per stage of scales) and the
reference's node tables (``_grid``).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .heston import (
    HestonParams,
    MarketContext,
    broadcast_rows,
    chf_cui_parts,
    chf_gradient_from_parts,
    chf_grid_terms,
    cumulants,
)

__all__ = [
    "OptionQuote", "SwiftParams", "NoConvergenceError",
    "group_by_maturity", "parity_offset", "put_offsets", "truncation_width",
    "interval_params", "select_scale", "select_truncation", "select_groups",
    "payoff_coefficients", "density_area", "price_multi_strike",
    "MultiStrikePricer", "share_sweep",
]

OPTION_KINDS = ("call", "put")
SCALE_TOL = 1e-7  # transform tail mass a selected scale may leave out
MAX_SCALE = 12  # finest wavelet scale: select_scale's last, SwiftParams' limit
MAX_J = 2**20  # largest J_d a SwiftParams may hold (16 MiB per array)
DEFAULT_L = 10.0  # truncation-width multiplier of the cumulant rule
# Density mass defect select_truncation accepts; strict, since a defect of
# 1e-6 beyond a far right edge can already cost ~1e-5 in price.
_AREA_TOL = 3e-8
_TAIL_QUAD_POINTS = 129  # trapezoid points per scale in _tail_masses
# Scale rows _scales sweeps per stage, ascending: at the selected scales most
# maturities resolve in the first, and each later stage sweeps only those
# still above tolerance.
_TAIL_STAGES = ((0, 7), (7, 10), (10, MAX_SCALE + 1))
_TABLE_BUDGET = 64 * 2**20  # bytes of parameter-free tables the store may hold
_tables: dict = {}  # (builder, arguments) -> table, oldest insert first
_tables_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child may inherit the lock held
    os.register_at_fork(
        after_in_child=lambda: globals().update(_tables_lock=threading.Lock()))


def _nbytes(table) -> int:
    return sum(a.nbytes for a in (table if isinstance(table, tuple) else (table,)))


def _stored(build):
    """Decorator: keep the array or flat tuple of arrays ``build(*args)``
    returns read-only in ``_tables``, the one store of parameter-free
    tables, keyed by (build, args), never by model parameters.  The store
    holds at most ``_TABLE_BUDGET`` bytes, oldest inserts out first; a larger
    table is returned and not kept.  Reads take no lock (``dict.get`` is
    atomic); concurrent builders of one key get the table stored first."""
    @functools.wraps(build)
    def table(*args):
        key = (build, args)
        got = _tables.get(key)
        if got is not None:
            return got
        got = build(*args)
        for a in got if isinstance(got, tuple) else (got,):
            a.flags.writeable = False
        if _nbytes(got) > _TABLE_BUDGET:
            return got
        with _tables_lock:
            got = _tables.setdefault(key, got)
            held = sum(map(_nbytes, _tables.values()))
            while held > _TABLE_BUDGET:
                held -= _nbytes(_tables.pop(next(iter(_tables))))
        return got
    return table


class NoConvergenceError(RuntimeError):
    """A discretization could not meet its tolerance or resolve a price."""


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
        eta:       series truncation half-width; k runs over [1 - eta, eta],
                   so the wavelet range is [(1 - eta)/2^m, eta/2^m].
        j_density: cosine terms J_d of the one frequency grid (power of two,
                   more than 2*eta, at most ``MAX_J``).  It sizes both the
                   density and the payoff expansion, and sets the cost of
                   every characteristic sweep and phase product.
        x_high:    the call payoff is expanded over [0, x_high].  The window
                   lies inside the wavelet range, 0 <= x_high <= eta/2^m,
                   the invariant under which J_d terms resolve the payoff as
                   well as the density (past it, the payoff needs more).
    """

    m: int
    eta: int
    j_density: int
    x_high: float

    def __post_init__(self):
        _check_scale(self.m)
        if self.eta < 1:
            raise ValueError(f"eta must be positive, got {self.eta}")
        j = self.j_density
        if j < 2 or (j & (j - 1)) != 0:
            raise ValueError(f"j_density must be a power of two >= 2, got {j}")
        if j > MAX_J:
            raise ValueError(f"j_density = {j}, above MAX_J = {MAX_J}")
        if 2 * self.eta >= j:
            raise ValueError(f"need 2*eta < j_density: eta={self.eta}, j_density={j}")
        if not 0.0 <= self.x_high <= self.eta / 2.0**self.m:
            raise ValueError(f"x_high must be nonnegative and at most eta/2^m = "
                             f"{self.eta / 2.0**self.m}, got {self.x_high}")

    @property
    def k_range(self) -> np.ndarray:
        """Wavelet indices k = 1 - eta, ..., eta."""
        return np.arange(1 - self.eta, self.eta + 1)

    def density_freqs(self) -> np.ndarray:
        """Scaled frequencies omega_j = u_j 2^m, j = 1..J_d, of both expansions."""
        return _scaled_freqs(self.m, self.j_density)


def _check_scale(m: int) -> None:
    if not 0 <= m <= MAX_SCALE:
        raise ValueError(f"m must be in [0, {MAX_SCALE}], got {m}")


@_stored
def _scaled_freqs(m: int, j_count: int) -> np.ndarray:
    """pi (2j - 1)/(2J) 2^m, j = 1..J: the grid of a scale and size, shared
    by selection, pricer builds and calibrations that revisit it."""
    j = np.arange(1, j_count + 1)
    return np.pi * (2 * j - 1) / (2 * j_count) * 2.0**m


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
    # bitwise ifft(buf) * two_j only as two_j is a power of two (barring subnormals)
    return np.fft.ifft(buf, norm="forward")


@_stored
def _twiddle_table(two_j: int) -> np.ndarray:
    """e^{-i pi k/two_j}, k = -two_j/2..two_j/2 - 1, built once per size by
    the direct expression, so each entry is bitwise that value."""
    k = np.arange(-(two_j // 2), two_j // 2)
    return np.exp(-1j * np.pi * k / two_j)


def _twiddles(two_j: int, eta: int) -> np.ndarray:
    """e^{-i pi k/two_j} for k = 1-eta..eta (2 eta < two_j/2), from the table."""
    half = two_j // 2
    return _twiddle_table(two_j)[half + 1 - eta:half + eta + 1]


def _cosine_at(spectrum: np.ndarray, eta: int) -> np.ndarray:
    """sum_{j=1}^{J} values[j-1] e^{i pi (2j-1) k / (2J)} for k = 1-eta..eta.

    Read from the :func:`_cosine_spectrum` of values: the twiddle
    e^{-i pi k/(2J)} uses the true (possibly negative) k and comes from the
    stored :func:`_twiddle_table`, while the spectrum index wraps mod 2J.
    """
    two_j = spectrum.size
    wrapped = np.concatenate((spectrum[two_j + 1 - eta:], spectrum[:eta + 1]))
    return _twiddles(two_j, eta) * wrapped


@_stored
def _tail_grid(first: int, stop: int):
    """(nodes, spacing, *chf grid terms) of :func:`_tail_masses` at scales
    first to stop - 1: row slices of one table at scales 0 to ``MAX_SCALE``,
    so a row is bitwise the same in every slice that holds it; the nodes
    flat, one frequency row for every maturity, the spacing one row per
    scale."""
    lo = 2.0**np.arange(MAX_SCALE + 1) * np.pi
    u = np.linspace(lo, 4.0 * lo, _TAIL_QUAD_POINTS, axis=1)
    rows = slice(first * _TAIL_QUAD_POINTS, stop * _TAIL_QUAD_POINTS)
    return (u.ravel()[rows].copy(), np.diff(u, axis=1)[first:stop],
            *(t[rows].copy() for t in chf_grid_terms(u.ravel())))


def _tail_masses(theta: HestonParams, taus: Sequence[float], ctx: MarketContext,
                 first: int = 0, stop: int = MAX_SCALE + 1) -> np.ndarray:
    """Two-sided transform mass beyond |u| = 2^m pi for m = first to
    stop - 1 (by default every scale), one row per maturity in taus.

    Integrates |fhat| over [2^m pi, 2^{m+2} pi] by the trapezoidal rule (the
    continuation beyond two octaves is negligible whenever the result is
    anywhere near tolerance) and doubles it via Hermitian symmetry,
    normalized by 1/(2 pi).  |fhat| is the chf's modulus alone
    (``chf_cui_parts(..., modulus=True)``), exp(Re log fhat).  The scales
    and maturities asked for share one characteristic sweep, the stored
    grid of the scale range broadcast over a column of maturities (one
    sweep per ``MAX_J`` frequencies), so the tau-free core is computed once
    per sweep; each mass is bitwise the one every other call that sweeps
    its maturity and scale gives, and the trapezoid is numpy's, term for
    term.
    """
    u, d, *terms = _tail_grid(first, stop)
    per_sweep = max(1, MAX_J // u.size)
    rows = []
    for i in range(0, len(taus), per_sweep):
        block = np.array(taus[i:i + per_sweep], dtype=float)[:, None]
        vals = chf_cui_parts(broadcast_rows(u, len(block)), block, theta, ctx, terms,
                             modulus=True)[0].reshape(len(block), d.shape[0], -1)
        rows.append((d * (vals[..., 1:] + vals[..., :-1]) / 2.0).sum(axis=-1) / np.pi)
    return np.concatenate(rows)


def _scales(theta: HestonParams, taus: Sequence[float], ctx: MarketContext,
            tol: float) -> list:
    """:func:`select_scale` at each of taus, from the tail sweep of each
    distinct maturity: per maturity the scale, or the NoConvergenceError
    selecting it alone raises.

    The rule reads a maturity's tail masses up to its first within tol and
    no further, so the scales are swept in the stages of ``_TAIL_STAGES``,
    one sweep each over the maturities no earlier stage resolved: the
    stage's stored grid broadcast over them, modulus only
    (:func:`_tail_masses`).
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    distinct, row = np.unique(taus, return_inverse=True)
    scale = np.full(distinct.size, -1)
    left = np.arange(distinct.size)
    for first, stop in _TAIL_STAGES:
        if not left.size:
            break
        passed = _tail_masses(theta, distinct[left].tolist(), ctx, first, stop) <= tol
        hit = passed.any(axis=1)
        scale[left[hit]] = first + passed[hit].argmax(axis=1)
        left = left[~hit]
    return [int(scale[r]) if scale[r] >= 0 else NoConvergenceError(
        f"transform tail mass still above {tol} at scale {MAX_SCALE} (tau={tau})")
        for tau, r in zip(taus, row.tolist())]


def _raised(outcome):
    """A selection's outcome, unless it is an error: then that is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def select_scale(theta: HestonParams, tau: float, ctx: MarketContext,
                 tol: float = SCALE_TOL) -> int:
    """Smallest scale m whose estimated projection-error bound is within tol:
    the one rule that chooses m.

    Every pricing and calibration path selects at the default ``SCALE_TOL``;
    :func:`select_groups` applies this rule to many maturities together.

    Raises:
        NoConvergenceError: no scale up to ``MAX_SCALE`` meets ``tol``.
    """
    return _raised(_scales(theta, [tau], ctx, tol)[0])


def _next_pow2(n: float) -> int:
    return 1 << max(1, math.ceil(math.log2(max(n, 2.0))))


def truncation_width(theta: HestonParams, tau: float, ctx: MarketContext,
                     L: float) -> float:
    """Cumulant half-width c = |c1| + L sqrt(c2) of the truncation rule."""
    if not 0.0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L}")
    c1, c2 = cumulants(theta, tau, ctx)
    return abs(c1) + L * math.sqrt(c2)


def interval_params(m: int, c: float, x_min: float, x_max: float) -> SwiftParams:
    """Discretization at scale m for log-moneyness in [x_min, x_max].

    m is checked against [0, ``MAX_SCALE``] before any 2^m is formed.  The
    interval is [x_min - c, x_max + c] clamped to straddle 0 (the payoff
    kink must stay inside the expansion window); its right end is x_high.
    eta is the smallest half-width whose wavelet range covers it at scale m,
    so x_high <= eta/2^m, and J_d is the smallest power of two above 2 eta.
    This is the one place an interval is refused.

    Raises:
        NoConvergenceError: 2^m times the half-width is not finite, or the
            interval needs a J_d above ``MAX_J``.
    """
    _check_scale(m)
    x_high = max(x_max + c, 0.0)
    half = 2.0**m * max(abs(min(x_min - c, 0.0)), x_high)
    if not math.isfinite(half):  # a NaN c makes it NaN
        raise NoConvergenceError(f"the interval at scale {m} is not finite: "
                                 f"2^m times its half-width is {half}")
    eta = max(1, math.ceil(half))
    j_d = _next_pow2(2 * eta + 1)
    if j_d > MAX_J:  # named by its power of two, which may have 300 digits
        raise NoConvergenceError(
            f"the interval at scale {m} needs j_density = 2^{j_d.bit_length() - 1}, "
            f"above MAX_J = 2^{MAX_J.bit_length() - 1}")
    return SwiftParams(m=m, eta=eta, j_density=j_d, x_high=x_high)


def select_truncation(theta: HestonParams, tau: float, ctx: MarketContext,
                      m: int, strikes: Sequence[float],
                      L: float = DEFAULT_L) -> SwiftParams:
    """Pick (eta, J_d, x_high) at scale m for a strike set at maturity tau.

    The half-width c starts from :func:`truncation_width`; the interval is
    the per-strike log-moneyness range extended by c on both sides, with eta,
    J_d and x_high from :func:`interval_params` (J_d just above 2 eta, the
    payoff window inside the wavelet range).  The recovered density mass is
    checked at the extreme log-moneyness values, once per distinct value,
    from the same J_d coefficients pricing uses, so a grid too coarse for the
    density fails the check.  On failure the interval -- and eta with it --
    is grown geometrically (heavy-tailed parameter sets leak mass past the
    cumulant interval, and what leaks past the right edge gets amplified by
    the call payoff), up to 12 steps.  The scale stays m:
    :func:`select_scale` alone chooses it.  The mass defect accepted is the
    fixed ``_AREA_TOL``; L defaults to ``DEFAULT_L``.  This is the one-group
    case of :func:`select_groups`' growth rounds (:func:`_growth`).

    Raises:
        NoConvergenceError: the mass check still fails after 12 growth
            steps, or :func:`interval_params` refuses the interval.
    """
    return _raised(_grow_together(
        theta, [_growth(theta, tau, ctx, m, strikes, L)])[0])[0]


def _growth(theta: HestonParams, tau: float, ctx: MarketContext, m: int,
            strikes: Sequence[float], L: float):
    """The growth loop of :func:`select_truncation` for one group, as a
    generator: it yields an unevaluated sweep of each new grid it checks,
    reads that sweep's values when resumed, and returns the accepted
    (SwiftParams, sweep).

    Growth steps often keep J_d, which with m alone fixes the chf sweep and
    the density spectra at x_min and x_max: each is computed once per grid
    and re-read at every step's wavelet indices.  Growth never returns to an
    earlier grid, so only the current one is kept.  Only the chf is
    evaluated per point: the edge shifts e^{-i omega x}
    (:func:`_phase_matrix`) and the twiddles (:func:`_twiddle_table`) come
    from the table store.
    """
    strikes = np.asarray(strikes, dtype=float)
    if strikes.size == 0:
        raise ValueError("strikes must be nonempty")
    c = truncation_width(theta, tau, ctx, L)
    x = np.log(ctx.spot / strikes)
    x_min, x_max = float(x.min()), float(x.max())

    edges = np.unique([x_min, x_max])  # a one-strike group has one edge
    j_d = None  # J_d of the current sweep; spectra: its {edge: density spectrum}
    for _ in range(12):
        try:
            sp = interval_params(m, c, x_min, x_max)
        except NoConvergenceError as exc:
            raise NoConvergenceError(f"{exc} (tau={tau})") from None
        if sp.j_density != j_d:
            j_d, spectra = sp.j_density, {}
            sweep = _ChfSweep(sp.density_freqs(), tau, ctx)
            yield sweep  # swept with the round's other new grids
            f_vals = sweep.parts(theta)[0]
            shifts = _phase_matrix(edges, m, j_d)
        for e in range(edges.size):
            if e not in spectra:
                spectra[e] = _cosine_spectrum(f_vals * shifts[e], j_d)
            density = _density_at(spectra[e], sp)
            if abs(density_area(density, sp) - 1.0) > _AREA_TOL:
                break
        else:
            return sp, sweep
        c *= 1.25
    raise NoConvergenceError(
        f"density mass check failed at scale {m} after 12 growth steps "
        f"(tau={tau}, strikes in [{strikes.min():.4g}, {strikes.max():.4g}])")


def _grow_together(theta: HestonParams, loops: list) -> list:
    """Run growth loops (:func:`_growth`) side by side, in rounds: a round
    resumes every loop still growing and sweeps the new grids they yield
    together (:func:`_sweep_together`).  Returns, per loop, the accepted
    (SwiftParams, sweep) or the NoConvergenceError the loop raised; an
    error given in place of a loop is returned as it is."""
    out = list(loops)
    growing = [g for g, loop in enumerate(loops) if not isinstance(loop, Exception)]
    while growing:
        asked, sweeps = [], []
        for g in growing:
            try:
                sweeps.append(next(out[g]))
            except StopIteration as done:
                out[g] = done.value
            except NoConvergenceError as exc:  # raised when its group is reached
                out[g] = exc
            else:
                asked.append(g)
        _sweep_together(theta, sweeps)
        growing = asked
    return out


def select_groups(theta: HestonParams, groups, ctx: MarketContext,
                  m: Optional[int] = None):
    """Yield the selected (SwiftParams, sweep at theta) of every
    (tau, strikes) in groups, in order, all groups selected together.

    The scales come from :func:`select_scale`'s rule, its tail swept over all
    maturities in stages, unless ``m`` pins them; the intervals from
    :func:`select_truncation`'s growth loops, run in rounds that sweep the
    new grids of all groups still growing as one block.  A block's values
    are bitwise each member's own, so every decision is the one selecting
    the group alone makes, and the sweep yielded holds the accepted grid's
    values at theta: handed to :func:`share_sweep` with the pricer built for
    it, it is that pricer's first sweep.  A group's error is raised when the
    group is reached, after the groups before it.

    Memory: a sweep holds about 160 bytes per frequency (value and
    intermediates), so a block of ``MAX_J`` frequencies, the most one chf
    call sweeps, holds about 160 MiB.  An accepted sweep is a view of its
    round's block and keeps all of it: the blocks held are at most every
    frequency selection swept, under twice the selected sum of J_d, since
    a group's grids at least double as they grow.
    """
    taus = [tau for tau, _ in groups]
    scales = (_scales(theta, taus, ctx, SCALE_TOL) if m is None
              else [m] * len(groups))
    loops = [s if isinstance(s, Exception) else
             _growth(theta, tau, ctx, s, strikes, DEFAULT_L)
             for (tau, strikes), s in zip(groups, scales)]
    for outcome in _grow_together(theta, loops):
        yield _raised(outcome)


def _sweep_together(theta: HestonParams, sweeps: list) -> None:
    """Evaluate sweeps of one market context at theta, runs of consecutive
    sweeps of at most ``MAX_J`` frequencies in all with one chf call each
    (a block, :meth:`_ChfSweep.joined`).  Every member of a block keeps its
    slice of the block's evaluation, bitwise its own; a sweep alone in its
    run is left to evaluate itself when read."""
    start = 0
    while start < len(sweeps):
        stop, size = start + 1, sweeps[start].omega.size
        while stop < len(sweeps) and size + sweeps[stop].omega.size <= MAX_J:
            size += sweeps[stop].omega.size
            stop += 1
        if stop - start > 1:
            block = _ChfSweep.joined(sweeps[start:stop])
            block.parts(theta)
            block.cut(sweeps[start:stop])
        start = stop


def _density_at(spectrum: np.ndarray, sp: SwiftParams) -> np.ndarray:
    """2^{m/2}/J_d Re of a cosine spectrum at k = 1-eta..eta, for both
    expansions: D_{m,k} from fhat e^{-i omega x}, U_{m,k} from the payoff's."""
    return 2.0**(sp.m / 2.0) / sp.j_density * _cosine_at(spectrum, sp.eta).real


def _payoff_transform(sp: SwiftParams, omega: np.ndarray) -> np.ndarray:
    """integral over [0, x_high] of (e^y - 1) e^{-i omega y} dy, closed form.

    An e^{x_high} past the float range comes out non-finite, without a
    warning; :func:`payoff_coefficients` refuses it.
    """
    iw = 1j * omega
    phase = np.exp(-iw * sp.x_high)
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.exp(sp.x_high) * phase - 1.0) / (1.0 - iw) + (phase - 1.0) / iw


def payoff_coefficients(sp: SwiftParams) -> np.ndarray:
    """Call payoff coefficients U_{m,k}, k = 1-eta..eta, via one length-2J_d FFT.

    The call payoff vanishes on y <= 0, so the closed-form antiderivative is
    taken over [0, x_high].  The expansion runs on the density's own
    frequency grid, which resolves it because x_high <= eta/2^m.  Only calls
    carry an expansion; puts are priced via parity (:func:`parity_offset`).

    Raises:
        NoConvergenceError: the payoff window is too wide for e^{x_high} to
            be a float (x_high beyond about 709); the message names x_high.
    """
    if sp.x_high == 0.0:
        return np.zeros(2 * sp.eta)
    values = _payoff_transform(sp, sp.density_freqs())
    if not np.all(np.isfinite(values)):
        raise NoConvergenceError(
            f"call payoff window [0, x_high={sp.x_high:.6g}] too wide: "
            "e^x_high overflows")
    return _density_at(_cosine_spectrum(values, sp.j_density), sp)


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
    # bitwise ifft(buf) * two_j only as two_j is a power of two (barring subnormals)
    spectrum = np.fft.ifft(buf, norm="forward")
    return spectrum[1:sp.j_density + 1]


def _phase_matrix(x: np.ndarray, m: int, j_d: int) -> np.ndarray:
    """e^{-i x_s omega_j}, one row per log-moneyness x_s, j = 1..J_d at scale m;
    read-only, and shared by every caller that asks for the same table.

    The table depends on the grid and x alone, so it is stored
    (:func:`_stored`) under the bytes of x and (m, J_d), never under
    parameters: the growth edges of selection and the strikes of a pricer
    build each table once.
    """
    return _phase_product(np.ascontiguousarray(x, dtype=np.float64).tobytes(), m, j_d)


@_stored
def _phase_product(x: bytes, m: int, j_d: int) -> np.ndarray:
    """The table of :func:`_phase_matrix` at the float64 values in the bytes
    x, built from two small ones: omega_j = omega_1 + (j - 1) delta is an
    arithmetic progression, so with j - 1 = a B + b (B = 64) each entry is
    e^{-i x (omega_1 + a B delta)} times e^{-i x b delta}, n (J_d/B + B)
    complex exponentials instead of n J_d.
    """
    x = np.frombuffer(x)
    b = min(64, j_d)
    delta = np.pi * 2.0**m / j_d
    coarse = np.exp(-1j * np.outer(x, delta / 2.0 + delta * b * np.arange(j_d // b)))
    fine = np.exp(-1j * np.outer(x, delta * np.arange(b)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(x), j_d)


def price_multi_strike(theta: HestonParams, ctx: MarketContext, tau: float,
                       strikes, sp: SwiftParams) -> np.ndarray:
    """Call prices for many strikes of one maturity, sharing F_j and U-tilde.

    One-shot use of :class:`MultiStrikePricer`.
    """
    return MultiStrikePricer(ctx, tau, strikes, sp).prices(theta)


class MultiStrikePricer:
    """Multi-strike evaluator for one maturity; the package's multi-strike kernel.

    The call price at strike K_s, x_s = ln(S0/K_s), is

        K_s e^{-r tau} (2^{m/2}/J_d) Re sum_j e^{-i x_s omega_j} F_j U-tilde_j

    with F_j = fhat(omega_j) and U-tilde the payoff spectrum: one
    characteristic sweep serves every strike, and the Jacobian swaps F_j for
    the partials h_i F_j, a six-column instead of a one-column product.

    Construction freezes the discretization and precomputes U-tilde; the
    phase matrix comes from the table store through :func:`_phase_matrix`,
    keyed by the strikes' log-moneyness and (m, J_d), so pricers rebuilt over
    the same strikes and grid share one read-only table (the sweep forms the
    chf grid terms on its first evaluation).  Only the real part of the phase product
    is needed, Re(P c) = Re(P) Re(c) - Im(P) Im(c), so the pricer keeps
    conj(P) as an n x 2J_d real matrix, ``real_phases``, a read-only view of
    the stored table, whose product with c viewed as interleaved reals is
    that sum: half the flops of the complex product.
    Repeated evaluation -- the inner loop of calibration -- costs one
    characteristic sweep plus a matrix product, and the intermediates of the
    last sweep are kept so that a gradient request at the same parameters
    (accept, then linearize) reuses them.

    The sweep is the pricer's own unless :func:`share_sweep` has attached
    it to a block of several pricers; the pricer then reads its slice of the
    block's sweep, bitwise its own (see
    :func:`~swiftcal.heston.chf_cui_parts`).  :func:`share_sweep` can also
    start a pricer or a block from the sweeps :func:`select_groups` made
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

    def grid_prices(self, theta: HestonParams):
        """Call prices at the J_d dyadic grid points x_k = (2k - J_d)/2^{m+1}.

        One length-2J_d FFT of this pricer's sweep and U-tilde prices the
        whole grid, the points j/2^m; the strikes play no part.  Only the
        points in the log-moneyness range the discretization was selected
        for carry its accuracy (``generate --grid`` writes only its selected
        band); a wing strike or price past the float range comes out
        non-finite, unwarned.

        Returns:
            (x_grid, prices): parallel arrays of length J_d; the strike
            behind x is ctx.spot * exp(-x).
        """
        sp, ctx, j_d = self.sp, self.ctx, self.sp.j_density
        f_vals = self._sweep.parts(theta)[0][self._cols]
        j = np.arange(1, j_d + 1)
        buf = np.zeros(2 * j_d, dtype=np.complex128)
        # e^{-i u_j 2^m x_k} = e^{i pi k/(2J_d)} e^{-2 pi i j k/(2J_d)} e^{i pi (2j-1)/4}
        buf[1:j_d + 1] = f_vals * self.u_tilde * np.exp(1j * np.pi * (2 * j - 1) / 4.0)
        k = np.arange(j_d)
        x_grid = (2.0 * k - j_d) / 2.0**(sp.m + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            spectrum = np.fft.fft(buf)
            vals = (np.exp(1j * np.pi * k / (2 * j_d)) * spectrum[:j_d]).real
            strikes = ctx.spot * np.exp(-x_grid)
            prices = (strikes * math.exp(-ctx.rate * self.tau)
                      * (2.0**(sp.m / 2.0) / j_d) * vals)
        return x_grid, prices

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
    it at those parameters.  :meth:`joined` is the one way a block starts:
    selection evaluates the new grids of a growth round through a block
    whose slices it hands back to the grids' own sweeps (:meth:`cut`), and
    :func:`share_sweep` joins the sweeps of the grids selection accepted.
    Grid terms are formed on the first evaluation, so a sweep replaced
    before then costs nothing.
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

    @classmethod
    def joined(cls, sweeps) -> "_ChfSweep":
        """A block: one sweep of the concatenated grids of sweeps of one
        context, with a per-element tau; a lone sweep is its own.  It starts
        from the members' evaluation if all hold one at one parameter vector
        (values concatenated, intermediates listed, not copied), else empty."""
        if len(sweeps) == 1:
            return sweeps[0]
        block = cls(np.concatenate([s.omega for s in sweeps]),
                    np.repeat([s.tau for s in sweeps], [s.omega.size for s in sweeps]),
                    sweeps[0].ctx)
        key = sweeps[0]._key
        if key is not None and all(s._key == key for s in sweeps):
            block._key, block._parts = key, (
                np.concatenate([s._parts[0] for s in sweeps]),
                [chunk for s in sweeps for chunk in s._parts[1]])
        return block

    def cut(self, members) -> None:
        """Hand this block's last evaluation to the sweeps of its consecutive
        slices: each gets its value and intermediates, views cut at its
        offsets, so it answers at those parameters without sweeping."""
        value, parts = self._parts
        bounds = np.cumsum([0] + [chunk[0].size for chunk in parts])
        start = 0
        for s in members:
            stop = start + s.omega.size
            s._key, s._grad = self._key, None
            s._parts = (value[start:stop], [
                tuple(a[max(start, lo) - lo:min(stop, hi) - lo] for a in chunk)
                for chunk, lo, hi in zip(parts, bounds, bounds[1:])
                if lo < stop and start < hi])
            start = stop


def share_sweep(pricers: Sequence[MultiStrikePricer], sweeps=None) -> None:
    """Let pricers share one characteristic sweep, a block.

    The block sweeps the members' concatenated frequencies with a
    per-element tau, so it costs one chf call and one gradient call per
    evaluation where its members cost one each, and a large block is split
    across threads (:func:`~swiftcal.heston.chf_cui_parts`).  It is swept
    when a member asks at new parameters, and its gradient, once assembled,
    serves every member until the parameters change.  The pricers must
    share one market context.

    The block is :meth:`_ChfSweep.joined` of ``sweeps``, one per pricer,
    by default the members' own: sweeps of the members' grids, such as the
    ones :func:`select_groups` made, so a block of sweeps at one parameter
    vector starts from their evaluation there.  A lone member takes its
    sweep as it is.
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
    if not pricers:
        return
    block = _ChfSweep.joined(sweeps)
    start = 0
    for p in pricers:
        p._sweep, p._cols = block, slice(start, start + p.sp.j_density)
        start += p.sp.j_density
