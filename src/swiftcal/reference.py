"""Semi-analytic Fourier-inversion pricer used as the cross-validation oracle.

European call price by direct inversion of the characteristic function,

    V = K [ (e^{x - q tau} - e^{-r tau}) / 2
            + (e^{-r tau} / pi) * int_0^ubar Re( (fhat(-u+i; x) + fhat(u; x)) / (iu) ) du ],

with x = ln(S0/K) and fhat(u; x) = exp(-iux) fhat(u) in this package's
negative-exponent transform convention.  The integrand has a removable
singularity at u = 0; Gauss-Legendre nodes are strictly interior to
(0, ubar], so no special handling is needed.

The upper truncation ubar is an explicit, caller-owned parameter (default
200).  No automatic selection is attempted: for extreme maturities a usable
ubar is a matter of trial and error, and hiding that would misrepresent the
method.  Deep out-of-the-money short-expiry prices do not converge in ubar
at all -- tests pin that behavior down rather than masking it.

fhat is the package's one stabilized form, ``heston.chf_cui_parts``, swept
on one stored node table per (nodes, ubar).  fhat does not depend on the
strike, so a quote set is priced from one sweep over its distinct
maturities (``prices_cp``); ``price_cp`` and ``price_and_gradient_cp`` are
its one-quote case, the latter adding ``chf_gradient_from_parts`` on the
same sweep.  Every price is bitwise the same alone or in any set.

Puts are priced from calls via put-call parity (``swift.parity_offset``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heston import (HestonParams, MarketContext, chf_cui_parts, chf_gradient_from_parts,
                     chf_grid_terms)
from .swift import MAX_J, _stored, parity_offset

# Most frequencies one chf call sweeps, and most elements of a phase or
# integrand block: a larger quote set is priced in row blocks.
_BLOCK = MAX_J


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre setup: node count and upper truncation ubar."""

    nodes: int = 64
    u_max: float = 200.0

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError(f"nodes must be >= 2, got {self.nodes}")
        if not 0 < self.u_max < math.inf:
            raise ValueError(f"u_max must be positive and finite, got {self.u_max}")


@_stored
def _grid(nodes: int, u_max: float):
    """Nodes u and weights mapped from [-1, 1] onto (0, u_max), 1/(iu), the
    phase exponents (1 + iu, -iu) of both node sets, and the chf grid terms
    of both node sets (-u + i, u), swept together: per-call overhead
    dominates 2 x 64 nodes."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = u_max / 2.0
    u = half * (x + 1.0)
    return (u, half * w, 1.0 / (1j * u), np.concatenate((1.0 + 1j * u, -1j * u)),
            *chf_grid_terms(np.concatenate((-u + 1j, u))))


def _invert(theta: HestonParams, ctx: MarketContext, quotes, qc: QuadratureConfig,
            gradient: bool):
    """(prices, gradients or None) of a quote list by the inversion formula.

    The quotes are taken in row blocks of at most ``_BLOCK`` phase elements
    (2 x nodes per quote).  Each block makes one :func:`chf_cui_parts` call
    over the node table tiled once per distinct maturity, with one tau per
    frequency (a one-maturity block sweeps the stored table with a scalar
    tau), so each maturity's values are bitwise its own sweep's and a call
    covers at most ``_BLOCK`` frequencies.  The phases and integrands of
    a block are 2-D elementwise arrays, one row per quote, and each quote
    keeps its own dot with the weights (a matrix-vector product may sum in
    another order), so every price is bitwise the one its quote gets alone.
    The gradients (per ``PARAM_ORDER``, one row per quote; the chf gradient
    holds five values per frequency) are assembled only if asked for.
    Parity is parameter-free, so a put shares its call's gradient.
    """
    u, w, inv_iu, exponent, *terms = _grid(qc.nodes, qc.u_max)
    n = u.size
    per_block = max(1, _BLOCK // (2 * n))
    prices = np.empty(len(quotes))
    grads = np.empty((len(quotes), 5)) if gradient else None
    for b in range(0, len(quotes), per_block):
        block = quotes[b:b + per_block]
        first = {}
        rows = [first.setdefault(q.maturity, len(first)) for q in block]
        taus = list(first)
        t = taus[0] if len(taus) == 1 else np.repeat(taus, 2 * n)
        sweep = terms if len(taus) == 1 else [np.tile(g, len(taus)) for g in terms]
        val, parts = chf_cui_parts(sweep[0], t, theta, ctx, sweep)
        x = np.log([[ctx.spot / q.strike] for q in block])  # one row per quote
        phase = np.exp(exponent * x)  # e^{(1 + iu) x}, then e^{-iux}
        # each maturity's values at -u + i, then at u, one row per quote
        prod = (val if len(taus) == 1 else
                val.reshape(len(taus), 2 * n).take(rows, axis=0)) * phase
        integrand = ((prod[:, :n] + prod[:, n:]) * inv_iu).real
        if gradient:
            grad = chf_gradient_from_parts(t, theta, val, parts).reshape(5, len(taus), 2 * n)
        for j, (q, f) in enumerate(zip(block, integrand)):
            tau, strike = q.maturity, q.strike
            disc = np.exp(-ctx.rate * tau)
            prices[b + j] = strike * (0.5 * (np.exp(x[j, 0] - ctx.dividend * tau) - disc)
                                      + disc / np.pi * (w @ f))
            if q.kind == "put":
                prices[b + j] += parity_offset(ctx, strike, tau)
            if gradient:
                g, p = grad[:, rows[j]], phase[j]
                grads[b + j] = strike * disc / np.pi * (
                    np.real(g[:, :n] * (p[:n] * inv_iu) + g[:, n:] * (p[n:] * inv_iu)) @ w)
    return prices, grads


def prices_cp(theta: HestonParams, ctx: MarketContext, quotes,
              qc: QuadratureConfig = QuadratureConfig()) -> np.ndarray:
    """Price a list of European options by Fourier inversion, in quote order.

    One chf sweep per distinct maturity serves all of that maturity's
    strikes; each price is bitwise the one :func:`price_cp` gives its quote,
    and an empty list gives an empty array.

    Args:
        quotes: a sequence of anything with ``strike``, ``maturity`` and
                ``kind`` attributes.
        qc:     quadrature configuration (node count, truncation ubar).

    Raises:
        ChfOverflowError: if the characteristic function overflows at any
            node; lower ``qc.u_max``.
    """
    return _invert(theta, ctx, quotes, qc, False)[0]


def price_cp(theta: HestonParams, ctx: MarketContext, quote,
             qc: QuadratureConfig = QuadratureConfig()) -> float:
    """Price one European option by Fourier inversion: :func:`prices_cp`
    of a one-quote list.

    Args:
        quote: anything with ``strike``, ``maturity`` and ``kind`` attributes.
        qc:    quadrature configuration (node count, truncation ubar).

    Raises:
        ChfOverflowError: if the characteristic function overflows at any
            node; lower ``qc.u_max``.
    """
    return _invert(theta, ctx, [quote], qc, False)[0][0]


def price_and_gradient_cp(theta: HestonParams, ctx: MarketContext, quote,
                          qc: QuadratureConfig = QuadratureConfig()):
    """Price and parameter gradient in one pass over shared quadrature nodes.

    The gradient integrand only replaces fhat with h * fhat, so the
    characteristic function work is done once for both outputs.  The price
    is bitwise :func:`price_cp`'s: both go through one inversion assembly.

    Returns:
        (price, gradient) with gradient ordered per ``PARAM_ORDER``.
    """
    prices, grads = _invert(theta, ctx, [quote], qc, True)
    return prices[0], grads[0]
