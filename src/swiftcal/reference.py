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
on one stored node table per (nodes, ubar); the price and the
price-and-gradient entry points share one inversion assembly, the latter
adding ``chf_gradient_from_parts`` on the same sweep.

Puts are priced from calls via put-call parity (``swift.parity_offset``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heston import (HestonParams, MarketContext, chf_cui_parts, chf_gradient_from_parts,
                     chf_grid_terms)
from .swift import _stored, parity_offset


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
    """Nodes u and weights mapped from [-1, 1] onto (0, u_max), 1/(iu), and
    the chf grid terms of both node sets (-u + i, u), swept together: per-call
    overhead dominates 2 x 64 nodes."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = u_max / 2.0
    u = half * (x + 1.0)
    return (u, half * w, 1.0 / (1j * u),
            *chf_grid_terms(np.concatenate((-u + 1j, u))))


def _invert(theta: HestonParams, ctx: MarketContext, quote, qc: QuadratureConfig,
            gradient: bool):
    """(price, gradient or None) of one quote by the inversion formula.

    The gradient (per ``PARAM_ORDER``) is assembled only if asked for.
    Parity is parameter-free, so a put shares its call's gradient.
    """
    tau, strike = quote.maturity, quote.strike
    x = np.log(ctx.spot / strike)
    u, w, inv_iu, *terms = _grid(qc.nodes, qc.u_max)

    val, parts = chf_cui_parts(terms[0], tau, theta, ctx, terms)
    val_s, val_p = val[:u.size], val[u.size:]
    phase_s = np.exp((1.0 + 1j * u) * x)
    phase_p = np.exp(-1j * u * x)

    disc = np.exp(-ctx.rate * tau)
    integrand = np.real((val_s * phase_s + val_p * phase_p) * inv_iu)
    price = strike * (0.5 * (np.exp(x - ctx.dividend * tau) - disc)
                      + disc / np.pi * float(w @ integrand))
    if quote.kind == "put":
        price += parity_offset(ctx, strike, tau)
    if not gradient:
        return price, None

    grad = chf_gradient_from_parts(tau, theta, val, parts)
    grad_s, grad_p = grad[:, :u.size], grad[:, u.size:]
    grad_integrand = np.real(
        (grad_s * (phase_s * inv_iu) + grad_p * (phase_p * inv_iu)))
    return price, strike * disc / np.pi * (grad_integrand @ w)


def price_cp(theta: HestonParams, ctx: MarketContext, quote,
             qc: QuadratureConfig = QuadratureConfig()) -> float:
    """Price one European option by Fourier inversion.

    Args:
        quote: anything with ``strike``, ``maturity`` and ``kind`` attributes.
        qc:    quadrature configuration (node count, truncation ubar).

    Raises:
        ChfOverflowError: if the characteristic function overflows at any
            node; lower ``qc.u_max``.
    """
    return _invert(theta, ctx, quote, qc, False)[0]


def price_and_gradient_cp(theta: HestonParams, ctx: MarketContext, quote,
                          qc: QuadratureConfig = QuadratureConfig()):
    """Price and parameter gradient in one pass over shared quadrature nodes.

    The gradient integrand only replaces fhat with h * fhat, so the
    characteristic function work is done once for both outputs.

    Returns:
        (price, gradient) with gradient ordered per ``PARAM_ORDER``.
    """
    return _invert(theta, ctx, quote, qc, True)
