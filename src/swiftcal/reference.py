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

fhat is the package's one stabilized form, ``heston.chf_cui``; the price
and the price-and-gradient entry points share one inversion assembly, the
latter sweeping ``chf_with_gradient`` on the same nodes.

Puts are priced from calls via put-call parity (``swift.parity_offset``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .heston import HestonParams, MarketContext, chf_cui, chf_with_gradient
from .swift import parity_offset


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre setup: node count and upper truncation ubar."""

    nodes: int = 64
    u_max: float = 200.0

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError(f"nodes must be >= 2, got {self.nodes}")
        if self.u_max <= 0:
            raise ValueError(f"u_max must be positive, got {self.u_max}")


@lru_cache(maxsize=32)
def _leggauss(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def _grid(qc: QuadratureConfig):
    """Nodes and weights mapped from [-1, 1] onto (0, u_max)."""
    x, w = _leggauss(qc.nodes)
    half = qc.u_max / 2.0
    return half * (x + 1.0), half * w


def _invert(ctx: MarketContext, quote, qc: QuadratureConfig, sweep):
    """(price, gradient or None) of one quote by the inversion formula.

    ``sweep(u, tau)`` returns fhat(u) and its gradient (per ``PARAM_ORDER``)
    or None; the price gradient is assembled only from a returned one.
    Parity is parameter-free, so a put shares its call's gradient.
    """
    tau, strike = quote.maturity, quote.strike
    x = np.log(ctx.spot / strike)
    u, w = _grid(qc)

    val_s, grad_s = sweep(-u + 1j, tau)
    val_p, grad_p = sweep(u, tau)
    phase_s = np.exp((1.0 + 1j * u) * x)
    phase_p = np.exp(-1j * u * x)
    inv_iu = 1.0 / (1j * u)

    disc = np.exp(-ctx.rate * tau)
    integrand = np.real((val_s * phase_s + val_p * phase_p) * inv_iu)
    price = strike * (0.5 * (np.exp(x - ctx.dividend * tau) - disc)
                      + disc / np.pi * float(w @ integrand))
    if getattr(quote, "kind", "call") == "put":
        price += parity_offset(ctx, strike, tau)
    if grad_s is None:
        return price, None

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
    return _invert(ctx, quote, qc,
                   lambda u, tau: (chf_cui(u, tau, theta, ctx), None))[0]


def price_and_gradient_cp(theta: HestonParams, ctx: MarketContext, quote,
                          qc: QuadratureConfig = QuadratureConfig()):
    """Price and parameter gradient in one pass over shared quadrature nodes.

    The gradient integrand only replaces fhat with h * fhat, so the
    characteristic function work is done once for both outputs.

    Returns:
        (price, gradient) with gradient ordered per ``PARAM_ORDER``.
    """
    return _invert(ctx, quote, qc,
                   lambda u, tau: chf_with_gradient(u, tau, theta, ctx))
