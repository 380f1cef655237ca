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

Puts are priced from calls via put-call parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .heston import HestonParams, MarketContext, chf_cui, chf_schoutens, chf_with_gradient

CHF_FORMS = ("cui", "schoutens")


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


def _chf(form: str):
    if form == "cui":
        return chf_cui
    if form == "schoutens":
        return chf_schoutens
    raise ValueError(f"unknown characteristic function form {form!r}; "
                     f"expected one of {CHF_FORMS}")


def price_cp(theta: HestonParams, ctx: MarketContext, quote,
             qc: QuadratureConfig = QuadratureConfig(),
             form: str = "cui") -> float:
    """Price one European option by Fourier inversion.

    Args:
        quote: anything with ``strike``, ``maturity`` and ``kind`` attributes.
        qc:    quadrature configuration (node count, truncation ubar).
        form:  characteristic function form, "cui" or "schoutens".

    Raises:
        ChfOverflowError: if the characteristic function overflows at any
            node; lower ``qc.u_max`` or switch ``form``.
    """
    chf = _chf(form)
    tau, strike = quote.maturity, quote.strike
    x = np.log(ctx.spot / strike)
    u, w = _grid(qc)

    f_shift = chf(-u + 1j, tau, theta, ctx) * np.exp((1.0 + 1j * u) * x)
    f_plain = chf(u, tau, theta, ctx) * np.exp(-1j * u * x)
    integrand = np.real((f_shift + f_plain) / (1j * u))

    disc = np.exp(-ctx.rate * tau)
    call = strike * (0.5 * (np.exp(x - ctx.dividend * tau) - disc)
                     + disc / np.pi * float(w @ integrand))
    if getattr(quote, "kind", "call") == "put":
        return call - ctx.spot * np.exp(-ctx.dividend * tau) + strike * disc
    return call


def price_and_gradient_cp(theta: HestonParams, ctx: MarketContext, quote,
                          qc: QuadratureConfig = QuadratureConfig(),
                          form: str = "cui"):
    """Price and parameter gradient in one pass over shared quadrature nodes.

    The gradient integrand only replaces fhat with h * fhat, so the
    characteristic function work is done once for both outputs.  The parity
    adjustment for puts is parameter-free, hence the gradient needs no kind
    correction.

    Returns:
        (price, gradient) with gradient ordered per ``PARAM_ORDER``.
        The gradient form is always "cui" (the compact form carries the
        closed-form h); ``form`` only switches the price-side evaluation.
    """
    tau, strike = quote.maturity, quote.strike
    x = np.log(ctx.spot / strike)
    u, w = _grid(qc)

    val_s, grad_s = chf_with_gradient(-u + 1j, tau, theta, ctx)
    val_p, grad_p = chf_with_gradient(u, tau, theta, ctx)
    phase_s = np.exp((1.0 + 1j * u) * x)
    phase_p = np.exp(-1j * u * x)
    inv_iu = 1.0 / (1j * u)

    disc = np.exp(-ctx.rate * tau)
    integrand = np.real((val_s * phase_s + val_p * phase_p) * inv_iu)
    call = strike * (0.5 * (np.exp(x - ctx.dividend * tau) - disc)
                     + disc / np.pi * float(w @ integrand))

    grad_integrand = np.real(
        (grad_s * (phase_s * inv_iu) + grad_p * (phase_p * inv_iu)))
    gradient = strike * disc / np.pi * (grad_integrand @ w)

    if getattr(quote, "kind", "call") == "put":
        call = call - ctx.spot * np.exp(-ctx.dividend * tau) + strike * disc
    return call, gradient

