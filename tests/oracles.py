"""Independent forms the suite checks the package against.

No pricing path of the package evaluates these:

* ``chf_schoutens`` -- the classic branch-cut-free closed form of the
  characteristic function, algebraically equal to ``chf_cui``;
* ``density_coefficients`` -- the density coefficients D_{m,k}(x) at one
  log-moneyness, by one length-2J_d FFT of the shifted chf;
* ``per_strike_price`` / ``per_strike_price_and_gradient`` -- one quote
  priced by the per-strike expansion K e^{-r tau} sum_k D_{m,k}(x) U_{m,k},
  the density coefficients of the chf (and of its five partials) against
  the payoff coefficients.  ``MultiStrikePricer`` factors the same sum
  through the payoff spectrum and one phase row per strike; the two agree
  to roundoff.
"""

import math

import numpy as np

from swiftcal.heston import _check_finite, chf_cui, chf_grid_terms, chf_with_gradient
from swiftcal.swift import (
    _cosine_spectrum,
    _density_at,
    parity_offset,
    payoff_coefficients,
)


def chf_schoutens(u, tau, theta, ctx):
    """Characteristic function of ln(S_T/S_t), branch-cut-free classic form.

    Equal to ``chf_cui`` wherever both evaluate finitely.
    """
    u, iu, u2 = chf_grid_terms(u)
    sigma, kappa, v_bar, v0 = theta.sigma, theta.kappa, theta.v_bar, theta.v0
    xi = kappa + sigma * theta.rho * iu
    d = np.sqrt(xi * xi + sigma**2 * u2)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = (xi - d) / (xi + d)
        decay = np.exp(-d * tau)
        one_m_gdecay = 1.0 - g * decay
        term_vbar = (kappa * v_bar / sigma**2) * (
            (xi - d) * tau - 2.0 * np.log(one_m_gdecay / (1.0 - g)))
        term_v0 = (v0 / sigma**2) * (xi - d) * (1.0 - decay) / one_m_gdecay
        out = np.exp(-iu * ctx.drift * tau + term_vbar + term_v0)

    _check_finite(out)
    return out if out.ndim else complex(out)


def _density_of(values, x, sp):
    """D_{m,k}(x), k = 1-eta..eta, of transform values on the density grid."""
    shifted = values * np.exp(-1j * sp.density_freqs() * x)
    return _density_at(_cosine_spectrum(shifted, sp.j_density), sp)


def density_coefficients(theta, tau, ctx, x, sp):
    """Density coefficients D_{m,k}(x), k = 1-eta..eta, via one length-2J_d FFT.

    D_{m,k}(x) = (2^{m/2}/J_d) sum_j Re( fhat(u_j 2^m) e^{-i u_j 2^m x} e^{i k u_j} ).
    """
    return _density_of(chf_cui(sp.density_freqs(), tau, theta, ctx), x, sp)


def _per_strike(ctx, quote, sp, rows):
    """K e^{-r tau} D(x) . U for each transform row; parity on the first."""
    x = math.log(ctx.spot / quote.strike)
    payoff = payoff_coefficients(sp)
    scale = quote.strike * math.exp(-ctx.rate * quote.maturity)
    out = [scale * float(_density_of(row, x, sp) @ payoff) for row in rows]
    if quote.kind == "put":
        out[0] += parity_offset(ctx, quote.strike, quote.maturity)
    return out


def per_strike_price(theta, ctx, quote, sp):
    """One quote's price by the per-strike expansion."""
    value = chf_cui(sp.density_freqs(), quote.maturity, theta, ctx)
    return _per_strike(ctx, quote, sp, [value])[0]


def per_strike_price_and_gradient(theta, ctx, quote, sp):
    """One quote's price and parameter gradient (``PARAM_ORDER``) by the
    per-strike expansion: one density FFT per transform row."""
    value, grad = chf_with_gradient(sp.density_freqs(), quote.maturity, theta, ctx)
    out = _per_strike(ctx, quote, sp, [value, *grad])
    return out[0], np.array(out[1:])
