"""Heston option pricing and calibration with a Shannon-wavelet Fourier engine.

Pricing runs through two independent routes -- the wavelet expansion
(`swift` module, with multi-strike and strike-grid FFT accelerations and
analytic price gradients) and a Gauss-Legendre Fourier-inversion reference
(`reference` module) -- and calibration fits the five model parameters by
damped least squares over either backend (`calibrate` module).
"""

from .calibrate import (
    CalibrationConfig,
    CalibrationResult,
    CpBackend,
    KswiftBackend,
    SingularSystemError,
    StopReason,
    SwiftBackend,
    calibrate,
    lm_step,
    residuals,
)
from .heston import (
    ChfOverflowError,
    HestonParams,
    MarketContext,
    PARAM_ORDER,
    chf_cui,
    chf_with_gradient,
    cumulants,
)
from .quotes import QuoteFile, QuoteParseError, load_quote_file, save_quote_file
from .reference import QuadratureConfig, price_and_gradient_cp, price_cp
from .reports import ExperimentReport
from .swift import (
    MultiStrikePricer,
    NoConvergenceError,
    OptionQuote,
    SwiftParams,
    density_area,
    payoff_coefficients,
    price_multi_strike,
    price_strike_grid,
    select_scale,
    select_truncation,
)

__version__ = "1.0.0"

__all__ = [
    "CalibrationConfig", "CalibrationResult", "ChfOverflowError",
    "CpBackend", "ExperimentReport", "HestonParams",
    "KswiftBackend", "MarketContext", "MultiStrikePricer",
    "NoConvergenceError", "OptionQuote", "PARAM_ORDER", "QuadratureConfig",
    "QuoteFile", "QuoteParseError", "SingularSystemError", "StopReason",
    "SwiftBackend", "SwiftParams", "calibrate",
    "chf_cui", "chf_with_gradient", "cumulants", "density_area",
    "lm_step", "load_quote_file", "payoff_coefficients",
    "price_and_gradient_cp", "price_cp", "price_multi_strike",
    "price_strike_grid",
    "residuals", "save_quote_file", "select_scale", "select_truncation",
]
