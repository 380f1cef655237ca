"""Command-line surface: price | generate | calibrate | speed | converge.

Exit codes: 0 success, 2 input/parse error, 3 numerical failure (overflow or
discretization selection failure), 4 calibration finished without reaching
the residual tolerance (suppressed by --allow-partial).

Parameter arguments accept a named fixture (theta1, theta2, theta2-start,
stress, fx, ir, eq), a JSON file with kappa/v_bar/sigma/rho/v0 fields, or an
inline "kappa=...,v_bar=...,sigma=...,rho=...,v0=..." string.  Quote
arguments accept a file path, a name resolved in $SWIFTCAL_FIXTURE_DIR, or a
bundled set name (set1, set2, set3, stress).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .calibrate import CalibrationConfig, StopReason
from .experiments import (
    PricingOverrides,
    run_calibrate,
    run_converge,
    run_generate,
    run_generate_grid,
    run_price,
    run_speed,
)
from .fixtures import (
    CONVERGE_TARGETS,
    PARAM_SETS,
    QUOTE_SETS,
    fixture_dir,
    quote_set_context,
)
from .heston import ChfOverflowError, HestonParams, MarketContext
from .quotes import QuoteFile, QuoteParseError, dumps_quotes, load_quote_file, save_quote_file
from .swift import DEFAULT_L, NoConvergenceError

EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_NOT_CALIBRATED = 4

_PARAM_FIELDS = ("kappa", "v_bar", "sigma", "rho", "v0")
# pricing flags by attribute name, and those each backend never reads
_PRICING_FLAGS = {"m": "--m", "eta": "--eta", "j": "--j", "u_max": "--u-max",
                  "L": "--L"}
_UNREAD_BY_BACKEND = {"swift": ("u_max",), "kswift": ("u_max",),
                      "cp": ("m", "eta", "j", "L")}
DEFAULT_SET = "set2"  # strike/maturity set generate prices without --grid


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        self.code = code
        super().__init__(message)


def parse_params(spec: str) -> HestonParams:
    if spec in PARAM_SETS:
        return PARAM_SETS[spec]
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            return HestonParams(**{k: float(obj[k]) for k in _PARAM_FIELDS})
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad parameter file {spec!r}: {exc}")
    if "=" in spec:
        try:
            kv = dict(item.split("=", 1) for item in spec.split(","))
            return HestonParams(**{k: float(kv[k]) for k in _PARAM_FIELDS})
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad inline parameters {spec!r}: {exc}")
    raise CliError(
        f"unknown parameter set {spec!r}; expected one of {sorted(PARAM_SETS)}, "
        "a JSON file, or an inline kappa=...,v_bar=...,... string")


def resolve_quotes(spec: str, rate=None) -> QuoteFile:
    qf = None
    if os.path.exists(spec):
        qf = load_quote_file(spec)
    else:
        base = fixture_dir()
        if base:
            for suffix in ("", ".quotes", ".txt", ".json"):
                cand = os.path.join(base, spec + suffix)
                if os.path.exists(cand):
                    qf = load_quote_file(cand)
                    break
    if qf is None and spec in QUOTE_SETS:
        ctx = quote_set_context(spec)
        qf = QuoteFile(context=ctx, quotes=QUOTE_SETS[spec]())
    if qf is None:
        raise CliError(f"cannot resolve quotes {spec!r}: not a file, not in "
                       f"$SWIFTCAL_FIXTURE_DIR, and not one of {sorted(QUOTE_SETS)}")
    if rate is not None:
        ctx = MarketContext(spot=qf.context.spot, rate=rate,
                            dividend=qf.context.dividend)
        qf = QuoteFile(context=ctx, quotes=qf.quotes)
    return qf


def _given(args, names=_PRICING_FLAGS) -> dict:
    """The flags among names that the subcommand has and the user set."""
    given = {n: getattr(args, n, None) for n in names}
    return {n: v for n, v in given.items() if v is not None}


def _overrides(args) -> PricingOverrides:
    # a flag the subcommand lacks or the user left unset keeps the default
    return PricingOverrides(**_given(args))


def _reject_unread_flags(args, backend: str, why: str = "") -> None:
    unread = [_PRICING_FLAGS[n] for n in _UNREAD_BY_BACKEND[backend]
              if n in _given(args)]
    if unread:
        raise CliError(f"the {backend} backend{why} does not read "
                       f"{', '.join(unread)}; drop {'it' if len(unread) == 1 else 'them'}")


def _config(args) -> CalibrationConfig:
    return CalibrationConfig(eps1=args.eps1, eps2=args.eps2, eps3=args.eps3,
                             max_iterations=args.max_iter)


def _emit(report, args) -> None:
    sys.stdout.write(report.to_table())
    if getattr(args, "out", None):
        report.save(args.out)


def cmd_price(args) -> int:
    _reject_unread_flags(args, args.backend)
    theta = parse_params(args.params)
    qf = resolve_quotes(args.quotes, rate=args.rate)
    report = run_price(args.backend, theta, qf, _overrides(args))
    _emit(report, args)
    return 0


def cmd_generate(args) -> int:
    theta = parse_params(args.params)
    if args.grid:
        if any(v is not None for v in (args.m, args.eta, args.j)):
            raise CliError("--grid fixes m and J itself; drop --m/--eta/--j")
        if _given(args, ("set", "noise", "seed")):
            raise CliError("--grid prices noise-free calls on its own strikes; "
                           "drop --set/--noise/--seed")
        try:
            m_s, j_s, tau_s = args.grid.split(",")
            m, j, tau = int(m_s), int(j_s), float(tau_s)
        except ValueError:
            raise CliError("--grid expects 'm,J,tau'")
        spot = 1.0 if args.spot is None else args.spot
        ctx = MarketContext(spot=spot, rate=args.rate or 0.0)
        qf = run_generate_grid(theta, ctx, m, j, tau, L=_overrides(args).L)
    else:
        if args.spot is not None:
            raise CliError("--spot is the spot of --grid only; a quote set "
                           "carries its own; drop --spot")
        base = resolve_quotes(args.set or DEFAULT_SET, rate=args.rate)
        qf = run_generate(theta, base.context, base.quotes,
                          ov=_overrides(args), **_given(args, ("noise", "seed")))
    if args.out:
        save_quote_file(qf, args.out)
    else:
        sys.stdout.write(dumps_quotes(qf))
    return 0


def cmd_calibrate(args) -> int:
    _reject_unread_flags(args, args.backend)
    theta0 = parse_params(args.start)
    qf = resolve_quotes(args.quotes, rate=args.rate)
    if any(q.price is None for q in qf.quotes):
        raise CliError("calibration needs observed prices; run 'generate' "
                       "first or supply a priced quote file")
    report, result = run_calibrate(args.backend, qf, theta0, _config(args),
                                   _overrides(args))
    _emit(report, args)
    if result.stop_reason is not StopReason.RESIDUAL_TOL and not args.allow_partial:
        sys.stderr.write(
            f"calibration stopped on {result.stop_reason.value} "
            f"(|r| = {result.final_residual_norm:.3e}); pass --allow-partial "
            "to accept\n")
        return EXIT_NOT_CALIBRATED
    return 0


def cmd_speed(args) -> int:
    if args.set == "set3":
        _reject_unread_flags(args, "kswift", " (the only one set3 runs)")
    target = parse_params(args.params)
    start = parse_params(args.start)
    qf = resolve_quotes(args.set, rate=args.rate)
    report = run_speed(args.set, qf.quotes, qf.context, target, start,
                       reps=args.reps, config=_config(args),
                       ov=_overrides(args))
    _emit(report, args)
    return 0


def cmd_converge(args) -> int:
    qf = resolve_quotes("set2", rate=args.rate)
    report = run_converge(args.target, qf.quotes, qf.context,
                          trials=args.trials, seed=args.seed,
                          config=_config(args), ov=_overrides(args),
                          workers=args.workers)
    _emit(report, args)
    return 0


def _add_pricing_flags(p, with_swift=True, with_quadrature=True):
    if with_swift:
        p.add_argument("--m", type=int, help="pin the wavelet scale")
        p.add_argument("--eta", type=int, help="manual series half-width")
        p.add_argument("--j", type=int, help="manual J (density and payoff)")
    p.add_argument("--L", type=float, help="truncation-width multiplier "
                   f"(default {DEFAULT_L:g})")
    if with_quadrature:
        p.add_argument("--u-max", dest="u_max", type=float, help="quadrature "
                       f"truncation ubar (default {PricingOverrides.u_max:g})")
    p.add_argument("--rate", type=float, default=None,
                   help="override the risk-free rate of the quote file")
    p.add_argument("--out", help="also write the result as JSON to this path")


def _add_config_flags(p):
    base = CalibrationConfig()
    p.add_argument("--eps1", type=float, default=base.eps1,
                   help="residual-norm tolerance (default %(default)s)")
    p.add_argument("--eps2", type=float, default=base.eps2,
                   help="gradient infinity-norm tolerance (default %(default)s)")
    p.add_argument("--eps3", type=float, default=base.eps3,
                   help="relative-step tolerance (default %(default)s)")
    p.add_argument("--max-iter", dest="max_iter", type=int,
                   default=base.max_iterations,
                   help="iteration cap (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swiftcal",
        description="Heston option pricing and calibration with a "
                    "Shannon-wavelet Fourier engine")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price a quote file")
    p.add_argument("--backend", choices=("swift", "kswift", "cp"),
                   default="swift")
    p.add_argument("--params", required=True)
    p.add_argument("--quotes", required=True)
    _add_pricing_flags(p)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("generate", help="generate synthetic call prices")
    p.add_argument("--params", required=True)
    p.add_argument("--set", help="strike/maturity set or quote file "
                   f"(default {DEFAULT_SET}; not with --grid)")
    p.add_argument("--grid", help="dyadic strike grid spec 'm,J,tau'")
    p.add_argument("--spot", type=float,
                   help="spot for --grid generation (default 1.0)")
    p.add_argument("--noise", type=float,
                   help="additive Gaussian noise scale (default 0; not with --grid)")
    p.add_argument("--seed", type=int, help="noise seed (default 0; not with --grid)")
    _add_pricing_flags(p, with_quadrature=False)  # generate prices by swift only
    p.set_defaults(func=cmd_generate)

    # no abbreviations: a dropped --m would otherwise parse as --max-iter
    p = sub.add_parser("calibrate", help="fit the five parameters to quotes",
                       allow_abbrev=False)
    p.add_argument("--backend", choices=("swift", "kswift", "cp"),
                   default="kswift")
    p.add_argument("--quotes", required=True)
    p.add_argument("--start", required=True, help="initial parameter guess")
    p.add_argument("--allow-partial", action="store_true",
                   help="exit 0 even when the run does not reach ResidualTol")
    _add_pricing_flags(p, with_swift=False)  # backends select per group
    _add_config_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("speed", help="calibration timing comparison")
    p.add_argument("--set", choices=("set1", "set2", "set3"), default="set2")
    p.add_argument("--params", default="theta2", help="target parameters")
    p.add_argument("--start", default="theta2-start")
    p.add_argument("--reps", type=int, default=100)
    _add_pricing_flags(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_speed)

    p = sub.add_parser("converge", help="random-start convergence study")
    p.add_argument("--target", choices=CONVERGE_TARGETS, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=min(8, os.cpu_count() or 1))
    _add_pricing_flags(p, with_quadrature=False)  # converge fits with kswift only
    _add_config_flags(p)
    p.set_defaults(func=cmd_converge)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except QuoteParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except ChfOverflowError as exc:
        sys.stderr.write(
            f"numerical failure: {exc}\n"
            "remedies: lower --u-max or raise --m\n")
        return EXIT_NUMERICAL
    except NoConvergenceError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
