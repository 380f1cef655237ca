"""Command-line surface: exit codes, round trips, determinism, table repro."""

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swiftcal import cli, experiments
from swiftcal.calibrate import CalibrationConfig
from swiftcal.cli import _PRICING_FLAGS, _UNREAD_BY_BACKEND, build_parser, main
from swiftcal.experiments import PricingOverrides
from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS, set2_quotes
from swiftcal.heston import ChfOverflowError
from swiftcal.quotes import load_quote_file, loads_quotes
from swiftcal.reference import QuadratureConfig, price_cp
from swiftcal.reports import ExperimentReport
from swiftcal.swift import SwiftParams, select_scale


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LONG_ROWS = "spot 100.0\nrate 0.0\n45,50,call\n45,100,call\n45,200,call\n"
SHORT_ROWS = "spot 100.0\nrate 0.0\n0.04,50,call\n0.04,100,call\n0.04,200,call\n"


@pytest.fixture()
def long_file(tmp_path):
    p = tmp_path / "long.quotes"
    p.write_text(LONG_ROWS)
    return str(p)


@pytest.fixture()
def short_file(tmp_path):
    p = tmp_path / "short.quotes"
    p.write_text(SHORT_ROWS)
    return str(p)


def test_price_cp_reproduces_long_maturity_values(capsys, long_file, tmp_path):
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "price", "--backend", "cp", "--params",
                           "stress", "--quotes", long_file, "--u-max", "6",
                           "--out", str(out_path))
    assert code == 0
    rep = ExperimentReport.from_json(out_path.read_text())
    got = {row["strike"]: row["price"] for row in rep.rows}
    for strike, want in ((50.0, 65.565), (100.0, 46.911), (200.0, 27.198)):
        assert abs(got[strike] - want) < 1e-3
    assert rep.metadata["config"]["u_max"] == 6.0


def test_price_swift_pinned_scale_long_maturity(capsys, long_file):
    code, out, _ = run_cli(capsys, "price", "--backend", "swift", "--params",
                           "stress", "--quotes", long_file, "--m", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("45")]
    got = {float(l.split()[1]): float(l.split()[-1]) for l in lines}
    for strike, want in ((50.0, 65.565), (100.0, 46.911), (200.0, 27.198)):
        assert abs(got[strike] - want) < 1e-3


def test_price_swift_short_maturity_scale_seven(capsys, short_file):
    code, out, _ = run_cli(capsys, "price", "--backend", "swift", "--params",
                           "stress", "--quotes", short_file, "--m", "7")
    assert code == 0
    rows = {float(l.split()[1]): float(l.split()[-1])
            for l in out.splitlines() if l.startswith("0.04")}
    assert abs(rows[50.0] - 50.000) < 1e-3
    assert abs(rows[100.0] - 1.046) < 1e-3
    # grouped pricing shares one expansion across the three strikes, so the
    # unpriceable deep-OTM row comes out as numerical zero rather than exact 0
    assert abs(rows[200.0]) < 1e-6


def test_pinned_scale_too_coarse_exits_numerical(capsys, short_file):
    # scale 3 cannot recover a two-week density: numerical failure, code 3
    code, _, err = run_cli(capsys, "price", "--backend", "swift", "--params",
                           "stress", "--quotes", short_file, "--m", "3")
    assert code == 3
    assert "numerical failure" in err
    assert "remedy: drop --m" in err


@pytest.mark.parametrize("argv,where,remedy", [
    pytest.param(["price", "--params", "fx", "--quotes", "stress"], "tau=45, K=",
                 False, id="price-fx-stress"),
    pytest.param(["price", "--params", "eq", "--quotes", "set2", "--m", "4"], "K=",
                 True, id="price-eq-m4"),
    pytest.param(["generate", "--params", "eq", "--m", "4"], "K=0.9371",
                 True, id="generate-eq-m4"),
])
def test_price_outside_the_no_arbitrage_band_exits_numerical(capsys, argv, where,
                                                             remedy):
    # an unresolved expansion prices a call past [max(F - K e^{-r tau}, 0), F]:
    # fx's tau=45 density leaks past its interval (calls of order 1e33), and
    # scale 4 cannot hold eq's short expiries (negative calls)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "outside its no-arbitrage band" in err and where in err
    assert ("remedy: drop --m" in err) == remedy


EXTREME_PRICE_CASES = {  # name: (params, quote rows or a bundled set)
    "sigma-underflow": ("kappa=1.5,v_bar=0.04,sigma=1e-200,rho=-0.5,v0=0.04", "set2"),
    "weight-overflow": ("kappa=1.5,v_bar=0.04,sigma=1e-160,rho=-0.5,v0=0.04", "set2"),
    "kappa-underflow": ("kappa=1e-200,v_bar=0.04,sigma=0.5,rho=-0.5,v0=0.04", "set2"),
    "v_bar-1e300": ("kappa=1.5,v_bar=1e300,sigma=0.5,rho=-0.5,v0=0.04", "set2"),
    "tau-1e300": ("theta2", "spot 1.0\n1e300,1.0,call\n"),
    "strike-1e300": ("theta2", "spot 1.0\n1.0,1e300,call\n"),
    "tau-1000": ("theta2", "spot 1.0\n1000,1.0,call\n"),
    # a maturity priced inside the band, then the tau=1000 call
    "tau-1000-second": ("theta2", "spot 1.0\n0.5,0.9,call\n1000,1.0,call\n"),
}
# (case, backend): a message the failure must name
EXTREME_PRICE_FAILURES = {
    ("sigma-underflow", "swift"): "sigma = 1e-200 squares to zero",
    ("sigma-underflow", "cp"): "sigma = 1e-200 squares to zero",
    ("weight-overflow", "swift"): "2 kappa v_bar / sigma^2 overflows",
    ("weight-overflow", "cp"): "2 kappa v_bar / sigma^2 overflows",
    ("v_bar-1e300", "swift"): "needs j_density = 2^990, above MAX_J = 2^20",
    ("kappa-underflow", "swift"): "interval at scale 7 is not finite",
    ("tau-1000", "swift"): "outside its no-arbitrage band",
    ("tau-1000", "cp"): "call price 1.49879 at tau=1000, K=1 lies outside",
    ("tau-1000-second", "swift"): "at tau=1000, K=1 lies outside",
    ("tau-1000-second", "cp"): "call price 1.49879 at tau=1000, K=1 lies outside",
}


@pytest.mark.parametrize("backend", ["swift", "cp"])
@pytest.mark.parametrize("case", list(EXTREME_PRICE_CASES))
def test_price_at_extreme_inputs_exits_without_a_traceback(capsys, tmp_path, case,
                                                           backend):
    # each row prices, is refused as input, or fails by a named numerical
    # error, in a message of at most a few lines: never exit 1, and (the
    # suite turns warnings into errors) no numpy warning on the way.  No row
    # pins --m, and each failure happens at every scale and cutoff (sigma^2
    # underflows, 2 kappa v_bar / sigma^2 overflows), so none names a remedy
    params, quotes = EXTREME_PRICE_CASES[case]
    if "\n" in quotes:
        path = tmp_path / "extreme.quotes"
        path.write_text(quotes)
        quotes = str(path)
    code, _, err = run_cli(capsys, "price", "--backend", backend, "--params", params,
                           "--quotes", quotes)
    assert code in (0, 2, 3), err
    assert len(err) < 200 and "remed" not in err, err
    named = EXTREME_PRICE_FAILURES.get((case, backend))
    if named is not None:
        assert code == 3 and named in err


def test_malformed_quote_file_exits_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.quotes"
    bad.write_text("spot 1.0\n0.5,oops,call\n")
    code, _, err = run_cli(capsys, "price", "--backend", "cp", "--params",
                           "theta2", "--quotes", str(bad))
    assert code == 2
    assert "line 2" in err


def test_unknown_kind_in_quote_text_exits_input_error(capsys, tmp_path):
    # OptionQuote judges the kind, as for JSON files; the line is named
    bad = tmp_path / "bad.quotes"
    bad.write_text("spot 1.0\n0.5,1.0,call\n0.5,1.1,Straddle\n")
    code, out, err = run_cli(capsys, "price", "--params", "theta2", "--quotes", str(bad))
    assert code == 2 and out == ""
    assert "line 3: kind must be one of ('call', 'put'), got 'straddle'" in err


def test_scale_failure_names_its_maturity(capsys, tmp_path):
    # no scale holds theta2's transform tail at tau = 1e-5; the two other
    # maturities select one, and the message names only the failing tau
    path = tmp_path / "mixed.quotes"
    path.write_text("spot 1.0\n0.5,1.0,call\n0.00001,1.0,call\n1.0,1.0,put\n")
    code, out, err = run_cli(capsys, "price", "--params", "theta2", "--quotes", str(path))
    assert code == 3 and out == ""
    assert "tail mass still above 1e-07 at scale 12 (tau=1e-05)" in err
    assert "tau=0.5" not in err and "tau=1.0" not in err


def test_unknown_params_exits_input_error(capsys, long_file):
    code, _, err = run_cli(capsys, "price", "--backend", "cp", "--params",
                           "theta9", "--quotes", long_file)
    assert code == 2
    assert "theta9" in err


def test_empty_quote_file_ok(capsys, tmp_path):
    p = tmp_path / "empty.quotes"
    p.write_text("spot 1.0\nrate 0.0\n")
    code, out, _ = run_cli(capsys, "price", "--backend", "cp", "--params",
                           "theta2", "--quotes", str(p))
    assert code == 0
    assert "(no rows)" in out


def test_generate_deterministic_and_cross_priced(capsys, tmp_path):
    out1, out2 = tmp_path / "a.quotes", tmp_path / "b.quotes"
    for path in (out1, out2):
        code, _, _ = run_cli(capsys, "generate", "--params", "theta2",
                             "--set", "set2", "--out", str(path))
        assert code == 0
    assert out1.read_text() == out2.read_text()  # bit-exact reproducibility
    qf = load_quote_file(str(out1))
    assert len(qf.quotes) == 40
    assert all(q.price is not None and q.price >= 0 for q in qf.quotes)
    # cross-price with the quadrature backend
    rep_path = tmp_path / "cp.json"
    code, _, _ = run_cli(capsys, "price", "--backend", "cp", "--params",
                         "theta2", "--quotes", str(out1), "--out", str(rep_path))
    assert code == 0
    rep = ExperimentReport.from_json(rep_path.read_text())
    cp = {(r["maturity"], r["strike"]): r["price"] for r in rep.rows}
    for q in qf.quotes:
        assert abs(cp[(q.maturity, q.strike)] - q.price) <= 1e-7


def test_generate_noise_is_seeded(capsys, tmp_path):
    a, b, c = (tmp_path / n for n in ("n1.quotes", "n2.quotes", "n3.quotes"))
    for path, seed in ((a, "7"), (b, "7"), (c, "8")):
        code, _, _ = run_cli(capsys, "generate", "--params", "theta2", "--set",
                             "set1", "--noise", "1e-4", "--seed", seed,
                             "--out", str(path))
        assert code == 0
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def _grid_x(qf):
    """Log-moneyness ln(S/K) of every row of a written grid, ascending."""
    return np.sort(np.log(qf.context.spot / np.array([q.strike for q in qf.quotes])))


def test_generate_grid_matches_dyadic_definition(capsys, tmp_path):
    # the rows are the dyadic points j/2^m inside the band, whatever J_d is;
    # theta2 at tau=1 selects m=4
    path = tmp_path / "grid.quotes"
    code, _, _ = run_cli(capsys, "generate", "--params", "theta2", "--grid",
                         "2.0,1.0", "--out", str(path))
    assert code == 0
    qf = load_quote_file(str(path))
    assert len(qf.quotes) == 65
    assert np.allclose(_grid_x(qf), np.arange(-32, 33) / 2.0**4, atol=1e-12)


def test_generate_grid_central_band_matches_reference(capsys, tmp_path):
    # fx's wide density at tau=2 makes it the grid whose central band
    # decides, at --m 9 and at the selected scale, 8
    path = tmp_path / "grid.quotes"
    qc = QuadratureConfig(nodes=1536, u_max=2400.0)
    for m, rows in ((["--m", "9"], 513), ([], 257)):
        code, _, _ = run_cli(capsys, "generate", "--params", "fx", "--grid",
                             "0.5,2.0", *m, "--out", str(path))
        assert code == 0
        qf = load_quote_file(str(path))
        assert len(qf.quotes) == rows
        assert np.all(np.abs(_grid_x(qf)) <= 0.5 + 1e-12)
        err = max(abs(q.price - price_cp(PARAM_SETS["fx"], qf.context, q, qc))
                  for q in qf.quotes)
        assert err <= 1e-7, m


@pytest.mark.parametrize("band", ["0.5", "2.0"])
@pytest.mark.parametrize("target,tau", [("theta2", 1.0), ("eq", 1.0), ("ir", 1.0),
                                        ("fx", 2.0)])
def test_generate_grid_writes_the_band_inside_no_arbitrage_bounds(
        capsys, tmp_path, target, tau, band):
    # every written row is a dyadic point j/2^m of the band at the selected
    # scale, and its call lies in [max(S - K, 0) - d, S + d] (rate 0)
    path = tmp_path / "grid.quotes"
    code, _, _ = run_cli(capsys, "generate", "--params", target, "--grid",
                         f"{band},{tau}", "--out", str(path))
    assert code == 0
    qf = load_quote_file(str(path))
    m = select_scale(PARAM_SETS[target], tau, qf.context)
    j = _grid_x(qf) * 2.0**m
    width = int(np.floor(float(band) * 2.0**m))
    assert np.allclose(j, np.round(j), rtol=0.0, atol=1e-9)
    assert list(np.round(j).astype(int)) == list(range(-width, width + 1))
    strikes = np.array([q.strike for q in qf.quotes])
    prices = np.array([q.price for q in qf.quotes])
    slack = 1e-4 * strikes
    assert np.all(prices >= np.maximum(1.0 - strikes, 0.0) - slack)
    assert np.all(prices <= 1.0 + slack)


def test_generate_grid_overflowing_wing_refused_unwarned(capsys):
    # a band of 700 puts edge strikes near 1e304: the grid's FFT overflows
    # in the wings, and the infinite call is refused by the band check with
    # no numpy warning on the way
    code, out, err = run_cli(capsys, "generate", "--params", "theta2", "--grid",
                             "700,1.0")
    assert code == 3 and out == ""
    assert "call price inf at tau=1" in err and "outside its no-arbitrage band" in err


def test_json_quote_file_through_cli(capsys, tmp_path):
    json_path = tmp_path / "quotes.json"
    code, _, _ = run_cli(capsys, "generate", "--params", "theta2", "--set",
                         "set1", "--out", str(json_path))
    assert code == 0
    assert json_path.read_text().lstrip().startswith("{")
    text_path = tmp_path / "quotes.txt"
    code, _, _ = run_cli(capsys, "generate", "--params", "theta2", "--set",
                         "set1", "--out", str(text_path))
    assert code == 0
    assert load_quote_file(str(json_path)) == load_quote_file(str(text_path))
    code, out, _ = run_cli(capsys, "price", "--backend", "cp", "--params",
                           "theta2", "--quotes", str(json_path))
    assert code == 0
    assert out.count("call") == 40


def test_calibrate_cli_round_trip(capsys, tmp_path):
    quotes = tmp_path / "set2.quotes"
    code, _, _ = run_cli(capsys, "generate", "--params", "theta2", "--set",
                         "set2", "--out", str(quotes))
    assert code == 0
    rep_path = tmp_path / "fit.json"
    code, out, _ = run_cli(capsys, "calibrate", "--quotes", str(quotes),
                           "--start", "theta2-start", "--backend", "kswift",
                           "--out", str(rep_path))
    assert code == 0
    rep = ExperimentReport.from_json(rep_path.read_text())
    row = rep.rows[0]
    assert row["stop_reason"] == "ResidualTol"
    assert row["final_objective"] <= 1e-10
    assert abs(row["sigma"] - 0.0175) < 1e-2
    # fresh Jacobian assemblies go to metadata; the row is unchanged
    assert 1 <= rep.metadata["jacobian_evals"] <= row["iterations"]
    assert "jacobian_evals" not in row


def test_calibrate_rejects_discretization_flags(capsys):
    # the calibration backends select their own discretization per group,
    # in calibrate and in the fits speed and converge time
    for argv in (["calibrate", "--quotes", "set2", "--start", "theta2-start"],
                 ["speed", "--set", "set1", "--reps", "1"],
                 ["converge", "--target", "fx", "--trials", "1"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--m", "9"])
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv", [
    ["generate", "--params", "theta2", "--u-max", "1"],
    ["generate", "--params", "theta2", "--chf-form", "schoutens"],
    ["converge", "--target", "fx", "--trials", "1", "--u-max", "1"],
    ["converge", "--target", "fx", "--trials", "1", "--chf-form", "schoutens"],
    ["calibrate", "--quotes", "set2", "--start", "theta2-start", "--chf-form", "cui"],
    ["speed", "--set", "set1", "--reps", "1", "--chf-form", "cui"],
    ["price", "--params", "theta2", "--quotes", "set2", "--backend", "cp",
     "--chf-form", "cui"],
])
def test_swift_only_commands_reject_quadrature_flags(capsys, argv):
    # generate prices with swift and converge fits with kswift: neither
    # reaches the quadrature pricer --u-max configures.  calibrate and speed
    # keep --u-max for the cp backend.  No subcommand takes a chf form: the
    # quadrature prices through the one stabilized form
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_generate_grid_reads_m(capsys, tmp_path):
    # --m pins the grid's scale as it does every other group's
    path = tmp_path / "grid.quotes"
    code, _, _ = run_cli(capsys, "generate", "--params", "theta2", "--grid",
                         "1.0,1.0", "--m", "5", "--out", str(path))
    assert code == 0
    qf = load_quote_file(str(path))
    assert len(qf.quotes) == 65
    assert np.allclose(_grid_x(qf), np.arange(-32, 33) / 2.0**5, atol=1e-12)


@pytest.fixture(scope="module")
def priced_set2(tmp_path_factory):
    path = tmp_path_factory.mktemp("priced") / "set2.quotes"
    assert main(["generate", "--params", "theta2", "--set", "set2",
                 "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("flag", ["--eps1", "--eps2", "--eps3", "--max-iter"])
def test_calibrate_rejects_zero_config_flag(capsys, priced_set2, flag):
    # a zero tolerance or iteration cap is invalid, not a request for the default
    code, out, err = run_cli(capsys, "calibrate", "--quotes", priced_set2,
                             "--start", "theta2-start", flag, "0")
    assert code == 2
    assert out == ""
    assert "positive" in err


@pytest.fixture
def grids_built(monkeypatch):
    """Frequency grids built: a discretization's one grid, which its density
    and payoff expansions share, or the quadrature nodes."""
    from swiftcal import reference, swift

    built = []
    for owner, name in ((swift.SwiftParams, "density_freqs"), (reference, "_grid")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            built.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return built


@pytest.mark.parametrize("argv", [
    pytest.param(["price", "--params", "theta2", "--quotes", "set1", "--m", "13"],
                 id="m-13"),
    pytest.param(["price", "--params", "theta2", "--quotes", "set1", "--m", "-1"],
                 id="m-negative"),
    pytest.param(["generate", "--params", "theta2", "--grid", "1.0,1.0", "--m", "13"],
                 id="grid-13"),
    # 2.0**m overflows a float at m = 5000 and is 0.0 at m = -5000
    pytest.param(["price", "--params", "theta2", "--quotes", "set2", "--m", "5000"],
                 id="m-5000"),
    pytest.param(["generate", "--params", "theta2", "--grid", "1.0,1.0", "--m", "5000"],
                 id="grid-5000"),
    pytest.param(["generate", "--params", "theta2", "--grid", "1.0,1.0", "--m", "-5000"],
                 id="grid-negative-5000"),
])
def test_scale_outside_the_range_exits_input_error(capsys, grids_built, argv):
    # a scale past swift.MAX_SCALE would size grids of 2^m points; the check
    # fires before any 2^m is formed or grid built
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "m must be in [0, 12]" in err
    assert grids_built == []


@pytest.mark.parametrize("flag", ["--eta", "--j", "--L"])
@pytest.mark.parametrize("argv", [
    ["price", "--params", "theta2", "--quotes", "set2"],
    ["generate", "--params", "theta2"],
    ["calibrate", "--quotes", "set2", "--start", "theta2-start"],
], ids=["price", "generate", "calibrate"])
def test_removed_discretization_flags_exit_input_error(capsys, grids_built, argv,
                                                       flag):
    # every group's interval is selected and mass-checked at the fixed
    # cumulant multiplier; no flag sets eta, J or L
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "8"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert grids_built == []


@pytest.mark.parametrize("argv,code,message", [
    pytest.param(["price", "--params",
                  "kappa=1e-4,v_bar=4,sigma=5,rho=0.999,v0=4", "--quotes", "CORNER"],
                 3, "scale 8 needs j_density = 2^23, above MAX_J", id="corner"),
    pytest.param(["generate", "--params", "theta2", "--grid", "200,1.0", "--m", "12"],
                 3, "scale 12 needs j_density = 2^21, above MAX_J", id="grid"),
])
def test_grid_above_max_j_refused_before_it_is_built(capsys, tmp_path, grids_built,
                                                     argv, code, message):
    # a point inside the calibration box at tau=45 would need 2^23 density
    # terms at its selected scale (2^26 after growth); a --grid band too
    # wide for swift.MAX_J at its scale is refused the same way, and names
    # the pinned scale as the flag to drop
    corner = tmp_path / "corner.quotes"
    corner.write_text("spot 1.0\n45,0.9,call\n45,1.1,call\n")
    got, out, err = run_cli(capsys, *(str(corner) if a == "CORNER" else a
                                      for a in argv))
    assert got == code
    assert out == ""
    assert message in err
    assert ("remedy: drop --m" in err) == ("--m" in argv)
    assert grids_built == []


def test_scale_range_named_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["price", "--help"])
    assert "0 to 12" in capsys.readouterr().out


@pytest.mark.parametrize("field,row", [
    ("price", "0.5,1.0,call,nan"), ("strike", "0.5,nan,call,0.1"),
    ("spot", "0.5,1.0,call,0.1")])
def test_non_finite_quote_file_exits_input_error(capsys, tmp_path, grids_built,
                                                 field, row):
    path = tmp_path / "nan.quotes"
    path.write_text(f"spot {'nan' if field == 'spot' else '1.0'}\n{row}\n")
    code, out, err = run_cli(capsys, "calibrate", "--quotes", str(path), "--start",
                             "theta2-start", "--allow-partial")
    assert code == 2
    assert out == ""
    assert f"{field} must be" in err and "finite" in err
    assert grids_built == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_inline_params_exit_input_error(capsys, grids_built, value):
    code, out, err = run_cli(capsys, "price", "--params",
                             f"kappa=1.0,v_bar=0.04,sigma=0.3,rho=-0.5,v0={value}",
                             "--quotes", "set1")
    assert code == 2
    assert out == ""
    assert "bad inline parameters" in err and "v0 must be positive and finite" in err
    assert grids_built == []


@pytest.mark.parametrize("argv,message", [
    pytest.param(["price", "--params", "theta2", "--quotes", "set1", "--rate", "nan"],
                 "rate and dividend must be finite", id="rate"),
    pytest.param(["price", "--backend", "cp", "--params", "theta2", "--quotes", "set1",
                  "--u-max", "nan"], "u_max must be positive and finite", id="u-max"),
    pytest.param(["calibrate", "--quotes", "PRICED", "--start", "theta2-start",
                  "--eps1", "nan"], "tolerances must be positive and finite", id="eps1"),
    pytest.param(["generate", "--params", "theta2", "--set", "set1", "--noise", "-1"],
                 "noise must be nonnegative and finite", id="noise-negative"),
    pytest.param(["generate", "--params", "theta2", "--set", "set1", "--noise", "nan"],
                 "noise must be nonnegative and finite", id="noise-nan"),
    pytest.param(["generate", "--params", "theta2", "--grid", "1.0,nan"],
                 "grid tau must be positive and finite", id="grid-tau-nan"),
    pytest.param(["generate", "--params", "theta2", "--grid", "0,1.0"],
                 "grid band B must be positive and finite", id="grid-band-0"),
    pytest.param(["generate", "--params", "theta2", "--grid", "nan,1.0"],
                 "grid band B must be positive and finite", id="grid-band-nan"),
    # e^800 overflows a float, so the band has no finite edge strike
    pytest.param(["generate", "--params", "theta2", "--grid", "800,1.0"],
                 "puts an edge strike out of range", id="grid-band-800"),
])
def test_non_finite_or_negative_flag_exits_input_error(capsys, tmp_path, grids_built,
                                                       argv, message):
    # no NaN runs silently: each is refused where it enters, before pricing
    priced = tmp_path / "priced.quotes"
    priced.write_text("spot 1.0\n0.5,1.0,call,0.1\n")
    code, out, err = run_cli(capsys, *(str(priced) if a == "PRICED" else a
                                       for a in argv))
    assert code == 2
    assert out == ""
    assert message in err
    assert grids_built == []


def test_price_cp_rejects_zero_u_max(capsys):
    code, out, err = run_cli(capsys, "price", "--backend", "cp", "--params",
                             "theta2", "--quotes", "set2", "--u-max", "0")
    assert code == 2
    assert out == ""
    assert "u_max" in err


@pytest.mark.parametrize("argv,unread", [
    pytest.param(["price", "--backend", "cp", "--m", "9"], ["--m"],
                 id="price-cp-swift-flags"),
    pytest.param(["price", "--backend", "swift", "--u-max", "1"], ["--u-max"],
                 id="price-swift-cp-flags"),
    pytest.param(["calibrate", "--backend", "kswift", "--u-max", "1"], ["--u-max"],
                 id="calibrate-kswift-u-max"),
    pytest.param(["calibrate", "--backend", "swift", "--u-max", "1"], ["--u-max"],
                 id="calibrate-swift-u-max"),
])
def test_flags_the_backend_never_reads_rejected(capsys, priced_set2, argv, unread):
    # the subcommand takes these flags for another backend; the chosen one
    # would run as if they were not given
    inputs = (["--params", "theta2", "--quotes", "set2"] if argv[0] == "price" else
              ["--quotes", priced_set2, "--start", "theta2-start"])
    code, out, err = run_cli(capsys, *argv, *inputs)
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in unread)
    assert argv[2] in err


def test_flags_the_backend_reads_accepted(capsys, priced_set2):
    for argv in (["price", "--backend", "cp", "--params", "theta2", "--quotes", "set2",
                  "--u-max", "300"],
                 ["price", "--backend", "swift", "--params", "theta2", "--quotes",
                  "set2", "--m", "6"],
                 ["calibrate", "--backend", "kswift", "--quotes", priced_set2,
                  "--start", "theta2"]):
        assert run_cli(capsys, *argv)[0] == 0, argv


def test_speed_set3_rejects_u_max(capsys):
    # set3 runs the kswift backend only, which never reads --u-max
    code, out, err = run_cli(capsys, "speed", "--set", "set3", "--reps", "1",
                             "--u-max", "1")
    assert code == 2
    assert out == ""
    assert "--u-max" in err and "set3" in err


@pytest.mark.parametrize("flag,value", [("--set", "set1"), ("--noise", "0.5"),
                                        ("--seed", "3")])
def test_generate_grid_rejects_set_mode_flags(capsys, flag, value):
    # the grid mode prices noise-free calls on its own strikes
    code, out, err = run_cli(capsys, "generate", "--params", "theta2", "--grid",
                             "1.0,1.0", flag, value)
    assert code == 2
    assert out == ""
    assert "--grid" in err and flag in err


def test_generate_set_mode_rejects_spot(capsys):
    # a quote set carries its own spot; --spot is read by --grid only
    code, out, err = run_cli(capsys, "generate", "--params", "theta2", "--set",
                             "set1", "--spot", "100")
    assert code == 2
    assert out == ""
    assert "--spot" in err


@pytest.mark.parametrize("noise", [[], ["--noise", "0"]])
def test_generate_seed_without_noise_rejected(capsys, noise):
    # the seed drives the noise alone, so without noise it would be ignored
    code, out, err = run_cli(capsys, "generate", "--params", "theta2", "--set",
                             "set1", *noise, "--seed", "3")
    assert code == 2
    assert out == ""
    assert "--seed" in err and "--noise" in err


@pytest.mark.parametrize("grid", ["5,256,1.0", "1.0", "one,1.0"],
                         ids=["old-m-J-tau", "one-field", "not-a-number"])
def test_generate_malformed_grid_exits_input_error(capsys, grids_built, grid):
    # the selection picks J: the old 'm,J,tau' form is refused, not reread
    code, out, err = run_cli(capsys, "generate", "--params", "theta2", "--grid", grid)
    assert code == 2
    assert out == ""
    assert "'B,tau'" in err
    assert grids_built == []



def test_chf_overflow_exits_numerical(capsys, monkeypatch, long_file, priced_set2):
    # the remedy names only flags the subcommand takes and its backend
    # reads; a smaller cutoff or scale lowers the frequency range swept
    def overflow(*args, **kwargs):
        raise ChfOverflowError("characteristic function overflowed")

    for runner, argv, remedy in (
            ("run_price", ["price", "--backend", "cp", "--params", "theta2",
                           "--quotes", long_file], "remedy: lower --u-max\n"),
            ("run_price", ["price", "--params", "theta2", "--quotes", long_file],
             "remedy: lower --m\n"),
            ("run_generate", ["generate", "--params", "theta2"], "remedy: lower --m\n"),
            ("run_generate_grid", ["generate", "--params", "theta2", "--grid",
                                   "1.0,1.0"], "remedy: lower --m\n"),
            ("run_calibrate", ["calibrate", "--quotes", priced_set2, "--start",
                               "theta2"], None),
            ("run_converge", ["converge", "--target", "fx", "--trials", "1"], None)):
        monkeypatch.setattr(cli, runner, overflow)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "numerical failure" in err
        if remedy is None:  # no flag the run reads lowers the range swept
            assert "remed" not in err, argv
        else:
            assert err.endswith(remedy), argv


def test_generate_stdout_parses_back(capsys, tmp_path):
    path = tmp_path / "set1.quotes"
    assert run_cli(capsys, "generate", "--params", "theta2", "--set", "set1",
                   "--out", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "generate", "--params", "theta2", "--set", "set1")
    assert code == 0
    assert loads_quotes(out) == load_quote_file(str(path))


def _price_rows(capsys, path, *argv):
    code, _, err = run_cli(capsys, "price", *argv, "--out", str(path))
    assert code == 0, err
    return ExperimentReport.from_json(path.read_text()).rows


def test_params_from_json_file_and_inline_string(capsys, tmp_path):
    theta = PARAM_SETS["theta2"]
    fields = {f: getattr(theta, f) for f in ("kappa", "v_bar", "sigma", "rho", "v0")}
    param_file = tmp_path / "theta2.json"
    param_file.write_text(json.dumps(fields))
    inline = ",".join(f"{k}={v!r}" for k, v in fields.items())
    rows = [_price_rows(capsys, tmp_path / f"{i}.json", "--backend", "cp",
                        "--params", spec, "--quotes", "set1")
            for i, spec in enumerate(("theta2", str(param_file), inline))]
    assert rows[1] == rows[0] and rows[2] == rows[0]


@pytest.mark.parametrize("kind", ["file", "inline"])
def test_malformed_params_exit_input_error(capsys, tmp_path, kind):
    if kind == "file":
        spec = tmp_path / "partial.json"
        spec.write_text(json.dumps({"kappa": 1.0, "v_bar": 0.04}))  # 3 fields short
    else:
        spec = "kappa=1.0,v_bar=0.04,sigma=oops,rho=-0.5,v0=0.04"
    code, out, err = run_cli(capsys, "price", "--backend", "cp", "--params",
                             str(spec), "--quotes", "set1")
    assert code == 2
    assert out == ""
    assert f"bad {'parameter file' if kind == 'file' else 'inline parameters'}" in err


@pytest.mark.parametrize("spec,named", [
    ("kappa=1.5,kappa=0.3,v_bar=0.04,sigma=0.5,rho=-0.5,v0=0.04", "repeated key 'kappa'"),
    ("kappa=1.5,v_bar=0.04,sigma=0.5,rho=-0.5,v0=0.04,sigmaa=3", "unknown key 'sigmaa'"),
    ('{"kappa": 1.5, "kappa": 0.3, "v_bar": 0.04, "sigma": 0.5, "rho": -0.5, '
     '"v0": 0.04}', "repeated JSON key 'kappa'"),
    ('{"kappa": 1.5, "v_bar": 0.04, "sigma": 0.5, "rho": -0.5, "v0": 0.04, '
     '"sigmaa": 3}', "unknown key 'sigmaa'"),
    ('{"kappa": true, "v_bar": 0.04, "sigma": 0.5, "rho": -0.5, "v0": 0.04}',
     "kappa must be a number, got true"),
    ("kappa=1.5,v_bar", "item 'v_bar' is not key=value"),
    ("kappa=1.5,,v_bar=0.04", "item '' is not key=value"),
    ("kappa=1.5", "missing key 'v_bar'"),
    ("[1, 2]", "expected a JSON object, got list"),
    ('"abc"', "expected a JSON object, got str"),
    ("5", "expected a JSON object, got int"),
], ids=["inline-repeated", "inline-unknown", "file-repeated", "file-unknown",
        "file-boolean", "inline-no-equals", "inline-empty-item", "inline-missing",
        "file-array", "file-string", "file-number"])
def test_misread_params_exit_input_error(capsys, tmp_path, spec, named):
    # a repeated key would keep its last value, an unknown one be ignored,
    # and a JSON boolean read as 0 or 1; each refusal names the item, the
    # key or the object at fault
    if "=" not in spec:  # the contents of a parameter file
        path = tmp_path / "params.json"
        path.write_text(spec)
        spec = str(path)
    code, out, err = run_cli(capsys, "price", "--params", spec, "--quotes", "set1")
    assert code == 2
    assert out == ""
    assert named in err


def test_boolean_in_quote_json_exits_input_error(capsys, tmp_path):
    # float(true) is 1: the row would price a K=1 call
    path = tmp_path / "quotes.json"
    path.write_text('{"spot": 1.0, "quotes": [{"maturity": 0.5, "strike": true, '
                    '"kind": "call"}]}')
    code, out, err = run_cli(capsys, "price", "--params", "theta2", "--quotes", str(path))
    assert code == 2
    assert out == ""
    assert "strike must be a number, got true" in err


def test_calibrate_on_no_quotes_exits_input_error(capsys, tmp_path):
    # no quotes, no fit: the start is not reported as a ResidualTol fit
    path = tmp_path / "empty.quotes"
    path.write_text("spot 1.0\n")
    for backend in ("kswift", "swift", "cp"):
        code, out, err = run_cli(capsys, "calibrate", "--quotes", str(path),
                                 "--start", "theta2", "--backend", backend)
        assert code == 2, backend
        assert out == ""
        assert err == ("error: the quote set is empty: calibration needs at least "
                       "one quote\n")


@pytest.mark.parametrize("argv,named", [
    (["price", "--params", "theta2", "--quotes", "{dir}"], "Is a directory"),
    (["price", "--params", "{dir}", "--quotes", "set1"], "Is a directory"),
    (["price", "--params", "theta2", "--quotes", "set1", "--out",
      "{dir}/missing/rep.json"], "No such file or directory"),
], ids=["quotes-directory", "params-directory", "out-missing-directory"])
def test_unusable_path_exits_input_error(capsys, tmp_path, argv, named):
    # a path that cannot be read or written is an input error, not a traceback
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and named in err and str(tmp_path) in err
    assert len(err.splitlines()) == 1


def test_bundled_stress_quote_set(capsys, tmp_path):
    path = tmp_path / "stress.json"
    rows = _price_rows(capsys, path, "--backend", "cp", "--params", "stress",
                       "--quotes", "stress", "--u-max", "6")
    assert ExperimentReport.from_json(path.read_text()).metadata["spot"] == 100.0
    # a quote file keeps its quotes sorted by maturity, then strike
    assert [(r["maturity"], r["strike"]) for r in rows] == [
        (tau, k) for tau in (0.04, 45.0) for k in (50.0, 100.0, 200.0)]
    for row, want in zip(rows[3:], (65.565, 46.911, 27.198)):
        assert abs(row["price"] - want) < 1e-3


def test_pricing_flag_tables_match_the_parser():
    # a flag dropped from the parser cannot linger in the tables, and a
    # PricingOverrides flag cannot bypass the unread-flag rule
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {opt: act for act in sub._actions for opt in act.option_strings}
               for name, sub in subcommands.items()}
    defined = {opt: act.dest for opts in options.values() for opt, act in opts.items()}
    for name, flag in _PRICING_FLAGS.items():
        assert defined.get(flag) == name, flag
    fields = {f.name for f in dataclasses.fields(PricingOverrides)}
    backends = set()
    for command in ("price", "calibrate"):
        backends |= set(options[command]["--backend"].choices)
        for opt, act in options[command].items():
            if act.dest in fields:
                assert _PRICING_FLAGS.get(act.dest) == opt, (command, opt)
    assert backends == set(_UNREAD_BY_BACKEND)
    for backend, names in _UNREAD_BY_BACKEND.items():
        assert set(names) <= set(_PRICING_FLAGS), backend


def test_cli_surface_pinned():
    # the options each subcommand accepts, the price backends and the
    # settable pricing and discretization fields; a flag or setting added
    # or dropped changes this test and the README's flag list together
    common = {"-h", "--help", "--out", "--rate"}
    config = {"--eps1", "--eps2", "--eps3", "--max-iter"}
    want = {
        "price": common | {"--backend", "--params", "--quotes", "--m", "--u-max"},
        "generate": common | {"--params", "--set", "--grid", "--spot", "--noise",
                              "--seed", "--m"},
        "calibrate": common | config | {"--backend", "--quotes", "--start",
                                        "--allow-partial", "--u-max"},
        "speed": common | config | {"--set", "--params", "--start", "--reps",
                                    "--u-max"},
        "converge": common | config | {"--target", "--trials", "--seed", "--workers"},
    }
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    got = {name: {opt for act in sub._actions for opt in act.option_strings}
           for name, sub in subcommands.items()}
    assert got == want
    backend = next(a for a in subcommands["price"]._actions if a.dest == "backend")
    assert backend.choices == ("swift", "cp")
    assert [f.name for f in dataclasses.fields(PricingOverrides)] == ["m", "u_max"]
    assert [f.name for f in dataclasses.fields(SwiftParams)] == [
        "m", "eta", "j_density", "x_high"]


def test_calibrate_unpriced_quotes_rejected(capsys, tmp_path):
    code, _, err = run_cli(capsys, "calibrate", "--quotes", "set2",
                           "--start", "theta2-start")
    assert code == 2
    assert "prices" in err


def test_calibrate_partial_exit_code(capsys, tmp_path):
    quotes = tmp_path / "set2.quotes"
    run_cli(capsys, "generate", "--params", "theta2", "--set", "set2",
            "--out", str(quotes))
    code, _, err = run_cli(capsys, "calibrate", "--quotes", str(quotes),
                           "--start", "theta2-start", "--max-iter", "1")
    assert code == 4
    assert "MaxIterations" in err
    code, _, _ = run_cli(capsys, "calibrate", "--quotes", str(quotes),
                         "--start", "theta2-start", "--max-iter", "1",
                         "--allow-partial")
    assert code == 0


def test_fixture_dir_resolution(capsys, tmp_path, monkeypatch):
    fixture_dir = tmp_path / "fixtures"
    fixture_dir.mkdir()
    (fixture_dir / "mine.quotes").write_text("spot 100.0\n0.5,100,call\n")
    monkeypatch.setenv("SWIFTCAL_FIXTURE_DIR", str(fixture_dir))
    code, out, _ = run_cli(capsys, "price", "--backend", "cp", "--params",
                           "theta2", "--quotes", "mine")
    assert code == 0
    assert "0.5" in out


def test_converge_rows_bitwise_deterministic(capsys, tmp_path):
    paths = [tmp_path / "c1.json", tmp_path / "c2.json"]
    for path in paths:
        code, _, _ = run_cli(capsys, "converge", "--target", "eq", "--trials",
                             "4", "--seed", "11", "--workers", "1",
                             "--out", str(path))
        assert code == 0
    r1, r2 = (ExperimentReport.from_json(p.read_text()) for p in paths)
    assert r1.rows == r2.rows  # timing lives in metadata, rows are exact
    assert r1.metadata["seed"] == 11
    assert r1.rows[0]["share_converged"] == 1.0


def test_converge_rate_reaches_the_quotes(capsys, tmp_path):
    def rows(name, *extra):
        path = tmp_path / name
        code, _, _ = run_cli(capsys, "converge", "--target", "eq", "--trials",
                             "3", "--workers", "1", *extra, "--out", str(path))
        assert code == 0
        return ExperimentReport.from_json(path.read_text()).rows

    flat = rows("r0.json")
    rated = rows("r5a.json", "--rate", "0.05")
    assert rated != flat
    assert rows("r5b.json", "--rate", "0.05") == rated


def test_converge_rows_identical_across_worker_counts(tmp_path):
    # trials are self-contained and seeded up front, so fanning them over
    # processes cannot change the results
    from swiftcal.experiments import run_converge
    from swiftcal.fixtures import DEFAULT_CONTEXT, set2_quotes

    quotes = set2_quotes()
    seq = run_converge("eq", quotes, DEFAULT_CONTEXT, trials=4, seed=5, workers=1)
    par = run_converge("eq", quotes, DEFAULT_CONTEXT, trials=4, seed=5, workers=2)
    assert seq.rows == par.rows


@pytest.mark.parametrize("argv,name", [
    (["converge", "--target", "eq", "--trials", "0"], "trials"),
    (["converge", "--target", "eq", "--trials", "-3"], "trials"),
    (["converge", "--target", "eq", "--trials", "1", "--workers", "0"], "workers"),
    (["converge", "--target", "eq", "--trials", "1", "--workers", "-1"], "workers"),
    (["speed", "--set", "set1", "--reps", "0"], "reps"),
], ids=["trials-0", "trials-negative", "workers-0", "workers-negative", "reps-0"])
def test_degenerate_counts_exit_input_error(capsys, argv, name):
    # rejected up front, before a trial runs or an empty sample is reduced
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{name} must be at least 1" in err


def test_converge_workers_default_counts_usable_cpus(monkeypatch):
    # one CPU-count rule: the default pool fits the CPUs the process may run
    # on (as the chf chunker counts them), not the host's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.build_parser().parse_args(["converge", "--target", "fx"]).workers == 1


_FORKED_POOL_SCRIPT = """
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from swiftcal import heston
from swiftcal.experiments import run_converge
from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS, set2_quotes


def sweep():
    return heston.chf_cui_parts(np.linspace(0.0, 100.0, 32768), 1.0,
                                PARAM_SETS["fx"], DEFAULT_CONTEXT)[0]


heston._usable_cpus = lambda: 2  # the parent's chunk threads exist, also on one CPU
value = sweep()
assert heston._pool is not None
with ProcessPoolExecutor(max_workers=1) as pool:  # a child splitting a sweep
    assert np.array_equal(pool.submit(sweep).result(), value)
for target in ("fx", "ir", "eq"):
    rows = [run_converge(target, set2_quotes(), DEFAULT_CONTEXT, trials=3, seed=0,
                         workers=w).rows for w in (1, 2)]
    assert rows[0] == rows[1], target
print("ok")
"""


def test_forked_pool_workers_remake_the_chunk_threads(tmp_path):
    # a forked worker inherits the parent's chunk executor without its
    # threads; it must sweep on threads of its own, not wait forever on a
    # submit, and pool workers give the serial rows.  Run in its own session
    # so a hang can be killed whole.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-c", _FORKED_POOL_SCRIPT], env=env,
                            cwd=tmp_path, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a forked child hung after the parent swept on threads")
    assert proc.returncode == 0, err
    assert out.strip() == "ok"


_FORK_HOLDING_LOCKS_SCRIPT = """
import os

import numpy as np
from swiftcal import heston, swift
from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS

heston._usable_cpus = lambda: 2  # the child splits its sweep, also on one CPU
locks = (heston._pool_lock, swift._tables_lock)
for lock in locks:  # held as the child is forked; only the parent releases
    lock.acquire()
pid = os.fork()
if pid == 0:  # sweep on the chunk threads and store a new table
    heston.chf_cui_parts(np.linspace(0.0, 100.0, 32768), 1.0, PARAM_SETS["fx"],
                         DEFAULT_CONTEXT)
    swift._twiddle_table(64)
    os._exit(0)
for lock in locks:
    lock.release()
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print("ok")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_child_forked_while_the_locks_are_held_takes_its_own(tmp_path):
    # the chunk executor's lock and the table store's lock are both remade
    # in a forked child, so a lock held at the fork cannot hang it.  Run in
    # its own session so a hung parent and child are killed together.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-c", _FORK_HOLDING_LOCKS_SCRIPT],
                            env=env, cwd=tmp_path, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a child forked while a lock was held hung")
    assert proc.returncode == 0, err
    assert out.strip() == "ok"


@pytest.fixture()
def fits(monkeypatch):
    """The reports of every run_calibrate call, in call order."""
    reports, real = [], experiments.run_calibrate

    def counted(*args, **kwargs):
        report, result = real(*args, **kwargs)
        reports.append(report)
        return report, result

    monkeypatch.setattr(experiments, "run_calibrate", counted)
    return reports


def _fit_s(report):
    wall = report.metadata["wall_times"]
    return wall["setup_s"] + wall["calibrate_s"]


@pytest.mark.parametrize("set_name,want", [
    ("set2", {"swift": 1, "kswift": 2, "cp": 2}), ("set3", {"kswift": 2})])
def test_speed_times_each_run_calibrate_fit(fits, set_name, want):
    # every timed fit is one run_calibrate call, timed as build plus fit
    rep = experiments.run_speed(set_name, set2_quotes(), DEFAULT_CONTEXT,
                                PARAM_SETS["theta2"], PARAM_SETS["theta2-start"],
                                reps=2, config=CalibrationConfig(max_iterations=1))
    by_backend = {}
    for report in fits:
        by_backend.setdefault(report.metadata["backend"], []).append(report)
    assert {name: len(r) for name, r in by_backend.items()} == want
    for name, reports in by_backend.items():
        times = [_fit_s(r) for r in reports]
        assert rep.metadata["wall_times"][name] == {
            "mean_s": float(np.mean(times)), "min_s": float(np.min(times)),
            "reps": want[name]}
    # set3 splits every quote into its own group; set2 groups its 8 maturities
    groups = 40 if set_name == "set3" else 8
    assert all(len(r.metadata["swift_params"]) == groups
               for name in ("swift", "kswift") for r in by_backend.get(name, ()))


def test_converge_times_each_run_calibrate_fit(fits):
    rep = experiments.run_converge("eq", set2_quotes(), DEFAULT_CONTEXT, trials=3,
                                   workers=1, config=CalibrationConfig(max_iterations=1))
    assert [r.metadata["backend"] for r in fits] == ["kswift"] * 3
    times = [_fit_s(r) for r in fits]
    assert rep.metadata["wall_times"] == {"mean_trial_s": float(np.mean(times)),
                                          "total_s": float(np.sum(times))}


def test_swift_and_kswift_reports_record_one_discretization(priced_set2):
    # both backends price on the grids of one plan, and both reports say which
    qf = load_quote_file(priced_set2)
    params = [experiments.run_calibrate(backend, qf, PARAM_SETS["theta2-start"],
                                        CalibrationConfig(max_iterations=1))[0]
              .metadata["swift_params"] for backend in ("swift", "kswift")]
    assert len(params[0]) == 8
    assert params[0] == params[1]


def test_speed_cli_smoke(capsys, tmp_path):
    path = tmp_path / "speed.json"
    code, out, _ = run_cli(capsys, "speed", "--set", "set1", "--reps", "2",
                           "--out", str(path))
    assert code == 0
    rep = ExperimentReport.from_json(path.read_text())
    methods = {r["method"] for r in rep.rows}
    assert methods == {"swift", "kswift", "cp"}
    assert rep.metadata["ratio_swift_over_kswift"] > 1.0
    evals = rep.metadata["jacobian_evals"]
    assert set(evals) == methods and all(
        1 <= evals[r["method"]] <= r["iterations"] for r in rep.rows)
    # the LM configuration and cp's quadrature, as the fits ran them
    assert rep.metadata["config"] == {"eps1": 1e-6, "eps2": 1e-12, "eps3": 1e-12,
                                      "max_iterations": 100}
    assert rep.metadata["quadrature"] == {"nodes": 64, "u_max": 200.0}


def test_cp_calibrate_report_records_its_quadrature(capsys, tmp_path):
    quotes = tmp_path / "set1.quotes"
    code, _, _ = run_cli(capsys, "generate", "--params", "theta2", "--set",
                         "set1", "--out", str(quotes))
    assert code == 0
    rep_path = tmp_path / "fit.json"
    code, _, _ = run_cli(capsys, "calibrate", "--quotes", str(quotes), "--start",
                         "theta2-start", "--backend", "cp", "--u-max", "150",
                         "--max-iter", "1", "--out", str(rep_path))
    assert code in (0, cli.EXIT_NOT_CALIBRATED)
    rep = ExperimentReport.from_json(rep_path.read_text())
    assert rep.metadata["quadrature"] == {"nodes": 64, "u_max": 150.0}
    assert rep.metadata["config"]["max_iterations"] == 1
