"""Command-line surface: exit codes, round trips, determinism, table repro."""

import argparse
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from swiftcal import cli, experiments
from swiftcal.cli import _PRICING_FLAGS, _UNREAD_BY_BACKEND, build_parser, main
from swiftcal.experiments import PricingOverrides
from swiftcal.fixtures import PARAM_SETS
from swiftcal.heston import ChfOverflowError
from swiftcal.quotes import load_quote_file, loads_quotes
from swiftcal.reports import ExperimentReport


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


def test_malformed_quote_file_exits_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.quotes"
    bad.write_text("spot 1.0\n0.5,oops,call\n")
    code, _, err = run_cli(capsys, "price", "--backend", "cp", "--params",
                           "theta2", "--quotes", str(bad))
    assert code == 2
    assert "line 2" in err


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


def test_generate_grid_matches_dyadic_definition(capsys, tmp_path):
    path = tmp_path / "grid.quotes"
    code, _, _ = run_cli(capsys, "generate", "--params", "theta2", "--grid",
                         "5,256,1.0", "--out", str(path))
    assert code == 0
    qf = load_quote_file(str(path))
    assert len(qf.quotes) == 256
    k = np.arange(256)
    want_x = (2.0 * k - 256) / 2.0**6
    got_x = np.sort(np.log(qf.context.spot / np.array([q.strike for q in qf.quotes])))
    assert np.allclose(np.sort(want_x), got_x, atol=1e-12)


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


def test_calibrate_rejects_discretization_flags(capsys):
    # the calibration backends select their own discretization per group
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--quotes", "set2", "--start", "theta2-start",
              "--m", "9"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("flag", ["--m", "--eta", "--j"])
def test_generate_grid_rejects_discretization_flags(capsys, flag):
    code, out, err = run_cli(capsys, "generate", "--params", "theta2", "--grid",
                             "5,256,1.0", flag, "9")
    assert code == 2
    assert out == ""
    assert "--grid" in err


def test_price_swift_manual_eta_and_j(capsys, tmp_path):
    path = tmp_path / "manual.json"
    code, _, _ = run_cli(capsys, "price", "--backend", "swift", "--params",
                         "theta2", "--quotes", "set2", "--m", "5", "--eta", "40",
                         "--j", "256", "--out", str(path))
    assert code == 0
    config = ExperimentReport.from_json(path.read_text()).metadata["config"]
    assert len(config) == 8  # one entry per set2 maturity
    for sp in config.values():
        assert (sp["m"], sp["eta"], sp["j_density"], sp["j_payoff"]) == (5, 40, 256, 256)
    code, _, err = run_cli(capsys, "price", "--backend", "swift", "--params",
                           "theta2", "--quotes", "set2", "--eta", "40")
    assert code == 2
    assert "--m" in err


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


def test_price_cp_rejects_zero_u_max(capsys):
    code, out, err = run_cli(capsys, "price", "--backend", "cp", "--params",
                             "theta2", "--quotes", "set2", "--u-max", "0")
    assert code == 2
    assert out == ""
    assert "u_max" in err


@pytest.mark.parametrize("argv,unread", [
    pytest.param(["price", "--backend", "cp", "--m", "9", "--L", "3", "--eta", "4",
                  "--j", "16"], ["--m", "--eta", "--j", "--L"], id="price-cp-swift-flags"),
    pytest.param(["price", "--backend", "cp", "--L", "3"], ["--L"], id="price-cp-L"),
    pytest.param(["price", "--backend", "swift", "--u-max", "1"], ["--u-max"],
                 id="price-swift-cp-flags"),
    pytest.param(["price", "--backend", "kswift", "--u-max", "1"], ["--u-max"],
                 id="price-kswift-u-max"),
    pytest.param(["calibrate", "--backend", "kswift", "--u-max", "1"], ["--u-max"],
                 id="calibrate-kswift-u-max"),
    pytest.param(["calibrate", "--backend", "swift", "--u-max", "1"], ["--u-max"],
                 id="calibrate-swift-u-max"),
    pytest.param(["calibrate", "--backend", "cp", "--L", "3"], ["--L"],
                 id="calibrate-cp-L"),
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
                 ["price", "--backend", "kswift", "--params", "theta2", "--quotes",
                  "set2", "--m", "6", "--L", "8"],
                 ["calibrate", "--backend", "kswift", "--quotes", priced_set2,
                  "--start", "theta2", "--L", "8"]):
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
                             "5,64,1.0", flag, value)
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


@pytest.mark.parametrize("grid,message", [("5,64", "'m,J,tau'"),
                                          ("5,100,1.0", "power of two")])
def test_generate_malformed_grid_exits_input_error(capsys, grid, message):
    # J must be a power of two: the grid is never rounded up behind the user
    code, out, err = run_cli(capsys, "generate", "--params", "theta2", "--grid", grid)
    assert code == 2
    assert out == ""
    assert message in err


def test_chf_overflow_exits_numerical(capsys, monkeypatch, long_file):
    def overflow(*args, **kwargs):
        raise ChfOverflowError("characteristic function overflowed")

    monkeypatch.setattr(cli, "run_price", overflow)
    code, out, err = run_cli(capsys, "price", "--backend", "cp", "--params",
                             "theta2", "--quotes", long_file)
    assert code == 3
    assert out == ""
    assert "numerical failure" in err
    assert "remedies: lower --u-max or raise --m" in err


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
    for command in ("price", "calibrate"):
        assert set(options[command]["--backend"].choices) == set(_UNREAD_BY_BACKEND)
        for opt, act in options[command].items():
            if act.dest in fields:
                assert _PRICING_FLAGS.get(act.dest) == opt, (command, opt)
    for backend, names in _UNREAD_BY_BACKEND.items():
        assert set(names) <= set(_PRICING_FLAGS), backend


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


def _worker_blas_threads():
    return experiments._openblas().scipy_openblas_get_num_threads64_()


def test_pool_workers_run_one_blas_thread():
    if experiments._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    with ProcessPoolExecutor(max_workers=1,
                             initializer=experiments._one_blas_thread) as pool:
        assert pool.submit(_worker_blas_threads).result() == 1


def test_converge_records_worker_blas_threads():
    from swiftcal.fixtures import DEFAULT_CONTEXT, set2_quotes

    quotes = set2_quotes()
    meta = [experiments.run_converge("eq", quotes, DEFAULT_CONTEXT, trials=2,
                                     workers=w).metadata for w in (1, 2)]
    assert meta[0]["blas_threads_per_worker"] is None
    assert meta[1]["blas_threads_per_worker"] == (
        1 if experiments._openblas() is not None else None)


def test_speed_cli_smoke(capsys, tmp_path):
    path = tmp_path / "speed.json"
    code, out, _ = run_cli(capsys, "speed", "--set", "set1", "--reps", "2",
                           "--out", str(path))
    assert code == 0
    rep = ExperimentReport.from_json(path.read_text())
    methods = {r["method"] for r in rep.rows}
    assert methods == {"swift", "kswift", "cp"}
    assert rep.metadata["ratio_swift_over_kswift"] > 1.0
