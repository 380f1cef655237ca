"""The benchmark's tracer rebinds swiftcal names and must restore every one.

``perfbench/tracing.py`` looks entry points up by name in the modules their
callers use; a refactor that renames or drops one of those names fails here
instead of in a later traced benchmark run.
"""

import importlib
import threading
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("swift", "calibrate", "reference", "experiments")

# names behind the benchmark's per-layer counts
COUNTED = {
    ("swift", "chf_cui_parts"), ("reference", "chf_cui_parts"),
    ("swift", "chf_gradient_from_parts"), ("swift", "cumulants"),
    ("swift", "density_area"), ("swift", "np"),
    ("calibrate", "select_scale"), ("calibrate", "select_truncation"),
    ("calibrate", "MultiStrikePricer"), ("calibrate", "KswiftBackend"),
    ("calibrate", "calibrate"), ("calibrate", "lm_step"),
    ("experiments", "select_scale"), ("experiments", "select_truncation"),
    ("experiments", "price_multi_strike"), ("experiments", "price_cp"),
    ("experiments", "run_price"),
}


def test_tracer_rebinds_and_restores_entry_points(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    modules = {name: importlib.import_module(f"swiftcal.{name}") for name in MODULES}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    with Tracer().installed():
        rebound = {(name, attr) for name, mod in modules.items()
                   for attr, value in vars(mod).items()
                   if before[name].get(attr) is not value}
    assert COUNTED <= rebound, COUNTED - rebound
    for name, mod in modules.items():
        after = vars(mod)
        assert after.keys() == before[name].keys(), name
        assert all(after[attr] is value for attr, value in before[name].items()), name


def test_benchmark_workloads_run_on_the_public_api(monkeypatch):
    # the benchmark's calls into swiftcal, one job each; PriceOneshot is left
    # out because its set-up prices 256 quadrature references
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from tracing import NullTracer

    for workload in (workloads.SurfaceShort(7), workloads.ConvergeLong(7)):
        outcome = workload.run(0, NullTracer())
        assert outcome.failure is None, workload.name
        assert outcome.calibrated, workload.name
    fx = workloads.PARAM_SETS["fx"]
    workloads._selection(fx, workloads.set2_quotes())


def test_tracer_sees_every_kswift_chf_frequency(monkeypatch):
    # the benchmark's heston.chf_freqs counts the chf calls made through the
    # swift module's names; a sweep that reached the chf another way would
    # escape it and the count would fall short of sum J_d.  The backend
    # starts from the selection's sweeps, so it sweeps away from the start.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from swiftcal import HestonParams
    from swiftcal.experiments import run_generate
    from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS, set2_quotes

    cal = importlib.import_module("swiftcal.calibrate")
    quotes = run_generate(PARAM_SETS["theta2"], DEFAULT_CONTEXT, set2_quotes()).quotes
    start = PARAM_SETS["theta2-start"]
    theta = HestonParams.from_array(start.as_array() * 1.01)
    tracer = Tracer()
    with tracer.installed():
        backend = cal.KswiftBackend(quotes, DEFAULT_CONTEXT, start)
        with tracer.job(0):
            backend.prices(theta)
            backend.prices_and_jacobian(theta)
    assert tracer.counts["heston.chf_freqs"] == sum(
        sp.j_density for sp in backend.swift_params)


def test_tracer_counts_run_price_through_the_plan(monkeypatch):
    # run_price selects all groups together and builds through calibrate's
    # names, where the tracer counts the pricers: the report's sum J_d, and
    # exactly the chf frequencies and mass checks of selecting every group
    # alone, no sweep beyond the selection's own
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS, set2_quotes
    from swiftcal.quotes import QuoteFile

    exp = importlib.import_module("swiftcal.experiments")
    swift = importlib.import_module("swiftcal.swift")
    theta, quotes = PARAM_SETS["fx"], set2_quotes()
    groups = swift.group_by_maturity(quotes)
    tracer, selection = Tracer(), Tracer()
    with tracer.installed(), tracer.job(0):
        report = exp.run_price("swift", theta,
                               QuoteFile(context=DEFAULT_CONTEXT, quotes=quotes))
    with selection.installed(), selection.job(0):
        for tau, idx in groups.items():
            m = swift.select_scale(theta, tau, DEFAULT_CONTEXT)
            swift.select_truncation(theta, tau, DEFAULT_CONTEXT, m,
                                    [quotes[i].strike for i in idx])
    assert tracer.counts["swift.sum_jd"] == sum(
        sp["j_density"] for sp in report.metadata["config"].values())
    assert tracer.counts["heston.chf_freqs"] == selection.counts["heston.chf_freqs"] > 0
    assert (tracer.counts["swift.truncation_trials"]
            == selection.counts["swift.truncation_trials"] > 0)


def test_tracer_sees_every_quadrature_node(monkeypatch):
    # the quadrature reference sweeps chf_cui_parts on 2 x nodes frequencies
    # per distinct maturity of a quote set, for a price, and per quote for a
    # price and gradient, reached through the reference module's names.
    # run_price prices through prices_cp, which the tracer does not wrap, so
    # reference.cp_nodes counts nothing for it until the benchmark does
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS, set2_quotes
    from swiftcal.quotes import QuoteFile

    exp = importlib.import_module("swiftcal.experiments")
    ref = importlib.import_module("swiftcal.reference")
    theta, quotes = PARAM_SETS["theta2"], set2_quotes()[3:12]
    maturities = len({q.maturity for q in quotes})
    qc = ref.QuadratureConfig()
    tracer = Tracer()
    with tracer.installed(), tracer.job(0):
        exp.run_price("cp", theta, QuoteFile(context=DEFAULT_CONTEXT, quotes=quotes))
        priced = dict(tracer.counts)
        ref.price_and_gradient_cp(theta, DEFAULT_CONTEXT, quotes[0], qc)
    assert maturities == 3
    assert "reference.cp_nodes" not in priced
    assert priced["heston.chf_freqs"] == 2 * maturities * qc.nodes
    assert tracer.counts["heston.chf_freqs"] == 2 * (maturities + 1) * qc.nodes


def test_tracer_counts_the_tail_sweep_of_select_scale(monkeypatch):
    # select_scale sweeps cached tail grids of 129 points per scale, stage by
    # stage up to the stage that holds the selected scale; the sweeps must
    # still go through the swift module's chf names, so the benchmark counts
    # every frequency, also when the grids come from the cache
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS

    swift = importlib.import_module("swiftcal.swift")
    theta = PARAM_SETS["fx"]
    swift.select_scale(theta, 1.0, DEFAULT_CONTEXT)  # the grids are cached now
    tracer = Tracer()
    with tracer.installed(), tracer.job(0):
        m = swift.select_scale(theta, 0.5, DEFAULT_CONTEXT)
    stop = next(stop for _, stop in swift._TAIL_STAGES if m < stop)
    assert (m, stop) == (9, 10)  # the second stage holds fx's scale at tau=0.5
    assert tracer.counts["heston.chf_freqs"] == stop * swift._TAIL_QUAD_POINTS == 10 * 129


def test_tracer_sees_a_split_sweep_as_one_span_from_the_caller(monkeypatch):
    # a sweep split across threads is one heston.chf and one heston.grad span,
    # opened by the calling thread and counting every frequency; the worker
    # threads call heston's private chunk functions, which the tracer never
    # rebinds, so no span comes from them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS

    heston = importlib.import_module("swiftcal.heston")
    swift = importlib.import_module("swiftcal.swift")
    monkeypatch.setattr(heston, "_usable_cpus", lambda: 2)  # split on one CPU too
    theta = PARAM_SETS["fx"]
    sweep = swift._ChfSweep(np.linspace(0.1, 300.0, 32768), 1.3, DEFAULT_CONTEXT)
    tracer, threads = Tracer(), []
    opened = tracer.open

    def open_span(name, layer):
        threads.append(threading.get_ident())
        return opened(name, layer)

    monkeypatch.setattr(tracer, "open", open_span)
    with tracer.installed(), tracer.job(0):
        sweep.value_and_gradient(theta)
    assert len(sweep.parts(theta)[1]) == 2
    assert [s[0] for s in tracer.spans] == ["bench.job", "heston.chf", "heston.grad"]
    assert tracer.counts["heston.chf_freqs"] == 32768
    assert set(threads) == {threading.get_ident()}
