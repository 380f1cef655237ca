"""The benchmark's tracer rebinds swiftcal names and must restore every one.

``perfbench/tracing.py`` looks entry points up by name in the modules their
callers use; a refactor that renames or drops one of those names fails here
instead of in a later traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("swift", "calibrate", "reference", "experiments")

# names behind the benchmark's per-layer counts
COUNTED = {
    ("swift", "chf_cui"), ("swift", "chf_cui_parts"),
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
    # escape it and the count would fall short of sum J_d
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from swiftcal.experiments import run_generate
    from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS, set2_quotes

    cal = importlib.import_module("swiftcal.calibrate")
    quotes = run_generate(PARAM_SETS["theta2"], DEFAULT_CONTEXT, set2_quotes()).quotes
    start = PARAM_SETS["theta2-start"]
    tracer = Tracer()
    with tracer.installed():
        backend = cal.KswiftBackend(quotes, DEFAULT_CONTEXT, start)
        with tracer.job(0):
            backend.prices(start)
            backend.prices_and_jacobian(start)
    assert tracer.counts["heston.chf_freqs"] == sum(
        sp.j_density for sp in backend.swift_params)


def test_tracer_sees_every_quadrature_node(monkeypatch):
    # the quadrature reference sweeps chf_cui (price) or chf_with_gradient
    # (price and gradient) on 2 x nodes frequencies per quote, both reached
    # through the reference module's names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from swiftcal.fixtures import DEFAULT_CONTEXT, PARAM_SETS, set1_quotes
    from swiftcal.quotes import QuoteFile

    exp = importlib.import_module("swiftcal.experiments")
    ref = importlib.import_module("swiftcal.reference")
    theta, quotes = PARAM_SETS["theta2"], set1_quotes()[:3]
    qc = ref.QuadratureConfig()
    tracer = Tracer()
    with tracer.installed(), tracer.job(0):
        exp.run_price("cp", theta, QuoteFile(context=DEFAULT_CONTEXT, quotes=quotes))
        priced = dict(tracer.counts)
        ref.price_and_gradient_cp(theta, DEFAULT_CONTEXT, quotes[0], qc)
    assert priced["reference.cp_nodes"] == len(quotes) * qc.nodes
    assert priced["heston.chf_freqs"] == 2 * len(quotes) * qc.nodes
    assert tracer.counts["heston.chf_freqs"] == 2 * (len(quotes) + 1) * qc.nodes
