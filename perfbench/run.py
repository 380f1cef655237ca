"""swiftcal benchmark: three workloads through the public API, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload surface-short --seed 1 --seconds 30 --trace 0

A run makes its workload's fixed set of jobs from the seed, runs one round
of them as warm-up, then cycles through the whole set, in order, until the
time is up.  Between jobs, outside the timed region, it reads a host-speed
gauge: a fixed numpy kernel that calls no swiftcal code (``gauge_s``).  Each
job's time is scaled by ``GAUGE_NOMINAL_S`` over the mean of the gauge
readings just before and after it, and a job counts with the median of its
scaled repeats.  On a shared 2-vCPU virtual machine the same job runs up to
1.7x slower for phases of 10 to 60 seconds, and runs minutes apart differ by
as much; a job's time over the gauge's moves by a few per cent.  The raw
wall times are printed and recorded too.

``--trace 0`` measures the end-to-end metrics with the library untouched.
``--trace 1`` cycles untraced for half the time, then traced for as many
whole cycles, and reports per-layer metrics, the tracing overhead and the
hardware-independent counts.  The counts come from the first round of jobs,
run twice traced; the two passes must agree exactly, so any seed, including
one held out while a change was written, re-checks a count.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric by name and unit, the environment and the tail percentile used.  A
full record goes to ``.bench_out/`` in the checkout (and, with tracing, the
spans as CSV).  The benchmark sets no thread variables: it measures the
library as a user's environment runs it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

UNITS = {"calib_p50_s": "s", "calib_tail_s": "s", "setup_s": "s",
         "share_calibrated": "share", "error_share": "share",
         "max_param_err": "abs", "quotes_per_s": "1/s",
         "max_price_err": "abs", "max_price_err_swift": "abs",
         "max_price_err_cp": "abs"}
# Job times are scaled to a host on which ``gauge_s`` reads this (the fast
# phases of a 2-vCPU Xeon virtual machine).
GAUGE_NOMINAL_S = 300e-6

GATED = ("calib_p50_s", "calib_tail_s", "setup_s", "share_calibrated",
         "quotes_per_s")

# Hardware-independent counts, reported per job of the first round.
COUNTS = ("heston.chf_freqs", "heston.cumulants_calls", "swift.select_scale_calls",
          "swift.truncation_trials", "swift.sum_jd", "swift.phase_macs",
          "swift.fft_calls", "calibrate.lm_step_calls", "calibrate.price_evals",
          "calibrate.jac_evals", "calibrate.accepted_steps",
          "reference.cp_calls", "reference.cp_nodes")


def _import_library():
    """Put the checkout's own ``src`` first on the path; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "swiftcal" / "__init__.py").is_file():
        sys.exit(f"error: no swiftcal sources under {src}")
    sys.path.insert(0, str(src))
    import swiftcal
    if Path(swiftcal.__file__).resolve().parent != (src / "swiftcal").resolve():
        sys.exit(f"error: imported swiftcal from {swiftcal.__file__}, not {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS}}


def _steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over CPUs (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def tail(samples):
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond; the maximum
    is returned with percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def gauge_s(reps: int = 3) -> float:
    """The host's speed now: the fastest of ``reps`` runs of a fixed numpy
    kernel, a complex exponential and a prefix sum over 8192 points (the
    shape of a characteristic-function sweep).  It calls no swiftcal code
    and no BLAS routine, so no change to the library moves it."""
    import numpy as np

    u = np.linspace(0.1, 200.0, 8192)
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        z = np.exp((-0.02 + 0.7j) * u) * (1.0 + 0.5j)
        float((np.cumsum(z.real * u) + np.abs(z))[-1])
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(outcome):
    """``outcome`` with its times scaled to the nominal host speed."""
    f = GAUGE_NOMINAL_S / outcome.gauge_s
    setup = None if outcome.setup_s is None else outcome.setup_s * f
    return dataclasses.replace(outcome, wall_s=outcome.wall_s * f, setup_s=setup)


def run_job(workload, tracer, i):
    """Job ``i``; one that raises is recorded as a failure that misses every
    latency limit."""
    import numpy as np
    from workloads import Outcome

    try:
        return workload.run(i, tracer)
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        return Outcome(wall_s=math.inf, failure=f"{type(exc).__name__}: {exc}")


def first_jobs(workload, tracer, count):
    return [run_job(workload, tracer, i) for i in range(count)]


def cycle(workload, tracer, seconds=None, cycles=None):
    """Run the job set over and over, in order, until ``seconds`` are up
    (after at least one whole cycle) or for ``cycles`` whole cycles.
    Returns each job's outcomes, one per repeat, each with the mean of the
    gauge readings taken just before and just after it."""
    jobs = workload.JOBS
    repeats = [[] for _ in range(jobs)]
    k, t0, before = 0, time.perf_counter(), gauge_s()
    while (k < cycles * jobs if cycles is not None
           else k < jobs or time.perf_counter() - t0 < seconds):
        outcome = run_job(workload, tracer, k % jobs)
        after = gauge_s()
        repeats[k % jobs].append(
            dataclasses.replace(outcome, gauge_s=(before + after) / 2))
        before, k = after, k + 1
    return repeats


def per_job(repeats, scale=True):
    """Per job, the median of its repeats' times, scaled unless ``scale`` is
    false; a failure in any repeat sticks."""
    best = []
    for attempts in repeats:
        failed = [a for a in attempts if a.failure is not None]
        if failed:
            best.append(failed[0])
            continue
        if scale:
            attempts = [scaled(a) for a in attempts]
        setups = [a.setup_s for a in attempts if a.setup_s is not None]
        best.append(dataclasses.replace(
            attempts[0], wall_s=statistics.median(a.wall_s for a in attempts),
            setup_s=statistics.median(setups) if setups else None))
    return best


def end_to_end(outcomes) -> dict:
    samples = [o.wall_s for o in outcomes]
    busy = sum(samples)
    setups = [o.setup_s for o in outcomes if o.setup_s is not None]
    param = [o.param_err for o in outcomes if o.param_err is not None]
    price = {b: [o.price_err for o in outcomes if o.backend == b]
             for b in ("swift", "cp")}
    tail_value, tail_pct, tail_n = tail(samples)
    return {
        "calib_p50_s": statistics.median(samples),
        "calib_tail_s": tail_value,
        "calib_tail_percentile": tail_pct,
        "calib_samples": tail_n,
        "setup_s": statistics.median(setups),
        "share_calibrated": sum(o.calibrated for o in outcomes) / len(outcomes),
        "error_share": sum(o.failure is not None for o in outcomes) / len(outcomes),
        "max_param_err": max(param, default=None),
        "quotes_per_s": sum(o.quotes for o in outcomes) / busy,
        "max_price_err": max(price["swift"] + price["cp"], default=None),
        "max_price_err_swift": max(price["swift"], default=None),
        "max_price_err_cp": max(price["cp"], default=None),
    }


def per_layer(tracer, traced, untraced, counts, n_counted) -> dict:
    """Per-job layer times over all traced repeats; counts per counted job."""
    from tracing import LAYERS

    n = sum(len(p) for p in traced)
    incl, own, layer = tracer.totals()
    out = {
        "heston.chf_s": own["heston.chf"] / n,
        "heston.grad_s": (incl["heston.grad"] + incl["heston.chf_with_gradient"]) / n,
        "swift.select_scale_s": incl["swift.select_scale"] / n,
        "swift.select_truncation_s": incl["swift.select_truncation"] / n,
        "swift.pricer_build_s": incl["swift.pricer_build"] / n,
        "swift.price_eval_self_s": own["swift.price_eval"] / n,
        "swift.jac_eval_self_s": own["swift.jac_eval"] / n,
        "calibrate.lm_self_s": own["calibrate.lm"] / n,
        "calibrate.lm_step_s": incl["calibrate.lm_step"] / n,
        "reference.cp_s": incl["reference.cp"] / n,
    }
    out.update({f"{name}.self_s": layer[name] / n for name in LAYERS})
    out.update({key: counts[key] / n_counted for key in COUNTS})
    out["swift.max_m"] = counts["swift.max_m"]
    # every price evaluation after a fit's first is a trial step
    trial_steps = counts["calibrate.price_evals"] - counts["calibrate.calls"]
    accepted = counts["calibrate.accepted_steps"]
    out["calibrate.rejected_steps"] = (trial_steps - accepted) / n_counted
    out["calibrate.step_acceptance"] = accepted / trial_steps if trial_steps else 0.0

    def p50(repeats):
        return statistics.median(o.wall_s for o in per_job(repeats))

    def mean_wall(repeats):
        return statistics.mean(o.wall_s for r in repeats for o in r)

    out["trace.overhead_s"] = p50(traced) - p50(untraced)
    out["trace.mean_overhead_s"] = mean_wall(traced) - mean_wall(untraced)
    out["trace.layer_sum_s"] = sum(layer[name] for name in LAYERS if name != "bench") / n
    out["trace.self_gap_s"] = out["trace.layer_sum_s"] - mean_wall(untraced)
    return out


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("acceptance"):
        return "share"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    steal0 = _steal_s()
    _import_library()
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    prepare_s = time.perf_counter() - t0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "prepare_s": prepare_s}
    problems = []

    if args.trace == 0:
        checked = first_jobs(workload, NullTracer(), len(workload.ROUND))
        untraced = cycle(workload, NullTracer(), seconds=args.seconds)
        summary = end_to_end(per_job(untraced))
        metrics = {k: summary[k] for k in GATED}
        units = {k: UNITS[k] for k in GATED}
    else:
        tracer = Tracer()
        with tracer.installed():
            counted = []
            for _ in range(2):  # the first pass is also the warm-up
                tracer.reset()
                counted.append((first_jobs(workload, tracer, len(workload.ROUND)),
                                tracer.counts))
        counts = counted[0][1]
        if counts != counted[1][1]:
            problems.append(f"counts differ between two passes: "
                            f"{counts} vs {counted[1][1]}")
        checked = counted[0][0] + counted[1][0]
        untraced = cycle(workload, NullTracer(), seconds=args.seconds / 2)
        tracer.reset()
        with tracer.installed():
            traced = cycle(workload, tracer, cycles=min(map(len, untraced)))
        checked += [o for p in traced for o in p]
        summary = end_to_end(per_job(untraced))
        metrics = per_layer(tracer, traced, untraced, counts, len(workload.ROUND))
        units = {k: _layer_unit(k) for k in metrics}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.csv")
        record["counts"] = dict(counts)
    checked += [o for p in untraced for o in p]

    unscaled = end_to_end(per_job(untraced, scale=False))
    gauge_median = statistics.median(o.gauge_s for r in untraced for o in r)
    failures = [o.failure for o in checked if o.failure is not None]
    problems += failures[:5]
    record.update(summary=summary, metrics=metrics, problems=problems,
                  attempted=len(checked), failed=len(failures),
                  cpu_steal_s=_steal_s() - steal0,
                  unscaled=unscaled, gauge_median_s=gauge_median,
                  job_walls=[[o.wall_s for o in r] for r in untraced],
                  job_gauges=[[o.gauge_s for o in r] for r in untraced])
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: prepare {prepare_s:.2f} s, "
          f"{len(checked)} jobs checked, {len(failures)} failed")
    for key, unit in UNITS.items():
        value = summary[key]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<20} {shown:>12} {unit}")
    print(f"  calib_tail_s is p{summary['calib_tail_percentile']:.1f} of "
          f"{summary['calib_samples']} samples")
    print(f"  times above are scaled to a gauge reading of {GAUGE_NOMINAL_S * 1e3:g} ms; "
          f"the gauge read {gauge_median * 1e3:.4g} ms (median), and unscaled:")
    for key in ("calib_p50_s", "calib_tail_s", "setup_s", "quotes_per_s"):
        print(f"  {key:<20} {unscaled[key]:>12.6g} {UNITS[key]}")
    if args.trace:
        for key, value in metrics.items():
            print(f"  {key:<28} {value:>12.6g} {units[key]}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": len(checked),
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
