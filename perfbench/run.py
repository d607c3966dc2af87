"""axiombox benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process, one thread, closed
loop: each job starts when the previous one has finished and been checked.
Job inputs come from ``--seed`` through :mod:`gen`; the library only ever
sees the generated inputs.

``--trace 0`` runs the workload for ``--seconds``, rounded up to whole
cycles of its size mix and to at least MIN_JOBS jobs, and reports the
end-to-end metrics of BENCHMARK.json.  Latency is the wall time of the
library calls of one job; input generation and checks run between jobs and
are not timed.

Time-based end-to-end metrics are given at a reference host speed
(:mod:`hostspeed`): every timed stretch, a job or a fresh-interpreter import
for ``setup_s``, is bracketed by readings of the host's speed and scaled by
them.  The report line gives the unscaled wall-time figures too.

``--trace 1`` reports the per-layer metrics.  It runs a fixed list of
TRACE_JOBS jobs, each untraced and then traced; self times and call counts
come from those traced jobs.  A metric that the workload's jobs leave at 0
(a layer or function they never call) comes instead from a separately
traced set of small jobs on inputs from :mod:`gen` (``ladder.small_jobs``);
the report names these metrics.  Ladder metrics (``*.n128_ms`` and the
like) and ``cli.*`` come from the untraced probes in :mod:`ladder`, timed at
the reference host speed, so they read the same on every workload; self
times and ``trace.overhead_ratio`` are unscaled wall time.

Every job is checked against references the benchmark computes itself; a
job fails if the library raises or a check fails.  The last line of
standard output is the JSON result; the line starting with ``report`` before
it records the environment, the output digest and the sample counts.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

TRACE_JOBS = 60  # a whole number of cycles of every workload's size mix
SETUP_REPEATS = 6  # fresh-interpreter imports before and again after the workload
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OVERRUN_S = 60  # stop mid-cycle if a run outlasts --seconds by this much
MIN_JOBS = 100  # p90 needs ten samples beyond it

# Which per-layer metric should move which end-to-end metric, and where.
# On wide_tableau the median falls among the N=32 jobs and the 90th
# percentile among the N=64 ones; on query_mix the median falls among the
# dependence n=5 jobs, the 90th percentile among the dependence n=6 and joint
# (10,5) jobs, and the joint jobs take most of the summed job time.
LAYER_TABLE = {
    "gf2": ["gf2.self_s gf2.eliminations gf2.in_span.calls gf2.symplectic_product.calls",
            "wide_tableau: throughput_jobs_per_s latency_p90_ms; "
            "query_mix: latency_p50_ms latency_p90_ms"],
    "pauli": ["pauli.self_s pauli.multiply.calls",
              "wide_tableau: latency_p50_ms; query_mix: throughput_jobs_per_s"],
    "blackbox": ["blackbox.self_s", "wide_tableau: latency_p50_ms (small share)"],
    "stabilizer": ["stabilizer.self_s stabilizer.prepare.n{32,64,128}_ms "
                   "stabilizer.measure.n128_us stabilizer.measure.{deterministic,random} "
                   "stabilizer.joint_distribution.m{8,12}_ms stabilizer.measure_forced.calls "
                   "stabilizer.joint_distribution.useful_ratio",
                   "wide_tableau: throughput_jobs_per_s latency_p90_ms; "
                   "query_mix: throughput_jobs_per_s"],
    "logic": ["logic.self_s logic.classify.calls logic.enumerate.n6_ms logic.ghz_report_ms",
              "query_mix: latency_p50_ms latency_p90_ms"],
    "experiment": ["experiment.self_s experiment.sample.runs_per_s",
                   "query_mix: throughput_jobs_per_s"],
    "oracle": ["oracle.self_s oracle.state_from_axioms.n8_ms oracle.distribution.n8_ms",
               "query_mix: throughput_jobs_per_s (small share)"],
    "cli": ["cli.<subcommand>_ms", "CLI latency = setup_s + this (traced run only)"],
    "trace": ["trace.overhead_ratio", "none (every workload)"],
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure_setup(root: Path, env: dict, repeats: int) -> tuple:
    """Seconds to ``import axiombox`` in ``repeats`` fresh interpreters, and
    the host speed reading each interpreter took around its import."""
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        "import time, hostspeed; before = hostspeed.reading(); "
        "t = time.perf_counter(); import axiombox; t = time.perf_counter() - t; "
        "print(t, (before + hostspeed.reading()) / 2)"
    )
    times, host = [], []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        dt, reading = map(float, done.stdout.split())
        times.append(dt)
        host.append(reading)
    return times, host


class Tally:
    """Latencies, failures and the output digest of one pass over jobs."""

    def __init__(self, workload, digest_jobs: int):
        self.workload = workload
        self.digest_jobs = digest_jobs
        self.latencies = []
        self.host = []  # host speed reading around each job
        self.failed = 0
        self.problems = []
        self.digest = hashlib.sha256()

    def run(self, job: dict, span=contextlib.nullcontext()) -> None:
        w = self.workload
        problems = []
        before = hostspeed.reading()
        start = time.perf_counter()
        try:
            with span:
                out = w.run(job)
        except Exception as exc:  # the library raised: the job failed
            error = exc
        else:
            error = None
        self.latencies.append(time.perf_counter() - start)
        self.host.append((before + hostspeed.reading()) / 2)
        if error is not None:
            problems.append(f"{type(error).__name__}: {error}")
            record = ("raised", type(error).__name__)
        else:
            record = w.check(job, out, problems)
        if problems:
            self.failed += 1
            self.problems.append(f"job {len(self.latencies) - 1}: {problems[0]}")
        if len(self.latencies) <= self.digest_jobs:
            self.digest.update(repr(record).encode())

    @property
    def hexdigest(self) -> str:
        return self.digest.hexdigest()[:16]


def warm_up(w, seed: int) -> None:
    """One job of each size from a separate stream, then a full collection."""
    for size in dict.fromkeys(w.cycle):
        w.run(w.job(seed, w.cycle.index(size), stream="warm"))
    gc.collect()


def timed_run(w, seed: int, seconds: float) -> Tally:
    warm_up(w, seed)
    tally = Tally(w, TRACE_JOBS)
    start = time.perf_counter()
    index = 0
    while True:
        tally.run(w.job(seed, index))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and index >= MIN_JOBS and index % len(w.cycle) == 0:
            break
        if elapsed >= seconds + OVERRUN_S and index >= len(w.cycle):
            break
    return tally


def end_to_end(lat: list, setup: list) -> dict:
    """Throughput is jobs over their summed latency."""
    return {
        "throughput_jobs_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def by_slot(latencies: list, cycle: tuple) -> dict:
    """Latencies grouped by the cycle slot (job size) they ran in."""
    out = {}
    for index, dt in enumerate(latencies):
        out.setdefault(cycle[index % len(cycle)], []).append(dt)
    return out


def time_share(groups: dict) -> dict:
    """Share of the summed job time per job kind (the first item of a
    query_mix slot) or per size."""
    total = sum(sum(v) for v in groups.values())
    share = {}
    for slot, lat in groups.items():
        key = slot[0] if isinstance(slot, tuple) else str(slot)
        share[key] = share.get(key, 0.0) + sum(lat) / total
    return share


def layer_metrics(tracer) -> dict:
    """Per-layer self times and counts of everything ``tracer`` recorded."""
    import gen
    import spans as sp

    spans = tracer.spans
    names = sp.name_counts(spans)
    self_s = sp.self_seconds(spans, sp.analyse(spans))
    support = 0
    for span in spans:
        if span[0] == "stabilizer.joint_distribution":
            state, obs_list = span[4][0], span[4][1]
            rows = [g.vector.mask for g in state.generators]
            rows += [o.vector.mask for o in obs_list]
            support += 2 ** (gen.rank(rows) - len(state.generators))
    forced_in_joint = sp.children_named(
        spans, "stabilizer.joint_distribution", "stabilizer.measure_forced"
    )
    metrics = {
        f"{layer}.self_s": self_s.get(layer, 0.0)
        for layer in ("gf2", "pauli", "blackbox", "stabilizer", "logic", "experiment", "oracle")
    }
    metrics.update({
        "gf2.eliminations": names["gf2.rank"] + names["gf2.in_span"] + names["gf2.nullspace"],
        "gf2.in_span.calls": names["gf2.in_span"],
        "gf2.symplectic_product.calls": tracer.calls["gf2.symplectic_product"],
        "pauli.multiply.calls": tracer.calls["pauli.multiply"],
        "stabilizer.measure.deterministic": tracer.kinds["deterministic"],
        "stabilizer.measure.random": tracer.kinds["random"],
        "stabilizer.measure_forced.calls": names["stabilizer.measure_forced"],
        "stabilizer.joint_distribution.useful_ratio": support / max(forced_in_joint, 1),
        "logic.classify.calls": names["logic.classify"],
    })
    return metrics


def traced_run(w, seed: int, root: Path, report: dict):
    """Each of the TRACE_JOBS jobs runs untraced and then traced, side by
    side in time so that drift of the host cancels in the overhead ratio."""
    import ladder
    import spans as sp

    warm_up(w, seed)
    tracer = sp.Tracer()
    plain, traced = Tally(w, TRACE_JOBS), Tally(w, TRACE_JOBS)
    for index in range(TRACE_JOBS):
        plain.run(w.job(seed, index))
        with tracer:
            traced.run(w.job(seed, index), tracer.span(f"job.{w.name}"))

    probe_problems = []
    small = sp.Tracer()
    with small, small.span("probe.small_jobs"):
        ladder.small_jobs(seed, probe_problems)
    ladder_ms = ladder.probe(seed, probe_problems)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        sweeps = [ladder.cli_sweep(seed, Path(tmp), probe_problems) for _ in range(3)]
    cli_ms = {k: statistics.median(s[k] for s in sweeps) for k in sweeps[0]}

    from_jobs, from_small = layer_metrics(tracer), layer_metrics(small)
    metrics = {k: v or from_small[k] for k, v in from_jobs.items()}
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    metrics.update(ladder_ms)
    metrics.update(cli_ms)

    report.update({
        "jobs": TRACE_JOBS,
        "digest_untraced": plain.hexdigest,
        "digest_traced": traced.hexdigest,
        "spans": len(tracer.spans),
        "per_layer_from_jobs": from_jobs,
        "per_layer_from_small_jobs": sorted(k for k, v in from_jobs.items() if not v),
    })
    problems = plain.problems + traced.problems + probe_problems
    if plain.hexdigest != traced.hexdigest:
        problems.append("traced and untraced output digests differ")
    # the small jobs, the ladder probe and the CLI sweeps count as one more
    # unit of work
    attempted = 2 * TRACE_JOBS + 1
    failed = plain.failed + traced.failed + bool(probe_problems)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "axiombox" / "__init__.py").is_file():
        return fail("no src/axiombox here; run from the root of a source checkout")
    if not spec_path.is_file():
        return fail("no BENCHMARK.json here")
    spec = json.loads(spec_path.read_text())

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # before numpy loads
        os.environ[var] = str(nproc)
    src = str(root / "src")
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)

    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    report = {
        "workload": w.name,
        "why": next(x["why"] for x in spec["workloads"] if x["name"] == w.name),
        "sizes": w.sizes,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": nproc,
        "layer_metric_workload": LAYER_TABLE,
    }

    if args.trace:
        wanted = spec["per_layer"]
        metrics, attempted, failed, problems = traced_run(w, args.seed, root, report)
    else:
        wanted = spec["end_to_end"]
        measure_setup(root, env, 1)  # compiles the bytecode; not timed
        setup, setup_host = measure_setup(root, env, SETUP_REPEATS)
        tally = timed_run(w, args.seed, args.seconds)
        more, more_host = measure_setup(root, env, SETUP_REPEATS)
        setup, setup_host = setup + more, setup_host + more_host
        scaled = hostspeed.at_reference_speed(tally.latencies, tally.host)
        metrics = end_to_end(scaled, hostspeed.at_reference_speed(setup, setup_host))
        attempted, failed, problems = len(tally.latencies), tally.failed, tally.problems
        slots = by_slot(scaled, w.cycle)
        unscaled = end_to_end(tally.latencies, setup)
        del unscaled["peak_rss_mb"]
        report.update({
            "latency_p50_ms_by_size": {
                str(k): 1e3 * statistics.median(v) for k, v in slots.items()
            },
            "time_share": time_share(slots),
            "setup_s_all": setup,
            "unscaled_wall_time": unscaled,
            "calibration_ms": {
                "nominal": 1e3 * hostspeed.NOMINAL_S,
                "median": 1e3 * statistics.median(tally.host),
                "min": 1e3 * min(tally.host),
                "max": 1e3 * max(tally.host),
            },
            "jobs": attempted,
            "cycles": attempted // len(w.cycle),
            "samples": {
                "latency_p50_ms": attempted,
                "latency_p90_ms": attempted,
                "setup_s": len(setup),
            },
            "failed_ratio": failed / attempted,
            f"digest_first_{TRACE_JOBS}_jobs": tally.hexdigest,
        })

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"benchmark produced no value for {', '.join(missing)}")
    report["problems"] = problems[:10]
    print("report " + json.dumps(report, sort_keys=True))
    samples = report.get("samples", {})
    for m in wanted:
        n = f"  (n={samples[m['name']]})" if m["name"] in samples else ""
        print(f"{m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}{n}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
