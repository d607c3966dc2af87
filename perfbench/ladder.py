"""Fixed probes run by every traced run: single layer calls at the ladder
points named by the per-layer metrics, one small job of every kind, and every
CLI subcommand once in-process.

The probes read the same on every workload, so a ladder metric such as
``stabilizer.prepare.n128_ms`` means one thing wherever it is reported.
Every probe is timed at the reference host speed of :mod:`hostspeed`.
"""
from __future__ import annotations

import statistics
from pathlib import Path

from axiombox import blackbox as bb
from axiombox import cli
from axiombox import experiment as xp
from axiombox import logic
from axiombox import oracle
from axiombox import stabilizer as stab

import gen
import hostspeed
import workloads as wl

CLI_SUBCOMMANDS = (
    "prepare", "blackbox", "check", "measure", "sample", "enumerate",
    "ghz-demo", "q1-demo", "q2-demo", "oracle-compare", "decay-study",
)


def _median_ms(seconds: list) -> float:
    return 1e3 * statistics.median(seconds)


def probe(seed: int, problems: list) -> dict:
    """Time each ladder point a few times; returns metric name -> value."""
    rng = gen.job_rng("ladder", seed, 0)
    out = {}

    for n, count in ((32, 5), (64, 3), (128, 3)):
        times = []
        for _ in range(count):
            job = wl.make_wide(rng, n)
            dt, state = hostspeed.timed(stab.prepare, job["pairs"])
            times.append(dt)
        out[f"stabilizer.prepare.n{n}_ms"] = _median_ms(times)

    # measure on the last N=128 state; even-numbered observables are
    # deterministic, odd ones random
    times = []
    for obs in job["obs"][:128]:
        dt, _ = hostspeed.timed(stab.measure, state, obs, job["rng"])
        times.append(dt)
    out["stabilizer.measure.n128_us"] = 1e6 * statistics.median(times)

    for m, count in ((8, 5), (12, 3)):
        times = []
        for _ in range(count):
            job = wl.make_joint(rng, (m, m))
            state = stab.prepare(job["pairs"])
            dt, dist = hostspeed.timed(
                stab.joint_distribution, state, job["observables"]
            )
            wl.check_distribution(job["system"], job["obs"], dist.outcomes, problems)
            times.append(dt)
        out[f"stabilizer.joint_distribution.m{m}_ms"] = _median_ms(times)

    times = []
    for _ in range(5):
        job = wl.make_dependence(rng, (6, False))
        axioms = logic.AxiomSet(job["vectors"], job["parities"])
        dt, counts = hostspeed.timed(logic.enumerate_propositions, 6, axioms)
        if tuple(counts) != (64, 4096 - 64):
            problems.append(f"enumerate_propositions(6) gave {tuple(counts)}")
        times.append(dt)
    out["logic.enumerate.n6_ms"] = _median_ms(times)

    times = []
    for k in rng.sample(range(64), 16):
        cfg = bb.BlackBoxConfig.from_labels((k >> 4, (k >> 2) & 3, k & 3))
        dt, report = hostspeed.timed(logic.ghz_report, cfg)
        if report.contradiction != 1:
            problems.append(f"ghz_report for config {k} found no contradiction")
        times.append(dt)
    out["logic.ghz_report_ms"] = _median_ms(times)

    times = []
    for _ in range(3):
        job = wl.make_joint(rng, (8, 8))
        state = stab.prepare(job["pairs"])
        dt, record = hostspeed.timed(
            xp.sample, state, job["observables"], wl.SAMPLE_RUNS, job["seed"], job["noise"]
        )
        if record.n_runs != wl.SAMPLE_RUNS:
            problems.append("sample lost runs")
        times.append(dt)
    out["experiment.sample.runs_per_s"] = wl.SAMPLE_RUNS / statistics.median(times)

    state_times, dist_times = [], []
    for _ in range(5):
        job = wl.make_oracle(rng, 8)
        dt, psi = hostspeed.timed(oracle.state_from_axioms, job["pairs"])
        state_times.append(dt)
        dt, dense = hostspeed.timed(oracle.distribution, psi, job["observables"])
        dist_times.append(dt)
        if len(dense.support()) != 2 ** job["obs"].r:
            problems.append("oracle distribution has the wrong support")
    out["oracle.state_from_axioms.n8_ms"] = _median_ms(state_times)
    out["oracle.distribution.n8_ms"] = _median_ms(dist_times)
    return out


# One small job of each kind, on inputs from gen.  Traced apart from the
# workload's jobs, it supplies the per-layer metrics of the layers and
# functions that a workload never calls.
SMALL_JOBS = (
    (wl.make_wide, wl.run_wide, wl.check_wide, 8),
    (wl.make_joint, wl.run_joint, wl.check_joint, (8, 8)),
    (wl.make_dependence, wl.run_dependence, wl.check_dependence, (4, True)),
    (wl.make_oracle, wl.run_oracle, wl.check_oracle, 4),
)


def small_jobs(seed: int, problems: list) -> None:
    rng = gen.job_rng("small", seed, 0)
    for make, run, check, size in SMALL_JOBS:
        job = make(rng, size)
        check(job, run(job), problems)


# -- CLI sweep -------------------------------------------------------------


def _letters(mask: int, sign: int, n: int) -> str:
    table = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    body = "".join(table[(mask >> j) & 1, (mask >> (n + j)) & 1] for j in range(n))
    return ("+" if sign == 1 else "-") + body


def _exit_code(args: list):
    try:
        return cli.main(args)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code


def cli_sweep(seed: int, workdir: Path, problems: list) -> dict:
    """Run each subcommand once through ``cli.main``; returns name -> ms."""
    rng = gen.job_rng("cli", seed, 0)
    n = 6
    system = gen.random_system(rng, n)
    axiom_lines = [_letters(v, s, n) for v, s in zip(system.stab, system.signs)]
    labels = gen.random_config(rng, n)
    obs = gen.commuting_observables(rng, system, 3, 2)
    combo = rng.getrandbits(n) or 1
    prop = 0
    for p in gen.bits(combo):
        prop ^= system.stab[p]
    _, c = gen.product_phase_bit([system.stab[p] for p in gen.bits(combo)], n)
    classical = gen.parity(combo & sum(1 << p for p, s in enumerate(system.signs) if s < 0))

    f = {name: workdir / name for name in ("axioms", "config", "state", "evolved")}
    f["axioms"].write_text("".join(line + "\n" for line in axiom_lines))
    f["config"].write_text("".join(f"y{k}\n" for k in labels))
    common = ["--seed", str(seed & 0xFFFF)]
    argv = {
        "prepare": ["--axioms", f["axioms"], "--out", f["state"]],
        "blackbox": ["--state", f["state"], "--config", f["config"], "--out", f["evolved"]],
        "check": ["--axioms", f["axioms"], "--prop", _letters(prop, 1, n)[1:]],
        # "--obs=" keeps a leading "-" sign from reading as an option
        "measure": ["--state", f["evolved"], "--obs=" + _letters(obs.vectors[0], 1, n)],
        "sample": [
            "--state", f["evolved"], "--runs", "2000", "--noise", "0.05",
            "--obs=" + ",".join(_letters(v, s, n) for v, s in zip(obs.vectors, obs.signs)),
        ],
        "enumerate": ["--n", "5"],
        "ghz-demo": ["--labels", "y1,y2,y3", "--json"],
        "q1-demo": ["--labels", "y1", "--runs", "2000"],
        "q2-demo": ["--labels", "y2,y3", "--runs", "2000"],
        "oracle-compare": ["--n", "4", "--trials", "10"],
        "decay-study": ["--trials", "2000"],
    }
    expect = {
        "prepare": "".join(line + "\n" for line in axiom_lines),
        "check": "dependent, k=({}), classical={}, quantum={}\n".format(
            ",".join(str((combo >> p) & 1) for p in range(n)), classical, classical ^ c
        ),
        "enumerate": "dependent: 32, independent: 992\n",
    }
    out = {}
    for name in CLI_SUBCOMMANDS:
        target = workdir / f"{name}.out"
        args = [name] + [str(a) for a in argv[name]] + common
        if "--out" not in args:
            args += ["--out", str(target)]
        else:
            target = Path(args[args.index("--out") + 1])
        dt, code = hostspeed.timed(_exit_code, args)
        out[f"cli.{name}_ms"] = 1e3 * dt
        text = target.read_text() if target.exists() else ""
        if code != 0 or not text:
            problems.append(f"cli {name} exited {code} with {len(text)} bytes of output")
        elif name in expect and text != expect[name]:
            problems.append(f"cli {name} printed {text!r}")
        elif name == "oracle-compare" and "verdict: agree" not in text:
            problems.append(f"cli oracle-compare printed {text!r}")
    return out
