"""The benchmark workloads: job inputs, the timed library calls, and the
correctness checks against references computed in :mod:`gen`.

A workload cycles through a fixed list of job sizes.  The mix is chosen so
that the median and the 90th percentile of job latency each fall inside a
block of same-sized jobs rather than on the edge between two sizes, which
keeps both percentiles steady from run to run.  Runs always end on a whole
cycle, so every run sees the same mix.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from axiombox import blackbox as bb
from axiombox import experiment as xp
from axiombox import logic
from axiombox import oracle
from axiombox import stabilizer as stab
from axiombox.gf2 import BitVector
from axiombox.pauli import PauliOperator, SignedObservable

import gen

SAMPLE_RUNS = 10_000
FLIP_PROB = 0.05
ORACLE_TOLERANCE = 1e-9
BATCH = 16  # propositions per dependence job


# -- library inputs from masks (class constructors only, never traced) -----


def bitvec(mask: int, length: int) -> BitVector:
    return BitVector.from_mask(mask, length)


def signed(mask: int, sign: int, n: int) -> SignedObservable:
    low = (1 << n) - 1
    x, z = mask & low, mask >> n
    base = PauliOperator(bitvec(x, n), bitvec(z, n), (x & z).bit_count() % 4)
    return SignedObservable(base, sign)


def axiom_pairs(system: gen.System) -> list:
    return [(bitvec(v, 2 * system.n), s) for v, s in zip(system.stab, system.signs)]


def observables(system: gen.System, obs: gen.Observables) -> list:
    return [signed(v, s, system.n) for v, s in zip(obs.vectors, obs.signs)]


# -- shared checks ---------------------------------------------------------


def check_distribution(system, obs, outcomes: dict, problems: list) -> None:
    """Support is exactly the 2^r outcome vectors the observables' products
    allow, each with probability exactly 2^-r."""
    want = 2.0 ** -obs.r
    if len(outcomes) != 2 ** obs.r:
        problems.append(f"support {len(outcomes)} != 2^{obs.r}")
    for signs, p in outcomes.items():
        if p != want:
            problems.append(f"probability {p} != 2^-{obs.r}")
            break
        for i in range(len(obs.vectors)):
            if obs.prim[i] != 1 << i and signs[i] != obs.implied_outcome(
                system, i, signs
            ):
                problems.append(f"outcome {signs} breaks observable {i}")
                return


# -- wide_tableau ----------------------------------------------------------


def make_wide(rng: random.Random, n: int) -> dict:
    system = gen.random_system(rng, n)
    labels = gen.random_config(rng, n)
    measurements = []  # (stab combo, destab combo, sign); even = deterministic
    for i in range(2 * n):
        destab = 0 if i % 2 == 0 else rng.getrandbits(n) or 1
        measurements.append((rng.getrandbits(n) or 1, destab, rng.choice((1, -1))))
    obs = []
    for combo, destab, sign in measurements:
        v = 0
        for p in gen.bits(combo):
            v ^= system.stab[p]
        for p in gen.bits(destab):
            v ^= system.destab[p]
        obs.append(signed(v, sign, n))
    return {
        "system": system,
        "labels": labels,
        "measurements": measurements,
        "pairs": axiom_pairs(system),
        "vectors": [bitvec(v, 2 * n) for v in system.stab],
        "cfg": bb.BlackBoxConfig.from_labels(labels),
        "obs": obs,
        "rng": random.Random(rng.getrandbits(64)),
    }


def run_wide(job: dict):
    state = stab.prepare(job["pairs"])
    evolved = stab.apply_blackbox(state, job["cfg"])
    truths = bb.axiom_truths(job["vectors"], job["cfg"])
    results = [stab.measure(evolved, o, job["rng"]) for o in job["obs"]]
    return evolved, truths, results


def check_wide(job: dict, out, problems: list):
    system = job["system"]
    evolved, truths, results = out
    n = system.n
    want_truths = [gen.config_truth(job["labels"], v, n) for v in system.stab]
    if list(truths) != want_truths:
        problems.append("axiom_truths differ from the config parities")
    signs = tuple(s * (-1) ** t for s, t in zip(system.signs, want_truths))
    if tuple(g.sign for g in evolved.generators) != signs:
        problems.append("black box flipped the wrong generator signs")
    after = gen.System(n, system.stab, system.destab, signs)
    outcomes = []
    for (combo, destab, sign), res in zip(job["measurements"], results):
        if destab:
            ok = res.kind is stab.MeasurementKind.RANDOM and res.outcome in (1, -1)
        else:
            ok = (
                res.kind is stab.MeasurementKind.DETERMINISTIC
                and res.outcome == after.deterministic_outcome(combo, sign)
            )
        if not ok:
            problems.append(
                f"measurement {combo:#x}/{destab:#x} gave {res.kind.value} {res.outcome}"
            )
            break
        outcomes.append(res.outcome)
    return (tuple(truths), tuple(outcomes))


# -- query_mix: joint jobs ----------------------------------------------


def make_joint(rng: random.Random, size) -> dict:
    m, r = size
    system = gen.random_system(rng, 16)
    obs = gen.commuting_observables(rng, system, m, r)
    return {
        "system": system,
        "obs": obs,
        "pairs": axiom_pairs(system),
        "observables": observables(system, obs),
        "seed": rng.getrandbits(32),
        "noise": xp.NoiseModel(flip_prob=FLIP_PROB),
    }


def run_joint(job: dict):
    state = stab.prepare(job["pairs"])
    dist = stab.joint_distribution(state, job["observables"])
    record = xp.sample(
        state, job["observables"], SAMPLE_RUNS, job["seed"], job["noise"]
    )
    return dist, record


def check_joint(job: dict, out, problems: list):
    system, obs = job["system"], job["obs"]
    dist, record = out
    outcomes = dist.outcomes
    check_distribution(system, obs, outcomes, problems)
    if record.n_runs != SAMPLE_RUNS or sum(record.counts.values()) != SAMPLE_RUNS:
        problems.append("sample lost runs")
    for i in range(len(obs.vectors)):
        if obs.prim[i]:
            continue
        # A definite outcome survives the flip noise with probability 0.95;
        # 0.02 is nine standard deviations at 10 000 runs.
        want = obs.implied_outcome(system, i, ())
        hits = sum(c for s, c in record.counts.items() if s[i] == want)
        if abs(hits / SAMPLE_RUNS - (1 - FLIP_PROB)) > 0.02:
            problems.append(f"observable {i}: {hits} of {SAMPLE_RUNS} runs agree")
    return (tuple(sorted(outcomes)), tuple(sorted(record.counts.items())))


# -- query_mix: dependence jobs -----------------------------------------

GHZ_AXIOMS = ("YYX", "YXY", "XYY")


def letters_mask(letters: str) -> int:
    n = len(letters)
    x = sum(1 << j for j, c in enumerate(letters) if c in "XY")
    z = sum(1 << j for j, c in enumerate(letters) if c in "ZY")
    return x | (z << n)


def make_dependence(rng: random.Random, size) -> dict:
    n, ghz = size
    system = gen.random_system(rng, n)
    parities = [rng.getrandbits(1) for _ in range(n)]
    props = []  # vector masks; odd ones carry a destabilizer, so are independent
    for i in range(BATCH):
        v = 0
        for p in gen.bits(rng.getrandbits(n) or 1):
            v ^= system.stab[p]
        if i % 2:
            for p in gen.bits(rng.getrandbits(n) or 1):
                v ^= system.destab[p]
        props.append(v)
    labels = None
    if ghz:
        k = rng.randrange(64)
        labels = (k >> 4, (k >> 2) & 3, k & 3)
    return {
        "system": system,
        "parities": parities,
        "props": props,
        "vectors": [bitvec(v, 2 * n) for v in system.stab],
        "propositions": [logic.Proposition(bitvec(v, 2 * n)) for v in props],
        "labels": labels,
        "cfg": bb.BlackBoxConfig.from_labels(labels) if ghz else None,
    }


def run_dependence(job: dict):
    n = len(job["vectors"])
    axioms = logic.AxiomSet(job["vectors"], job["parities"])
    state = stab.prepare(axioms.generator_pairs())
    answers = [
        (
            logic.classify(j, axioms),
            logic.classical_truth(j, axioms),
            logic.quantum_truth(j, state),
        )
        for j in job["propositions"]
    ]
    counts = logic.enumerate_propositions(n, axioms)
    ghz = logic.ghz_report(job["cfg"]) if job["cfg"] is not None else None
    return answers, counts, ghz


def check_dependence(job: dict, out, problems: list):
    system = job["system"]
    n = system.n
    answers, counts, ghz = out
    parity_mask = sum(b << p for p, b in enumerate(job["parities"]))
    record = []
    for v, (report, classical, quantum) in zip(job["props"], answers):
        combo = gen.span_combo(v, list(system.stab))
        if report.dependent != (combo is not None):
            problems.append(f"dependence of {v:#x} disagrees with the span test")
            continue
        if combo is None:
            if classical is not None or quantum is not None:
                problems.append(f"independent {v:#x} got a truth value")
            record.append(None)
            continue
        _, c = gen.product_phase_bit([system.stab[p] for p in gen.bits(combo)], n)
        want_classical = gen.parity(combo & parity_mask)
        if (
            report.coefficients.mask != combo
            or report.phase_bit != c
            or classical != want_classical
            or classical ^ quantum != report.phase_bit
        ):
            problems.append(f"dependent {v:#x}: {report}, {classical}, {quantum}")
        record.append((combo, classical, quantum))
    if tuple(counts) != (2 ** n, 4 ** n - 2 ** n):
        problems.append(f"enumerate gave {tuple(counts)}")
    if ghz is not None:
        masks = [letters_mask(s) for s in GHZ_AXIOMS]
        derived, c = gen.product_phase_bit(masks, 3)
        parities = [1 ^ gen.config_truth(job["labels"], v, 3) for v in masks]
        classical = parities[0] ^ parities[1] ^ parities[2]
        if (
            derived != letters_mask("XXX")
            or tuple(ghz.coefficients) != (1, 1, 1)
            or tuple(ghz.axiom_parities) != tuple(parities)
            or ghz.classical != classical
            or ghz.quantum != classical ^ c
            or ghz.phase_bit != c
        ):
            problems.append(f"ghz_report for {job['labels']}: {ghz}")
        record.append((ghz.classical, ghz.quantum))
    return (tuple(record), tuple(counts))


# -- query_mix: oracle jobs ---------------------------------------------


def make_oracle(rng: random.Random, n: int) -> dict:
    system = gen.random_system(rng, n)
    obs = gen.commuting_observables(rng, system, n, n // 2)
    return {
        "system": system,
        "obs": obs,
        "pairs": axiom_pairs(system),
        "observables": observables(system, obs),
    }


def run_oracle(job: dict):
    state = stab.prepare(job["pairs"])
    exact = stab.joint_distribution(state, job["observables"])
    psi = oracle.state_from_axioms(job["pairs"])
    dense = oracle.distribution(psi, job["observables"])
    return exact, dense


def check_oracle(job: dict, out, problems: list):
    exact, dense = out
    exact_p, dense_p = exact.outcomes, dense.outcomes
    check_distribution(job["system"], job["obs"], exact_p, problems)
    worst = max(
        abs(exact_p.get(k, 0.0) - dense_p.get(k, 0.0))
        for k in set(exact_p) | set(dense_p)
    )
    if not worst < ORACLE_TOLERANCE:
        problems.append(f"oracle deviates by {worst:.3e}")
    return tuple(sorted(exact_p))


# -- registry --------------------------------------------------------------

# Job kinds of query_mix: (make, run, check) by name.
KINDS = {
    "joint": (make_joint, run_joint, check_joint),
    "dependence": (make_dependence, run_dependence, check_dependence),
    "oracle": (make_oracle, run_oracle, check_oracle),
}


def make_mix(rng: random.Random, slot) -> dict:
    kind, size = slot
    return dict(KINDS[kind][0](rng, size), kind=kind)


def run_mix(job: dict):
    return KINDS[job["kind"]][1](job)


def check_mix(job: dict, out, problems: list):
    return KINDS[job["kind"]][2](job, out, problems)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: str
    cycle: tuple  # job size for index i is cycle[i % len(cycle)]
    make: Callable
    run: Callable
    check: Callable  # (job, output, problems) -> digest record

    def job(self, seed: int, index: int, stream: str = "job") -> dict:
        rng = gen.job_rng(f"{self.name}/{stream}", seed, index)
        return self.make(rng, self.cycle[index % len(self.cycle)])


# query_mix, sorted by job cost: oracle N=4 x2, dependence n=4 x2, oracle
# N=6 x4 | dependence n=5 x9 (the median falls here) | joint (6,3), (6,6),
# oracle N=8 x6 | dependence n=6 x2, joint (10,5) (the 90th percentile falls
# here) | joint (8,8), (12,12).  The joint (12,12) job alone takes about
# two thirds of the summed job time.
QUERY_MIX = (
    ("dependence", (5, True)), ("oracle", 8), ("oracle", 6), ("joint", (6, 3)),
    ("dependence", (5, False)), ("oracle", 4), ("dependence", (6, False)),
    ("oracle", 8), ("dependence", (5, False)), ("oracle", 6), ("joint", (10, 5)),
    ("dependence", (4, False)), ("oracle", 8), ("joint", (12, 12)),
    ("oracle", 8), ("joint", (6, 6)), ("dependence", (5, False)), ("oracle", 6),
    ("dependence", (6, True)), ("dependence", (5, False)), ("oracle", 4),
    ("oracle", 8), ("dependence", (4, False)), ("dependence", (5, False)),
    ("joint", (8, 8)), ("oracle", 6), ("dependence", (5, False)), ("oracle", 8),
    ("dependence", (5, False)), ("dependence", (5, False)),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide_tableau",
            "N in {32, 64, 128} (14:5:1 per cycle); prepare, apply_blackbox, "
            "axiom_truths, then 2N measures on the evolved state, half of them "
            "deterministic",
            (128,) + (32, 32, 32, 64) * 4 + (32, 32, 64),
            make_wide,
            run_wide,
            check_wide,
        ),
        Workload(
            "query_mix",
            "30-job cycle of three job kinds. joint: N=16, prepare, "
            "joint_distribution and a sample of 10 000 runs at flip noise "
            "0.05, (m, r) in {(6,3), (6,6), (10,5), (8,8), (12,12)}. dependence: "
            "n in {4 x2, 5 x9, 6 x2}, AxiomSet, prepare, classify + "
            "classical_truth + quantum_truth on 16 propositions (half "
            "dependent), enumerate_propositions, and ghz_report on two of "
            "them. oracle: N in {4 x2, 6 x4, 8 x6}, m=N observables with "
            "r=N/2, tableau joint_distribution against state_from_axioms + "
            "distribution",
            QUERY_MIX,
            make_mix,
            run_mix,
            check_mix,
        ),
    )
}
