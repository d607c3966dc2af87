"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
"""
import time

import numpy as np
import pytest

from axiombox import cli, experiment as xp, logic, oracle, pauli
from axiombox import stabilizer as stab
from axiombox.blackbox import BlackBoxConfig
from axiombox.experiment import NoiseModel
from axiombox.gf2 import BitVector
from axiombox.logic import AxiomSet, Proposition
from axiombox.stabilizer import MeasurementKind

import gf2_reference as ref
from dense_reference import term_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _blackbox_unitary(cfg):
    u = np.ones((1, 1), dtype=complex)
    for f in cfg.functions:
        u = np.kron(
            u, np.linalg.matrix_power(SX, f.f0) @ np.linalg.matrix_power(SZ, f.f1)
        )
    return u


def _parse_csv(text):
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("state,"):
            continue
        state, basis, label, count, freq = line.split(",")
        rows.append((state, basis, label, int(count), float(freq)))
    return rows


def test_criterion_1_equivalence_theorem():
    """Dependence <=> deterministic measurement <=> commutes with all generators."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240001)
    checked = 0
    for n in (1, 2, 3):
        for _ in range(20):
            pairs = stab.random_axioms(n, rng)
            axioms = AxiomSet(
                [v for v, _ in pairs], [0 if s == 1 else 1 for _, s in pairs]
            )
            state = stab.prepare(pairs)
            rows = [v.mask for v in axioms.vectors]
            for mask in range(4 ** n):
                v = BitVector.from_mask(mask, 2 * n)
                dependent = ref.span_coefficients(mask, rows) is not None
                commuting = all(
                    ref.symplectic(mask, g.vector.mask, n) == 0 for g in state.generators
                )
                result = stab.measure_forced(
                    state, pauli.from_proposition(v), 1
                )
                deterministic = result.kind is MeasurementKind.DETERMINISTIC
                assert dependent == commuting == deterministic, (n, mask)
                assert logic.classify(Proposition(v), axioms).dependent == dependent
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        f"\nCRITERION 1 PASS: equivalence held for {checked} propositions "
        f"(N=1..3, 20 axiom sets each) in {elapsed:.2f}s"
    )


def test_criterion_2_counting():
    """enumerate == (2^N, 4^N - 2^N) for N=1..6; exhaustive check for N<=3."""
    rng = np.random.default_rng(20240002)
    for n in range(1, 7):
        pairs = stab.random_axioms(n, rng)
        axioms = AxiomSet([v for v, _ in pairs], [0] * n)
        counts = logic.enumerate_propositions(n, axioms)
        assert counts == (2 ** n, 4 ** n - 2 ** n), n
        if n <= 3:
            state = stab.prepare(pairs)
            deterministic = sum(
                stab.measure_forced(
                    state,
                    pauli.from_proposition(BitVector.from_mask(mask, 2 * n)),
                    1,
                ).kind
                is MeasurementKind.DETERMINISTIC
                for mask in range(4 ** n)
            )
            assert deterministic == counts.dependent
    print("\nCRITERION 2 PASS: counts (2^N, 4^N - 2^N) verified for N = 1..6")


def test_criterion_3_ghz_contradiction():
    """classical XOR quantum == 1 for all 64 configs, dense-oracle checked."""
    start = time.perf_counter()
    ghz_dense = oracle.state_from_axioms(
        [(pauli.parse_observable(s).vector, 1) for s in ("ZZI", "IZZ", "XXX")]
    )
    xxx = term_matrix(pauli.parse_observable("+XXX"))
    for cfg in BlackBoxConfig.all_configs(3):
        report = logic.ghz_report(cfg)
        assert report.classical ^ report.quantum == 1, str(cfg)
        u = _blackbox_unitary(cfg)
        evolved = u @ ghz_dense
        expectation = np.vdot(evolved, xxx @ evolved).real
        dense_quantum = 0 if expectation > 0.5 else 1
        assert abs(abs(expectation) - 1.0) < 1e-12
        assert dense_quantum == report.quantum, str(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(
        f"\nCRITERION 3 PASS: contradiction on all 64 configs "
        f"(dense-checked) in {elapsed:.3f}s"
    )


def test_criterion_4_q1_grid(tmp_path):
    """q1-demo: per input state one definite basis, two random within 0.02."""
    out = tmp_path / "q1.csv"
    code = cli.main(
        ["q1-demo", "--labels", "y1", "--runs", "10000", "--seed", "42",
         "--noise", "0", "--out", str(out)]
    )
    assert code == 0
    rows = _parse_csv(out.read_text())
    cells = {}
    for state, basis, label, count, freq in rows:
        cells.setdefault((state, basis), {})[label] = freq
    definite = {}
    for (state, basis), freqs in cells.items():
        top = max(freqs.values())
        if top == 1.0:
            definite.setdefault(state, []).append(basis)
        else:
            assert abs(freqs["+"] - 0.5) <= 0.02, (state, basis)
            assert abs(freqs["-"] - 0.5) <= 0.02, (state, basis)
    assert definite == {"z+": ["z"], "x+": ["x"], "y+": ["y"]}
    print("\nCRITERION 4 PASS: one definite basis per input, others 0.5 +- 0.02")


def test_criterion_5_q2_grid(tmp_path):
    """q2-demo: b_E definite; b_F half/half with two zeros; b_D uniform."""
    out = tmp_path / "q2.csv"
    code = cli.main(
        ["q2-demo", "--labels", "y2,y2", "--runs", "10000", "--seed", "42",
         "--noise", "0", "--out", str(out)]
    )
    assert code == 0
    rows = _parse_csv(out.read_text())
    by_basis = {}
    for state, basis, label, count, freq in rows:
        by_basis.setdefault(basis, []).append(freq)
    e_sorted = sorted(by_basis["b_E"], reverse=True)
    assert e_sorted[0] == 1.0 and e_sorted[1:] == [0.0, 0.0, 0.0]
    f_sorted = sorted(by_basis["b_F"], reverse=True)
    assert all(abs(f - 0.5) <= 0.02 for f in f_sorted[:2])
    assert f_sorted[2:] == [0.0, 0.0]
    assert all(abs(f - 0.25) <= 0.02 for f in by_basis["b_D"])
    print("\nCRITERION 5 PASS: b_E definite, b_F 1/2-1/2-0-0, b_D uniform 1/4")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_6_oracle_equivalence(n):
    """200 random (state, commuting set) cases per N: deviation < 1e-9."""
    rng = np.random.default_rng(20240006 + n)
    worst = 0.0
    for _ in range(200):
        axioms = stab.random_axioms(n, rng)
        tableau = stab.prepare(axioms)
        count = int(rng.integers(1, n + 2))
        olist = stab.random_commuting_observables(n, count, rng)
        exact = stab.joint_distribution(tableau, olist)
        dense = oracle.distribution(oracle.state_from_axioms(axioms), olist)
        worst = max(worst, exact.max_deviation(dense))
    assert worst < 1e-9
    print(f"\nCRITERION 6 PASS (N={n}): 200 cases, max deviation {worst:.2e}")


def test_criterion_7_exponential_decay():
    """Misclassification rate: monotone, < 0.05 by 80, negative log slope,
    below the Hoeffding bound at every length."""
    rows = xp.decay_study(
        NoiseModel(flip_prob=0.1), [10, 20, 40, 80], trials=10_000, seed=20240007,
        threshold=0.25,
    )
    rates = [row.error_rate for row in rows]
    assert all(a >= b for a, b in zip(rates, rates[1:])), rates
    assert rates[-1] < 0.05, rates
    for row in rows:
        assert row.error_rate <= row.chernoff_bound, row
    lengths = np.array([row.run_length for row in rows], dtype=float)
    observed = np.array(rates)
    keep = observed > 0
    slope = np.polyfit(lengths[keep], np.log(observed[keep]), 1)[0]
    assert slope < 0, slope
    print(
        f"\nCRITERION 7 PASS: rates {rates} monotone, below bounds, "
        f"log-slope {slope:.4f}"
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Same seed and flags imply byte-identical demo output files."""
    commands = [
        ["q1-demo", "--labels", "y3", "--runs", "5000", "--seed", "11"],
        ["q2-demo", "--labels", "y1,y2", "--runs", "5000", "--seed", "11",
         "--noise", "0.05"],
        ["decay-study", "--noise", "0.1", "--lengths", "10,20,40",
         "--trials", "2000", "--seed", "11"],
    ]
    for index, base in enumerate(commands):
        a = tmp_path / f"{index}_a.out"
        b = tmp_path / f"{index}_b.out"
        assert cli.main(base + ["--out", str(a)]) == 0
        assert cli.main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), base[0]
    print("\nCRITERION 8 PASS: byte-identical output for repeated seeded demos")
