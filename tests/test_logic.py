"""Dependence classification, the two truth values, counting, GHZ report."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from axiombox import blackbox as bb
from axiombox import logic, pauli
from axiombox import stabilizer as stab
from axiombox.blackbox import BlackBoxConfig
from axiombox.gf2 import BitVector
from axiombox.logic import AxiomSet, Proposition
from axiombox.stabilizer import MeasurementKind

import gf2_reference as ref


def prop(text):
    return Proposition.from_string(text)


def ghz_axiom_set(parities=(1, 1, 1)):
    vectors = [prop(s).vector for s in ("YYX", "YXY", "XYY")]
    return AxiomSet(vectors, parities)


class TestAxiomSet:
    @pytest.mark.parametrize("parity", [1.7, -0.5, np.float64(0.9), 0.5, "1", None])
    def test_rejects_non_bit_parities(self, parity):
        with pytest.raises(ValueError, match="bits"):
            AxiomSet([prop("Z").vector], [parity])

    @pytest.mark.parametrize("parity, want", [
        (True, 1), (False, 0), (np.int64(1), 1), (np.uint8(0), 0),
    ])
    def test_bool_and_numpy_int_parities(self, parity, want):
        axioms = AxiomSet([prop("Z").vector], [parity])
        assert axioms.parities == (want,)
        assert type(axioms.parities[0]) is int

    def test_from_observables_sign_to_parity(self):
        axioms = AxiomSet.from_observables(
            [pauli.parse_observable("-YYX"), pauli.parse_observable("-YXY"),
             pauli.parse_observable("-XYY")]
        )
        assert axioms.parities == (1, 1, 1)
        assert axioms.signs() == (-1, -1, -1)

    def test_rejects_invalid_sets(self):
        with pytest.raises(ValueError, match="not co-measurable"):
            AxiomSet([prop("ZZ").vector, prop("XZ").vector], [0, 0])
        with pytest.raises(ValueError, match="not independent"):
            AxiomSet([prop("ZI").vector, prop("ZI").vector], [0, 0])
        with pytest.raises(ValueError):
            AxiomSet([prop("ZZ").vector], [0])  # one vector for two qubits
        with pytest.raises(ValueError, match="one parity bit per axiom vector"):
            AxiomSet([prop("ZZ").vector, prop("XX").vector], [0])

    def test_proposition_qubit_count(self):
        assert prop("XYZ").n_qubits == 3


class TestClassify:
    def test_zero_vector_dependent(self):
        report = logic.classify(Proposition(BitVector("0000")),
                                AxiomSet([prop("ZZ").vector, prop("XX").vector], [0, 0]))
        assert report.dependent
        assert report.coefficients == BitVector("00")
        assert report.phase_bit == 0

    def test_single_axiom_independent(self):
        axioms = AxiomSet([BitVector("01")], [0])
        report = logic.classify(Proposition(BitVector("10")), axioms)
        assert not report.dependent
        assert report.coefficients is None

    def test_ghz_derived_dependent(self):
        report = logic.classify(prop("XXX"), ghz_axiom_set())
        assert report.dependent
        assert report.coefficients == BitVector("111")
        assert report.phase_bit == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            logic.classify(prop("X"), ghz_axiom_set())


class TestClassicalTruth:
    def test_ghz_derived(self):
        assert logic.classical_truth(prop("XXX"), ghz_axiom_set()) == 1

    def test_zero_vector(self):
        axioms = AxiomSet([prop("ZZ").vector, prop("XX").vector], [1, 0])
        assert logic.classical_truth(Proposition(BitVector("0000")), axioms) == 0

    def test_bell_yy_parity(self):
        axioms = AxiomSet([prop("ZZ").vector, prop("XX").vector], [0, 0])
        assert logic.classical_truth(prop("YY"), axioms) == 0

    def test_independent_gives_none(self):
        axioms = AxiomSet([BitVector("01")], [0])
        assert logic.classical_truth(Proposition(BitVector("10")), axioms) is None

    def test_classify_reports_it(self):
        axioms = ghz_axiom_set(parities=(1, 0, 1))
        for text in ("XXX", "YYX", "ZZI", "III"):
            report = logic.classify(prop(text), axioms)
            assert report.classical_truth == logic.classical_truth(prop(text), axioms)
        assert logic.classify(prop("ZII"), axioms).classical_truth is None

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_classify_on_random_propositions(self, n):
        rng = np.random.default_rng(80 + n)
        pairs = stab.random_axioms(n, rng)
        axioms = AxiomSet([v for v, _ in pairs], rng.integers(0, 2, n))
        masks = [v.mask for v in axioms.vectors]
        for _ in range(40):
            if rng.integers(0, 2):  # half of the draws are axiom combinations
                mask = 0
                for v, k in zip(masks, rng.integers(0, 2, n)):
                    mask ^= v if k else 0
            else:
                mask = int(rng.integers(0, 4 ** n))
            j = Proposition(BitVector.from_mask(mask, 2 * n))
            assert logic.classical_truth(j, axioms) == logic.classify(j, axioms).classical_truth

    def test_equals_classify_on_ghz(self):
        for parities in ((1, 1, 1), (1, 0, 1), (0, 0, 0)):
            axioms = ghz_axiom_set(parities)
            for mask in range(64):
                j = Proposition(BitVector.from_mask(mask, 6))
                assert logic.classical_truth(j, axioms) == logic.classify(j, axioms).classical_truth

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            logic.classical_truth(prop("X"), ghz_axiom_set())


class TestQuantumTruth:
    def test_ghz_xxx_negates_classical(self):
        state = stab.prepare([(prop(s).vector, 1) for s in ("ZZI", "IZZ", "XXX")])
        assert logic.quantum_truth(prop("XXX"), state) == 0
        assert logic.quantum_truth(prop("YYX"), state) == 1

    def test_z_plus_after_identity_box(self):
        state = stab.apply_blackbox(
            stab.prepare([(BitVector("01"), 1)]), BlackBoxConfig.identity(1)
        )
        assert logic.quantum_truth(Proposition(BitVector("01")), state) == 0

    def test_independent_gives_none(self):
        state = stab.prepare([(BitVector("01"), 1)])
        assert logic.quantum_truth(Proposition(BitVector("10")), state) is None


class TestDependenceMatchesDeterminism:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            pairs = stab.random_axioms(n, rng)
            axioms = AxiomSet(
                [v for v, _ in pairs], [0 if s == 1 else 1 for _, s in pairs]
            )
            state = stab.prepare(pairs)
            for mask in range(4 ** n):
                p = Proposition(BitVector.from_mask(mask, 2 * n))
                dependent = logic.classify(p, axioms).dependent
                result = stab.measure_forced(state, p.observable(), 1)
                assert dependent == (result.kind is MeasurementKind.DETERMINISTIC)


class TestPhaseBitInvariant:
    """With parities taken from the config arithmetic, the quantum truth of a
    dependent proposition is the classical one XOR the operator phase bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_systems(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(5):
            pairs = stab.random_axioms(n, rng)
            vectors = [v for v, _ in pairs]
            labels = [int(k) for k in rng.integers(0, 4, size=n)]
            cfg = BlackBoxConfig.from_labels(labels)
            truths = bb.axiom_truths(vectors, cfg)
            axioms = AxiomSet(vectors, truths)
            state = stab.apply_blackbox(
                stab.prepare([(v, 1) for v in vectors]), cfg
            )
            for mask in range(4 ** n):
                p = Proposition(BitVector.from_mask(mask, 2 * n))
                report = logic.classify(p, axioms)
                if not report.dependent:
                    assert logic.quantum_truth(p, state) is None
                    continue
                classical = logic.classical_truth(p, axioms)
                quantum = logic.quantum_truth(p, state)
                assert classical == bb.proposition_truth(p.vector, cfg)
                assert quantum == classical ^ report.phase_bit


class TestEnumerate:
    @pytest.mark.parametrize("n,expected", [(1, (2, 2)), (2, (4, 12)), (3, (8, 56))])
    def test_counts(self, n, expected):
        rng = np.random.default_rng(60 + n)
        pairs = stab.random_axioms(n, rng)
        axioms = AxiomSet([v for v, _ in pairs], [0] * n)
        assert tuple(logic.enumerate_propositions(n, axioms)) == expected

    def test_counts_independent_of_axiom_choice(self):
        rng = np.random.default_rng(61)
        results = set()
        for _ in range(10):
            pairs = stab.random_axioms(2, rng)
            axioms = AxiomSet([v for v, _ in pairs], [0, 0])
            results.add(tuple(logic.enumerate_propositions(2, axioms)))
        assert results == {(4, 12)}

    def test_reuses_the_axiom_set_elimination(self, monkeypatch):
        axioms = ghz_axiom_set()

        def no_elimination(*args):
            raise AssertionError("eliminated again")

        monkeypatch.setattr(stab, "_echelon", no_elimination)
        monkeypatch.setattr("axiombox.gf2._echelon", no_elimination)
        assert tuple(logic.enumerate_propositions(3, axioms)) == (8, 56)
        assert logic.classify(prop("XXX"), axioms).dependent

    def test_n16_allocates_nothing_per_proposition(self):
        axioms = stab.prepare(stab.random_axioms(16, np.random.default_rng(63)))
        tracemalloc.start()
        try:
            counts = logic.enumerate_propositions(16, axioms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tuple(counts) == (2 ** 16, 4 ** 16 - 2 ** 16)
        assert peak < 64 * 1024

    def test_cap(self):
        """The library counts any prepared system; only ``enumerate --n``,
        which builds a system from a bare integer, is bounded by the cap."""
        for n in (17, 64, 128):
            axioms = stab.prepare([(BitVector.unit(n + i, 2 * n), 1) for i in range(n)])
            counts = logic.enumerate_propositions(n, axioms)
            assert tuple(counts) == (2 ** n, 4 ** n - 2 ** n)
            with pytest.raises(ValueError, match=f"for {n} qubits, not {n + 1}"):
                logic.enumerate_propositions(n + 1, axioms)

    def test_ratio_grows_as_two_to_n_minus_one(self):
        # formula for n = 1..6, exhaustively confirmed up to the cap
        for n in range(1, 7):
            dependent, independent = 2 ** n, 4 ** n - 2 ** n
            assert independent == dependent * (2 ** n - 1)
        rng = np.random.default_rng(62)
        for n in range(1, logic.ENUMERATION_CAP + 1):
            pairs = stab.random_axioms(n, rng)
            axioms = AxiomSet([v for v, _ in pairs], [0] * n)
            counts = logic.enumerate_propositions(n, axioms)
            assert tuple(counts) == (2 ** n, 4 ** n - 2 ** n), n
            assert counts.independent == counts.dependent * (2 ** n - 1)


def frozen_scan(n, axioms):
    """``enumerate_propositions`` as it stood before the meet in the middle:
    every one of the 4^n masks reduced against the pivots of one elimination
    of the axiom vectors."""
    pivots = ref.gauss_jordan([v.mask for v in axioms.vectors])
    dependent = sum(1 for mask in range(4 ** n) if not ref.reduce(mask, pivots)[0])
    return (dependent, 4 ** n - dependent)


def span_count(n, tableau):
    """Brute-force counts for any tableau: every one of the 4^n masks reduced
    against the pivots of one elimination of its generator masks."""
    pivots = ref.gauss_jordan(list(tableau._gens))
    dependent = sum(1 for mask in range(4 ** n) if not ref.reduce(mask, pivots)[0])
    return (dependent, 4 ** n - dependent)


class TestEnumerateMatchesFrozenScan:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_random_systems(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(3):
            pairs = stab.random_axioms(n, rng)
            axioms = AxiomSet([v for v, _ in pairs], rng.integers(0, 2, n))
            assert tuple(logic.enumerate_propositions(n, axioms)) == frozen_scan(n, axioms)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_z_per_qubit(self, n):
        """The CLI's default ``enumerate --n`` system."""
        axioms = AxiomSet.from_observables(
            [pauli.parse_observable("I" * i + "Z" + "I" * (n - i - 1)) for i in range(n)]
        )
        assert tuple(logic.enumerate_propositions(n, axioms)) == frozen_scan(n, axioms)

    def test_ghz(self):
        axioms = ghz_axiom_set()
        assert tuple(logic.enumerate_propositions(3, axioms)) == frozen_scan(3, axioms)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_blackbox_outputs(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(3):
            state = stab.prepare(stab.random_axioms(n, rng))
            cfg = BlackBoxConfig.from_labels(rng.integers(0, 4, n))
            out = stab.apply_blackbox(state, cfg)
            assert tuple(logic.enumerate_propositions(n, out)) == span_count(n, out)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_measured_post_states(self, n):
        rng = np.random.default_rng(90 + n)
        state = stab.prepare(stab.random_axioms(n, rng))
        for _ in range(4):
            mask = int(rng.integers(1, 4 ** n))
            obs = pauli._observable(mask, n, 1)
            state = stab.measure_forced(state, obs, int(rng.choice([1, -1]))).post_state
            assert tuple(logic.enumerate_propositions(n, state)) == span_count(n, state)


class TestGhzReport:
    def test_identity_config(self):
        report = logic.ghz_report(BlackBoxConfig.identity(3))
        assert report.classical == 1
        assert report.quantum == 0
        assert report.coefficients == (1, 1, 1)
        assert report.phase_bit == 1
        assert report.contradiction == 1

    def test_all_64_configs_contradict(self):
        for cfg in BlackBoxConfig.all_configs(3):
            report = logic.ghz_report(cfg)
            assert report.classical ^ report.quantum == 1

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="3 qubits"):
            logic.ghz_report(BlackBoxConfig.identity(2))

    def test_classifies_once(self, monkeypatch):
        calls = []
        classify = logic.classify
        monkeypatch.setattr(logic, "classify", lambda *a: calls.append(a) or classify(*a))
        assert logic.ghz_report(BlackBoxConfig.from_labels([2, 0, 3])).contradiction == 1
        assert len(calls) == 1

    def test_serialization(self):
        import json

        report = logic.ghz_report(BlackBoxConfig.from_labels([1, 2, 3]))
        text = report.to_text()
        assert "classical_truth:" in text and "quantum_truth:" in text
        payload = json.loads(report.to_json())
        assert payload["contradiction"] == 1
        assert payload["coefficients"] == [1, 1, 1]

    def test_golden_text_and_json(self):
        """The bytes of both renderings, pinned for one configuration in full
        and for all 64 by the sha256 of their concatenation."""
        report = logic.ghz_report(BlackBoxConfig.from_labels([1, 2, 3]))
        assert report.to_text() == (
            "config: y1,y2,y3\naxioms: YYX YXY XYY\naxiom_parities: 0 0 1\n"
            "derived: XXX\ncoefficients: (1,1,1)\nclassical_truth: 1\n"
            "quantum_truth: 0\nphase_bit: 1\ncontradiction: 1\n"
        )
        assert report.to_json() == (
            '{\n  "config": "y1,y2,y3",\n  "axioms": [\n    "YYX",\n    "YXY",\n'
            '    "XYY"\n  ],\n  "axiom_parities": [\n    0,\n    0,\n    1\n  ],\n'
            '  "derived": "XXX",\n  "coefficients": [\n    1,\n    1,\n    1\n  ],\n'
            '  "classical_truth": 1,\n  "quantum_truth": 0,\n  "phase_bit": 1,\n'
            '  "contradiction": 1\n}'
        )
        reports = [logic.ghz_report(cfg) for cfg in BlackBoxConfig.all_configs(3)]
        text = "".join(r.to_text() for r in reports)
        jsons = "".join(r.to_json() + "\n" for r in reports)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0a3d73e62848c3b22993da956d47f45c968c44952805d7a5d12b74cd1c373c0a"
        )
        assert hashlib.sha256(jsons.encode()).hexdigest() == (
            "b952fede8235edd5a7a9ac351fb60f6738fba0b5c94cf0af7a29ad33f787d65c"
        )


class TestProposition:
    def test_from_string_rejects_a_sign(self):
        for text in ("-XXX", "+XXX", " -ZZ", "+"):
            with pytest.raises(ValueError, match="unsigned Pauli letters"):
                Proposition.from_string(text)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            Proposition(BitVector("010"))

    def test_str(self):
        assert str(prop("YYX")) == "YYX"
