"""Dependence read off the prepared tableau.

An :class:`AxiomSet` is the tableau that ``prepare`` builds from it, and
``classify``, ``classical_truth`` and ``enumerate_propositions`` read
everything off a prepared tableau's generator scan and destabilizer pairing
(``stabilizer._scan``).  These tests pin the results to a frozen copy of the
earlier reduce-based functions, which eliminated the axiom matrix a second
time and reduced every proposition against its pivots, and count the
eliminations one axiom set and one ``axiombox check`` make.
"""
from collections import Counter

import numpy as np
import pytest

from axiombox import cli, gf2, logic, pauli
from axiombox import stabilizer as stab
from axiombox.gf2 import BitVector, _echelon, _swap_halves
from axiombox.blackbox import BlackBoxConfig
from axiombox.logic import AxiomSet, DependenceReport, Proposition
from test_measure_kernel import frozen_phase_bit

import gf2_reference as ref

GHZ_AXIOM_FILE = "-YYX\n-YXY\n-XYY\n"


# Frozen reference: the reduce-based classify, classical_truth and
# enumerate_propositions, on pivots of the reference elimination
# (:mod:`gf2_reference`) of the axiom vectors.

def frozen_pivots(axioms):
    return ref.gauss_jordan([v.mask for v in axioms.vectors])


def frozen_reduce_against(j, axioms, pivots):
    if len(j.vector) != 2 * axioms.n_qubits:
        raise ValueError(
            f"length mismatch: proposition {len(j.vector)}, "
            f"axioms expect {2 * axioms.n_qubits}"
        )
    return ref.reduce(j.vector.mask, pivots)


def frozen_classify(j, axioms, pivots):
    residue, combo = frozen_reduce_against(j, axioms, pivots)
    if residue:
        return DependenceReport(dependent=False)
    parity_mask = sum(t << p for p, t in enumerate(axioms.parities))
    coeffs = BitVector.from_mask(combo, axioms.n_qubits)
    factors = [v.mask for k, v in zip(coeffs, axioms.vectors) if k]
    return DependenceReport(
        dependent=True,
        coefficients=coeffs,
        classical_truth=(combo & parity_mask).bit_count() & 1,
        phase_bit=frozen_phase_bit(j.vector.mask, factors, axioms.n_qubits),
    )


def frozen_classical_truth(j, axioms, pivots):
    residue, combo = frozen_reduce_against(j, axioms, pivots)
    if residue:
        return None
    parity_mask = sum(t << p for p, t in enumerate(axioms.parities))
    return (combo & parity_mask).bit_count() & 1


def frozen_half_residues(shift, n, pivots):
    out = [0]
    for i in range(n):
        unit = ref.reduce(1 << (shift + i), pivots)[0]
        out += [r ^ unit for r in out]
    return out


def frozen_enumerate(n, axioms, pivots):
    if axioms.n_qubits != n:
        raise ValueError(f"axiom set is for {axioms.n_qubits} qubits, not {n}")
    tally = Counter(frozen_half_residues(0, n, pivots))
    dependent = sum(map(tally.__getitem__, frozen_half_residues(n, n, pivots)))
    return (dependent, 4 ** n - dependent)


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return f"ValueError: {err}"


def propositions(axioms, rng, count=40):
    """The zero vector, ``count`` random combinations of the axioms (all
    dependent) and ``count`` random masks (mostly independent); every mask
    when there are at most 64."""
    n = axioms.n_qubits
    if 4 ** n <= 64:
        masks = list(range(4 ** n))
    else:
        vectors = [v.mask for v in axioms.vectors]
        masks = [0]
        for _ in range(count):
            combo = 0
            for bit, v in zip(rng.integers(0, 2, n), vectors):
                if bit:
                    combo ^= v
            masks.append(combo)
        masks += [int.from_bytes(rng.bytes(n), "little") % 4 ** n for _ in range(count)]
    return [Proposition(BitVector.from_mask(m, 2 * n)) for m in masks]


def assert_matches_frozen(axioms, rng):
    n = axioms.n_qubits
    pivots = frozen_pivots(axioms)
    for j in propositions(axioms, rng):
        got, want = logic.classify(j, axioms), frozen_classify(j, axioms, pivots)
        for field in ("dependent", "coefficients", "classical_truth", "phase_bit"):
            assert getattr(got, field) == getattr(want, field), (str(j), field)
        assert logic.classical_truth(j, axioms) == frozen_classical_truth(j, axioms, pivots)
    wrong = Proposition(BitVector.zeros(2 * n + 2))
    for new, old in ((logic.classify, frozen_classify),
                     (logic.classical_truth, frozen_classical_truth)):
        message = outcome(old, wrong, axioms, pivots)
        assert message.startswith("ValueError: length mismatch")
        assert outcome(new, wrong, axioms) == message
    for size in (n, n + 1, 17):
        assert tuple(outcome(logic.enumerate_propositions, size, axioms)) == tuple(
            outcome(frozen_enumerate, size, axioms, pivots)
        )


def random_axiom_set(n, rng):
    pairs = stab.random_axioms(n, rng)
    return AxiomSet([v for v, _ in pairs], rng.integers(0, 2, n))


def axiom_set_and_tableau(n, rng):
    """A random AxiomSet, and the tableau ``prepare`` builds from the same
    signed pairs, which is also ``prepare(axioms.generator_pairs())``."""
    pairs = stab.random_axioms(n, rng)
    axioms = AxiomSet([v for v, _ in pairs], [int(s < 0) for _, s in pairs])
    t = stab.prepare(pairs)
    assert t == stab.prepare(axioms.generator_pairs())
    return axioms, t


def one_z_per_qubit(n, parities):
    return AxiomSet(
        [pauli.parse_observable("I" * i + "Z" + "I" * (n - i - 1)).vector for i in range(n)],
        parities,
    )


class TestMatchesFrozenReduce:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_random_systems(self, n):
        rng = np.random.default_rng(180 + n)
        for _ in range(3 if n <= 8 else 1):
            assert_matches_frozen(random_axiom_set(n, rng), rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_one_z_per_qubit(self, n):
        rng = np.random.default_rng(200 + n)
        assert_matches_frozen(one_z_per_qubit(n, rng.integers(0, 2, n)), rng)

    @pytest.mark.parametrize("parities", [(0, 0, 0), (1, 1, 1), (1, 0, 1)])
    def test_ghz(self, parities):
        vectors = [Proposition.from_string(s).vector for s in ("YYX", "YXY", "XYY")]
        assert_matches_frozen(AxiomSet(vectors, parities), np.random.default_rng(0))


class TestScan:
    """``stabilizer._scan`` gives the first anticommuting generator, or the
    generators whose product is the observable with the XOR of their sign
    bits and the product's phase bit."""

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 16, 40])
    def test_pivot_or_factors(self, n):
        rng = np.random.default_rng(220 + n)
        t = stab.prepare(stab.random_axioms(n, rng))
        masks = [0, *t._gens, *t._destabs]
        masks += [int.from_bytes(rng.bytes(n), "little") % 4 ** n for _ in range(30)]
        for mask in masks:
            swapped = _swap_halves(mask, n)
            anti = [q for q, g in enumerate(t._gens) if (swapped & g).bit_count() & 1]
            q, definite = stab._scan(t, mask, swapped)
            if anti:
                assert (q, definite) == (anti[0], None)
                continue
            assert q is None
            factors, sign, phase = definite
            product = sign_bits = 0
            for p in factors:
                product ^= t._gens[p]
                sign_bits ^= t._signs[p]
            assert product == mask
            assert factors == sorted(factors)
            assert sign == sign_bits
            assert phase == frozen_phase_bit(mask, [t._gens[p] for p in factors], n)

    def test_first_generator_is_pivot_zero(self):
        # q = 0 must read as random, not as a falsy "no pivot".
        t = stab.prepare([(pauli.parse_observable("Z").vector, 1)])
        x = pauli.parse_observable("X").vector.mask
        assert stab._scan(t, x, _swap_halves(x, 1)) == (0, None)
        report = logic.classify(Proposition.from_string("X"), one_z_per_qubit(1, [0]))
        assert not report.dependent


class TestAxiomSetIsItsTableau:
    def test_fields_read_off_the_tableau(self):
        observables = [pauli.parse_observable(s) for s in ("-YYX", "+YXY", "-XYY")]
        axioms = AxiomSet.from_observables(observables)
        t = stab.prepare([(o.vector, o.sign) for o in observables])
        assert axioms == t
        assert axioms.vectors == tuple(o.vector for o in observables)
        assert axioms.parities == (1, 0, 1)
        assert axioms.n_qubits == 3
        assert axioms.generator_pairs() == [(o.vector, o.sign) for o in observables]
        assert repr(axioms) == "AxiomSet(-YYX, +YXY, -XYY)"
        assert axioms == AxiomSet.from_observables(observables)
        flipped = observables[:2] + [pauli.parse_observable("+XYY")]
        assert axioms != AxiomSet.from_observables(flipped)

    def test_equality_needs_same_order_and_parities(self):
        z = [pauli.parse_observable(s).vector for s in ("ZI", "IZ")]
        assert AxiomSet(z, [0, 1]) == AxiomSet(z, [0, 1])
        assert AxiomSet(z, [0, 1]) != AxiomSet(z, [1, 0])
        assert AxiomSet(z, [0, 1]) != AxiomSet(z[::-1], [1, 0])

    def test_is_a_tableau_with_no_slots_of_its_own(self):
        axioms = AxiomSet.from_observables([pauli.parse_observable(s) for s in ("+ZZ", "-XX")])
        assert isinstance(axioms, stab.StabilizerTableau)
        assert AxiomSet.__slots__ == ()
        assert not hasattr(axioms, "__dict__")
        assert {"n_qubits", "__eq__", "__repr__"}.isdisjoint(vars(AxiomSet))
        t = stab.prepare(axioms.generator_pairs())
        assert t == axioms and axioms == t
        assert repr(t) == "StabilizerTableau(+ZZ, -XX)"
        assert repr(axioms) == "AxiomSet(+ZZ, -XX)"

    @pytest.mark.parametrize("n", [*range(1, 9), 32])
    def test_tableau_operations_agree_with_the_prepared_state(self, n):
        """measure, measure_forced, apply_blackbox, to_text and
        check_invariants give the same on the set as on the tableau that
        ``prepare`` builds from its pairs."""
        rng = np.random.default_rng(2300 + n)
        for _ in range(3):
            axioms, t = axiom_set_and_tableau(n, rng)
            assert (t._n, t._gens, t._signs, t._destabs) == (
                axioms._n, axioms._gens, axioms._signs, axioms._destabs
            )
            assert axioms.to_text() == t.to_text()
            assert axioms.check_invariants() is t.check_invariants() is None
            cfg = BlackBoxConfig.from_labels(rng.integers(0, 4, n))
            assert stab.apply_blackbox(axioms, cfg) == stab.apply_blackbox(t, cfg)
            for j in propositions(axioms, rng, count=10):
                obs = pauli.SignedObservable(j.observable().base, int(rng.choice([1, -1])))
                seed = int(rng.integers(0, 2 ** 32))
                got = stab.measure(axioms, obs, np.random.default_rng(seed))
                want = stab.measure(t, obs, np.random.default_rng(seed))
                assert got == want
                for forced in (1, -1):
                    assert stab.measure_forced(axioms, obs, forced) == stab.measure_forced(
                        t, obs, forced
                    )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_logic_reads_a_plain_prepared_tableau(self, n):
        """classify, classical_truth, quantum_truth and enumerate_propositions
        give the same on a plain prepared tableau as on the AxiomSet."""
        rng = np.random.default_rng(2400 + n)
        for _ in range(3):
            axioms, t = axiom_set_and_tableau(n, rng)
            assert type(t) is stab.StabilizerTableau
            for j in propositions(axioms, rng):
                assert logic.classify(j, t) == logic.classify(j, axioms)
                assert logic.classical_truth(j, t) == logic.classical_truth(j, axioms)
                assert logic.quantum_truth(j, t) == logic.quantum_truth(j, axioms)
            assert logic.enumerate_propositions(n, t) == logic.enumerate_propositions(n, axioms)


class TestOneElimination:
    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return _echelon(rows)

        monkeypatch.setattr(gf2, "_echelon", counted)
        monkeypatch.setattr(stab, "_echelon", counted)
        return calls

    def test_axiom_set(self, eliminations):
        AxiomSet([Proposition.from_string(s).vector for s in ("YYX", "YXY", "XYY")], [1, 1, 1])
        assert eliminations == [6]  # the 2N rows of the transposed pairing matrix

    @pytest.mark.parametrize("prop, want", [
        ("XXX", "dependent, k=(1,1,1), classical=1, quantum=0\n"),
        ("ZII", "independent\n"),
    ])
    def test_check(self, tmp_path, capsys, eliminations, prop, want):
        path = tmp_path / "ghz.axioms"
        path.write_text(GHZ_AXIOM_FILE)
        assert cli.main(["check", "--axioms", str(path), "--prop", prop]) == 0
        assert capsys.readouterr().out == want
        assert len(eliminations) == 1


class TestInconsistentLengths:
    """Vector lengths are checked before the count, in either order."""

    ORDERS = [("Z", "ZZ"), ("ZZ", "Z"), ("ZZ", "Z", "ZZ"), ("ZI", "IZ", "Z")]
    MESSAGE = "axiom vectors have inconsistent lengths"

    @pytest.mark.parametrize("strings", ORDERS)
    def test_prepare(self, strings):
        pairs = [(pauli.parse_observable(s).vector, 1) for s in strings]
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}$"):
            stab.prepare(pairs)

    @pytest.mark.parametrize("strings", ORDERS)
    def test_axiom_set(self, strings):
        vectors = [pauli.parse_observable(s).vector for s in strings]
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}$"):
            AxiomSet(vectors, [0] * len(vectors))

    @pytest.mark.parametrize("command", ["prepare", "check", "enumerate"])
    @pytest.mark.parametrize("strings", ORDERS)
    def test_cli(self, tmp_path, capsys, command, strings):
        path = tmp_path / "axioms.txt"
        path.write_text("".join(f"+{s}\n" for s in strings))
        argv = [command, "--axioms", str(path)]
        if command == "check":
            argv += ["--prop", "ZZ"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {self.MESSAGE}\n"

    def test_count_still_checked(self):
        with pytest.raises(ValueError, match="^need exactly 2 axioms of length 4, got 1$"):
            stab.prepare([(pauli.parse_observable("ZZ").vector, 1)])
