"""Every stabilizer state at N <= 3, each checked against the dense oracle.

The states are found by brute force: every N-subset of nonzero 2N-bit (x|z)
masks that commute pairwise and have rank N spans a Lagrangian subspace,
kept once by its reduced echelon form, and each subspace carries every sign
vector.  Ranks and echelon forms come from :mod:`gf2_reference`, so the
enumeration does not lean on :func:`stabilizer.prepare`.  Per state:

- N <= 3: every nonzero observable's kind and definite outcome under
  ``measure_forced`` against the oracle's <psi|P|psi>, and ``prepare``,
  ``StabilizerTableau.from_text`` and ``AxiomSet`` giving equal tableaus;
- N <= 2: the post-state of every random observable and its negation, for
  both forced outcomes, against the oracle's normalized projection up to
  phase, and ``joint_distribution`` of every commuting ordered pair, every
  other pair with its first observable negated, against
  ``oracle.distribution``;
- N <= 2, under each of the 4^N black boxes: ``classify``,
  ``classical_truth`` and ``quantum_truth`` of every proposition, zero
  included, against a brute-force span, the post-box parities and the
  oracle's <psi'|C(J)|psi'>, and ``AxiomSet`` of those parities against
  ``apply_blackbox``.
"""
import functools
import itertools

import numpy as np
import pytest

from axiombox import oracle, pauli
from axiombox.blackbox import BlackBoxConfig
from axiombox.gf2 import BitVector
from axiombox.logic import AxiomSet, Proposition, classical_truth, classify, quantum_truth
from axiombox.stabilizer import (
    MeasurementKind,
    StabilizerTableau,
    apply_blackbox,
    joint_distribution,
    measure_forced,
    prepare,
)

import gf2_reference as ref

# (subspaces, states) per N: 2^N prod_{k=0}^{N-1} (2^(N-k) + 1) states.
COUNTS = {1: (3, 6), 2: (15, 60), 3: (135, 1080)}


@functools.lru_cache(maxsize=None)
def lagrangian_subspaces(n):
    """Each Lagrangian subspace of F_2^{2n} once, as its reduced echelon rows."""
    found = set()
    for subset in itertools.combinations(range(1, 4 ** n), n):
        if all(ref.symplectic(a, b, n) == 0 for a, b in itertools.combinations(subset, 2)):
            pivots = ref.gauss_jordan(subset)
            if len(pivots) == n:
                found.add(tuple(row for _, row, _ in pivots))
    return sorted(found)


def states(n):
    """Every stabilizer state on n qubits as a list of (mask, sign) pairs."""
    for rows in lagrangian_subspaces(n):
        for signs in itertools.product((1, -1), repeat=n):
            yield list(zip(rows, signs))


def axiom_pairs(state, n):
    return [(BitVector.from_mask(mask, 2 * n), sign) for mask, sign in state]


@functools.lru_cache(maxsize=None)
def observables(n):
    """Every nonzero observable on n qubits, sign +1, with its signed permutation."""
    out = []
    for mask in range(1, 4 ** n):
        obs = pauli._observable(mask, n)
        out.append((obs, *oracle._signed_permutation(obs)))
    return out


def apply(perm, factors, vec):
    """P|vec> for P|c> = factors[c] |perm[c]>; perm is an XOR, its own inverse."""
    return (factors * vec)[perm]


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_counts_match_the_formula(n):
    subspaces, total = COUNTS[n]
    assert len(lagrangian_subspaces(n)) == subspaces
    assert sum(1 for _ in states(n)) == total
    formula = 2 ** n
    for k in range(n):
        formula *= 2 ** (n - k) + 1
    assert formula == total


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_kinds_and_definite_outcomes_match_the_oracle(n):
    checked = 0
    for state in states(n):
        pairs = axiom_pairs(state, n)
        tableau = prepare(pairs)
        psi = oracle.state_from_axioms(pairs)
        for obs, perm, factors in observables(n):
            expectation = np.vdot(psi, apply(perm, factors, psi))
            assert abs(expectation.imag) < 1e-12
            value = expectation.real
            for forced in (1, -1):
                result = measure_forced(tableau, obs, forced)
                if abs(value) < 1e-12:
                    assert result.kind is MeasurementKind.RANDOM
                    assert result.outcome == forced
                else:
                    assert abs(abs(value) - 1.0) < 1e-12
                    assert result.kind is MeasurementKind.DETERMINISTIC
                    assert result.outcome == (1 if value > 0 else -1)
            checked += 1
    assert checked == COUNTS[n][1] * (4 ** n - 1)


@pytest.mark.parametrize("n", [1, 2])
def test_post_states_match_the_oracle_projection(n):
    checked = 0
    for state in states(n):
        pairs = axiom_pairs(state, n)
        tableau = prepare(pairs)
        psi = oracle.state_from_axioms(pairs)
        for obs, perm, factors in observables(n):
            for sign, forced in itertools.product((1, -1), repeat=2):
                result = measure_forced(tableau, obs if sign == 1 else obs.negated(), forced)
                if result.kind is MeasurementKind.DETERMINISTIC:
                    break
                post = result.post_state
                post.check_invariants()
                projected = psi + sign * forced * apply(perm, factors, psi)
                projected /= np.linalg.norm(projected)
                overlap = np.vdot(oracle.state_from_axioms(post), projected)
                assert abs(abs(overlap) - 1.0) < 1e-12
                checked += 1
    # 2^n - 1 of the 4^n - 1 nonzero observables are in the stabilizer group.
    assert checked == COUNTS[n][1] * (4 ** n - 2 ** n) * 4


@pytest.mark.parametrize("n", [1, 2])
def test_joint_distributions_of_commuting_pairs_match_the_oracle(n):
    commuting = [
        (a, b)
        for (a, _, _), (b, _, _) in itertools.product(observables(n), repeat=2)
        if pauli.commutes(a, b)
    ]
    commuting[::2] = [(a.negated(), b) for a, b in commuting[::2]]
    for state in states(n):
        pairs = axiom_pairs(state, n)
        tableau = prepare(pairs)
        psi = oracle.state_from_axioms(pairs)
        for a, b in commuting:
            exact = joint_distribution(tableau, [a, b])
            dense = oracle.distribution(psi, [a, b])
            assert exact.max_deviation(dense) < 1e-12


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_every_construction_gives_the_same_tableau(n):
    for state in states(n):
        pairs = axiom_pairs(state, n)
        tableau = prepare(pairs)
        tableau.check_invariants()
        text = "".join(
            pauli.format_observable(pauli._observable(mask, n, sign)) + "\n"
            for mask, sign in state
        )
        loaded = StabilizerTableau.from_text(text)
        axioms = AxiomSet([v for v, _ in pairs], [int(s < 0) for _, s in pairs])
        assert loaded == tableau and axioms == tableau
        assert type(loaded) is StabilizerTableau and type(axioms) is AxiomSet


@pytest.mark.parametrize("n", [1, 2])
def test_black_boxes_match_the_span_the_parities_and_the_oracle(n):
    """The box's unitary is the Pauli of f = (f0|f1), bit j of f0 being
    f_j(0): conjugation by it flips C(v) by the pairing of v with f, which
    is each axiom's parity flip, and psi' = P_f psi."""
    propositions = [Proposition(BitVector.from_mask(j, 2 * n)) for j in range(4 ** n)]
    checked = 0
    for state in states(n):
        pairs = axiom_pairs(state, n)
        masks = [mask for mask, _ in state]
        tableau = prepare(pairs)
        psi = oracle.state_from_axioms(pairs)
        for cfg in BlackBoxConfig.all_configs(n):
            f = 0
            for j, fn in enumerate(cfg.functions):
                f |= fn.f0 << j | fn.f1 << (n + j)
            evolved = apply_blackbox(tableau, cfg)
            parities = [int(sign < 0) ^ ref.symplectic(mask, f, n) for mask, sign in state]
            assert AxiomSet([v for v, _ in pairs], parities) == evolved
            if f:
                _, perm, factors = observables(n)[f - 1]
                evolved_psi = apply(perm, factors, psi)
            else:
                evolved_psi = psi
            for j, prop in enumerate(propositions):
                coefficients = ref.span_coefficients(j, masks)
                report = classify(prop, evolved)
                if j:
                    _, perm, factors = observables(n)[j - 1]
                    value = np.vdot(evolved_psi, apply(perm, factors, evolved_psi)).real
                else:
                    value = 1.0
                if coefficients is None:
                    assert not report.dependent
                    assert abs(value) < 1e-12
                    assert classical_truth(prop, evolved) is None
                    assert quantum_truth(prop, evolved) is None
                else:
                    assert report.dependent
                    assert report.coefficients.mask == coefficients
                    classical = 0
                    for p, parity in enumerate(parities):
                        classical ^= parity & coefficients >> p
                    quantum = int(value < 0)
                    assert abs(abs(value) - 1.0) < 1e-12
                    assert report.classical_truth == classical_truth(prop, evolved) == classical
                    assert quantum_truth(prop, evolved) == quantum
                    assert quantum == classical ^ report.phase_bit
                checked += 1
    assert checked == COUNTS[n][1] * 4 ** n * 4 ** n
