"""The dense oracle's signed-permutation kernel against frozen copies of the
oracles it replaced, and its independence from the tableau code.

``matmul_state_from_axioms`` and ``matmul_distribution`` are the
Kronecker/matmul oracle: every observable a dense 2^N x 2^N Kronecker product
(:func:`dense_reference.observable_matrix`), the projector a chain of dense
matmuls and each walk node a dense mat-vec.  ``projector_state_from_axioms`` and ``unpruned_distribution`` are the
signed-permutation oracle before it scanned single basis vectors and cut zero
branches: the whole projector built column by column, every walk leaf visited.
``pruned_distribution`` is the walk before it carried eigenvectors: both
branches built and halved at every node, and a zero branch cut on entry.
Every product in any version is an exact +-1 or +-i times a dyadic value (or
an exactly rounded sum of two terms), so states and outcomes must be
bit-identical, not merely close.
"""
import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import axiombox
from axiombox import cli, oracle, pauli
from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng
from axiombox.gf2 import BitVector
from axiombox.pauli import PauliOperator

import gf2_reference as ref
from dense_reference import observable_matrix, permutation_matrix, term_matrix


def matmul_state_from_axioms(pairs):
    dim = 2 ** (len(pairs[0][0]) // 2)
    projector = np.eye(dim, dtype=complex)
    for vector, sign in pairs:
        omega = observable_matrix(pauli.from_proposition(vector))
        projector = projector @ (np.eye(dim, dtype=complex) + float(sign) * omega) / 2.0
    for i in range(dim):
        column = projector[:, i]
        norm = np.linalg.norm(column)
        if norm > 1e-9:
            return column / norm
    raise AssertionError("projector annihilated every basis vector")


def matmul_distribution(state, obs_list):
    matrices = [observable_matrix(o) for o in obs_list]
    outcomes = {}

    def walk(vec, index, signs):
        if index == len(matrices):
            prob = float(np.real(np.vdot(vec, vec)))
            if prob > 1e-15:
                outcomes[signs] = outcomes.get(signs, 0.0) + prob
            return
        m = matrices[index]
        walk((vec + m @ vec) / 2.0, index + 1, signs + (1,))
        walk((vec - m @ vec) / 2.0, index + 1, signs + (-1,))

    walk(np.asarray(state, dtype=complex), 0, ())
    return outcomes


def loop_signed_permutation(p, sign=1):
    n = p.n_qubits
    x, z = (int(format(v.mask, f"0{n}b")[::-1], 2) for v in (p.x, p.z))
    c = np.arange(2 ** n)
    odd = np.zeros(2 ** n, dtype=bool)
    for b in range(n):
        if z >> b & 1:
            odd ^= (c >> b & 1).astype(bool)
    return c ^ x, np.where(odd, -1, 1) * (sign * np.array([1, 1j, -1, -1j])[p.phase])


def projector_state_from_axioms(pairs):
    columns = np.eye(2 ** (len(pairs[0][0]) // 2), dtype=complex)
    for vector, sign in pairs:
        perm, factors = loop_signed_permutation(pauli.from_proposition(vector).base, sign)
        applied = columns[perm]
        applied *= factors[:, None]
        applied += columns
        applied *= 0.5
        columns = applied
    assert np.trace(columns) == 1
    column = next(c for c in columns if np.linalg.norm(c) > 1e-9)
    return column / np.linalg.norm(column)


def unpruned_distribution(state, obs_list):
    actions = [loop_signed_permutation(o.base, o.sign) for o in obs_list]
    outcomes = {}

    def walk(vec, index, signs):
        if index == len(actions):
            prob = float(np.real(np.vdot(vec, vec)))
            if prob > 1e-15:
                outcomes[signs] = outcomes.get(signs, 0.0) + prob
            return
        perm, factors = actions[index]
        applied = (factors * vec)[perm]
        walk((vec + applied) * 0.5, index + 1, signs + (1,))
        walk((vec - applied) * 0.5, index + 1, signs + (-1,))

    walk(np.asarray(state, dtype=complex), 0, ())
    return outcomes


def pruned_distribution(state, obs_list):
    actions = [loop_signed_permutation(o.base, o.sign) for o in obs_list]
    outcomes = {}

    def walk(vec, index, signs):
        if not vec.any():
            return
        if index == len(actions):
            prob = float(np.real(np.vdot(vec, vec)))
            if prob > 1e-15:
                outcomes[signs] = prob
            return
        perm, factors = actions[index]
        applied = (factors * vec)[perm]
        walk((vec + applied) * 0.5, index + 1, signs + (1,))
        walk((vec - applied) * 0.5, index + 1, signs + (-1,))

    walk(np.asarray(state, dtype=complex), 0, ())
    return outcomes


def signed_products(axioms, count, rng):
    """Random products of the axioms, each with a random sign: all definite."""
    n = len(axioms)
    observables = []
    for _ in range(count):
        mask = 0
        for (vector, _), bit in zip(axioms, rng.integers(0, 2, size=n)):
            mask ^= vector.mask * int(bit)
        obs = pauli.from_proposition(BitVector.from_mask(mask, 2 * n))
        observables.append(obs.negated() if rng.random() < 0.5 else obs)
    return observables


def random_case(n, m, seed):
    """Signed axioms and m commuting observables: random ones with products of
    earlier ones and negations mixed in, or (every third seed) random signed
    products of the axioms, whose outcomes are all definite."""
    rng = philox_rng(seed, 1000 * n + m)
    axioms = stab.random_axioms(n, rng)
    if seed % 3 == 2:
        return axioms, signed_products(axioms, m, rng)
    observables = stab.random_commuting_observables(n, m, rng)
    for i in range(2, m):
        if rng.random() < 0.3:
            a, b = rng.choice(i, size=2, replace=False)
            product = pauli.observable_product(observables[a], observables[b])
            observables[i] = product.negated() if rng.random() < 0.5 else product
    return axioms, observables


CASES = [
    (n, m, seed)
    for n in range(1, 9)
    for m in ((0, 1, n, 2 * n + 2) if n <= 6 else (1, n, 10))
    for seed in range(3)
]


@pytest.mark.parametrize("n,m,seed", CASES)
def test_equals_frozen_matmul_oracle(n, m, seed):
    axioms, observables = random_case(n, m, seed)
    state = oracle.state_from_axioms(axioms)
    frozen = matmul_state_from_axioms(axioms)
    assert np.array_equal(state, frozen)
    got = oracle.distribution(state, observables).outcomes
    want = matmul_distribution(frozen, observables)
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize(
    "n,m,seed",
    [(n, m, seed) for n in range(1, 11) for m in sorted({1, n, n + 2}) for seed in range(3)],
)
def test_equals_frozen_projector_oracle(n, m, seed):
    axioms, observables = random_case(n, m, seed)
    state = oracle.state_from_axioms(axioms)
    frozen = projector_state_from_axioms(axioms)
    assert np.array_equal(state, frozen)
    got = oracle.distribution(state, observables).outcomes
    assert list(got.items()) == list(unpruned_distribution(frozen, observables).items())


@pytest.mark.parametrize("n,m,seed", CASES)
def test_equals_frozen_pruned_walk(n, m, seed):
    axioms, observables = random_case(n, m, seed)
    state = oracle.state_from_axioms(axioms)
    got = oracle.distribution(state, observables).outcomes
    assert list(got.items()) == list(pruned_distribution(state, observables).items())


def shortcut_case(kind, n, rng):
    """A state and observables that take each step of the walk: an observable
    then its negation (a -1 eigenvector after a +1 branch, and the reverse),
    +-identity among random observables, only definite outcomes (a single
    path), or only random ones (every node branches)."""
    axioms = stab.random_axioms(n, rng)
    if kind == "negation":
        observables = [
            o for p in stab.random_commuting_observables(n, n, rng) for o in (p, p.negated())
        ]
    elif kind == "identity":
        plus, minus = pauli.SignedObservable.identity(n), pauli.SignedObservable.identity(n, -1)
        observables = [plus, *stab.random_commuting_observables(n, n, rng), minus, plus]
    elif kind == "definite":
        observables = signed_products(axioms, n + 2, rng)
    else:
        # The destabilizers, made to commute by adding axioms: d_p still
        # anticommutes with axiom p alone, so each one's outcome is random.
        destabilizers = list(stab.prepare(axioms).destabilizers)
        for p in range(n):
            for q in range(p):
                if ref.symplectic(destabilizers[p].mask, destabilizers[q].mask, n):
                    destabilizers[p] ^= axioms[q][0]
        observables = [pauli.from_proposition(d) for d in destabilizers]
    return oracle.state_from_axioms(axioms), observables


SHORTCUT_KINDS = ("negation", "identity", "definite", "random")


@pytest.mark.parametrize("kind", SHORTCUT_KINDS)
@pytest.mark.parametrize("n", range(1, 9))
def test_eigenvector_shortcuts_equal_frozen_pruned_walk(n, kind):
    rng = philox_rng(n, 3000 + SHORTCUT_KINDS.index(kind))
    for _ in range(3):
        state, observables = shortcut_case(kind, n, rng)
        got = oracle.distribution(state, observables).outcomes
        assert list(got.items()) == list(pruned_distribution(state, observables).items())
        if kind == "negation":
            assert all(s[k] == -s[k + 1] for s in got for k in range(0, len(s), 2))
        elif kind == "definite":
            assert len(got) == 1
        elif kind == "random":
            assert len(got) == 2 ** n


@pytest.mark.parametrize("n", range(1, 9))
def test_leaves_of_probability_at_most_1e_15_are_dropped(n):
    """A state with definite outcomes plus 2^-30 |0>: it is no longer an exact
    eigenvector, so the walk branches, and the leaves off the definite path
    hold about 2^-60, below the 1e-15 filter: only the definite one is kept."""
    state, observables = shortcut_case("definite", n, philox_rng(n, 4000))
    state[0] += 2.0 ** -30
    state /= np.linalg.norm(state)
    got = oracle.distribution(state, observables).outcomes
    assert list(got.items()) == list(pruned_distribution(state, observables).items())
    assert len(got) == 1


@pytest.mark.parametrize("n", range(1, oracle.DENSE_CAP + 1))
def test_signed_permutation_equals_the_bitwise_loop(n):
    rng = philox_rng(n, 5000)
    for _ in range(20):
        mask = int(rng.integers(0, 1 << 2 * n))
        phase, sign = int(rng.integers(0, 4)), int(rng.choice([1, -1]))
        p = PauliOperator.from_vector(BitVector.from_mask(mask, 2 * n), phase)
        signed = PauliOperator.from_vector(p.vector, phase + 1 - sign)  # sign in the phase
        perm, factors = oracle._signed_permutation(signed)
        want_perm, want_factors = loop_signed_permutation(p, sign)
        assert np.array_equal(perm, want_perm)
        assert np.array_equal(factors, want_factors)


def minus_z(n):
    """-Z on every qubit: the all-ones state, support {2^n - 1}."""
    return [(BitVector.unit(n + q, 2 * n), -1) for q in range(n)]


def late_support_axioms(kind, n, rng):
    """Signed axioms whose one-state support may start anywhere in [0, 2^n):
    a +-Z product state, a ZZ chain with X on every qubit (GHZ-like), or a
    random system with every sign flipped."""
    if kind == "flipped_random":
        return [(vector, -sign) for vector, sign in stab.random_axioms(n, rng)]
    if kind == "z_product":
        vectors = [BitVector.unit(n + q, 2 * n) for q in range(n)]
    else:
        vectors = [BitVector.from_mask(3 << n + q, 2 * n) for q in range(n - 1)]
        vectors.append(BitVector.from_mask((1 << n) - 1, 2 * n))
    return [(v, 1 - 2 * int(b)) for v, b in zip(vectors, rng.integers(0, 2, size=n))]


LATE_KINDS = ("z_product", "ghz", "flipped_random")


@pytest.mark.parametrize("kind", LATE_KINDS)
@pytest.mark.parametrize("n", range(1, 11))
def test_late_support_equals_frozen_projector_oracle(n, kind):
    rng = philox_rng(n, 2000 + LATE_KINDS.index(kind))
    for _ in range(3):
        axioms = late_support_axioms(kind, n, rng)
        observables = stab.random_commuting_observables(n, n, rng)
        state = oracle.state_from_axioms(axioms)
        frozen = projector_state_from_axioms(axioms)
        assert np.array_equal(state, frozen)
        got = oracle.distribution(state, observables).outcomes
        assert list(got.items()) == list(unpruned_distribution(frozen, observables).items())


CAP = oracle.DENSE_CAP


def test_all_ones_state_at_the_cap_is_the_last_basis_vector():
    last = np.zeros(2 ** CAP, dtype=complex)
    last[-1] = 1
    assert np.array_equal(oracle.state_from_axioms(minus_z(CAP)), last)


@pytest.mark.parametrize(
    "axioms, dimension",
    [
        (minus_z(CAP) + [(BitVector.unit(CAP, 2 * CAP), 1)], 0),  # +Z on qubit 1 clashes
        (minus_z(CAP)[:-1] + [(BitVector.from_mask(3 << CAP, 2 * CAP), 1)], 2),  # +Z1 Z2
    ],
    ids=["clashing_signs", "one_dependent_axiom"],
)
def test_sets_that_fix_no_one_state_at_the_cap(axioms, dimension):
    with pytest.raises(ValueError, match=f"^axioms fix a space of dimension {dimension}, not 1$"):
        oracle.state_from_axioms(axioms)


@pytest.mark.parametrize("n", range(1, oracle.DENSE_CAP + 1))
def test_tableau_agrees_with_the_oracle_up_to_the_cap(n):
    """The affine distribution against the dense one, in both directions,
    and the affine one against itself rebuilt from its expanded dict."""
    rng = philox_rng(n)
    for _ in range(2):
        axioms = stab.random_axioms(n, rng)
        observables = stab.random_commuting_observables(n, n, rng)
        exact = stab.joint_distribution(stab.prepare(axioms), observables)
        dense = oracle.distribution(oracle.state_from_axioms(axioms), observables)
        assert exact.max_deviation(dense) < cli.ORACLE_TOLERANCE
        assert dense.max_deviation(exact) < cli.ORACLE_TOLERANCE
        for signs, prob in dense.outcomes.items():
            assert abs(exact.probability(signs) - prob) < cli.ORACLE_TOLERANCE
        assert exact == stab.OutcomeDistribution(exact.outcomes, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_term_matrix_equals_kron_for_every_pauli(n):
    """The signed permutation of every Pauli, written out densely, is its
    Kronecker product; a signed observable's is its signed I/X/Y/Z product."""
    for mask, phase in itertools.product(range(4 ** n), range(4)):
        p = PauliOperator.from_vector(BitVector.from_mask(mask, 2 * n), phase)
        dense = permutation_matrix(*oracle._signed_permutation(p))
        assert np.array_equal(dense, term_matrix(p))
        if p.is_hermitian():
            obs = pauli.SignedObservable.from_pauli(p)
            dense = permutation_matrix(*oracle._signed_permutation(obs))
            assert np.array_equal(dense, observable_matrix(obs))


@pytest.mark.parametrize(
    "call",
    [
        lambda: oracle._signed_permutation(PauliOperator.identity(13)),
        lambda: oracle.state_from_axioms(
            [(BitVector.unit(13 + q, 26), 1) for q in range(13)]
        ),
        lambda: oracle.distribution(
            np.ones(2 ** 13), [pauli.SignedObservable.identity(13)]
        ),
    ],
    ids=["signed_permutation", "state_from_axioms", "distribution"],
)
def test_dense_cap_at_thirteen_qubits(call):
    with pytest.raises(ValueError, match="13 qubits exceeds the dense cap of 12"):
        call()


def test_oracle_compare_at_the_cap(capsys):
    assert cli.main(["oracle-compare", "--n", "12", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trials: 2\n") and out.endswith("verdict: agree\n")


def test_distribution_rejects_an_observable_of_another_size():
    state = oracle.state_from_axioms([(pauli.parse_observable("ZZ").vector, 1),
                                      (pauli.parse_observable("XX").vector, 1)])
    with pytest.raises(ValueError, match="size mismatch: 3 vs 2 qubits"):
        oracle.distribution(state, [pauli.parse_observable("ZZ"),
                                    pauli.parse_observable("ZZZ")])


def package_imports(tree):
    """{module: imported names} over the package's own imports, keyed as
    written (``.gf2``, ``.`` or ``axiombox.gf2``); a bare ``import`` gives ``*``."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            pairs = [("." * node.level + (node.module or ""), a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            pairs = [(a.name, "*") for a in node.names]
        else:
            continue
        for module, name in pairs:
            found.setdefault(module, set()).add(name)
    return {m: names for m, names in found.items() if m.startswith((".", "axiombox"))}


def test_oracle_shares_only_parsing_and_the_commutation_check():
    source = (Path(axiombox.__file__).parent / "oracle.py").read_text()
    imports = package_imports(ast.parse(source))
    assert set(imports) == {".gf2", ".pauli", ".stabilizer"}
    assert imports[".gf2"] == {"_commute_pairwise"}
    assert imports[".stabilizer"] == {"OutcomeDistribution"}
