"""A SignedObservable is the Hermitian PauliOperator it denotes: its phase is
the canonical phase h(v), the count of Y factors, for sign +1 and h(v) + 2
for sign -1.  Every public source of observables must keep that form."""
import inspect

import numpy as np
import pytest

from axiombox import logic, oracle, pauli
from axiombox import stabilizer as stab
from axiombox.blackbox import BlackBoxConfig
from axiombox.gf2 import BitVector
from axiombox.pauli import PauliOperator, SignedObservable


def check_form(o):
    """``o`` is a SignedObservable whose phase is canonical, or that plus 2."""
    assert type(o) is SignedObservable
    canon = (o._mask & o._mask >> o._n).bit_count()
    assert (o.phase - canon) % 4 == (0 if o.sign == 1 else 2)
    assert o.is_hermitian()
    assert o.base.phase == canon % 4 and type(o.base) is PauliOperator
    if o.n_qubits <= 3:
        assert np.array_equal(
            oracle.pauli_matrix(o), o.sign * oracle.pauli_term_matrix(o.base)
        )


def every_observable(n):
    return [pauli._observable(m, n, s) for m in range(4 ** n) for s in (1, -1)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parse_and_from_proposition(n):
    for o in every_observable(n):
        parsed = pauli.parse_observable(str(o))
        check_form(parsed)
        assert parsed == o
        check_form(pauli.from_proposition(o.vector))
        check_form(logic.Proposition(o.vector).observable())


@pytest.mark.parametrize("n", [1, 2])
def test_from_pauli_of_every_hermitian_operator(n):
    for mask in range(4 ** n):
        for phase in range(4):
            p = PauliOperator.from_vector(BitVector.from_mask(mask, 2 * n), phase)
            if not p.is_hermitian():
                continue
            for sign in (1, -1):
                o = SignedObservable.from_pauli(p, sign)
                check_form(o)
                assert o == (p if sign == 1 else pauli.multiply(p, o.identity(n, -1)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_negated_and_constructor(n):
    for sign in (1, -1):
        check_form(SignedObservable.identity(n, sign))
    for o in every_observable(n):
        check_form(o.negated())
        check_form(SignedObservable(o.base, o.sign))
        assert o.negated().negated() == o == SignedObservable(o.base, o.sign)


@pytest.mark.parametrize("n", [1, 2])
def test_observable_product_of_every_commuting_pair(n):
    observables = every_observable(n)
    for a in observables:
        for b in observables:
            if pauli.commutes(a, b):
                product = pauli.observable_product(a, b)
                check_form(product)
                assert product == pauli.multiply(a, b)
                assert np.array_equal(
                    oracle.pauli_matrix(product),
                    oracle.pauli_matrix(a) @ oracle.pauli_matrix(b),
                )


@pytest.mark.parametrize("n", [1, 2])
def test_conjugate_by_blackbox(n):
    for cfg in BlackBoxConfig.all_configs(n):
        for o in every_observable(n):
            check_form(pauli.conjugate_by_blackbox(o, cfg))


@pytest.mark.parametrize("n", [1, 4, 32])
def test_generators_and_random_commuting_observables(n):
    rng = np.random.default_rng(2700 + n)
    t = stab.prepare(stab.random_axioms(n, rng))
    axioms = logic.AxiomSet.from_text(t.to_text())
    for o in (*t.generators, *axioms.generators):
        check_form(o)
    for o in stab.random_commuting_observables(n, n + 3, rng):
        check_form(o)


def test_inherited_classmethods():
    names = {
        name
        for name, attr in vars(PauliOperator).items()
        if isinstance(attr, classmethod) and not name.startswith("_")
    }
    assert names == {"identity", "from_vector"}
    check_form(SignedObservable.identity(3))
    v = BitVector("10")
    for phase in range(4):
        p = SignedObservable.from_vector(v, phase)
        assert type(p) is PauliOperator
        assert p == PauliOperator.from_vector(v, phase)
    assert not SignedObservable.from_vector(v, 1).is_hermitian()


def test_an_observable_is_the_operator_it_denotes():
    minus_z = pauli.parse_observable("-Z")
    assert isinstance(minus_z, PauliOperator)
    assert minus_z == PauliOperator.from_vector(BitVector("01"), 2)
    assert hash(minus_z) == hash(PauliOperator.from_vector(BitVector("01"), 2))
    assert minus_z != minus_z.base
    plus_y = pauli.parse_observable("Y")
    assert plus_y == plus_y.base and hash(plus_y) == hash(plus_y.base)
    assert (plus_y.x, plus_y.z, plus_y.phase) == (BitVector("1"), BitVector("1"), 1)
    assert np.array_equal(
        oracle.pauli_term_matrix(pauli.multiply(minus_z, plus_y)),
        oracle.pauli_matrix(minus_z) @ oracle.pauli_matrix(plus_y),
    )
    assert pauli.commutes(minus_z, plus_y) == 0


def test_observable_has_no_slots_of_its_own():
    assert SignedObservable.__slots__ == ()
    assert not hasattr(pauli.parse_observable("X"), "__dict__")
    own = set(vars(SignedObservable))
    for name in ("n_qubits", "vector", "__eq__", "__hash__"):
        assert name not in own
    assert inspect.signature(SignedObservable).parameters.keys() == {"base", "sign"}
