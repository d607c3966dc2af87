"""The five value records of the exact core behave as frozen dataclasses.

``BooleanFunction``, ``BlackBoxConfig``, ``Proposition``, ``DependenceReport``
and ``GhzReport`` are each compared with a plain frozen dataclass that has the
same fields, declared here under the same name so that reprs compare equal:
construction, defaults, ``==``, ``hash``, ``repr``, ``__match_args__``,
``FrozenInstanceError`` on assignment and deletion, copies, a pickle round
trip and the constructors' validation errors.
"""
import copy
import dataclasses
import pickle
from dataclasses import dataclass
from typing import Optional

import pytest

from axiombox import blackbox as bb
from axiombox import logic
from axiombox.gf2 import BitVector


@dataclass(frozen=True)
class BooleanFunction:
    f0: int
    f1: int


@dataclass(frozen=True)
class BlackBoxConfig:
    functions: tuple


@dataclass(frozen=True)
class Proposition:
    vector: BitVector


@dataclass(frozen=True)
class DependenceReport:
    dependent: bool
    coefficients: Optional[BitVector] = None
    classical_truth: Optional[int] = None
    phase_bit: Optional[int] = None


@dataclass(frozen=True)
class GhzReport:
    config: str
    axiom_observables: tuple
    axiom_parities: tuple
    derived_observable: str
    coefficients: tuple
    classical: int
    quantum: int
    phase_bit: int


def names(reference):
    return [f.name for f in dataclasses.fields(reference)]


def values(obj, reference):
    return [getattr(obj, name) for name in names(reference)]


FNS = (bb.BooleanFunction(1, 0), bb.BooleanFunction(0, 1), bb.BooleanFunction(1, 1))
GHZ = tuple(values(logic.ghz_report(bb.BlackBoxConfig.from_labels([1, 2, 3])), GhzReport))

# (record, reference, field values of two records that differ in one field).
CASES = {
    "BooleanFunction": (bb.BooleanFunction, BooleanFunction, (1, 0), (1, 1)),
    "BlackBoxConfig": (bb.BlackBoxConfig, BlackBoxConfig, (FNS,), (FNS[:2],)),
    "Proposition": (
        logic.Proposition, Proposition, (BitVector("0110"),), (BitVector("0111"),),
    ),
    "DependenceReport": (
        logic.DependenceReport, DependenceReport,
        (True, BitVector("101"), 0, 1), (True, BitVector("101"), 1, 1),
    ),
    "GhzReport": (
        logic.GhzReport, GhzReport, GHZ, ("y0,y0,y0",) + GHZ[1:],
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_positional_and_keyword_construction_agree(case):
    record, reference, args, _ = case
    by_name = dict(zip(names(reference), args))
    for made in (record(*args), record(**by_name)):
        assert values(made, reference) == list(args)
        assert made == record(*args)


def test_defaults_are_the_dataclass_defaults():
    assert values(logic.DependenceReport(False), DependenceReport) == values(
        DependenceReport(False), DependenceReport
    )
    assert logic.DependenceReport(dependent=False) == logic.DependenceReport(False)


def test_equality_hash_and_repr_follow_the_fields(case):
    record, reference, args, other = case
    mine, theirs = record(*args), reference(*args)
    assert mine == record(*args) and not mine != record(*args)
    assert mine != record(*other) and not mine == record(*other)
    assert (mine == record(*other)) == (theirs == reference(*other))
    assert hash(mine) == hash(theirs) == hash(record(*args))
    assert repr(mine) == repr(theirs)
    assert repr(record(*other)) == repr(reference(*other))
    # Another type compares unequal, as a dataclass does with any other class.
    assert mine.__eq__(theirs) is NotImplemented and mine != theirs
    assert mine != tuple(args)
    with pytest.raises(TypeError):
        mine < record(*other)  # no ordering, as with order=False


def test_match_args_are_the_init_fields(case):
    record, reference, args, _ = case
    assert record.__match_args__ == reference.__match_args__
    match record(*args):
        case bb.BooleanFunction(f0, f1):
            assert (f0, f1) == args
        case logic.DependenceReport(dependent, coefficients):
            assert (dependent, coefficients) == args[:2]
        case record(first):
            assert first == args[0]
        case _:
            pytest.fail("no positional pattern matched")


def test_fields_cannot_be_set_or_deleted(case):
    record, reference, args, _ = case
    mine, theirs = record(*args), reference(*args)
    for name in names(reference) + ["new_attribute"]:
        for act in (lambda o: setattr(o, name, 0), lambda o: delattr(o, name)):
            with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                act(theirs)
            with pytest.raises(dataclasses.FrozenInstanceError) as raised:
                act(mine)
            assert str(raised.value) == str(expected.value)
    assert values(mine, reference) == list(args)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal_records(case, clone):
    record, reference, args, _ = case
    mine = record(*args)
    cloned = clone(mine)
    assert type(cloned) is record
    assert cloned == mine and hash(cloned) == hash(mine)
    assert repr(cloned) == repr(mine)


def test_copied_config_keeps_its_packed_values():
    cfg = bb.BlackBoxConfig(FNS)
    for cloned in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert (cloned.f0_vector, cloned.f1_vector) == (cfg.f0_vector, cfg.f1_vector)
        assert cloned.n == 3 and str(cloned) == "y2,y1,y3"


def test_config_compares_its_functions_only():
    listed = bb.BlackBoxConfig(list(FNS))
    assert listed.functions == FNS and listed == bb.BlackBoxConfig(FNS)
    assert hash(listed) == hash(BlackBoxConfig(FNS))
    assert repr(listed) == repr(BlackBoxConfig(FNS))


def test_function_values_are_stored_as_int():
    f = bb.BooleanFunction(True, False)
    assert (type(f.f0), type(f.f1)) == (int, int)
    assert f == bb.BooleanFunction(1, 0) and repr(f) == "BooleanFunction(f0=1, f1=0)"


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: bb.BooleanFunction(0.0, 1), TypeError),
        (lambda: bb.BooleanFunction(2, 0), ValueError),
        (lambda: bb.BlackBoxConfig(()), ValueError),
        (lambda: bb.BlackBoxConfig((FNS[0], (0, 1))), TypeError),
        (lambda: logic.Proposition(BitVector("011")), ValueError),
    ],
    ids=["float-value", "non-bit-value", "empty-config", "foreign-entry", "odd-length"],
)
def test_constructors_keep_their_validation(build, error):
    with pytest.raises(error):
        build()
