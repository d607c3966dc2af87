"""Deferred collapse: ``measure`` and ``measure_forced`` draw their bit at
call time and run the collapse on the first read of ``post_state``.

Seeded sequences of both are run on one shared state, their post-states read
in reverse order, twice, or never.  Every post-state read must equal the one
``eager_measure`` and the frozen per-row-call kernel give, the random
stream must stand where one draw per random measurement leaves it, and no
collapse may run before a post-state is read, or twice for one result.
"""
import dataclasses
import math
from dataclasses import dataclass

import pytest
from test_measure_kernel import SIZES, eager_measure, frozen_measure, next_observable, state_of

from axiombox import pauli
from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng
from axiombox.stabilizer import MeasurementKind, StabilizerTableau


@dataclass(frozen=True)
class MeasurementResult:
    """A plain frozen dataclass with ``stabilizer.MeasurementResult``'s
    fields: the reference for its repr."""

    outcome: int
    kind: MeasurementKind
    post_state: StabilizerTableau


def measurement_case(n, count=24):
    """A state, ``count`` observables on it and, per observable, 0 for a
    drawn outcome or the forced outcome +1 or -1."""
    rng = philox_rng(n, 800)
    state = stab.prepare(stab.random_axioms(n, rng))
    observables = []
    for _ in range(count):
        observables.append(next_observable(rng, state, observables))
    modes = [(0, 1, -1)[int(rng.integers(0, 3))] for _ in observables]
    return state, observables, modes


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("reads", ["reverse", "twice", "never"])
def test_deferred_post_states_equal_eager_and_frozen(monkeypatch, n, reads):
    state, observables, modes = measurement_case(n)
    before = state_of(state)
    mine, theirs = philox_rng(n, 801), philox_rng(n, 801)

    def drawn():
        return int(theirs.random() >= 0.5)

    expected = []
    for obs, mode in zip(observables, modes):
        random_bit = drawn if mode == 0 else (lambda: int(mode < 0))
        bit, kind, post = eager_measure(state, obs, random_bit)
        frozen = frozen_measure(state, obs, lambda: bit)
        assert (bit, kind, state_of(post)) == (frozen[0], frozen[1], state_of(frozen[2]))
        expected.append((-1 if bit else 1, kind, post))

    calls = []
    collapse = stab._collapse
    monkeypatch.setattr(stab, "_collapse", lambda *args: calls.append(1) or collapse(*args))
    results = [
        stab.measure(state, obs, mine) if mode == 0 else stab.measure_forced(state, obs, mode)
        for obs, mode in zip(observables, modes)
    ]
    assert calls == []
    assert [(r.outcome, r.kind) for r in results] == [(o, k) for o, k, _ in expected]
    random = sum(k is MeasurementKind.RANDOM for _, k, _ in expected)
    assert 0 < random < len(expected)

    order = {"reverse": range(len(results) - 1, -1, -1), "twice": range(len(results))}
    for i in order.get(reads, ()):
        done = len(calls)
        post = results[i].post_state
        if reads == "twice":
            assert results[i].post_state is post
        assert len(calls) == done + (expected[i][1] is MeasurementKind.RANDOM)
        assert state_of(post) == state_of(expected[i][2])
        assert results[i] == stab.MeasurementResult(*expected[i])
    assert len(calls) == (0 if reads == "never" else random)
    assert mine.random() == theirs.random()
    assert state_of(state) == before


def test_measurement_result_keeps_its_frozen_dataclass_surface():
    state, observables, _ = measurement_case(4)
    results = [stab.measure(state, obs, philox_rng(4, 802)) for obs in observables]
    kinds = {r.kind for r in results}
    assert kinds == set(MeasurementKind)
    for result in results:
        fields = (result.outcome, result.kind, result.post_state)
        positional = stab.MeasurementResult(*fields)
        outcome, kind, post_state = fields
        keyword = stab.MeasurementResult(outcome=outcome, kind=kind, post_state=post_state)
        assert positional == keyword == result
        assert repr(positional) == repr(result) == repr(MeasurementResult(*fields))
        flipped = stab.MeasurementResult(-outcome, kind, post_state)
        assert result != flipped == dataclasses.replace(result, outcome=-outcome)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.outcome = -result.outcome
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.post_state = state
        with pytest.raises(dataclasses.FrozenInstanceError):
            del result.kind
        with pytest.raises(TypeError):
            hash(result)
    deterministic = next(r for r in results if r.kind is MeasurementKind.DETERMINISTIC)
    random = next(r for r in results if r.kind is MeasurementKind.RANDOM)
    assert deterministic.post_state is state
    assert random.post_state != state
    assert random != stab.MeasurementResult(random.outcome, random.kind, state)


def test_a_read_random_result_releases_its_collapse_arguments():
    """The first read of a random result's ``post_state`` drops the pre-
    measurement tableau it held; ``==`` and ``dataclasses.replace`` work on
    a result before its read (they read it) and after."""
    state = StabilizerTableau.from_text("+ZI\n+IZ\n")
    obs = pauli.parse_observable("+XI")
    compared, replaced, read = [stab.measure_forced(state, obs, -1) for _ in range(3)]
    assert all("_collapse_args" in vars(r) for r in (compared, replaced, read))
    post = read.post_state
    assert "_collapse_args" not in vars(read)
    assert read.post_state is post and post.to_text() == "-XI\n+IZ\n"
    assert compared == read
    flipped = stab.MeasurementResult(1, MeasurementKind.RANDOM, post)
    assert dataclasses.replace(replaced, outcome=1) == flipped
    assert dataclasses.replace(read, outcome=1) == flipped
    for result in (compared, replaced, read):
        assert "_collapse_args" not in vars(result)
        assert result.post_state == post and result == read


class StubRng:
    def __init__(self, value):
        self.value = value
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.value


@pytest.mark.parametrize("value", [math.nan, 1.0, -0.1, math.inf])
def test_measure_rejects_a_draw_outside_the_unit_interval(value):
    state = StabilizerTableau.from_text("+Z\n")
    rng = StubRng(value)
    with pytest.raises(ValueError, match=f"rng.random\\(\\) returned {value!r}"):
        stab.measure(state, pauli.parse_observable("X"), rng)
    assert rng.draws == 1
    assert stab.measure(state, pauli.parse_observable("-Z"), rng).outcome == -1
    assert rng.draws == 1  # a definite outcome draws nothing


def test_measure_rejects_an_rng_without_a_random_method():
    state = StabilizerTableau.from_text("+ZI\n+IZ\n")
    with pytest.raises(ValueError, match="rng of type object has no random\\(\\) method"):
        stab.measure(state, pauli.parse_observable("+XI"), object())


def test_measure_rejects_a_draw_that_is_not_a_number():
    state = StabilizerTableau.from_text("+ZI\n+IZ\n")
    with pytest.raises(ValueError, match="rng.random\\(\\) returned '0.3', not a float"):
        stab.measure(state, pauli.parse_observable("+XI"), StubRng("0.3"))
    # An int in [0, 1) compares as its float does, and stays accepted.
    assert stab.measure(state, pauli.parse_observable("+XI"), StubRng(0)).outcome == 1


@pytest.mark.parametrize("value,outcome", [(0.0, 1), (0.4999, 1), (0.5, -1), (0.9999, -1)])
def test_measure_reads_a_draw_in_the_unit_interval(value, outcome):
    state = StabilizerTableau.from_text("+Z\n")
    result = stab.measure(state, pauli.parse_observable("X"), StubRng(value))
    assert (result.outcome, result.kind) == (outcome, MeasurementKind.RANDOM)
    assert result.post_state.to_text() == ("+X\n" if outcome == 1 else "-X\n")
