"""joint_distribution against frozen copies of the code it replaced.

``walk_distribution`` is the branching walk as it stood: it measures the
observables in order and, on every random outcome, branches into both forced
results.  It makes up to 2^(r+1) calls to ``measure_forced``.
``forced_outcome_set`` is ``stabilizer._outcome_set`` as it stood before the
one pass: a reference pass with every random outcome forced to +1, then one
pass per random measurement forcing it to -1, (r + 1) * m ``measure_forced``
calls.  ``eager_joint_distribution`` is ``joint_distribution`` as it stood
before the distribution stored the affine set: every point expanded into a
dict of sign tuples and handed to the public ``OutcomeDistribution``.  All
three are kept here only as references for exact equality.
"""
import math

import pytest

from axiombox import pauli
from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng
from axiombox.gf2 import _echelon
from axiombox.stabilizer import MeasurementKind, OutcomeDistribution


def walk_distribution(t, obs_list):
    outcomes = {}

    def walk(state, index, prob, signs):
        if index == len(obs_list):
            outcomes[signs] = outcomes.get(signs, 0.0) + prob
            return
        obs = obs_list[index]
        first = stab.measure_forced(state, obs, 1)
        if first.kind is MeasurementKind.DETERMINISTIC:
            walk(first.post_state, index + 1, prob, signs + (first.outcome,))
        else:
            walk(first.post_state, index + 1, prob * 0.5, signs + (1,))
            second = stab.measure_forced(state, obs, -1)
            walk(second.post_state, index + 1, prob * 0.5, signs + (-1,))

    walk(t, 0, 1.0, ())
    return OutcomeDistribution(outcomes, len(obs_list))


def random_case(n, m, seed):
    """A prepared state, partly collapsed by some of the observables, and m
    commuting observables mixing random ones, products of earlier ones (their
    outcomes are XORs of earlier ones), identities and negations."""
    rng = philox_rng(seed, 1000 * n + m)
    state = stab.prepare(stab.random_axioms(n, rng))
    observables = stab.random_commuting_observables(n, m, rng)
    for obs in observables[: int(rng.integers(0, m + 1))]:
        if rng.random() < 0.3:
            state = stab.measure(state, obs, rng).post_state
    for i in range(2, m):
        if rng.random() < 0.3:
            a, b = rng.choice(i, size=2, replace=False)
            product = pauli.observable_product(observables[a], observables[b])
            observables[i] = product.negated() if rng.random() < 0.5 else product
    return state, observables


SMALL = [(n, m, seed) for n in range(1, 7) for m in (0, 1, n, 2 * n + 2) for seed in range(6)]
WIDE = [(n, m, seed) for n in (8, 12, 16) for m in (6, 9, 12) for seed in range(2)]


@pytest.mark.parametrize("n,m,seed", SMALL + WIDE)
def test_equals_frozen_walk(n, m, seed):
    state, observables = random_case(n, m, seed)
    assert stab.joint_distribution(state, observables).outcomes == (
        walk_distribution(state, observables).outcomes
    )


def forced_outcome_set(t, obs_list):
    def forced_pass(flip):
        state, bits, random = t, 0, []
        for k, obs in enumerate(obs_list):
            result = stab.measure_forced(state, obs, -1 if k == flip else 1)
            state = result.post_state
            bits |= (result.outcome == -1) << k
            if result.kind is MeasurementKind.RANDOM:
                random.append(k)
        return bits, random

    reference, random = forced_pass(None)
    return reference, [forced_pass(i)[0] ^ reference for i in random]


def full_rank_case(n, m):
    """A prepared state and m random commuting observables, none collapsed."""
    rng = philox_rng(n, m)
    state = stab.prepare(stab.random_axioms(n, rng))
    return state, stab.random_commuting_observables(n, m, rng)


ONE_PASS = [
    (n, m, seed) for n in range(1, 17) for m in sorted({1, n, 2 * n + 2}) for seed in range(3)
]


@pytest.mark.parametrize("n,m,seed", ONE_PASS + [(64, 70, 0), (64, 70, 1)])
def test_one_pass_equals_frozen_forced_passes(n, m, seed):
    state, observables = random_case(n, m, seed)
    assert stab._outcome_set(state, observables) == forced_outcome_set(state, observables)


def test_one_pass_equals_frozen_forced_passes_beyond_53_free_outcomes():
    """Masks wider than 64 bits and r above the 53 that ``sample`` can draw."""
    state, observables = full_rank_case(64, 70)
    reference, columns = stab._outcome_set(state, observables)
    assert len(columns) > 53
    assert (reference, columns) == forced_outcome_set(state, observables)


@pytest.mark.parametrize("n,m,seed", [(4, 10, 0), (8, 12, 1), (16, 12, 2), (16, 6, 3)])
def test_one_pass_of_m_measurements(monkeypatch, n, m, seed):
    """m measurements, and a collapse after each random one but the last
    observable, whose post-state nothing reads."""
    state, observables = random_case(n, m, seed)
    _, columns = stab._outcome_set(state, observables)
    last_random = any(c & -c == 1 << (m - 1) for c in columns)
    calls, collapses, forced = [], [], []
    measure, collapse = stab._measure_deferred, stab._collapse
    monkeypatch.setattr(stab, "_measure_deferred", lambda *args: calls.append(1) or measure(*args))
    monkeypatch.setattr(stab, "_collapse", lambda *args: collapses.append(1) or collapse(*args))
    monkeypatch.setattr(stab, "measure_forced", lambda *args: forced.append(1))
    dist = stab.joint_distribution(state, observables)
    r = int(math.log2(len(dist.outcomes)))
    assert set(dist.outcomes.values()) == {0.5 ** r}
    assert (len(calls), len(collapses), len(forced)) == (m, r - last_random, 0)


def test_equals_frozen_walk_at_full_rank():
    state, observables = full_rank_case(16, 12)
    dist = stab.joint_distribution(state, observables)
    assert len(dist.outcomes) == 2 ** 12
    assert dist.outcomes == walk_distribution(state, observables).outcomes


def test_rejects_an_observable_of_another_size():
    state = stab.prepare(stab.random_axioms(2, philox_rng(2, 2)))
    observables = [pauli.parse_observable("ZZ"), pauli.parse_observable("ZZZ")]
    with pytest.raises(ValueError, match="size mismatch: 3 vs 2 qubits"):
        stab.joint_distribution(state, observables)


def eager_joint_distribution(t, obs_list):
    m = len(obs_list)
    reference, columns = stab._outcome_set(t, obs_list)
    support = [reference]
    for column in columns:
        support = [s for base in support for s in (base, base ^ column)]
    prob = 0.5 ** len(columns)
    return OutcomeDistribution(
        {tuple(-1 if s >> k & 1 else 1 for k in range(m)): prob for s in support}, m
    )


RANDOM_CAP = 12  # r at most this, so the eager expansion stays small


def capped_case(n, m, seed):
    """:func:`random_case`, with the state collapsed onto all but the last
    RANDOM_CAP observables, so r <= RANDOM_CAP."""
    state, observables = random_case(n, m, seed)
    rng = philox_rng(seed, 7)
    for obs in observables[: max(0, m - RANDOM_CAP)]:
        state = stab.measure(state, obs, rng).post_state
    return state, observables


# (20, 13, 0) has r = 11, which no other case reaches.
AFFINE = SMALL + WIDE + [(20, 13, 0)] + [
    (n, m, seed) for n, m in ((32, 40), (64, 64), (64, 70)) for seed in range(3)
]


@pytest.mark.parametrize("n,m,seed", AFFINE)
def test_affine_distribution_equals_frozen_eager_expansion(n, m, seed):
    state, observables = capped_case(n, m, seed)
    dist = stab.joint_distribution(state, observables)
    frozen = eager_joint_distribution(state, observables)
    want = frozen.outcomes
    assert list(dist.outcomes.items()) == list(want.items())
    assert dist.support() == frozen.support()
    for signs in want:
        assert dist.probability(signs) == want[signs]
    rng = philox_rng(seed, 1000 * n + m + 1)
    draws = (tuple(int(s) for s in 1 - 2 * rng.integers(0, 2, m)) for _ in range(200))
    non_members = [signs for signs in draws if signs not in want][:20]
    assert len(non_members) == (0 if len(want) == 2 ** m else 20)
    for signs in non_members:
        assert dist.probability(signs) == 0.0
    assert dist.probability((1,) * (m + 1)) == 0.0
    if m:
        assert dist.probability((0,) + next(iter(want))[1:]) == 0.0


def test_the_affine_cases_reach_every_random_count():
    ranks = {len(stab._outcome_set(*capped_case(n, m, seed))[1]) for n, m, seed in AFFINE}
    assert ranks == set(range(RANDOM_CAP + 1))


class TestAffineConstructor:
    def test_rejects_a_word_wider_than_m(self):
        with pytest.raises(ValueError, match="fit in 3 bits"):
            OutcomeDistribution._affine(0b1000, [], 3)
        with pytest.raises(ValueError, match="fit in 3 bits"):
            OutcomeDistribution._affine(0, [0b1000], 3)

    @pytest.mark.parametrize("columns", [[0b011, 0b101], [0b010, 0], [0b110, 0b010]])
    def test_rejects_columns_sharing_a_lowest_set_bit(self, columns):
        with pytest.raises(ValueError, match="distinct lowest set bits"):
            OutcomeDistribution._affine(0, columns, 3)

    def test_columns_in_any_pivot_order(self):
        """Reduction clears the lowest set bit first, so the order of the
        columns does not matter to ``probability``."""
        dist = OutcomeDistribution._affine(0b000, [0b110, 0b011], 3)
        assert list(dist.outcomes) == [(1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1)]
        for signs in dist.outcomes:
            assert dist.probability(signs) == 0.25
        assert dist.probability((-1, 1, 1)) == 0.0


def random_word(rng, m):
    return int("".join(str(int(b)) for b in rng.integers(0, 2, m)), 2)


def random_affine_set(rng, m, r):
    """A reference and r independent m-bit columns with distinct lowest set
    bits, as ``OutcomeDistribution._affine`` takes them: ``_echelon`` rows
    have them."""
    while True:
        pivots = _echelon([random_word(rng, m) for _ in range(r + 4)])
        if len(pivots) >= r:
            return random_word(rng, m), [row for _, row, _ in pivots[:r]]


def rebased(rng, reference, columns):
    """Another basis of the same span, still with distinct lowest set bits
    (each column takes in some columns of higher lowest bit), in shuffled
    order, and another reference from the same coset."""
    columns = sorted(columns, key=lambda c: c & -c)
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            if rng.integers(0, 2):
                columns[i] ^= columns[j]
    for column in columns:
        if rng.integers(0, 2):
            reference ^= column
    rng.shuffle(columns)
    return reference, columns


def outside_word(columns, m):
    """A unit word whose bit is no column's lowest set bit: not in the span."""
    pivots = {c & -c for c in columns}
    return next(1 << k for k in range(m) if 1 << k not in pivots)


class TestAffineEquality:
    """``==`` between two affine sets compares references and spans; the
    expanding ``max_deviation`` is the reference."""

    @pytest.mark.parametrize("m", range(1, 15))
    def test_matches_the_expanding_path(self, m):
        rng = philox_rng(m, 4242)
        verdicts = []
        for _ in range(12):
            r = int(rng.integers(0, min(m, RANDOM_CAP) + 1))
            reference, columns = random_affine_set(rng, m, r)
            others = [rebased(rng, reference, columns), random_affine_set(rng, m, r)]
            if r < m:
                shift = outside_word(columns, m)
                others.append((reference ^ shift, columns))
                others.append((reference, columns + [shift]))
            if r:
                others.append((reference, columns[1:]))
            for ref_b, columns_b in others:
                a = OutcomeDistribution._affine(reference, columns, m)
                b = OutcomeDistribution._affine(ref_b, columns_b, m)
                verdict = a == b
                assert (b == a) is verdict
                assert "_table" not in vars(a) and "_table" not in vars(b)
                assert verdict is (a.max_deviation(b) == 0.0)
                dense_b = OutcomeDistribution(b.outcomes, m)
                assert (a == dense_b) is verdict and (dense_b == a) is verdict
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_different_observable_counts_raise(self):
        a = OutcomeDistribution._affine(0, [0b1], 2)
        b = OutcomeDistribution._affine(0, [0b1], 3)
        with pytest.raises(ValueError, match="different observable counts"):
            a == b

    def test_m64_r32_without_expanding(self):
        rng = philox_rng(64, 32)
        reference, columns = random_affine_set(rng, 64, 32)
        d = OutcomeDistribution._affine(reference, columns, 64)
        assert d == d
        assert d == OutcomeDistribution._affine(*rebased(rng, reference, columns), 64)
        shifted = reference ^ outside_word(columns, 64)
        assert d != OutcomeDistribution._affine(shifted, columns, 64)
        assert "_table" not in vars(d)
