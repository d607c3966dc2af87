"""``sample`` against a frozen copy of the expanding sampler, and at large r.

``frozen_sample`` is ``experiment.sample`` as it was while it expanded the
whole outcome distribution: ``support()`` sorted, uniform weights, one
``rng.choice`` over the support, then the flips and the byte-key count.
``byte_key_sample`` is ``experiment.sample`` as it was before it worked on
packed outcome words: the affine draw into a bool matrix of -1 entries, int8
sign and flip matrices, and a count over MSB-first ``np.void`` byte keys.
``sorted_key_sample`` is ``experiment.sample`` as it was before it tallied each
distinct outcome word once: the same packed words, then a complemented,
bit-reversed key per run and stable argsorts of all runs.  All three are kept
here only as references: seeded counts (values and key order) must be equal,
so every random stream is kept.
"""
import numpy as np
import pytest

from axiombox import cli, pauli
from axiombox import experiment as xp
from axiombox import stabilizer as stab
from axiombox.experiment import NoiseModel

RANDOM_CAP = 12  # r at most this, so the frozen expansion stays small


def frozen_sample(state, observables, n_runs, seed, flip_prob):
    dist = stab.joint_distribution(state, observables)
    support = dist.support()
    weights = np.array([dist.probability(s) for s in support])
    weights = weights / weights.sum()
    rng = xp.philox_rng(seed, 0)
    picks = rng.choice(len(support), size=n_runs, p=weights)
    signs = np.array(support, dtype=np.int8)[picks]
    if flip_prob > 0.0:
        flips = rng.random(signs.shape) < flip_prob
        signs = np.where(flips, -signs, signs)
    packed = np.packbits(signs > 0, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, tallies = np.unique(keys, return_index=True, return_counts=True)
    return {tuple(int(s) for s in signs[i]): int(t) for i, t in zip(first, tallies)}


def byte_key_sample(state, observables, n_runs, seed, flip_prob):
    reference, columns = stab._outcome_set(state, observables)
    r = len(columns)
    rng = xp.philox_rng(seed, 0)
    picks = (rng.random(n_runs) * 2.0 ** r).astype(np.int64)
    m = len(observables)
    bits = np.array([[b >> k & 1 for k in range(m)] for b in [reference, *columns]], bool)
    minus = np.tile(bits[0], (n_runs, 1))
    for i, column in enumerate(columns):
        p = (column & -column).bit_length() - 1
        minus ^= (minus[:, p] == (picks >> (r - 1 - i) & 1))[:, None] & bits[i + 1]
    signs = np.where(minus, -1, 1).astype(np.int8)
    if flip_prob > 0.0:
        flips = rng.random(signs.shape) < flip_prob
        signs = np.where(flips, -signs, signs)
    packed = np.packbits(signs > 0, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, tallies = np.unique(keys, return_index=True, return_counts=True)
    return dict(zip(map(tuple, signs[first].tolist()), tallies.tolist()))


_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.uint8)


def outcome_words(bits, width):
    return np.array([bits >> 64 * j & (1 << 64) - 1 for j in range(width)], np.uint64)


def sorted_key_sample(state, observables, n_runs, seed, flip_prob):
    reference, columns = stab._outcome_set(state, observables)
    r = len(columns)
    rng = xp.philox_rng(seed, 0)
    picks = (rng.random(n_runs) * 2.0 ** r).astype(np.int64)
    m = len(observables)
    width = -(-m // 64)
    pivot_bits = sum(
        (reference >> ((c & -c).bit_length() - 1) & 1) << (r - 1 - i)
        for i, c in enumerate(columns)
    )
    taken = picks ^ (pivot_bits ^ ((1 << r) - 1))
    words = np.tile(outcome_words(reference, width), (n_runs, 1))
    for low in range(0, r, 8):
        table = np.zeros((256, width), np.uint64)
        for b in range(min(8, r - low)):
            table[1 << b : 2 << b] = table[: 1 << b] ^ outcome_words(columns[r - 1 - low - b], width)
        words ^= table[taken >> low & 255]
    if flip_prob > 0.0:
        flips = np.zeros((n_runs, 64 * width), bool)
        flips[:, :m] = rng.random((n_runs, m)) < flip_prob
        words ^= np.packbits(flips, bitorder="little").view("<u8").reshape(n_runs, width)
    keys = _REVERSED_BYTES[(~words).astype("<u8").view(np.uint8)].view(">u8")
    order = np.argsort(keys[:, -1])
    for j in range(width - 2, -1, -1):
        order = order[np.argsort(keys[order, j], kind="stable")]
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    tallies = np.diff(np.r_[starts, n_runs])
    distinct = words[order[starts]]
    outcomes = distinct[:, 0].tolist()
    for j in range(1, width):
        outcomes = [b | w << 64 * j for b, w in zip(outcomes, distinct[:, j].tolist())]
    return dict(zip(stab._sign_tuples(outcomes, m), tallies.tolist()))


def joint_case(n, m, seed, cap=RANDOM_CAP):
    """A random state and m random commuting observables, with the state
    collapsed onto all but the last ``cap`` of them, so r <= cap."""
    rng = xp.philox_rng(seed, 78)
    state = stab.prepare(stab.random_axioms(n, rng))
    observables = stab.random_commuting_observables(n, m, rng)
    for o in observables[: max(0, m - cap)]:
        state = stab.measure(state, o, rng).post_state
    return state, observables


DIFFERENTIAL_CASES = [
    (n, m)
    for n in range(1, 25)
    for m in sorted({min(k, 20) for k in (1, 2, n, n + 3, 2 * n + 2)})
] + [(64, 70)]


@pytest.mark.parametrize("flip_prob", [0.0, 0.05])
@pytest.mark.parametrize("n, m", DIFFERENTIAL_CASES)
def test_sample_matches_the_frozen_expanding_sampler(n, m, flip_prob):
    state, observables = joint_case(n, m, seed=100 * n + m)
    record = xp.sample(state, observables, 300, seed=n + m, noise=NoiseModel(flip_prob))
    expected = frozen_sample(state, observables, 300, n + m, flip_prob)
    assert list(record.counts.items()) == list(expected.items())


def test_the_differential_cases_reach_every_random_count():
    """The cases cover r = 0 .. RANDOM_CAP, so every pick bit is exercised."""
    ranks = {len(stab._outcome_set(*joint_case(n, m, 100 * n + m))[1])
             for n, m in DIFFERENTIAL_CASES}
    assert ranks == set(range(RANDOM_CAP + 1))


# Observables, and the cap on r; 72 qubits leave room for r = 40 at m = 70.
PACKED_CASES = [
    (m, cap) for m in (1, 8, 63, 64, 65, 70) for cap in sorted({0, min(m, 9), min(m, 40)})
]


@pytest.mark.parametrize("n_runs", [1, 7, 3000])
@pytest.mark.parametrize("flip_prob", [0.0, 0.05])
@pytest.mark.parametrize("m, cap", PACKED_CASES)
def test_sample_matches_the_frozen_byte_key_sampler(m, cap, flip_prob, n_runs):
    state, observables = joint_case(72, m, seed=m + cap, cap=cap)
    seed = 1000 * m + cap
    record = xp.sample(state, observables, n_runs, seed, noise=NoiseModel(flip_prob))
    expected = byte_key_sample(state, observables, n_runs, seed, flip_prob)
    assert list(record.counts.items()) == list(expected.items())


def test_the_packed_cases_reach_forty_random_outcomes():
    ranks = {
        len(stab._outcome_set(*joint_case(72, m, m + cap, cap))[1]) for m, cap in PACKED_CASES
    }
    assert {0, 1, 8, 9, 40} <= ranks


# Up to three outcome words per run.
SORTED_KEY_CASES = PACKED_CASES + [(m, cap) for m in (128, 130) for cap in (0, 9, 40)]


@pytest.mark.parametrize("n_runs", [1, 7, 3000])
@pytest.mark.parametrize("flip_prob", [0.0, 0.05])
@pytest.mark.parametrize("m, cap", SORTED_KEY_CASES)
def test_sample_matches_the_frozen_sorted_key_sampler(m, cap, flip_prob, n_runs):
    state, observables = joint_case(72, m, seed=m + cap, cap=cap)
    seed = 1000 * m + cap
    record = xp.sample(state, observables, n_runs, seed, noise=NoiseModel(flip_prob))
    expected = sorted_key_sample(state, observables, n_runs, seed, flip_prob)
    assert list(record.counts.items()) == list(expected.items())


# (m, r) of the joint jobs of perfbench's query_mix workload, on 16 qubits.
QUERY_MIX_SHAPES = [(6, 3), (6, 6), (10, 5), (8, 8), (12, 12)]


@pytest.mark.parametrize("m, r", QUERY_MIX_SHAPES)
def test_sample_matches_the_frozen_sorted_key_sampler_at_query_mix_shapes(m, r):
    state, observables = joint_case(16, m, seed=m + r, cap=r)
    assert len(stab._outcome_set(state, observables)[1]) == r
    record = xp.sample(state, observables, 10_000, seed=r, noise=NoiseModel(0.05))
    expected = sorted_key_sample(state, observables, 10_000, r, 0.05)
    assert list(record.counts.items()) == list(expected.items())


def test_sixty_four_observables_with_thirty_two_random_outcomes():
    """m = 64 and r = 32 at N = 64: 2^32 outcomes, never listed."""
    state, observables = joint_case(64, 64, seed=0, cap=33)
    reference, columns = stab._outcome_set(state, observables)
    assert len(columns) == 32
    dist = stab.joint_distribution(state, observables)
    signs = tuple(-1 if reference >> k & 1 else 1 for k in range(64))
    assert dist.probability(signs) == 2.0 ** -32
    # The first 31 observables were measured before, so their outcomes are
    # definite and flipping one leaves the set.
    assert dist.probability((-signs[0],) + signs[1:]) == 0.0
    record = xp.sample(state, observables, 10_000, seed=5, noise=NoiseModel(0.05))
    assert sum(record.counts.values()) == 10_000


def z_state_with_x_observables(n):
    axioms = [(pauli.parse_observable("I" * i + "Z" + "I" * (n - i - 1)).vector, 1)
              for i in range(n)]
    observables = [pauli.parse_observable("I" * i + "X" + "I" * (n - i - 1))
                   for i in range(n)]
    return stab.prepare(axioms), observables


def test_forty_independent_outcomes_are_sampled():
    state, observables = z_state_with_x_observables(40)
    record = xp.sample(state, observables, 2000, seed=3)
    assert sum(record.counts.values()) == 2000
    for k in range(40):
        plus = sum(c for s, c in record.counts.items() if s[k] == 1)
        # Five standard deviations of Binomial(2000, 1/2).
        assert abs(plus / 2000 - 0.5) < 5 * 0.5 / 2000 ** 0.5


def test_more_than_53_independent_outcomes_are_rejected():
    state, observables = z_state_with_x_observables(54)
    with pytest.raises(ValueError, match="54 independent outcomes"):
        xp.sample(state, observables, 10, seed=1)


def test_cli_sample_beyond_53_is_exit_one(tmp_path, capsys):
    n = 54
    path = tmp_path / "z54.tab"
    path.write_text("".join("+" + "I" * i + "Z" + "I" * (n - i - 1) + "\n" for i in range(n)))
    obs = ",".join("I" * i + "X" + "I" * (n - i - 1) for i in range(n))
    code = cli.main(["sample", "--state", str(path), "--obs", obs, "--runs", "10"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    # The CLI lists every outcome row, so it stops at the observable count first.
    assert err == "error: --obs lists 54 observables, whose 2^54 outcome rows exceed 1000000\n"
