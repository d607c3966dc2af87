"""``sample`` against a frozen copy of the expanding sampler, and at large r.

``frozen_sample`` is ``experiment.sample`` as it was while it expanded the
whole outcome distribution: ``support()`` sorted, uniform weights, one
``rng.choice`` over the support, then the flips and the byte-key count.  It is
kept here only as the reference: seeded counts (values and key order) must be
equal, so the draw from the affine outcome set keeps every random stream.
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


def joint_case(n, m, seed):
    """A random state and m random commuting observables, with the state
    collapsed onto all but the last RANDOM_CAP of them, so r <= RANDOM_CAP."""
    rng = xp.philox_rng(seed, 78)
    state = stab.prepare(stab.random_axioms(n, rng))
    observables = stab.random_commuting_observables(n, m, rng)
    for o in observables[: max(0, m - RANDOM_CAP)]:
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
