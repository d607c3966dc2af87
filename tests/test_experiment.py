"""Sampling, record classification, decay study, and the demo grids."""
import math
import tracemalloc

import numpy as np
import pytest

from axiombox import experiment as xp
from axiombox import logic, pauli
from axiombox import stabilizer as stab
from axiombox.blackbox import BlackBoxConfig
from axiombox.experiment import Decision, NoiseModel
from axiombox.gf2 import BitVector
from axiombox.logic import AxiomSet, Proposition


def obs(text):
    return pauli.parse_observable(text)


def z_plus():
    return stab.prepare([(BitVector("01"), 1)])


def bell_state():
    return stab.prepare([(obs("ZZ").vector, 1), (obs("XX").vector, 1)])


class TestNoiseModel:
    def test_defaults(self):
        noise = NoiseModel()
        assert noise.flip_prob == 0.0

    def test_flip_prob_range(self):
        with pytest.raises(ValueError):
            NoiseModel(flip_prob=0.5)
        with pytest.raises(ValueError):
            NoiseModel(flip_prob=-0.1)


class TestSample:
    def test_deterministic_case_all_plus(self):
        record = xp.sample(z_plus(), [obs("+Z")], 1000, seed=3)
        assert record.counts == {(1,): 1000}

    def test_random_case_near_half(self):
        record = xp.sample(z_plus(), [obs("+X")], 10_000, seed=4)
        assert abs(record.frequency((1,)) - 0.5) < 0.02
        assert abs(record.frequency((-1,)) - 0.5) < 0.02

    def test_bell_local_z(self):
        record = xp.sample(bell_state(), [obs("+ZI"), obs("+IZ")], 10_000, seed=5)
        assert abs(record.frequency((1, 1)) - 0.5) < 0.02
        assert abs(record.frequency((-1, -1)) - 0.5) < 0.02
        assert record.counts.get((1, -1), 0) == 0
        assert record.counts.get((-1, 1), 0) == 0

    def test_reproducible_from_seed(self):
        a = xp.sample(bell_state(), [obs("+ZI"), obs("+IZ")], 5000, seed=6,
                      noise=NoiseModel(flip_prob=0.1))
        b = xp.sample(bell_state(), [obs("+ZI"), obs("+IZ")], 5000, seed=6,
                      noise=NoiseModel(flip_prob=0.1))
        assert a == b

    def test_substreams_differ(self):
        a = xp.sample(z_plus(), [obs("+X")], 1000, seed=7, substream=0)
        b = xp.sample(z_plus(), [obs("+X")], 1000, seed=7, substream=1)
        assert a.counts != b.counts

    def test_counts_sum(self):
        record = xp.sample(z_plus(), [obs("+X")], 1234, seed=8,
                           noise=NoiseModel(flip_prob=0.2))
        assert sum(record.counts.values()) == 1234

    def test_noise_flips_definite_outcomes(self):
        record = xp.sample(z_plus(), [obs("+Z")], 10_000, seed=9,
                           noise=NoiseModel(flip_prob=0.1))
        assert abs(record.frequency((-1,)) - 0.1) < 0.02

    def test_invalid_runs(self):
        with pytest.raises(ValueError):
            xp.sample(z_plus(), [obs("+Z")], 0, seed=1)

    def test_no_observables_rejected(self):
        with pytest.raises(ValueError, match="at least one observable is required"):
            xp.sample(z_plus(), [], 10, seed=1)

    def test_non_integer_runs_rejected(self):
        with pytest.raises(TypeError, match="^n_runs must be an integer, got 10.0$"):
            xp.sample(z_plus(), [obs("+Z")], 10.0, seed=1)

    def test_numpy_integer_runs(self):
        record = xp.sample(z_plus(), [obs("+X")], np.int64(10), seed=1)
        assert record == xp.sample(z_plus(), [obs("+X")], 10, seed=1)
        assert type(record.n_runs) is int

    def test_noiseless_frequencies_converge(self):
        # KL(empirical || exact) at 1e5 runs for the fixed cases
        cases = [
            (z_plus(), [obs("+X")]),
            (bell_state(), [obs("+ZI"), obs("+IZ")]),
            (bell_state(), [obs("+ZI"), obs("+IX")]),
        ]
        for state, olist in cases:
            exact = stab.joint_distribution(state, olist)
            record = xp.sample(state, olist, 100_000, seed=11)
            kl = 0.0
            for signs, count in record.counts.items():
                emp = count / record.n_runs
                kl += emp * math.log(emp / exact.probability(signs))
            assert kl < 0.01

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 70])
    @pytest.mark.parametrize("flip_prob", [0.0, 0.2])
    def test_counts_equal_row_sort(self, m, flip_prob):
        """Counts (values and key order) equal those of the row sort
        ``np.unique(axis=0)`` over the same draws, which ``sample`` used before."""
        rng = xp.philox_rng(m, 77)
        n = int(rng.integers(1, 5))
        state = stab.prepare(stab.random_axioms(n, rng))
        olist = stab.random_commuting_observables(n, m, rng)
        record = xp.sample(state, olist, 3000, seed=m, noise=NoiseModel(flip_prob))

        support = stab.joint_distribution(state, olist).support()
        draws = xp.philox_rng(m, 0)
        picks = draws.choice(len(support), size=3000, p=[1 / len(support)] * len(support))
        signs = np.array(support, dtype=np.int8)[picks]
        if flip_prob:
            signs = np.where(draws.random(signs.shape) < flip_prob, -signs, signs)
        rows, tallies = np.unique(signs, axis=0, return_counts=True)
        expected = [(tuple(int(s) for s in row), int(t)) for row, t in zip(rows, tallies)]
        assert list(record.counts.items()) == expected


class TestClassifyRecord:
    def test_definite_record(self):
        record = xp.sample(z_plus(), [obs("+Z")], 1000, seed=12)
        verdict = xp.classify_record(record)
        assert verdict.decision is Decision.DEPENDENT
        assert verdict.imbalance == 0.5

    def test_balanced_record(self):
        record = xp.RunRecord(seed=0, n_runs=1000, counts={(1,): 500, (-1,): 500},
                              observables=("+X",))
        verdict = xp.classify_record(record)
        assert verdict.decision is Decision.INDEPENDENT
        assert verdict.imbalance == 0.0

    def test_noisy_dependent_imbalance_near_expected(self):
        # expected imbalance = 1/2 - flip_prob
        record = xp.sample(z_plus(), [obs("+Z")], 100, seed=13,
                           noise=NoiseModel(flip_prob=0.1))
        verdict = xp.classify_record(record)
        assert verdict.decision is Decision.DEPENDENT
        assert abs(verdict.imbalance - 0.4) <= 0.1

    def test_empty_and_multi_observable_rejected(self):
        with pytest.raises(ValueError, match="single"):
            record = xp.sample(bell_state(), [obs("+ZI"), obs("+IZ")], 10, seed=1)
            xp.classify_record(record)
        empty = xp.RunRecord(seed=0, n_runs=0, counts={}, observables=("+Z",))
        with pytest.raises(ValueError, match="empty record"):
            xp.classify_record(empty)
        with pytest.raises(ValueError, match="sum"):
            xp.RunRecord(seed=0, n_runs=5, counts={(1,): 3}, observables=("+Z",))

    def test_confidence_bound_shrinks_with_runs(self):
        small = xp.classify_record(xp.sample(z_plus(), [obs("+Z")], 100, seed=14))
        large = xp.classify_record(xp.sample(z_plus(), [obs("+Z")], 10_000, seed=14))
        assert large.confidence_bound < small.confidence_bound

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_ground_truth_noiseless(self, n):
        rng = np.random.default_rng(70 + n)
        pairs = stab.random_axioms(n, rng)
        axioms = AxiomSet([v for v, _ in pairs], [0 if s == 1 else 1 for _, s in pairs])
        state = stab.prepare(pairs)
        for mask in range(4 ** n):
            p = Proposition(BitVector.from_mask(mask, 2 * n))
            record = xp.sample(state, [p.observable()], 200, seed=15, substream=mask)
            verdict = xp.classify_record(record)
            expected = (
                Decision.DEPENDENT
                if logic.classify(p, axioms).dependent
                else Decision.INDEPENDENT
            )
            assert verdict.decision is expected


    @pytest.mark.parametrize("threshold", [math.nan, 0.0, 0.5, 0.7, -0.1, math.inf])
    def test_threshold_outside_open_interval_rejected(self, threshold):
        record = xp.sample(z_plus(), [obs("+Z")], 10, seed=12)
        with pytest.raises(ValueError, match="threshold"):
            xp.classify_record(record, threshold)


class TestPhiloxKeys:
    @pytest.mark.parametrize("seed, substream", [(1.5, 0), (1, 2.9), (np.float64(1), 0)])
    def test_non_integer_keys_rejected(self, seed, substream):
        with pytest.raises(TypeError):
            xp.philox_rng(seed, substream)

    def test_numpy_integer_keys_draw_the_int_stream(self):
        a = xp.philox_rng(np.int64(1), np.uint32(2)).integers(0, 1 << 62, size=4)
        b = xp.philox_rng(1, 2).integers(0, 1 << 62, size=4)
        assert list(a) == list(b)


class TestIntegerDraws:
    """``sample`` reads integers off the raw Philox words; each equals the
    draw of ``rng.random()`` on the same word."""

    WORDS = xp.philox_rng(5, 6).bit_generator.random_raw(100_000)
    FLOATS = xp.philox_rng(5, 6).random(100_000)

    @pytest.mark.parametrize("p", [5e-324, 2.0 ** -60, 0.05, 0.1, 0.5 - 2.0 ** -54])
    def test_flip(self, p):
        threshold = np.uint64(math.ceil(p * 2.0 ** 53) << 11)
        assert np.array_equal(self.WORDS < threshold, self.FLOATS < p)
        # The words next to the threshold, through random()'s own formula.
        for word in (int(threshold) - 1, int(threshold)):
            assert (np.uint64(word) < threshold) == ((word >> 11) * 2.0 ** -53 < p)

    @pytest.mark.parametrize("r", [0, 1, 12, 53])
    def test_pick(self, r):
        picks = self.WORDS >> np.uint64(64 - r)
        assert np.array_equal(picks, (self.FLOATS * 2.0 ** r).astype(np.int64))


def test_sample_peak_memory_per_run():
    """Twelve random outcomes at 200 000 runs: the flips are drawn in blocks,
    so the peak stays under 64 bytes per run (numpy reports its buffers)."""
    n = 12
    letters = ["I" * j + "{}" + "I" * (n - 1 - j) for j in range(n)]
    state = stab.prepare([(obs(s.format("Z")).vector, 1) for s in letters])
    observables = [obs(s.format("X")) for s in letters]
    assert stab.joint_distribution(state, observables).probability((1,) * n) == 2.0 ** -n
    tracemalloc.start()
    try:
        xp.sample(state, observables, 200_000, seed=3, noise=NoiseModel(0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 200_000


class TestDecayStudy:
    def test_non_integer_run_length_rejected(self):
        with pytest.raises(TypeError):
            xp.decay_study(NoiseModel(), [10.5], 10, seed=1)

    def test_non_integer_trials_rejected(self):
        with pytest.raises(TypeError, match="^trials must be an integer, got 10.0$"):
            xp.decay_study(NoiseModel(), [10], 10.0, seed=1)

    def test_numpy_integer_run_length(self):
        rows = xp.decay_study(NoiseModel(), [np.int64(10)], 10, seed=1)
        assert rows == xp.decay_study(NoiseModel(), [10], 10, seed=1)
        assert type(rows[0].run_length) is int

    def test_indistinguishable_regime_rejected(self):
        with pytest.raises(ValueError, match="indistinguishable"):
            xp.decay_study(NoiseModel(flip_prob=0.3), [10], 100, seed=1)
        with pytest.raises(ValueError, match="indistinguishable"):
            xp.decay_study(NoiseModel(flip_prob=0.2), [10], 100, seed=1,
                           threshold=0.35)

    def test_noiseless_dependent_never_misclassified(self):
        rows = xp.decay_study(NoiseModel(), [5, 10, 20], 2000, seed=2)
        for row in rows:
            assert row.dependent_error_rate == 0.0

    def test_standard_study_properties(self):
        rows = xp.decay_study(
            NoiseModel(flip_prob=0.1), [10, 20, 40, 80], 10_000, seed=3
        )
        rates = [row.error_rate for row in rows]
        # monotone non-increasing and small by length 80
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 0.05
        # every empirical rate sits below its Hoeffding bound
        for row in rows:
            assert row.error_rate <= row.chernoff_bound
        # log-rate slope negative and within a factor 3 of the bound exponent
        lengths = np.array([row.run_length for row in rows])
        observed = np.array(rates)
        keep = observed > 0
        slope = np.polyfit(lengths[keep], np.log(observed[keep]), 1)[0]
        reference = -2.0 * 0.15 ** 2
        assert slope < 0
        assert abs(slope) <= 3 * abs(reference)
        assert abs(slope) >= abs(reference) / 3

    def test_reproducible(self):
        a = xp.decay_study(NoiseModel(flip_prob=0.1), [10, 20], 500, seed=4)
        b = xp.decay_study(NoiseModel(flip_prob=0.1), [10, 20], 500, seed=4)
        assert a == b


class TestQ1Grid:
    def test_shape_and_diagonal(self):
        cfg = BlackBoxConfig.from_labels([1])
        rows = xp.reproduce_q1(cfg, 10_000, seed=42)
        assert len(rows) == 18  # 3 states x 3 bases x 2 outcomes
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row.state, row.basis), []).append(row)
        deterministic_bases = {}
        for (state, basis), cell in by_cell.items():
            top = max(r.frequency for r in cell)
            if top == 1.0:
                deterministic_bases.setdefault(state, []).append(basis)
            else:
                assert abs(top - 0.5) < 0.02
        # one and only one definite basis per input, the matching one
        assert deterministic_bases == {"z+": ["z"], "x+": ["x"], "y+": ["y"]}

    def test_y1_diagonal_reads_function_bits(self):
        # f = (0, 1): z basis reads f(0)=0, x reads f(1)=1, y reads f(0)+f(1)=1
        rows = xp.reproduce_q1(BlackBoxConfig.from_labels([1]), 1000, seed=1)
        freq = {(r.state, r.basis, r.outcome_label): r.frequency for r in rows}
        assert freq[("z+", "z", "+")] == 1.0
        assert freq[("x+", "x", "-")] == 1.0
        assert freq[("y+", "y", "-")] == 1.0

    def test_noise_shifts_definite_cell(self):
        rows = xp.reproduce_q1(
            BlackBoxConfig.from_labels([0]), 20_000, seed=2,
            noise=NoiseModel(flip_prob=0.1),
        )
        freq = {(r.state, r.basis, r.outcome_label): r.frequency for r in rows}
        assert abs(freq[("z+", "z", "+")] - 0.9) < 0.02

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            xp.reproduce_q1(BlackBoxConfig.identity(2), 10, seed=0)


class TestQ2Grid:
    def test_patterns(self):
        rows = xp.reproduce_q2(BlackBoxConfig.from_labels([2, 2]), 10_000, seed=42)
        assert len(rows) == 12  # 3 bases x 4 outcomes
        cells = {}
        for row in rows:
            cells.setdefault(row.basis, []).append(row.frequency)
        assert sorted(cells) == ["b_D", "b_E", "b_F"]
        # entangled basis: a single certain outcome
        assert sorted(cells["b_E"], reverse=True)[0] == 1.0
        assert sum(f > 0 for f in cells["b_E"]) == 1
        # local z basis: two outcomes near 1/2, two exactly absent
        top_two = sorted(cells["b_F"], reverse=True)[:2]
        assert all(abs(f - 0.5) < 0.02 for f in top_two)
        assert sorted(cells["b_F"])[:2] == [0.0, 0.0]
        # mixed basis: all four near 1/4
        assert all(abs(f - 0.25) < 0.02 for f in cells["b_D"])

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            xp.reproduce_q2(BlackBoxConfig.identity(3), 10, seed=0)


class TestRenderers:
    def test_frequency_csv(self):
        rows = xp.reproduce_q1(BlackBoxConfig.from_labels([0]), 100, seed=0)
        text = xp.render_frequency_csv(rows, "q1-demo seed=0")
        lines = text.splitlines()
        assert lines[0] == "# q1-demo seed=0"
        assert lines[1] == "state,basis,outcome_label,count,frequency"
        assert len(lines) == 2 + 18

    def test_decay_tsv(self):
        rows = xp.decay_study(NoiseModel(flip_prob=0.1), [10, 20], 100, seed=0)
        text = xp.render_decay_tsv(rows, "decay seed=0")
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split("\t")[0] == "run_length"
        assert len(lines) == 2 + 2

    def test_identical_seeds_identical_bytes(self):
        cfg = BlackBoxConfig.from_labels([3])
        a = xp.render_frequency_csv(xp.reproduce_q1(cfg, 2000, seed=5), "x")
        b = xp.render_frequency_csv(xp.reproduce_q1(cfg, 2000, seed=5), "x")
        assert a == b
