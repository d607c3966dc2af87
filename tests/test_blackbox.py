"""Boolean-function configs and the parity arithmetic of propositions."""
import itertools

import numpy as np
import pytest

from axiombox import blackbox as bb
from axiombox import pauli
from axiombox.blackbox import BlackBoxConfig, BooleanFunction
from axiombox.gf2 import BitVector

import gf2_reference as ref


class TestBooleanFunction:
    def test_label_convention(self):
        # label = 2*f(0) + f(1)
        assert BooleanFunction(0, 0).label == 0
        assert BooleanFunction(0, 1).label == 1
        assert BooleanFunction(1, 0).label == 2
        assert BooleanFunction(1, 1).label == 3

    def test_from_label_roundtrip(self):
        for k in range(4):
            assert BooleanFunction.from_label(k).label == k
        with pytest.raises(ValueError):
            BooleanFunction.from_label(4)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BooleanFunction(2, 0)

    @pytest.mark.parametrize("values", [(0.0, 1), (1, 1.0), (0.5, 0), ("1", 0), (None, 0)])
    def test_rejects_non_integer_values(self, values):
        with pytest.raises(TypeError):
            BooleanFunction(*values)

    @pytest.mark.parametrize("label", [1.0, "2", None])
    def test_from_label_rejects_non_integers(self, label):
        with pytest.raises(TypeError):
            BooleanFunction.from_label(label)

    def test_integer_like_values_are_stored_as_int(self):
        for f in (
            BooleanFunction(True, False),
            BooleanFunction(np.int64(1), np.uint8(0)),
            BooleanFunction.from_label(np.int8(2)),
            BooleanFunction.from_label(True + True),
        ):
            assert (f.f0, f.f1) == (1, 0)
            assert type(f.f0) is int and type(f.f1) is int
            assert str(f) == "y2" and f == BooleanFunction(1, 0)
        assert str(BlackBoxConfig((BooleanFunction(True, True),))) == "y3"


class TestBlackBoxConfig:
    def test_bit_vectors(self):
        cfg = BlackBoxConfig.from_labels([2, 1])  # (1,0) and (0,1)
        assert cfg.f0_vector == BitVector("10")
        assert cfg.f1_vector == BitVector("01")

    def test_needs_a_function(self):
        with pytest.raises(ValueError):
            BlackBoxConfig(())

    def test_rejects_entries_that_are_not_functions(self):
        with pytest.raises(TypeError, match="functions must be BooleanFunction instances"):
            BlackBoxConfig((1, 2))

    def test_all_configs_count(self):
        assert len(list(BlackBoxConfig.all_configs(2))) == 16


class TestPropositionTruth:
    def test_f0_proposition(self):
        # J = (0|1) asks about f(0); true for f = (0, 1).
        cfg = BlackBoxConfig((BooleanFunction(0, 1),))
        assert bb.proposition_truth(BitVector("01"), cfg) == 0

    def test_constant_function_proposition(self):
        # J = (1|1) asks f(0)+f(1); the constant function makes it true.
        cfg = BlackBoxConfig((BooleanFunction(0, 0),))
        assert bb.proposition_truth(BitVector("11"), cfg) == 0

    def test_three_qubit_sum_of_f1(self):
        # J = (111|000) asks f_1(1)+f_2(1)+f_3(1).
        cfg = BlackBoxConfig(
            (BooleanFunction(0, 1), BooleanFunction(0, 0), BooleanFunction(1, 0))
        )
        assert bb.proposition_truth(BitVector("111000"), cfg) == 1

    def test_size_mismatch(self):
        cfg = BlackBoxConfig.identity(2)
        with pytest.raises(ValueError):
            bb.proposition_truth(BitVector("01"), cfg)

    @pytest.mark.parametrize("n", [1, 2])
    def test_linearity(self, n):
        for cfg in BlackBoxConfig.all_configs(n):
            for a in range(4 ** n):
                va = BitVector.from_mask(a, 2 * n)
                ta = bb.proposition_truth(va, cfg)
                for b in range(4 ** n):
                    vb = BitVector.from_mask(b, 2 * n)
                    assert bb.proposition_truth(va ^ vb, cfg) == (
                        ta ^ bb.proposition_truth(vb, cfg)
                    )


class TestAxiomTruths:
    GHZ_AXIOMS = [BitVector("111110"), BitVector("111101"), BitVector("111011")]

    def test_identity_config(self):
        cfg = BlackBoxConfig.identity(3)
        assert bb.axiom_truths(self.GHZ_AXIOMS, cfg) == [0, 0, 0]

    def test_single_qubit(self):
        cfg = BlackBoxConfig((BooleanFunction(1, 0),))
        assert bb.axiom_truths([BitVector("01")], cfg) == [1]

    def test_ghz_axioms_under_y1_boxes(self):
        cfg = BlackBoxConfig.from_labels([1, 1, 1])  # every f = (0, 1)
        assert bb.axiom_truths(self.GHZ_AXIOMS, cfg) == [1, 1, 1]

    def test_dependent_truth_is_parity_combination(self):
        basis = [v.mask for v in self.GHZ_AXIOMS]
        for cfg in itertools.islice(BlackBoxConfig.all_configs(3), 0, 64, 5):
            truths = bb.axiom_truths(self.GHZ_AXIOMS, cfg)
            for mask in range(64):
                v = BitVector.from_mask(mask, 6)
                coeffs = ref.span_coefficients(mask, basis)
                if coeffs is None:
                    continue
                expected = 0
                for k, t in enumerate(truths):
                    expected ^= coeffs >> k & t
                assert bb.proposition_truth(v, cfg) == expected


class TestConsistencyWithConjugation:
    @pytest.mark.parametrize("n", [1, 2])
    def test_sign_flip_equals_truth_parity(self, n):
        for cfg in BlackBoxConfig.all_configs(n):
            for mask in range(4 ** n):
                v = BitVector.from_mask(mask, 2 * n)
                obs = pauli.from_proposition(v)
                flipped = pauli.conjugate_by_blackbox(obs, cfg)
                expected_sign = -1 if bb.proposition_truth(v, cfg) else 1
                assert flipped.sign == expected_sign


class TestConfigFiles:
    def test_parse_pair_form(self):
        cfg = bb.parse_config("0 1\n1 0\n")
        assert cfg == BlackBoxConfig.from_labels([1, 2])

    def test_parse_label_form_with_comments(self):
        cfg = bb.parse_config("# two boxes\ny2\n\ny3  # second\n")
        assert cfg == BlackBoxConfig.from_labels([2, 3])

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            bb.parse_config("0 1 1\n")
        with pytest.raises(ValueError):
            bb.parse_config("y7\n")

    @pytest.mark.parametrize("line", ["y0", "Y0", "  y0 ", "0 0", " 0\t0 "])
    def test_one_grammar_accepts(self, line):
        assert bb._parse_function(line) == BooleanFunction(0, 0)
        assert bb.parse_config(line + "\n") == BlackBoxConfig.from_labels([0])

    @pytest.mark.parametrize(
        "line",
        ["yy3", "3", "y+2", "y 2", "y02", "y-0", "y4", "y\u0663", "\u0661 \u0660",
         "+1 0", "01", "0 1 1", "0", "z1", ""],
    )
    def test_one_grammar_refuses(self, line):
        with pytest.raises(ValueError, match="bad function"):
            bb._parse_function(line)

    def test_config_errors_keep_line_numbers(self):
        with pytest.raises(ValueError, match="line 4"):
            bb.parse_config("# boxes\ny1\n\nyy3  # a typo\n")
