"""The public names and constructors that ``perfbench`` builds its inputs
with and rebinds while tracing.  A refactor of the core must keep them, or
the benchmark breaks before it measures anything."""
import axiombox
from axiombox import gf2
from axiombox.blackbox import BlackBoxConfig
from axiombox.gf2 import BitVector
from axiombox.pauli import PauliOperator, SignedObservable

PUBLIC_NAMES = [
    "AxiomSet",
    "BitVector",
    "BlackBoxConfig",
    "BooleanFunction",
    "Decision",
    "DependenceReport",
    "GhzReport",
    "MeasurementKind",
    "MeasurementResult",
    "NoiseModel",
    "OutcomeDistribution",
    "PauliOperator",
    "Proposition",
    "RunRecord",
    "SignedObservable",
    "StabilizerTableau",
    "Verdict",
    "apply_blackbox",
    "axiom_truths",
    "classical_truth",
    "classify",
    "classify_record",
    "commutes",
    "conjugate_by_blackbox",
    "decay_study",
    "enumerate_propositions",
    "format_observable",
    "from_proposition",
    "ghz_report",
    "joint_distribution",
    "measure",
    "measure_forced",
    "multiply",
    "observable_product",
    "parse_config",
    "parse_observable",
    "philox_rng",
    "prepare",
    "proposition_truth",
    "quantum_truth",
    "random_axioms",
    "random_commuting_observables",
    "sample",
]


def test_public_names_are_pinned():
    assert axiombox.__all__ == PUBLIC_NAMES
    assert all(hasattr(axiombox, name) for name in PUBLIC_NAMES)


def test_benchmark_self_test_calls_into_gf2():
    # perfbench/tests/test_perfbench.py checks its generated axioms with these
    # three calls; the package namespace no longer re-exports them.
    n = 3
    vectors = [gf2.BitVector.from_mask(m, 2 * n) for m in (0b011000, 0b110000, 0b000111)]
    for p in range(n):  # ZZI, IZZ, XXX
        for q in range(p + 1, n):
            assert gf2.symplectic_product(vectors[p], vectors[q]) == 0
    assert gf2.symplectic_product(vectors[0], gf2.BitVector.from_mask(0b001, 2 * n)) == 1
    assert gf2.rank(gf2.BitMatrix(vectors, num_cols=2 * n)) == n
    assert gf2.rank(gf2.BitMatrix(vectors[:2] * 2, num_cols=2 * n)) == 2


def test_benchmark_inputs_build_from_bit_vectors():
    # perfbench/workloads.py: x = 0b011 (qubits 1, 2), z = 0b110 (qubits 2, 3).
    x, z = BitVector.from_mask(0b011, 3), BitVector.from_mask(0b110, 3)
    base = PauliOperator(x, z, (0b011 & 0b110).bit_count() % 4)
    assert (base.x, base.z, base.phase) == (x, z, 1)
    assert str(SignedObservable(base, -1)) == "-XYZ"


def test_traced_properties_are_class_properties():
    # perfbench/spans.py rebinds these two properties while tracing.
    for name in ("f0_vector", "f1_vector"):
        assert isinstance(BlackBoxConfig.__dict__[name], property)
    cfg = BlackBoxConfig.from_labels([2, 1])
    assert (cfg.f0_vector, cfg.f1_vector) == (BitVector("10"), BitVector("01"))
