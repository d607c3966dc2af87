"""Stabilizer encoding of finite Boolean-function axiom systems.

Black boxes write the values of N single-argument Boolean functions onto N
qubits; Pauli-group measurements then test parity propositions about those
values.  A proposition is logically dependent on the encoded axioms exactly
when its observable commutes with every stabilizer generator, in which case
the outcome is definite; otherwise the outcome is uniformly random.  This
package carries the exact tableau machinery for that correspondence, a dense
brute-force oracle to check it against, and a seeded Monte-Carlo harness for
the finite-statistics experiments.

The exact core is integer-only, so ``import axiombox`` loads no numpy: the
names re-exported from ``experiment`` import it when first read, and
``oracle``, which is not re-exported, only when it is imported itself.
"""
import importlib

from .blackbox import (
    BlackBoxConfig,
    BooleanFunction,
    axiom_truths,
    parse_config,
    proposition_truth,
)
from .gf2 import BitVector
from .logic import (
    AxiomSet,
    DependenceReport,
    GhzReport,
    Proposition,
    classical_truth,
    classify,
    enumerate_propositions,
    ghz_report,
    quantum_truth,
)
from .pauli import (
    PauliOperator,
    SignedObservable,
    commutes,
    conjugate_by_blackbox,
    format_observable,
    from_proposition,
    multiply,
    observable_product,
    parse_observable,
)
from .stabilizer import (
    MeasurementKind,
    MeasurementResult,
    OutcomeDistribution,
    StabilizerTableau,
    apply_blackbox,
    joint_distribution,
    measure,
    measure_forced,
    prepare,
    random_axioms,
    random_commuting_observables,
)
__version__ = "0.1.0"

__all__ = [
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

# Names served by ``experiment``, which imports numpy: resolved on first
# access (PEP 562) and then kept in the module globals.
_LAZY = frozenset({
    "Decision",
    "NoiseModel",
    "RunRecord",
    "Verdict",
    "classify_record",
    "decay_study",
    "philox_rng",
    "sample",
})


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(".experiment", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _LAZY)
