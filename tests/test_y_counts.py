"""Each generator's Y count, ``StabilizerTableau._ys``, against a recount.

The counts are derived from the generator masks: ``__init__`` counts them,
``apply_blackbox`` passes them on and ``_collapse`` recounts only the rows it
changes.  Seeded chains of forced measurements, random and definite, with
black boxes, text round trips and ``AxiomSet`` construction mixed in, must
leave every count equal to a recount of its mask after every step.
"""
import pytest

from axiombox import stabilizer as stab
from axiombox.blackbox import BlackBoxConfig
from axiombox.experiment import philox_rng
from axiombox.gf2 import BitVector
from axiombox.logic import AxiomSet
from axiombox.stabilizer import MeasurementKind, StabilizerTableau

from test_measure_kernel import next_observable


def recount(t):
    n = t._n
    return tuple((g & g >> n).bit_count() for g in t._gens)


def checked(t):
    assert t._ys == recount(t)
    t.check_invariants()
    return t


@pytest.mark.parametrize("n", [16, 64, 128])
def test_y_counts_follow_every_step(n):
    rng = philox_rng(n, 75)
    state = checked(stab.prepare(stab.random_axioms(n, rng)))
    kinds, history = [], []
    for step in range(48):
        if step % 8 == 3:
            labels = rng.integers(0, 4, size=n).tolist()
            state = checked(stab.apply_blackbox(state, BlackBoxConfig.from_labels(labels)))
        elif step % 8 == 5:
            state = checked(StabilizerTableau.from_text(state.to_text()))
        elif step % 8 == 7:
            vectors = [BitVector.from_mask(g, 2 * n) for g in state._gens]
            state = checked(AxiomSet(vectors, state._signs))
        else:
            obs = next_observable(rng, state, history)
            history.append(obs)
            result = stab.measure_forced(state, obs, 1 if step % 3 else -1)
            kinds.append(result.kind)
            state = checked(result.post_state)
    assert MeasurementKind.RANDOM in kinds and MeasurementKind.DETERMINISTIC in kinds


@pytest.mark.parametrize("n", [1, 5, 64])
def test_check_invariants_catches_stale_y_counts(n):
    t = stab.prepare(stab.random_axioms(n, philox_rng(n, 76)))
    ys = list(t._ys)
    ys[-1] += 1
    stale = StabilizerTableau._from_rows(n, t._gens, t._signs, t._destabs, ys)
    assert stale == t  # equality reads masks, signs and destabilizers only
    with pytest.raises(AssertionError, match="stale Y counts"):
        stale.check_invariants()
