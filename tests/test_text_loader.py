"""One reader for text: every axiom or tableau file the CLI reads becomes a
tableau through ``StabilizerTableau.from_text``, which builds its own class,
and ``check`` reads both truth values off one kernel scan."""
import itertools

import numpy as np
import pytest

from axiombox import cli, logic, oracle, pauli
from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng
from axiombox.logic import AxiomSet, Proposition
from axiombox.stabilizer import StabilizerTableau

GHZ_AXIOM_FILE = "-YYX\n-YXY\n-XYY\n"
GHZ_STATE_FILE = "+ZZI\n+IZZ\n-XXX\n"
BELL_AXIOM_FILE = "# Bell pair\n+ZZ\n\n-XX  # the second axiom\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def random_system(n, seed):
    """Seeded signed axioms for n qubits and the file lines that spell them."""
    pairs = stab.random_axioms(n, philox_rng(n, seed))
    return pairs, stab.prepare(pairs).to_text().splitlines()


@pytest.fixture
def from_text_calls(monkeypatch):
    """Records the class of every ``from_text`` call, AxiomSet's included."""
    calls = []
    original = StabilizerTableau.from_text.__func__

    def counted(cls, text):
        calls.append(cls)
        return original(cls, text)

    monkeypatch.setattr(StabilizerTableau, "from_text", classmethod(counted))
    return calls


class TestOneLoader:
    @pytest.mark.parametrize("argv", [
        ["prepare", "--axioms", "{f}"],
        ["blackbox", "--state", "{f}", "--config", "{cfg}"],
        ["check", "--axioms", "{f}", "--prop", "XXX"],
        ["measure", "--state", "{f}", "--obs", "XXI"],
        ["sample", "--state", "{f}", "--obs", "XXI,IXX", "--runs", "20"],
        ["enumerate", "--axioms", "{f}"],
    ])
    def test_each_file_read_is_one_from_text(self, tmp_path, capsys, from_text_calls, argv):
        f, cfg = tmp_path / "ghz.txt", tmp_path / "box.cfg"
        f.write_text(GHZ_STATE_FILE)
        cfg.write_text("y0\ny1\n1 0\n")
        code, out = run(capsys, *[a.format(f=f, cfg=cfg) for a in argv])
        assert code == 0 and out
        assert from_text_calls == [StabilizerTableau]

    def test_check_scans_once_and_prints_the_quantum_truth(self, tmp_path, capsys, monkeypatch):
        """Every proposition on the GHZ and Bell axiom files, N <= 3."""
        scans = []
        scan = stab._scan

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(stab, "_scan", counted)
        for name, text in [("ghz", GHZ_AXIOM_FILE), ("bell", BELL_AXIOM_FILE),
                           ("ghz-state", GHZ_STATE_FILE), ("one", "-Y\n")]:
            f = tmp_path / f"{name}.txt"
            f.write_text(text)
            axioms = StabilizerTableau.from_text(text)
            for letters in itertools.product("IXYZ", repeat=axioms.n_qubits):
                prop = "".join(letters)
                scans.clear()
                code, out = run(capsys, "check", "--axioms", str(f), "--prop", prop)
                assert code == 0 and len(scans) == 1
                quantum = logic.quantum_truth(Proposition.from_string(prop), axioms)
                if quantum is None:
                    assert out == "independent\n"
                else:
                    assert out.rstrip("\n").endswith(f", quantum={quantum}")

    @pytest.mark.parametrize("n", range(1, 17))
    def test_enumerate_default_system_is_one_z_per_qubit(self, capsys, monkeypatch, n):
        seen = []
        enumerate_propositions = logic.enumerate_propositions

        def recording(k, axioms):
            seen.append(axioms)
            return enumerate_propositions(k, axioms)

        monkeypatch.setattr(logic, "enumerate_propositions", recording)
        code, out = run(capsys, "enumerate", "--n", str(n))
        assert code == 0
        assert out == f"dependent: {2 ** n}, independent: {4 ** n - 2 ** n}\n"
        zs = ["I" * i + "Z" + "I" * (n - i - 1) for i in range(n)]
        assert seen == [AxiomSet.from_observables([pauli.parse_observable(z) for z in zs])]


class TestAxiomSetFromText:
    def test_builds_its_own_class(self):
        axioms = AxiomSet.from_text("+Z\n")
        assert type(axioms) is AxiomSet
        assert repr(axioms) == "AxiomSet(+Z)"
        assert axioms.parities == (0,)
        assert type(StabilizerTableau.from_text("+Z\n")) is StabilizerTableau

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("seed", [3, 41])
    def test_round_trip_and_from_observables(self, n, seed):
        _, lines = random_system(n, seed)
        axioms = AxiomSet.from_observables([pauli.parse_observable(s) for s in lines])
        parsed = AxiomSet.from_text("\n".join(lines))
        assert type(parsed) is AxiomSet
        assert parsed == axioms
        assert AxiomSet.from_text(axioms.to_text()) == axioms
        assert parsed.to_text() == "".join(s + "\n" for s in lines)


class TestStateFromAnyTableau:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_plain_tableau_equals_axiom_set(self, n):
        pairs, lines = random_system(n, 7)
        axioms = AxiomSet([v for v, _ in pairs], [int(s < 0) for _, s in pairs])
        want = oracle.state_from_axioms(axioms)
        for tableau in (stab.prepare(pairs), StabilizerTableau.from_text("\n".join(lines))):
            np.testing.assert_array_equal(oracle.state_from_axioms(tableau), want)
        np.testing.assert_array_equal(oracle.state_from_axioms(pairs), want)
