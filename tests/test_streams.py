"""Pinned random streams, destabilizers and seeded CLI outputs.

The golden values below were recorded before the exact core was folded onto
one elimination per axiom system; they must never change unless a change of
stream is intended and announced.
"""
import hashlib
import io
from contextlib import redirect_stdout

import pytest

from axiombox import cli
from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng
from axiombox.gf2 import BitMatrix, BitVector, in_span


def swapped_transpose(vectors):
    """Frozen reference for the transposed pairing matrix: the x/z halves of
    each vector exchanged, then the matrix transposed by a double loop."""
    n = len(vectors[0]) // 2
    swapped = [(v.mask & ((1 << n) - 1)) << n | v.mask >> n for v in vectors]
    cols = []
    for j in range(2 * n):
        mask = 0
        for i, rm in enumerate(swapped):
            mask |= ((rm >> j) & 1) << i
        cols.append(BitVector.from_mask(mask, len(vectors)))
    return BitMatrix(cols, num_cols=len(vectors))


def masks(pairs):
    return [(v.mask, s) for v, s in pairs]


def digest(pairs):
    """sha256 of one "mask-in-hex,sign" line per (mask, sign) pair."""
    text = "".join(f"{mask:x},{sign}\n" for mask, sign in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def cli_output(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


class TestPinnedStreams:
    def test_random_axioms(self):
        assert masks(stab.random_axioms(4, philox_rng(2024))) == [
            (186, 1), (53, -1), (97, 1), (233, 1),
        ]
        assert masks(stab.random_axioms(7, philox_rng(3, 9))) == [
            (2080, -1), (4923, 1), (14000, -1), (941, -1),
            (11496, -1), (3621, -1), (2564, 1),
        ]

    def test_random_commuting_observables(self):
        observables = stab.random_commuting_observables(4, 5, philox_rng(2024))
        assert [(o.vector.mask, o.sign) for o in observables] == [
            (186, -1), (53, 1), (97, 1), (233, 1), (50, 1),
        ]

    def test_large_n_digests(self):
        assert digest(masks(stab.random_axioms(64, philox_rng(11)))) == (
            "46cb16edae0042c99ea3a8405ebc7deacd5c3c57f66f2f3edcd49e20e45a474b"
        )
        observables = stab.random_commuting_observables(16, 50, philox_rng(12))
        assert digest((o.vector.mask, o.sign) for o in observables) == (
            "2ab8db9e50a3557b1978ac585354b6f34771db001c417d05a126dcb1f726913f"
        )

    def test_prepared_tableau(self):
        tableau = stab.prepare(stab.random_axioms(4, philox_rng(2024)))
        assert tableau.to_text() == "+ZYIY\n-YZXI\n+XZZI\n+XZZY\n"
        assert [d.mask for d in tableau.destabilizers] == [21, 20, 25, 29]

    @pytest.mark.parametrize("n, want", [
        (16, "07bf8c184843ced60d290c1a02518037d57085aa51d286238b3d13082f80e1fe"),
        (64, "53e65ed0ff15d4787afc05f64e73a6a4ff5c17099bc40a14644d1a833fc6695c"),
        (128, "eeeed5dab3ae57696bd8e0c2666f95984e479ca8b4efcbbabda5fd51fe6d55bc"),
        (256, "8b45031ecb71c6c974e97418cec2619dd0c1eede34dc85f8d73f5d5ada810634"),
    ])
    def test_large_n_destabilizer_digests(self, n, want):
        """sha256 of one hex destabilizer mask per line, recorded while each
        destabilizer was still solved for by a reduction of its unit vector."""
        tableau = stab.prepare(stab.random_axioms(n, philox_rng(n, 31)))
        text = "".join(f"{d.mask:x}\n" for d in tableau.destabilizers)
        assert hashlib.sha256(text.encode()).hexdigest() == want

    def test_q1_demo_output(self):
        out = cli_output("q1-demo", "--labels", "y1", "--runs", "200",
                         "--seed", "5", "--noise", "0.1")
        counts = [int(line.split(",")[3]) for line in out.splitlines()[2:]]
        assert out.splitlines()[0] == "# q1-demo config=y1 runs=200 seed=5 flip_prob=0.1"
        assert counts == [
            178, 22, 92, 108, 101, 99,
            97, 103, 23, 177, 90, 110,
            115, 85, 100, 100, 11, 189,
        ]

    def test_q2_demo_output(self):
        out = cli_output("q2-demo", "--labels", "y2,y1", "--runs", "200",
                         "--seed", "5", "--noise", "0.1")
        counts = [int(line.split(",")[3]) for line in out.splitlines()[2:]]
        assert out.splitlines()[0] == "# q2-demo config=y2,y1 runs=200 seed=5 flip_prob=0.1"
        assert counts == [
            4, 16, 20, 160,
            16, 84, 86, 14,
            54, 40, 54, 52,
        ]

    def test_sample_output(self, tmp_path):
        state = tmp_path / "ghz.txt"
        state.write_text("+ZZI\n+IZZ\n-XXX\n")
        out = cli_output("sample", "--state", str(state), "--obs", "XXI,IXX,XXX",
                         "--runs", "300", "--seed", "9", "--noise", "0.05")
        counts = [int(line.split(",")[3]) for line in out.splitlines()[2:]]
        assert out.splitlines()[0] == (
            "# sample state=ghz.txt obs=XXI,IXX,XXX runs=300 seed=9 flip_prob=0.05"
        )
        assert counts == [3, 85, 6, 67, 1, 65, 1, 72]

    @pytest.mark.parametrize("n, want", [
        (1, "dependent: 2, independent: 2\n"),
        (2, "dependent: 4, independent: 12\n"),
        (3, "dependent: 8, independent: 56\n"),
        (4, "dependent: 16, independent: 240\n"),
        (5, "dependent: 32, independent: 992\n"),
        (6, "dependent: 64, independent: 4032\n"),
        (7, "dependent: 128, independent: 16256\n"),
        (8, "dependent: 256, independent: 65280\n"),
        (9, "dependent: 512, independent: 261632\n"),
        (10, "dependent: 1024, independent: 1047552\n"),
        (11, "dependent: 2048, independent: 4192256\n"),
        (12, "dependent: 4096, independent: 16773120\n"),
        (13, "dependent: 8192, independent: 67100672\n"),
        (14, "dependent: 16384, independent: 268419072\n"),
        (15, "dependent: 32768, independent: 1073709056\n"),
        (16, "dependent: 65536, independent: 4294901760\n"),
    ])
    def test_enumerate_output(self, n, want):
        assert cli_output("enumerate", "--n", str(n)) == want

    @pytest.mark.parametrize("name, text, want", [
        ("ghz", "-YYX\n-YXY\n-XYY\n", "dependent: 8, independent: 56\n"),
        ("bell", "+ZZ\n+XX\n", "dependent: 4, independent: 12\n"),
    ])
    def test_enumerate_axioms_output(self, tmp_path, name, text, want):
        axioms = tmp_path / f"{name}.tab"
        axioms.write_text(text)
        assert cli_output("enumerate", "--axioms", str(axioms)) == want

    def test_oracle_compare_output(self):
        out = cli_output("oracle-compare", "--n", "3", "--trials", "10", "--seed", "7")
        assert out == "trials: 10\nmax_deviation: 1.110e-16\nverdict: agree\n"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 32, 64])
def test_destabilizers_match_per_unit_vector_solve(n):
    """Each d_p equals the solution of <d, g_q> = delta_pq that a separate
    ``in_span`` of e_p against the transposed pairing matrix gives."""
    axioms = stab.random_axioms(n, philox_rng(n, 17))
    columns = swapped_transpose([v for v, _ in axioms])
    tableau = stab.prepare(axioms)
    for p, d in enumerate(tableau.destabilizers):
        assert d == in_span(BitVector.unit(p, n), columns)
    tableau.check_invariants()


def test_prepare_reads_destabilizers_off_one_elimination(monkeypatch):
    """``prepare`` eliminates once and reduces nothing afterwards."""
    def no_reduce(*args):
        raise AssertionError("reduced after the elimination")

    calls = []
    echelon = stab._echelon
    monkeypatch.setattr(stab, "_echelon", lambda rows: calls.append(rows) or echelon(rows))
    monkeypatch.setattr("axiombox.gf2._reduce", no_reduce)
    monkeypatch.setattr("axiombox.stabilizer._reduce", no_reduce, raising=False)
    tableau = stab.prepare(stab.random_axioms(32, philox_rng(32, 31)))
    assert len(calls) == 1
    monkeypatch.undo()
    tableau.check_invariants()
