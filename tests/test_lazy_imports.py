"""numpy and json load only when a command needs them.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy: ``import axiombox`` must load neither, the exact
subcommands and ``measure`` must not load numpy, and the names served by
``experiment`` resolve on first use.  ``measure`` draws from the CLI's
integer Philox, which must give ``experiment.philox_rng``'s stream.
"""
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import axiombox
from axiombox import cli
from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng
from axiombox.pauli import parse_observable

SRC = str(Path(axiombox.__file__).parents[1])
BELL_AXIOM_FILE = "+ZZ\n+XX\n"
GHZ_AXIOM_FILE = "-YYX\n-YXY\n-XYY\n"


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def run_code(code):
    done = python("-c", code)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture
def files(tmp_path):
    (tmp_path / "bell.axioms").write_text(BELL_AXIOM_FILE)
    (tmp_path / "ghz.axioms").write_text(GHZ_AXIOM_FILE)
    (tmp_path / "box.cfg").write_text("y2\ny1\n")
    return tmp_path


def numpy_after_main(argv):
    """Run ``cli.main(argv)`` in a fresh interpreter; return its exit code and
    whether numpy was loaded after it."""
    return run_code(
        "import json, sys; from axiombox import cli; "
        f"code = cli.main({argv!r}); "
        "print(json.dumps([code, 'numpy' in sys.modules]))"
    )


@pytest.mark.parametrize("module", ["axiombox", "axiombox.cli"])
def test_import_loads_no_numpy(module):
    code = f"import json, sys, {module}; print(json.dumps('numpy' in sys.modules))"
    assert run_code(code) is False


@pytest.mark.parametrize("module", ["axiombox", "axiombox.cli"])
def test_import_loads_neither_json_nor_numpy(module):
    # This code imports json itself, so only the modules the import adds count.
    code = (
        f"import sys; before = set(sys.modules); import {module}; "
        "added = sorted({'json', 'numpy'} & (set(sys.modules) - before)); "
        "import json; print(json.dumps(added))"
    )
    assert run_code(code) == []


EXACT_COMMANDS = {
    "prepare": ["prepare", "--axioms", "{dir}/bell.axioms"],
    "blackbox": ["blackbox", "--state", "{dir}/bell.axioms", "--config", "{dir}/box.cfg"],
    "check": ["check", "--axioms", "{dir}/ghz.axioms", "--prop", "XXX"],
    "enumerate": ["enumerate", "--n", "4"],
    "ghz-demo": ["ghz-demo", "--labels", "y1,y2,y3", "--json"],
}


@pytest.mark.parametrize("command", sorted(EXACT_COMMANDS))
def test_exact_subcommand_loads_no_numpy(files, command):
    out = files / "out.txt"
    argv = [a.format(dir=files) for a in EXACT_COMMANDS[command]] + ["--out", str(out)]
    assert numpy_after_main(argv) == [0, False]
    assert out.read_text()


def test_measure_loads_no_numpy(files):
    out = files / "out.txt"
    argv = ["measure", "--state", f"{files}/bell.axioms", "--obs", "ZI", "--out", str(out)]
    assert numpy_after_main(argv) == [0, False]
    assert out.read_text() in ("random +1\n", "random -1\n")


_TOP = (1 << 64) - 1
_SEEDS = random.Random(7)
PHILOX_SEEDS = [0, _TOP] + [_SEEDS.getrandbits(64) for _ in range(200)]


def test_integer_philox_draws_numpy_philox_stream():
    for seed in PHILOX_SEEDS:
        mine, numpys = cli._Philox(seed), philox_rng(seed)
        # 23 draws cross into a sixth block of four words.
        assert [mine.random() for _ in range(23)] == [numpys.random() for _ in range(23)]


@pytest.mark.parametrize("seed", [*range(64), _TOP])
def test_measure_prints_what_the_numpy_stream_gives(tmp_path, capsys, seed):
    path = tmp_path / "state.txt"
    path.write_text("+ZI\n+IZ\n")
    assert cli.main(["measure", "--state", str(path), "--obs", "+XI", "--seed", str(seed)]) == 0
    state = stab.StabilizerTableau.from_text("+ZI\n+IZ\n")
    result = stab.measure(state, parse_observable("+XI"), rng=philox_rng(seed))
    assert result.kind is stab.MeasurementKind.RANDOM
    assert capsys.readouterr().out == f"random {result.outcome:+d}\n"


def test_every_public_name_resolves_and_is_listed():
    code = (
        "import json, axiombox; "
        "missing = [n for n in axiombox.__all__ if getattr(axiombox, n, None) is None]; "
        "unlisted = sorted(set(axiombox.__all__) - set(dir(axiombox))); "
        "print(json.dumps([missing, unlisted]))"
    )
    assert run_code(code) == [[], []]


def test_only_listed_names_are_served_lazily():
    assert axiombox._LAZY <= set(axiombox.__all__)


def test_lazy_names_are_listed_before_first_use():
    code = (
        "import json, sys, axiombox; "
        "listed = {'sample', 'philox_rng', 'NoiseModel'} <= set(dir(axiombox)); "
        "print(json.dumps([listed, 'numpy' in sys.modules]))"
    )
    assert run_code(code) == [True, False]


def test_star_import_binds_every_name():
    code = (
        "import json, axiombox; from axiombox import *; "
        "print(json.dumps([n for n in axiombox.__all__ if n not in globals()]))"
    )
    assert run_code(code) == []


def test_resolved_name_is_the_experiment_object_and_is_kept():
    code = (
        "import json, axiombox; from axiombox import experiment; "
        "first = axiombox.sample; "
        "print(json.dumps([first is experiment.sample, 'sample' in vars(axiombox)]))"
    )
    assert run_code(code) == [True, True]


def test_unknown_attribute_raises_attribute_error():
    code = (
        "import json, axiombox\n"
        "try:\n    axiombox.no_such_name\nexcept AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert run_code(code) == "module 'axiombox' has no attribute 'no_such_name'"


@pytest.mark.parametrize(
    "axioms, prop",
    [(GHZ_AXIOM_FILE, "XXX"), (GHZ_AXIOM_FILE, "ZII"), ("+ZZ\n+XZ\n", "XX")],
    ids=["dependent", "independent", "anticommuting"],
)
def test_python_dash_m_matches_main(tmp_path, capsys, axioms, prop):
    path = tmp_path / "f.axioms"
    path.write_text(axioms)
    argv = ["check", "--axioms", str(path), "--prop", prop]
    code = cli.main(argv)
    captured = capsys.readouterr()
    done = python("-m", "axiombox", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
