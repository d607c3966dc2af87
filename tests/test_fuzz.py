"""Property tests over malformed text: the Pauli parser either returns or
raises ValueError, and the CLI ends every run with exit 0, 1 or 2 (1 with a
one-line ``error:`` message), never with another exception, whatever its
arguments or the axiom, tableau and config files it reads.  Also: a prepared
tableau survives its own text format."""
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiombox import cli, pauli
from axiombox import stabilizer as stab
from axiombox.experiment import _RUN_CAP, philox_rng

# Characters the parsers give meaning to, plus a few they must reject.
PAULI_CHARS = "IXYZixyz+- ,y0123#\t\n.ßı"
TOKEN = st.text(alphabet=PAULI_CHARS, max_size=8) | st.text(max_size=6)
TOKEN_LIST = st.lists(TOKEN, min_size=1, max_size=4).map(",".join)


@given(st.text(alphabet=PAULI_CHARS, max_size=12) | st.text(max_size=12))
def test_parse_observable_returns_or_raises_value_error(text):
    try:
        observable = pauli.parse_observable(text)
    except ValueError:
        return
    assert observable.n_qubits >= 1
    assert pauli.parse_observable(pauli.format_observable(observable)) == observable


@pytest.fixture(scope="module")
def bell(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "bell.tab"
    path.write_text("+ZZ\n+XX\n")
    return str(path)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return 2, err.getvalue()
    return code, err.getvalue()


ARGV_TEMPLATES = {
    "sample": ["sample", "--state", "{bell}", "--obs={tok}", "--runs", "20"],
    "measure": ["measure", "--state", "{bell}", "--obs={tok}"],
    "check": ["check", "--axioms", "{bell}", "--prop={tok}"],
    "q2-demo": ["q2-demo", "--labels={tok}", "--runs", "20"],
    "ghz-demo": ["ghz-demo", "--labels={tok}"],
    "decay-study": ["decay-study", "--lengths={tok}", "--trials", "10"],
}


def assert_clean_exit(argv):
    code, err = run_main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(ARGV_TEMPLATES)), tok=TOKEN_LIST)
def test_main_exits_cleanly_on_malformed_tokens(bell, command, tok):
    assert_clean_exit([a.format(bell=bell, tok=tok) for a in ARGV_TEMPLATES[command]])


def sizes(small, large):
    """Integers at most ``small`` (cheap when valid) or at least ``large``
    (above the cap), as text, or any token."""
    numbers = st.integers(max_value=small) | st.integers(min_value=large)
    return numbers.map(str) | TOKEN


# Size options: every value in range that the strategy draws is cheap to run;
# the slow ones in range (oracle-compare at n = 9 to 12, a million runs) are
# valid input, not malformed.
SIZE_TEMPLATES = {
    "sample --runs": (["sample", "--state", "{bell}", "--obs", "ZI,IZ", "--runs={tok}"],
                      sizes(50, _RUN_CAP + 1)),
    "q1-demo --runs": (["q1-demo", "--runs={tok}"], sizes(50, _RUN_CAP + 1)),
    "decay-study --trials": (["decay-study", "--trials={tok}", "--lengths", "10"],
                             sizes(50, _RUN_CAP + 1)),
    "oracle-compare --n": (["oracle-compare", "--n={tok}", "--trials", "1"], sizes(8, 13)),
    "oracle-compare --trials": (["oracle-compare", "--n", "1", "--trials={tok}"],
                                sizes(50, _RUN_CAP + 1)),
    "enumerate --n": (["enumerate", "--n={tok}"], sizes(8, 9)),
    "sample --obs": (["sample", "--state", "{bell}", "--obs={tok}", "--runs", "10"],
                     (st.integers(1, 4) | st.integers(20, 60))
                     .map(lambda m: ",".join(["ZI"] * m))),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), option=st.sampled_from(sorted(SIZE_TEMPLATES)))
def test_main_exits_cleanly_on_any_size(bell, data, option):
    template, values = SIZE_TEMPLATES[option]
    tok = data.draw(values)
    assert_clean_exit([a.format(bell=bell, tok=tok) for a in template])


# Characters the axiom, tableau and config parsers give meaning to.
FILE_CHARS = "IXYZixyz+-y01234 #\t\n\r"
FILE_BODY = st.lists(
    st.text(alphabet=FILE_CHARS, max_size=10) | st.text(max_size=6), max_size=6
).map("\n".join)
FILE_TEMPLATES = {
    "prepare --axioms": ["prepare", "--axioms", "{body}"],
    "check --axioms": ["check", "--axioms", "{body}", "--prop", "XZ"],
    "blackbox --state": ["blackbox", "--state", "{body}", "--config", "{box}"],
    "blackbox --config": ["blackbox", "--state", "{bell}", "--config", "{body}"],
}


@pytest.fixture(scope="module")
def files(tmp_path_factory, bell):
    folder = tmp_path_factory.mktemp("files")
    box = folder / "box.cfg"
    box.write_text("y2\ny1\n")
    return {"bell": bell, "box": str(box), "body": str(folder / "body.txt")}


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(FILE_TEMPLATES)), body=FILE_BODY)
def test_main_exits_cleanly_on_malformed_files(files, command, body):
    with open(files["body"], "w", encoding="utf-8", newline="") as handle:
        handle.write(body)
    assert_clean_exit([a.format(**files) for a in FILE_TEMPLATES[command]])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 64 - 1))
def test_prepared_tableau_text_roundtrip(n, seed):
    tableau = stab.prepare(stab.random_axioms(n, philox_rng(seed)))
    assert stab.StabilizerTableau.from_text(tableau.to_text()) == tableau
