"""Property tests over malformed text: the Pauli parser either returns or
raises ValueError, and the CLI ends every run with exit 0, 1 or 2 (1 with a
one-line ``error:`` message), never with another exception."""
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiombox import cli, pauli

# Characters the parsers give meaning to, plus a few they must reject.
PAULI_CHARS = "IXYZixyz+- ,y0123#\t\n.ß"
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


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(ARGV_TEMPLATES)), tok=TOKEN_LIST)
def test_main_exits_cleanly_on_malformed_tokens(bell, command, tok):
    argv = [a.format(bell=bell, tok=tok) for a in ARGV_TEMPLATES[command]]
    code, err = run_main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
