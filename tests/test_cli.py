"""Subcommand behavior, exit codes, file round-trips, reproducibility."""
import argparse
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import axiombox
from axiombox import cli, oracle, pauli
from axiombox import stabilizer as stab

GHZ_AXIOM_FILE = "-YYX\n-YXY\n-XYY\n"
BELL_AXIOM_FILE = "+ZZ\n+XX\n"
SRC = str(Path(axiombox.__file__).parents[1])


# Each (subcommand, file option) pair, the option's file named by "{bad}".
FILE_OPTIONS = [
    (["prepare", "--axioms", "{bad}"], "--axioms"),
    (["blackbox", "--state", "{bad}", "--config", "{cfg}"], "--state"),
    (["blackbox", "--state", "{bell}", "--config", "{bad}"], "--config"),
    (["check", "--axioms", "{bad}", "--prop", "ZZ"], "--axioms"),
    (["measure", "--state", "{bad}", "--obs", "ZI"], "--state"),
    (["sample", "--state", "{bad}", "--obs", "ZI"], "--state"),
    (["enumerate", "--axioms", "{bad}"], "--axioms"),
    (["ghz-demo", "--config", "{bad}"], "--config"),
    (["q1-demo", "--config", "{bad}"], "--config"),
    (["q2-demo", "--config", "{bad}"], "--config"),
]

# One argument list that parses for each subcommand.
EVERY_SUBCOMMAND = [
    ["prepare", "--axioms", "a"],
    ["blackbox", "--state", "s", "--config", "c"],
    ["check", "--axioms", "a", "--prop", "ZZ"],
    ["measure", "--state", "s", "--obs", "ZI"],
    ["sample", "--state", "s", "--obs", "ZI"],
    ["enumerate", "--n", "3"],
    ["ghz-demo"],
    ["q1-demo"],
    ["q2-demo"],
    ["oracle-compare", "--n", "12", "--trials", "20"],
    ["decay-study"],
]


# The options each subcommand takes, --help aside.
OPTIONS = {
    "prepare": {"--axioms", "--seed", "--out"},
    "blackbox": {"--state", "--config", "--seed", "--out"},
    "check": {"--axioms", "--prop", "--seed", "--out"},
    "measure": {"--state", "--obs", "--seed", "--out"},
    "sample": {"--state", "--obs", "--runs", "--noise", "--seed", "--out"},
    "enumerate": {"--n", "--axioms", "--seed", "--out"},
    "ghz-demo": {"--config", "--labels", "--json", "--seed", "--out"},
    "q1-demo": {"--config", "--labels", "--runs", "--noise", "--seed", "--out"},
    "q2-demo": {"--config", "--labels", "--runs", "--noise", "--seed", "--out"},
    "oracle-compare": {"--n", "--trials", "--seed", "--out"},
    "decay-study": {"--threshold", "--lengths", "--trials", "--noise", "--seed", "--out"},
}

# --runs and --noise on each subcommand that does not read them: 15 pairs.
UNREAD_OPTIONS = [
    (argv, option)
    for option in ("--runs", "--noise")
    for argv in EVERY_SUBCOMMAND
    if option not in OPTIONS[argv[0]]
]

BOM = b"\xef\xbb\xbf"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["check", "--prop", "XXX"])
        assert excinfo.value.code == 2

    def test_domain_error_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.axioms"
        bad.write_text("+ZZ\n+XZ\n")  # anticommuting pair
        code, _, err = run(capsys, "check", "--axioms", str(bad), "--prop", "XX")
        assert code == 1
        assert "not co-measurable" in err

    def test_missing_file_is_exit_one(self, capsys):
        code, _, err = run(capsys, "check", "--axioms", "/nonexistent", "--prop", "XX")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--state", "{bell}", "--obs", "ZI,"],
            ["sample", "--state", "{bell}", "--obs", ",ZI"],
            ["measure", "--state", "{bell}", "--obs", ""],
            ["check", "--axioms", "{bell}", "--prop", ""],
        ],
    )
    def test_empty_pauli_token_is_exit_one(self, tmp_path, capsys, argv):
        bell = tmp_path / "bell.tab"
        bell.write_text(BELL_AXIOM_FILE)
        code, out, err = run(capsys, *[a.format(bell=bell) for a in argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: empty Pauli string") and err.count("\n") == 1

    @pytest.mark.parametrize("prop", ["-ZZ", "+ZZ"])
    def test_signed_proposition_is_exit_one(self, tmp_path, capsys, prop):
        bell = tmp_path / "bell.tab"
        bell.write_text(BELL_AXIOM_FILE)
        code, out, err = run(capsys, "check", "--axioms", str(bell), f"--prop={prop}")
        assert code == 1
        assert out == ""
        assert err == f"error: a proposition takes unsigned Pauli letters, got '{prop}'\n"

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_is_exit_one(self, capsys, seed):
        # Checked before the work: the files the arguments name do not exist.
        for argv in EVERY_SUBCOMMAND:
            code, out, err = run(capsys, *argv, "--seed", seed)
            assert code == 1, argv
            assert out == ""
            assert err.startswith("error: seed ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle-compare", "--n", "13", "--trials", "1"], "--n must lie in [1, 12], got 13"),
            (["oracle-compare", "--n", "40", "--trials", "1"], "--n must lie in [1, 12], got 40"),
            (["oracle-compare", "--n", "0"], "--n must lie in [1, 12], got 0"),
            (["enumerate", "--n", "17"], "--n must lie in [1, 16], got 17"),
            (["enumerate", "--n", "1000000000"], "--n must lie in [1, 16], got 1000000000"),
            (["q1-demo", "--runs", "10000000000000"],
             "--runs must lie in [1, 1000000], got 10000000000000"),
            (["sample", "--state", "{bell}", "--obs", "ZI", "--runs", "1000001"],
             "--runs must lie in [1, 1000000], got 1000001"),
            (["decay-study", "--trials", "10000000000000"],
             "--trials must lie in [1, 1000000], got 10000000000000"),
            (["decay-study", "--trials", "0"], "--trials must lie in [1, 1000000], got 0"),
            (["oracle-compare", "--n", "1", "--trials", "0"],
             "--trials must lie in [1, 1000000], got 0"),
            (["oracle-compare", "--n", "1", "--trials", "-3"],
             "--trials must lie in [1, 1000000], got -3"),
            (["oracle-compare", "--n", "1", "--trials", "1000001"],
             "--trials must lie in [1, 1000000], got 1000001"),
            (["sample", "--state", "{bell}", "--obs", ",".join(["ZI"] * 20)],
             "--obs lists 20 observables, whose 2^20 outcome rows exceed 1000000"),
        ],
    )
    def test_size_outside_cap_is_exit_one(self, tmp_path, capsys, argv, message):
        bell = tmp_path / "bell.tab"
        bell.write_text(BELL_AXIOM_FILE)
        code, out, err = run(capsys, *[a.format(bell=bell) for a in argv])
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["ghz-demo", "--config", ""], "--config"),
            (["blackbox", "--state", "{bell}", "--config", ""], "--config"),
            (["prepare", "--axioms", ""], "--axioms"),
            (["enumerate", "--axioms", ""], "--axioms"),
            (["measure", "--state", "", "--obs", "ZI"], "--state"),
            (["sample", "--state", "", "--obs", "ZI"], "--state"),
            (["prepare", "--axioms", "{bell}", "--out", ""], "--out"),
        ],
    )
    def test_empty_path_names_its_option(self, tmp_path, capsys, argv, option):
        bell = tmp_path / "bell.tab"
        bell.write_text(BELL_AXIOM_FILE)
        code, out, err = run(capsys, *[a.format(bell=bell) for a in argv])
        assert code == 1
        assert out == ""
        assert err == f"error: {option} is an empty path\n"

    @pytest.mark.parametrize("argv, option", FILE_OPTIONS)
    def test_non_utf8_file_names_its_option(self, tmp_path, capsys, argv, option):
        bell = tmp_path / "bell.tab"
        bell.write_text(BELL_AXIOM_FILE)
        cfg = tmp_path / "box.cfg"
        cfg.write_text("y0\ny0\n")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"+ZZ\n\xff\n")
        code, out, err = run(capsys, *[a.format(bell=bell, cfg=cfg, bad=bad) for a in argv])
        assert code == 1
        assert out == ""
        assert err == f"error: {option} {bad} is not UTF-8 text: invalid start byte at byte 4\n"

    @pytest.mark.parametrize(
        "unreadable, reason",
        [("", "Is a directory"), ("missing.txt", "No such file or directory")],
    )
    @pytest.mark.parametrize("argv, option", FILE_OPTIONS)
    def test_unreadable_file_names_its_option(
        self, tmp_path, capsys, argv, option, unreadable, reason
    ):
        bell = tmp_path / "bell.tab"
        bell.write_text(BELL_AXIOM_FILE)
        cfg = tmp_path / "box.cfg"
        cfg.write_text("y0\ny0\n")
        bad = tmp_path / unreadable
        code, out, err = run(capsys, *[a.format(bell=bell, cfg=cfg, bad=bad) for a in argv])
        assert code == 1
        assert out == ""
        assert err == f"error: {option} {bad} cannot be read: {reason}\n"

    @pytest.mark.parametrize(
        "target, message",
        [
            ("{tmp}", "is a directory"),
            ("{tmp}/missing/out.txt", "is not in an existing directory"),
            ("{tmp}/file.txt/out.txt", "is not in an existing directory"),
        ],
    )
    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND)
    def test_bad_out_is_rejected_before_the_work(
        self, tmp_path, capsys, monkeypatch, argv, target, message
    ):
        ran = []
        for name in dir(cli):
            if name.startswith("cmd_"):
                monkeypatch.setattr(
                    cli, name, lambda args: (ran.append(args.command) or "", 0)
                )
        (tmp_path / "file.txt").write_text("")
        target = target.format(tmp=tmp_path)
        code, out, err = run(capsys, *argv, "--out", target)
        assert (code, out, ran) == (1, "", [])
        assert err == f"error: --out {target} {message}\n"
        assert run(capsys, *argv, "--out", str(tmp_path / "out.txt"))[0] == 0
        assert ran == [argv[0]]

    def test_largest_seed_is_accepted(self, capsys):
        code, out, _ = run(capsys, "q1-demo", "--runs", "10",
                           "--seed", "18446744073709551615")
        assert code == 0
        assert "seed=18446744073709551615" in out


class TestPrepareAndBlackbox:
    def test_prepare_roundtrip(self, tmp_path, capsys):
        axioms = tmp_path / "bell.axioms"
        axioms.write_text(BELL_AXIOM_FILE)
        code, out, _ = run(capsys, "prepare", "--axioms", str(axioms))
        assert code == 0
        assert out == "+ZZ\n+XX\n"

    def test_blackbox_flips_signs(self, tmp_path, capsys):
        state = tmp_path / "z.tab"
        state.write_text("+Z\n")
        config = tmp_path / "box.cfg"
        config.write_text("y2\n")  # f = (1, 0)
        code, out, _ = run(capsys, "blackbox", "--state", str(state),
                           "--config", str(config))
        assert code == 0
        assert out == "-Z\n"

    def test_out_writes_file(self, tmp_path, capsys):
        axioms = tmp_path / "bell.axioms"
        axioms.write_text(BELL_AXIOM_FILE)
        target = tmp_path / "bell.tab"
        code, out, _ = run(capsys, "prepare", "--axioms", str(axioms),
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "+ZZ\n+XX\n"


class TestCheck:
    def test_ghz_derived_proposition(self, tmp_path, capsys):
        axioms = tmp_path / "ghz.axioms"
        axioms.write_text(GHZ_AXIOM_FILE)
        code, out, _ = run(capsys, "check", "--axioms", str(axioms), "--prop", "XXX")
        assert code == 0
        assert out == "dependent, k=(1,1,1), classical=1, quantum=0\n"

    def test_independent_proposition(self, tmp_path, capsys):
        axioms = tmp_path / "z.axioms"
        axioms.write_text("+Z\n")
        code, out, _ = run(capsys, "check", "--axioms", str(axioms), "--prop", "X")
        assert code == 0
        assert out == "independent\n"


class TestMeasure:
    def test_deterministic(self, tmp_path, capsys):
        state = tmp_path / "bell.tab"
        state.write_text(BELL_AXIOM_FILE)
        code, out, _ = run(capsys, "measure", "--state", str(state), "--obs", "ZZ")
        assert code == 0
        assert out == "deterministic +1\n"

    def test_random_is_seeded(self, tmp_path, capsys):
        state = tmp_path / "bell.tab"
        state.write_text(BELL_AXIOM_FILE)
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "measure", "--state", str(state),
                               "--obs", "ZI", "--seed", "9")
            assert code == 0
            assert out.startswith("random ")
            outputs.add(out)
        assert len(outputs) == 1  # same seed, same outcome


class TestSample:
    def test_csv_output(self, tmp_path, capsys):
        state = tmp_path / "bell.tab"
        state.write_text(BELL_AXIOM_FILE)
        code, out, _ = run(capsys, "sample", "--state", str(state),
                           "--obs", "ZI,IZ", "--runs", "100", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "state,basis,outcome_label,count,frequency"
        assert len(lines) == 2 + 4


class TestEnumerate:
    def test_default_axioms(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2")
        assert code == 0
        assert out == "dependent: 4, independent: 12\n"

    def test_default_axioms_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "16")
        assert code == 0
        assert out == "dependent: 65536, independent: 4294901760\n"

    def test_axiom_file(self, tmp_path, capsys):
        axioms = tmp_path / "ghz.axioms"
        axioms.write_text(GHZ_AXIOM_FILE)
        code, out, _ = run(capsys, "enumerate", "--axioms", str(axioms))
        assert code == 0
        assert out == "dependent: 8, independent: 56\n"

    def test_axiom_file_past_the_n_bound(self, tmp_path, capsys):
        # --n bounds only the default system; a 17-qubit file is counted.
        axioms = tmp_path / "z17.axioms"
        axioms.write_text("".join("I" * i + "Z" + "I" * (16 - i) + "\n" for i in range(17)))
        code, out, _ = run(capsys, "enumerate", "--axioms", str(axioms))
        assert code == 0
        assert out == "dependent: 131072, independent: 17179738112\n"

    def test_needs_n_or_axioms(self, capsys):
        code, _, err = run(capsys, "enumerate")
        assert code == 1

    def test_n_and_axioms_together_is_exit_one(self, tmp_path, capsys):
        axioms = tmp_path / "ghz.axioms"
        axioms.write_text(GHZ_AXIOM_FILE)
        code, out, err = run(capsys, "enumerate", "--axioms", str(axioms), "--n", "2")
        assert code == 1
        assert out == ""
        assert err == "error: enumerate takes --n or --axioms, not both\n"

    def test_empty_axioms_with_n_is_exit_one(self, capsys):
        # --axioms is checked for presence: an empty value is still given.
        code, out, err = run(capsys, "enumerate", "--axioms", "", "--n", "3")
        assert code == 1
        assert out == ""
        assert err == "error: enumerate takes --n or --axioms, not both\n"


# ghz-demo is exact and takes no --runs.
FEW_RUNS = {"ghz-demo": [], "q1-demo": ["--runs", "10"], "q2-demo": ["--runs", "10"]}


class TestDemos:
    def test_ghz_demo_text(self, capsys):
        code, out, _ = run(capsys, "ghz-demo")
        assert code == 0
        assert "contradiction: 1" in out

    def test_ghz_demo_json(self, capsys):
        code, out, _ = run(capsys, "ghz-demo", "--labels", "y1,y2,y3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["contradiction"] == 1
        assert payload["classical_truth"] ^ payload["quantum_truth"] == 1

    def test_q1_demo_runs(self, capsys):
        code, out, _ = run(capsys, "q1-demo", "--labels", "y1", "--runs", "200")
        assert code == 0
        assert len(out.splitlines()) == 2 + 18

    def test_q2_demo_runs(self, capsys):
        code, out, _ = run(capsys, "q2-demo", "--runs", "200")
        assert code == 0
        assert len(out.splitlines()) == 2 + 12

    def test_demo_reproducibility(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(capsys, "q2-demo", "--labels", "y2,y2",
                             "--runs", "500", "--seed", "7", "--out", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("demo", ["ghz-demo", "q1-demo", "q2-demo"])
    @pytest.mark.parametrize("flag", ["--labels", "--config"])
    def test_empty_labels_or_config_is_exit_one(self, capsys, demo, flag):
        code, out, err = run(capsys, demo, flag, "", *FEW_RUNS[demo])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("demo, labels", [
        ("ghz-demo", "y1,y2,y3"), ("q1-demo", "y1"), ("q2-demo", "y2,y2"),
    ])
    def test_config_and_labels_together_is_exit_one(self, tmp_path, capsys, demo, labels):
        config = tmp_path / "box.cfg"
        config.write_text(labels.replace(",", "\n"))
        code, out, err = run(capsys, demo, "--config", str(config), "--labels", labels,
                             *FEW_RUNS[demo])
        assert code == 1
        assert out == ""
        assert err == f"error: {demo} takes --config or --labels, not both\n"

    @pytest.mark.parametrize("labels", ["yy1", "y+1", "y\u0661", "1", "y1,,y1", "y 1"])
    def test_labels_outside_the_grammar_are_exit_one(self, capsys, labels):
        code, out, err = run(capsys, "q1-demo", "--labels", labels, "--runs", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad function") and err.count("\n") == 1

    def test_labels_take_the_config_file_grammar(self, capsys):
        _, want, _ = run(capsys, "ghz-demo", "--labels", "y1,y2,y3")
        code, out, _ = run(capsys, "ghz-demo", "--labels", " Y1,1 0 ,y3")
        assert code == 0
        assert out == want

    def test_config_size_mismatch(self, capsys):
        code, _, err = run(capsys, "q1-demo", "--labels", "y1,y2")
        assert code == 1
        assert "expected 1" in err


class TestOracleCompare:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", "--n", "2",
                           "--trials", "25", "--seed", "3")
        assert code == 0
        assert "verdict: agree" in out

    def test_disagreement_names_the_worst_trial(self, capsys, monkeypatch):
        """A dense result broken on trial 2 only: the printed axioms and
        observables parse back to exactly that trial's inputs."""
        drawn, measured = [], []
        random_axioms, distribution = stab.random_axioms, oracle.distribution

        def recording_axioms(n, rng):
            drawn.append(random_axioms(n, rng))
            return drawn[-1]

        def broken_on_trial_two(state, observables):
            measured.append(observables)
            dist = distribution(state, observables)
            if len(measured) != 3:
                return dist
            plus = (1,) * len(observables)  # all mass on a point it lacks
            key = plus if dist.probability(plus) < 1.0 else tuple(-s for s in plus)
            return stab.OutcomeDistribution({key: 1.0}, len(observables))

        monkeypatch.setattr(stab, "random_axioms", recording_axioms)
        monkeypatch.setattr(oracle, "distribution", broken_on_trial_two)
        code, out, _ = run(capsys, "oracle-compare", "--n", "3",
                           "--trials", "5", "--seed", "3")
        assert code == 1
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert fields["verdict"] == "DISAGREE"
        assert fields["worst_trial"] == "2"
        axioms = [pauli.parse_observable(t) for t in fields["axioms"].split(",")]
        assert [(a.vector, a.sign) for a in axioms] == drawn[2]
        observables = fields["observables"].split(",")
        assert [pauli.parse_observable(t) for t in observables] == measured[2]


class TestDecayStudy:
    def test_tsv_output(self, capsys):
        code, out, _ = run(capsys, "decay-study", "--noise", "0.1",
                           "--lengths", "10,20", "--trials", "200", "--seed", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("run_length\t")
        assert len(lines) == 2 + 2

    def test_run_length_beyond_int64_rejected(self, capsys):
        code, _, err = run(capsys, "decay-study", "--lengths", "10,99999999999999999999",
                           "--trials", "10")
        assert code == 1
        assert "run length" in err

    def test_degenerate_noise_rejected(self, capsys):
        code, _, err = run(capsys, "decay-study", "--noise", "0.3",
                           "--trials", "10")
        assert code == 1
        assert "indistinguishable" in err

    def test_nan_threshold_rejected(self, capsys):
        code, out, err = run(capsys, "decay-study", "--threshold", "nan",
                             "--trials", "10")
        assert code == 1
        assert out == ""
        assert err == "error: indistinguishable regime\n"


@pytest.mark.parametrize(
    "lengths, entry",
    [("10,,20", "''"), ("", "''"), ("1.5", "'1.5'"), ("10,x", "'x'"), ("10,2 0", "'2 0'")],
)
def test_decay_study_names_the_bad_lengths_entry(capsys, lengths, entry):
    code, out, err = run(capsys, "decay-study", f"--lengths={lengths}", "--trials", "10")
    assert code == 1
    assert out == ""
    assert err == f"error: --lengths entry {entry} is not an integer\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["decay-study", "--trials=--"],
        ["enumerate", "--n=--"],
        ["oracle-compare", "--n", "1", "--trials=--"],
        ["sample", "--state", "x", "--obs=--"],
        ["prepare", "--axioms", "x", "--seed=--"],
    ],
)
def test_dash_dash_as_option_value_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert f"argument --{argv[-1][2:-3]}: expected one argument" in capsys.readouterr().err


def test_each_subcommand_takes_only_its_options():
    subcommands = next(
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    taken = {
        name: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, parser in subcommands.items()
    }
    assert taken == OPTIONS
    assert len(UNREAD_OPTIONS) == 15


@pytest.mark.parametrize(
    "argv, option", UNREAD_OPTIONS, ids=[f"{a[0]} {o}" for a, o in UNREAD_OPTIONS]
)
def test_option_a_subcommand_does_not_read_is_usage_error(capsys, argv, option):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, option, "1"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {option} 1\n" in captured.err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["prepare", "--axioms", "{f}"], BELL_AXIOM_FILE),
        (["check", "--axioms", "{f}", "--prop", "XXX"], GHZ_AXIOM_FILE),
        (["measure", "--state", "{f}", "--obs", "ZZ"], BELL_AXIOM_FILE),
        (["sample", "--state", "{f}", "--obs", "ZI,IZ", "--runs", "50"], BELL_AXIOM_FILE),
        (["blackbox", "--state", "{bell}", "--config", "{f}"], "y2\ny1\n"),
        (["ghz-demo", "--config", "{f}"], "y1\ny2\ny3\n"),
    ],
    ids=["prepare --axioms", "check --axioms", "measure --state", "sample --state",
         "blackbox --config", "ghz-demo --config"],
)
def test_byte_order_mark_is_dropped(tmp_path, capsys, argv, text):
    bell = tmp_path / "bell.tab"
    bell.write_text(BELL_AXIOM_FILE)
    (tmp_path / "plain").mkdir()
    (tmp_path / "marked").mkdir()
    plain, marked = tmp_path / "plain" / "f.txt", tmp_path / "marked" / "f.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    want = run(capsys, *[a.format(bell=bell, f=plain) for a in argv])
    assert want[0] == 0
    assert run(capsys, *[a.format(bell=bell, f=marked) for a in argv]) == want


def test_byte_order_mark_counts_in_the_offset_of_a_bad_byte(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(BOM + b"+ZZ\n\xff\n")
    code, out, err = run(capsys, "prepare", "--axioms", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: --axioms {bad} is not UTF-8 text: invalid start byte at byte 7\n"


def test_out_dash_writes_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("bell.axioms").write_text(BELL_AXIOM_FILE)
    code, out, err = run(capsys, "prepare", "--axioms", "bell.axioms", "--out", "-")
    assert (code, out, err) == (0, BELL_AXIOM_FILE, "")
    assert not Path("-").exists()


# One argument list per subcommand that exits 0 on the files that
# ``write_inputs`` leaves in the working directory.
RUNNABLE = [
    ["prepare", "--axioms", "bell.axioms"],
    ["blackbox", "--state", "bell.axioms", "--config", "box.cfg"],
    ["check", "--axioms", "ghz.axioms", "--prop", "XXX"],
    ["measure", "--state", "bell.axioms", "--obs", "ZI"],
    ["sample", "--state", "\u00fc.tab", "--obs", "ZI,IZ", "--runs", "100"],
    ["enumerate", "--n", "2"],
    ["ghz-demo", "--json"],
    ["q1-demo", "--runs", "100"],
    ["q2-demo", "--runs", "100"],
    ["oracle-compare", "--n", "2", "--trials", "5"],
    ["decay-study", "--lengths", "10,20", "--trials", "100"],
]


def write_inputs(directory):
    (directory / "bell.axioms").write_text(BELL_AXIOM_FILE)
    (directory / "\u00fc.tab").write_text(BELL_AXIOM_FILE)
    (directory / "ghz.axioms").write_text(GHZ_AXIOM_FILE)
    (directory / "box.cfg").write_text("y2\ny2\n")


@pytest.mark.parametrize("argv", RUNNABLE, ids=lambda argv: argv[0])
def test_out_file_gets_the_bytes_of_stdout(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    assert run(capsys, *argv, "--out", "out.txt") == (0, "", "")
    assert Path("out.txt").read_bytes() == out.encode()


def test_out_file_gets_the_bytes_of_stdout_in_the_c_locale(tmp_path):
    """In the C locale a non-ASCII argument decodes to surrogates, which
    stdout writes back as the bytes given; so must the --out file."""
    write_inputs(tmp_path)
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "axiombox", *RUNNABLE[4]]

    def axiombox(*extra):
        done = subprocess.run(
            argv + list(extra), cwd=tmp_path, env=env, capture_output=True, timeout=60
        )
        assert (done.returncode, done.stderr) == (0, b"")
        return done.stdout

    stdout = axiombox()
    assert "state=\u00fc.tab".encode() in stdout
    assert axiombox("--out", "out.csv") == b""
    assert (tmp_path / "out.csv").read_bytes() == stdout


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
def test_failed_write_names_out(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "2", "--out", "/dev/full")
    assert (code, out) == (1, "")
    assert err == "error: --out /dev/full cannot be written: No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("extra", [[], ["--out", "-"]], ids=["default", "out_dash"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_failed_stdout_write_names_stdout(tmp_path, extra, unbuffered):
    """A full stdout exits 1 with one stderr line that names stdout, whether
    stdout is block-buffered (the default) or not: the bytes left in the buffer
    must not fail a second time when the interpreter flushes it at exit."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "axiombox", "enumerate", "--n", "2", *extra],
            cwd=tmp_path, env=env, stdout=full, stderr=subprocess.PIPE, timeout=60,
        )
    assert done.returncode == 1
    assert done.stderr == b"error: stdout cannot be written: No space left on device\n"


def readme_example():
    """The lines of the README's first ``sh`` block under "## CLI"."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.M | re.S)
    return block.group(1).splitlines()


def test_readme_example_runs(tmp_path, capsys, monkeypatch):
    """Each printf line writes its file, each axiombox line exits 0, and a
    "# ->" comment, on the command's line or the next, is what it printed."""
    monkeypatch.chdir(tmp_path)
    printed, checked = None, 0
    for line in readme_example():
        words = shlex.split(line, comments=True)
        if words[:1] == ["printf"]:
            *_, body, redirect, target = words
            assert redirect == ">" and "\\" not in body.replace("\\n", ""), line
            Path(target).write_text(body.replace("\\n", "\n"))
        elif words:
            assert words[0] == "axiombox", line
            code, printed, err = run(capsys, *words[1:])
            assert (code, err) == (0, ""), line
        want = re.search(r"#\s*->\s*(.*)$", line)
        if want:
            assert printed == want.group(1) + "\n", line
            checked += 1
    assert checked == 3


def script_target():
    """The installed ``axiombox`` script's ``module:function``, read from
    pyproject.toml's ``[project.scripts]`` table by a regex (no tomllib
    before Python 3.11)."""
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    return re.search(r'^axiombox\s*=\s*"([\w.]+):(\w+)"\s*$', table.group(1), re.M).groups()


def test_installed_script_runs_the_entry_point(capsys, monkeypatch):
    """The script's target is ``cli.entry_point``, which reads sys.argv and
    exits with ``main``'s status: README's ``enumerate`` line, and 2 on an
    unknown option."""
    module, name = script_target()
    entry = getattr(importlib.import_module(module), name)
    assert entry is cli.entry_point
    line = next(line for line in readme_example() if "axiombox enumerate --n 2" in line)
    argv = shlex.split(line, comments=True)
    want = re.search(r"#\s*->\s*(.*)$", line).group(1)
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exited:
        entry()
    assert exited.value.code == 0
    assert capsys.readouterr() == (want + "\n", "")
    monkeypatch.setattr(sys, "argv", [*argv, "--bogus"])
    with pytest.raises(SystemExit) as exited:
        entry()
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --bogus" in err
