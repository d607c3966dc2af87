"""Command-line front end.

Subcommands cover the full pipeline: prepare a tableau from axioms, push it
through a black box, classify a proposition, measure, sample, enumerate,
run the demonstration grids, cross-check the tableau engine against the
dense oracle, and run the misclassification decay study.

Every subcommand takes ``--seed`` and ``--out``; ``sample``, ``q1-demo`` and
``q2-demo`` also take ``--runs`` and ``--noise``, and ``decay-study`` takes
``--noise``.  Any other option is a usage error.  Each ``cmd_*`` function
returns its text and exit status; ``main`` checks ``--seed`` and ``--out``
before the work and writes the text once, to stdout or to the ``--out`` file
in UTF-8, so the file gets the bytes stdout would.

Exit codes: 0 success, 1 domain error (invalid axioms, size mismatches,
oracle disagreement), 2 usage error.

``experiment`` and ``oracle`` import numpy, so only the subcommands that use
them import them, inside the function: ``prepare``, ``blackbox``, ``check``,
``measure``, ``enumerate`` and ``ghz-demo`` run on the integer core alone.
``measure`` draws its bit from :class:`_Philox`, which gives the stream of
``experiment.philox_rng`` on Python integers.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import blackbox as bb
from . import logic
from . import pauli
from . import stabilizer as stab
from .gf2 import BitVector

ORACLE_TOLERANCE = 1e-9
_MASK64 = (1 << 64) - 1


class _Philox:
    """Philox4x64-10 (Salmon et al., SC'11) on Python ints: ``random()``
    returns what ``numpy.random.Generator(Philox(key=[seed, 0]))``'s
    ``random()`` does, bit for bit.  The 256-bit counter is incremented
    before each block of four 64-bit words, and a draw is a word's top 53
    bits times 2^-53."""

    def __init__(self, seed: int):
        self._key = (seed, 0)
        self._counter = 0
        self._words = []

    def _block(self) -> list:
        self._counter += 1  # its four words are read mod 2^64, so it wraps at 2^256
        c0, c1, c2, c3 = (self._counter >> s & _MASK64 for s in (0, 64, 128, 192))
        k0, k1 = self._key
        for _ in range(10):
            p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = (
                p1 >> 64 ^ c1 ^ k0, p1 & _MASK64, p0 >> 64 ^ c3 ^ k1, p0 & _MASK64
            )
            k0 = (k0 + 0x9E3779B97F4A7C15) & _MASK64
            k1 = (k1 + 0xBB67AE8584CAA73B) & _MASK64
        return [c3, c2, c1, c0]  # popped from the end: c0 is drawn first

    def random(self) -> float:
        if not self._words:
            self._words = self._block()
        return (self._words.pop() >> 11) * 2.0**-53


def _path(value: str, option: str) -> Path:
    """The path an option names; an empty value would read as the current
    directory, so it is a domain error naming the option."""
    if not value:
        raise ValueError(f"{option} is an empty path")
    return Path(value)


def _read_text(value: str, option: str) -> str:
    """An option's file as UTF-8 text, less one leading byte-order mark; each
    error names the option and the path.  The mark is dropped after decoding,
    so the byte an error names is still counted from the start of the file."""
    try:
        return _path(value, option).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} at byte {exc.start}"
        raise ValueError(f"{option} {value} is not UTF-8 text: {reason}") from None
    except OSError as exc:
        raise ValueError(f"{option} {value} cannot be read: {exc.strerror}") from None


def _check_out(value: str) -> None:
    """Reject an --out path that cannot be written as a file, before the work."""
    path = _path(value, "--out")
    if value == "-":
        return
    if path.is_dir():
        raise ValueError(f"--out {value} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"--out {value} is not in an existing directory")


def _write_output(text: str, out: Optional[str]) -> None:
    """Write to stdout, or to the --out file with stdout's bytes: arguments
    that did not decode carry surrogates, which map back to their bytes."""
    if out is None or out == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # The unwritten bytes stay in stdout's buffer, and the flush at exit
            # would fail on them again: send them to os.devnull instead.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ValueError(f"stdout cannot be written: {exc.strerror}") from None
        return
    try:
        Path(out).write_text(text, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ValueError(f"--out {out} cannot be written: {exc.strerror}") from None


def _load_config(path: str) -> bb.BlackBoxConfig:
    return bb.parse_config(_read_text(path, "--config"))


def _load_tableau(path: str, option: str) -> stab.StabilizerTableau:
    """The tableau an axiom or tableau file prepares; both share one grammar."""
    return stab.StabilizerTableau.from_text(_read_text(path, option))


def _config_from_args(args, n: int) -> bb.BlackBoxConfig:
    if args.config is not None and args.labels is not None:
        raise ValueError(f"{args.command} takes --config or --labels, not both")
    if args.config is not None:
        cfg = _load_config(args.config)
    elif args.labels is not None:
        cfg = bb.BlackBoxConfig(tuple(map(bb._parse_function, args.labels.split(","))))
    else:
        cfg = bb.BlackBoxConfig.identity(n)
    if cfg.n != n:
        raise ValueError(f"config has {cfg.n} functions, expected {n}")
    return cfg


def cmd_prepare(args) -> tuple[str, int]:
    return _load_tableau(args.axioms, "--axioms").to_text(), 0


def cmd_blackbox(args) -> tuple[str, int]:
    tableau = _load_tableau(args.state, "--state")
    cfg = _load_config(args.config)
    return stab.apply_blackbox(tableau, cfg).to_text(), 0


def cmd_check(args) -> tuple[str, int]:
    axioms = _load_tableau(args.axioms, "--axioms")
    report = logic.classify(logic.Proposition.from_string(args.prop), axioms)
    if not report.dependent:
        return "independent\n", 0
    classical = report.classical_truth
    quantum = classical ^ report.phase_bit  # the definite outcome bit, same scan
    k = ",".join(str(bit) for bit in report.coefficients)
    return f"dependent, k=({k}), classical={classical}, quantum={quantum}\n", 0


def cmd_measure(args) -> tuple[str, int]:
    tableau = _load_tableau(args.state, "--state")
    obs = pauli.parse_observable(args.obs)
    result = stab.measure(tableau, obs, rng=_Philox(args.seed))
    return f"{result.kind.value} {result.outcome:+d}\n", 0


def cmd_sample(args) -> tuple[str, int]:
    from . import experiment as xp

    tableau = _load_tableau(args.state, "--state")
    observables = [pauli.parse_observable(tok) for tok in args.obs.split(",")]
    if 2 ** len(observables) > xp._RUN_CAP:  # the CSV lists every outcome
        raise ValueError(
            f"--obs lists {len(observables)} observables, whose "
            f"2^{len(observables)} outcome rows exceed {xp._RUN_CAP}"
        )
    xp._count(args.runs, "--runs")
    record = xp.sample(
        tableau, observables, args.runs, args.seed, xp.NoiseModel(flip_prob=args.noise)
    )
    basis_label = ";".join(str(o) for o in observables)
    rows = xp.record_rows(Path(args.state).stem, basis_label, record)
    comment = (
        f"sample state={Path(args.state).name} obs={args.obs} "
        f"runs={args.runs} seed={args.seed} flip_prob={args.noise}"
    )
    return xp.render_frequency_csv(rows, comment), 0


def cmd_enumerate(args) -> tuple[str, int]:
    if args.axioms is not None and args.n is not None:
        raise ValueError("enumerate takes --n or --axioms, not both")
    if args.axioms is not None:
        axioms = _load_tableau(args.axioms, "--axioms")
        n = axioms.n_qubits
    else:
        n = args.n
        if n is None:
            raise ValueError("enumerate needs --n or --axioms")
        if not 1 <= n <= logic.ENUMERATION_CAP:
            raise ValueError(f"--n must lie in [1, {logic.ENUMERATION_CAP}], got {n}")
        # Default axiom system: one z observable per qubit.
        axioms = stab.prepare([(BitVector.unit(n + i, 2 * n), 1) for i in range(n)])
    counts = logic.enumerate_propositions(n, axioms)
    return f"dependent: {counts.dependent}, independent: {counts.independent}\n", 0


def cmd_ghz_demo(args) -> tuple[str, int]:
    report = logic.ghz_report(_config_from_args(args, 3))
    return (report.to_json() + "\n" if args.json else report.to_text()), 0


def cmd_grid_demo(args) -> tuple[str, int]:
    from . import experiment as xp

    grids = {"q1-demo": (1, xp.reproduce_q1), "q2-demo": (2, xp.reproduce_q2)}
    n, reproduce = grids[args.command]
    cfg = _config_from_args(args, n)
    xp._count(args.runs, "--runs")
    rows = reproduce(cfg, args.runs, args.seed, xp.NoiseModel(flip_prob=args.noise))
    comment = (
        f"{args.command} config={cfg} runs={args.runs} seed={args.seed} "
        f"flip_prob={args.noise}"
    )
    return xp.render_frequency_csv(rows, comment), 0


def cmd_oracle_compare(args) -> tuple[str, int]:
    from . import experiment as xp
    from . import oracle

    if not 1 <= args.n <= oracle.DENSE_CAP:
        raise ValueError(f"--n must lie in [1, {oracle.DENSE_CAP}], got {args.n}")
    xp._count(args.trials, "--trials")
    rng = xp.philox_rng(args.seed)
    worst, worst_trial = 0.0, None
    for trial in range(args.trials):
        axioms = stab.random_axioms(args.n, rng)
        tableau = stab.prepare(axioms)
        count = int(rng.integers(1, args.n + 2))
        observables = stab.random_commuting_observables(args.n, count, rng)
        exact = stab.joint_distribution(tableau, observables)
        state = oracle.state_from_axioms(axioms)
        dense = oracle.distribution(state, observables)
        deviation = exact.max_deviation(dense)
        if deviation > worst:
            worst, worst_trial = deviation, (trial, tableau, observables)
    agree = worst < ORACLE_TOLERANCE
    text = (
        f"trials: {args.trials}\nmax_deviation: {worst:.3e}\n"
        f"verdict: {'agree' if agree else 'DISAGREE'}\n"
    )
    if not agree:
        # Name the worst trial (counted from 0) so that it can be replayed.
        trial, tableau, observables = worst_trial
        text += (
            f"worst_trial: {trial}\naxioms: {','.join(map(str, tableau.generators))}\n"
            f"observables: {','.join(map(str, observables))}\n"
        )
    return text, (0 if agree else 1)


def _parse_lengths(text: str) -> list:
    lengths = []
    for tok in text.split(","):
        try:
            lengths.append(int(tok))
        except ValueError:
            raise ValueError(f"--lengths entry {tok!r} is not an integer") from None
    return lengths


def cmd_decay_study(args) -> tuple[str, int]:
    from . import experiment as xp

    lengths = _parse_lengths(args.lengths)
    noise = xp.NoiseModel(flip_prob=args.noise)
    xp._count(args.trials, "--trials")
    rows = xp.decay_study(noise, lengths, args.trials, args.seed, args.threshold)
    comment = (
        f"decay-study flip_prob={args.noise} threshold={args.threshold} "
        f"trials={args.trials} seed={args.seed}"
    )
    return xp.render_decay_tsv(rows, comment), 0


# The options that subcommands share, each defined once, in help order.
_SHARED_OPTIONS = {
    "--seed": {"type": int, "default": 42, "help": "master RNG seed"},
    "--runs": {"type": int, "default": 10000, "help": "samples per record"},
    "--noise": {"type": float, "default": 0.0, "help": "outcome bit-flip probability"},
    "--out": {"default": None, "help": "output path (default stdout)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axiombox",
        description="Stabilizer encoding of Boolean-function axioms: "
        "dependence checks, measurements, demos, and oracle cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, summary: str, *shared: str) -> argparse.ArgumentParser:
        """A subcommand that takes --seed, --out and the ``shared`` options."""
        p = sub.add_parser(name, help=summary)
        for option, spec in _SHARED_OPTIONS.items():
            if option in ("--seed", "--out", *shared):
                p.add_argument(option, **spec)
        p.set_defaults(func=func)
        return p

    p = add("prepare", cmd_prepare, "tableau from an axiom file")
    p.add_argument("--axioms", required=True, help="file of signed Pauli lines")

    p = add("blackbox", cmd_blackbox, "apply a black box")
    p.add_argument("--state", required=True, help="tableau file")
    p.add_argument("--config", required=True, help="black-box config file")

    p = add("check", cmd_check, "classify a proposition")
    p.add_argument("--axioms", required=True, help="file of signed Pauli lines")
    p.add_argument("--prop", required=True, help="proposition as Pauli letters")

    p = add("measure", cmd_measure, "measure one observable")
    p.add_argument("--state", required=True, help="tableau file")
    p.add_argument("--obs", required=True, help="observable as Pauli letters")

    p = add("sample", cmd_sample, "sampled joint measurement", "--runs", "--noise")
    p.add_argument("--state", required=True, help="tableau file")
    p.add_argument("--obs", required=True, help="comma-separated observables")

    p = add("enumerate", cmd_enumerate, "count (in)dependent propositions")
    p.add_argument("--n", type=int, default=None, help="qubit count")
    p.add_argument("--axioms", default=None, help="optional axiom file")

    p = add("ghz-demo", cmd_ghz_demo, "three-qubit contradiction report")
    p.add_argument("--config", default=None, help="black-box config file (3 functions)")
    p.add_argument("--labels", default=None, help="labels like y0,y0,y0")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = add("q1-demo", cmd_grid_demo, "single-qubit state/basis grid", "--runs", "--noise")
    p.add_argument("--config", default=None, help="config file (1 function)")
    p.add_argument("--labels", default=None, help="label like y1")

    p = add("q2-demo", cmd_grid_demo, "Bell-state three-basis grid", "--runs", "--noise")
    p.add_argument("--config", default=None, help="config file (2 functions)")
    p.add_argument("--labels", default=None, help="labels like y2,y2")

    p = add("oracle-compare", cmd_oracle_compare, "tableau vs dense oracle")
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--trials", type=int, default=100, help="random cases")

    p = add("decay-study", cmd_decay_study, "misclassification decay table", "--noise")
    p.add_argument("--threshold", type=float, default=0.25, help="imbalance threshold")
    p.add_argument(
        "--lengths", default="10,20,40,80", help="comma-separated run lengths"
    )
    p.add_argument("--trials", type=int, default=10000, help="trials per length")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse drops a "--" given as an option's own value ("--trials=--") and
    # stores an empty list; no option here takes a list, so that is a usage error.
    for dest, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{dest}: expected one argument")
    try:
        if args.out is not None:  # checked before the work, not after it
            _check_out(args.out)
        if not 0 <= args.seed < 1 << 64:  # for every subcommand, without numpy
            raise ValueError(f"seed must lie in [0, 2^64), got {args.seed}")
        text, status = args.func(args)
        _write_output(text, args.out)
        return status
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
