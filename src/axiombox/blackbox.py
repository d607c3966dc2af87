"""Black-box configurations: N single-argument Boolean functions.

A black box is fully specified by the value pairs ``(f_j(0), f_j(1))`` of its
N Boolean functions.  This module evaluates proposition and axiom parities
directly from those bits, i.e. the purely arithmetical side of the
axiom/state correspondence; the matching unitary action on observables lives
in :mod:`axiombox.pauli`.

Truth convention: parity bit 0 means the proposition "<parity expression> = 0"
is TRUE.

Label convention: the four functions are numbered ``y_k`` with
``k = 2*f(0) + f(1)``, so ``y0 = (0,0)``, ``y1 = (0,1)``, ``y2 = (1,0)``,
``y3 = (1,1)``.

The value records here and in :mod:`axiombox.logic` are ``__slots__``
classes on :class:`_Record`, which gives them a frozen dataclass's ``==``,
``hash``, ``repr``, ``__match_args__``, copying and immutability.  They are
not dataclasses because a dataclass generates and compiles its methods when
its module is imported, about 2 ms of ``import axiombox`` for these five;
``dataclasses.fields``, ``replace`` and ``asdict`` do not apply to them.
:class:`stabilizer.MeasurementResult` stays a dataclass, because callers
derive results from it with ``dataclasses.replace``.
"""
from __future__ import annotations

import itertools
import operator
import re
from dataclasses import FrozenInstanceError
from typing import Iterable, Iterator, Sequence

from .gf2 import BitVector


class _Record:
    """An immutable value with the fields named in ``_FIELDS``, in the order
    the constructor takes them.  ``==``, ``hash``, ``repr``, ``match``,
    copying and pickling read those fields, as a frozen dataclass's do; an
    ``__init__`` sets its slots with ``object.__setattr__``, and any other
    assignment or deletion raises ``FrozenInstanceError``."""

    __slots__ = ()
    _FIELDS: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._FIELDS

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._FIELDS])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class BooleanFunction(_Record):
    """One function {0,1} -> {0,1}, stored as its two values.

    The values and labels are taken through ``operator.index`` and stored as
    ``int``, so a non-integer such as ``0.0`` raises TypeError."""

    __slots__ = _FIELDS = ("f0", "f1")

    def __init__(self, f0: int, f1: int):
        f0, f1 = operator.index(f0), operator.index(f1)
        if f0 not in (0, 1) or f1 not in (0, 1):
            raise ValueError(f"function values must be bits, got ({f0}, {f1})")
        object.__setattr__(self, "f0", int(f0))
        object.__setattr__(self, "f1", int(f1))

    @property
    def label(self) -> int:
        return 2 * self.f0 + self.f1

    @classmethod
    def from_label(cls, k: int) -> "BooleanFunction":
        k = operator.index(k)
        if k not in (0, 1, 2, 3):
            raise ValueError(f"function label must be 0..3, got {k}")
        return cls(f0=k >> 1, f1=k & 1)

    def __str__(self) -> str:
        return f"y{self.label}"


class BlackBoxConfig(_Record):
    """Ordered tuple of the N Boolean functions a black box encodes; it
    compares, hashes and prints as its ``functions`` alone."""

    # _f0, _f1: bit j = f_j(0) and f_j(1), packed once for proposition_truth.
    __slots__ = ("functions", "_f0", "_f1")
    _FIELDS = ("functions",)

    def __init__(self, functions: tuple):
        fns = tuple(functions)
        if not fns:
            raise ValueError("a black box needs at least one function")
        if not all(isinstance(f, BooleanFunction) for f in fns):
            raise TypeError("functions must be BooleanFunction instances")
        object.__setattr__(self, "functions", fns)
        object.__setattr__(self, "_f0", sum(f.f0 << j for j, f in enumerate(fns)))
        object.__setattr__(self, "_f1", sum(f.f1 << j for j, f in enumerate(fns)))

    @property
    def n(self) -> int:
        return len(self.functions)

    @property
    def f0_vector(self) -> BitVector:
        """Bit j = f_j(0)."""
        return BitVector.from_mask(self._f0, self.n)

    @property
    def f1_vector(self) -> BitVector:
        """Bit j = f_j(1)."""
        return BitVector.from_mask(self._f1, self.n)

    @classmethod
    def from_labels(cls, labels: Iterable[int]) -> "BlackBoxConfig":
        return cls(tuple(BooleanFunction.from_label(k) for k in labels))

    @classmethod
    def identity(cls, n: int) -> "BlackBoxConfig":
        """The all-y0 configuration, whose unitary is the identity."""
        return cls.from_labels([0] * n)

    @classmethod
    def all_configs(cls, n: int) -> Iterator["BlackBoxConfig"]:
        """All 4^n configurations, in lexicographic label order."""
        for labels in itertools.product(range(4), repeat=n):
            yield cls.from_labels(labels)

    def __str__(self) -> str:
        return ",".join(str(f) for f in self.functions)


def proposition_truth(j: BitVector, cfg: BlackBoxConfig) -> int:
    """Parity of ``sum_j [beta_j f_j(0) + alpha_j f_j(1)]`` for J = (alpha|beta).

    Bit 0 means the "... = 0" proposition holds for this configuration.
    Note the crossing: the z-part (beta) multiplies f(0) and the x-part
    (alpha) multiplies f(1).
    """
    if len(j) != 2 * cfg.n:
        raise ValueError(
            f"proposition vector length {len(j)} does not match {cfg.n} functions"
        )
    return _parity(j.mask, cfg)


def _parity(mask: int, cfg: BlackBoxConfig) -> int:
    """:func:`proposition_truth` of the 2n-bit (x|z) mask ``mask``, unchecked;
    ``apply_blackbox`` and ``conjugate_by_blackbox`` read sign flips from it."""
    return ((mask >> cfg.n & cfg._f0) ^ (mask & cfg._f1)).bit_count() & 1


def axiom_truths(axioms: Sequence[BitVector], cfg: BlackBoxConfig) -> list:
    """Per-axiom parity bits t_p; the sign pattern the black box writes."""
    return [proposition_truth(h, cfg) for h in axioms]


def _parse_function(text: str) -> BooleanFunction:
    """One function: a label ``y0``..``y3`` (``y`` in either case) or its two
    values ``f0 f1``, each exactly ``0`` or ``1``; whitespace around them is
    ignored."""
    words = text.split()
    if len(words) == 1 and re.fullmatch("[yY][0-3]", words[0]):
        return BooleanFunction.from_label(int(words[0][1]))
    if len(words) == 2 and all(w in ("0", "1") for w in words):
        return BooleanFunction(int(words[0]), int(words[1]))
    raise ValueError(f"bad function {text!r}: want y0..y3 or two bits such as '0 1'")


def parse_config(text: str) -> BlackBoxConfig:
    """Parse a config file body: one function per line, "f0 f1" or "y2"
    (:func:`_parse_function`).

    Blank lines and '#' comments are skipped.
    """
    functions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            functions.append(_parse_function(line))
        except ValueError as exc:
            raise ValueError(f"bad config line {lineno}: {raw!r}") from exc
    return BlackBoxConfig(tuple(functions))
