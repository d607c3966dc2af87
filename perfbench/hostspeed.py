"""Time library calls at a reference host speed.

A virtual machine on a shared host can change speed by up to 2x, in spells
of a few seconds to minutes, with CPU time following wall time: the core
itself runs slower, no scheduler takes time away.  So each timed stretch is
bracketed by a reading of the host's speed, the fastest of a few runs of a
fixed slice of pure-Python integer work, and its wall time is scaled to the
reference speed at which that slice takes NOMINAL_S.  The slice calls no
library code: a change to the library moves the scaled times, and a change
of the host's speed moves the slice as well.
"""
from __future__ import annotations

import time

ROUNDS = 2000  # xorshift steps in one slice
REPEATS = 3  # slices per reading; the fastest counts
NOMINAL_S = 0.6e-3  # a slice's time at the reference speed
MASK64 = 0xFFFFFFFFFFFFFFFF


def calibration_slice() -> int:
    """Fixed integer work in the style of the library's mask arithmetic.
    Its ints are never tracked by the garbage collector, so the library's
    heap does not change its time."""
    x, acc = 0x2545F4914F6CDD1D, 0
    for _ in range(ROUNDS):
        x ^= (x << 13) & MASK64
        x ^= x >> 7
        x ^= (x << 17) & MASK64
        acc += (x & 0xFFFF).bit_count()
    return acc


def reading() -> float:
    """The host's current speed: seconds of the fastest of a few slices."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        calibration_slice()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: list, host: list) -> list:
    """Wall times scaled by NOMINAL_S over the reading taken around each."""
    return [dt * NOMINAL_S / h for dt, h in zip(seconds, host)]


def timed(fn, *args):
    """``(seconds at the reference speed, result)`` of one call."""
    before = reading()
    start = time.perf_counter()
    result = fn(*args)
    dt = time.perf_counter() - start
    return at_reference_speed([dt], [(before + reading()) / 2])[0], result
