"""The host's speed, sampled while the program runs, and reference time.

The host a run lands on changes speed by up to 2x for seconds to minutes
at a time (other tenants on the same cores), and wall time follows it.  A
``SpeedProbe`` runs a fixed pure-Python calibration loop from a SIGALRM
handler every ``EVERY_S`` seconds while a timed section is open, so the
samples are spread over the section's time like the program's work is.  A
section's time is then reported twice: in wall seconds, and in reference
seconds (``REF_ROUNDS_PER_S`` calibration rounds), the time it would have
taken with the host at the speed where one round takes ``1 / REF_ROUNDS_PER_S``
seconds.  The program's own code is never in the calibration loop, so a
change to the program moves reference time as it moves wall time.

The handler's own time is taken out of the section's wall time.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

EVERY_S = 0.01
ROUNDS = 3
# About the rounds per second of the 2-vCPU x86-64 host the README's
# figures come from, in its normal (slower) mode, with Python 3.11.
REF_ROUNDS_PER_S = 9_000


@dataclass(frozen=True)
class _Level:
    index: int
    size: int

    def __post_init__(self):
        if not 0 <= self.index < self.size:
            raise ValueError("level out of range")

    def __lt__(self, other: "_Level") -> bool:
        return self.index < other.index


@dataclass(frozen=True)
class _Pair:
    first: _Level
    second: _Level

    def __lt__(self, other: "_Pair") -> bool:
        return self.first.index - self.second.index < other.first.index - other.second.index


def calibrate(rounds: int) -> int:
    """A fixed mix of what the program does: frozen dataclasses, dunder
    comparisons, grouping in dicts, bitset rows, sorting and string joins."""
    total = 0
    for r in range(rounds):
        pairs = [_Pair(_Level(i * 7 % 13, 13), _Level((i + r) % 5, 13)) for i in range(24)]
        groups: dict[_Level, list[_Pair]] = {}
        row = 0
        for pair in pairs:
            groups.setdefault(pair.first, []).append(pair)
            row |= 1 << (pair.first.index * 13 + pair.second.index)
        pairs.sort()
        total += len(groups) + row.bit_count() + max(pairs).first.index
        total += len(",".join(str(pair.second.index) for pair in pairs[:8]))
    return total


class SpeedProbe:
    """Samples the host's speed inside timed sections; see the module docstring."""

    def __init__(self):
        self.active = False
        self.stolen = 0.0  # handler time, all sections
        self.cal_s = 0.0
        self.cal_rounds = 0

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        t0 = time.perf_counter()
        calibrate(ROUNDS)
        t1 = time.perf_counter()
        self.cal_s += t1 - t0
        self.cal_rounds += ROUNDS
        self.stolen += time.perf_counter() - t0

    def start(self) -> None:
        calibrate(ROUNDS)  # warm
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """Call ``fn(*args)``; return its result and its wall seconds without the handler's."""
        stolen = self.stolen
        self.active = True
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            # Inactive first: a tick after this adds nothing to ``stolen``.
            self.active = False
            elapsed = time.perf_counter() - t0
        return out, elapsed - (self.stolen - stolen)

    def sample_after(self, seconds: float) -> None:
        """Sample now, outside any section, as many rounds as the ticks of
        ``seconds`` in a section would run; for sections no tick may enter."""
        rounds = ROUNDS * max(1, round(seconds / EVERY_S))
        t0 = time.perf_counter()
        calibrate(rounds)
        self.cal_s += time.perf_counter() - t0
        self.cal_rounds += rounds

    def to_reference(self) -> float:
        """Reference seconds per wall second over every sample so far.

        Sections too short to hold a tick are sampled right after.
        """
        if self.cal_rounds == 0:
            self.sample_after(4 * EVERY_S)
        return self.cal_rounds / self.cal_s / REF_ROUNDS_PER_S
