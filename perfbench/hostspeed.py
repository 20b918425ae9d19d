"""Host-speed probes: time an item and the host's speed while the item runs.

A small shared virtual machine does not run at one speed: its CPUs switch,
every few to a few hundred milliseconds, between full speed and about half
of it, and the share of slow time drifts over minutes.  The same Python
code then takes up to twice as long from one minute to the next, which no
median over one run removes.

``Probe`` measures that speed alongside the work.  While an item runs, a
timer signal every ``PERIOD`` seconds runs a fixed piece of pure-Python
exact arithmetic (the probe) between the item's bytecodes and records how
long it took.  ``Sample`` keeps the item's own time (wall time minus the
probes) and the mean probe time during it.  ``Sample.at_reference_speed``
scales the item's time by ``REFERENCE_PROBE_S`` over that mean: the time the
item takes on a host where the probe takes ``REFERENCE_PROBE_S``.  A change
that makes egk do more work moves that time by the same factor as the wall
time.  The reference is a fixed number, not the run's fastest probe, which
itself moved by up to 18% from run to run.

Work done in a child process (the cli workload's commands) is probed in the
child: ``cli_child.py`` runs the command between ``Probe.start`` and
``Probe.stop`` and hands the probe times back, and ``Probe.measure_child``
uses them.  Of this module's imports, only the small ``signal`` module is
not imported by ``egk.cli`` already, so the child starts about as fast as
``python -m egk.cli``.
"""

from __future__ import annotations

import json
import signal
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PERIOD = 0.002
# The probe's fastest time, run back to back, on a 2-vCPU Intel Xeon VM with
# Python 3.11.7.
REFERENCE_PROBE_S = 12.5e-6


def probe_work() -> Fraction:
    """About 13 µs of Fraction arithmetic at full speed, like egk's exact LPs."""
    x = Fraction(0)
    for k in range(1, 7):
        x += Fraction(k % 7 + 1, k % 11 + 1)
    return x


@dataclass(frozen=True)
class Sample:
    work_s: float          # wall time of the item without the probes run inside it
    probe_s: float         # mean probe time while the item ran
    wall_s: float          # wall time of the item with the probes

    def at_reference_speed(self) -> float:
        return self.work_s * REFERENCE_PROBE_S / self.probe_s


class Probe:
    def __init__(self) -> None:
        self.times: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        probe_work()
        self.times.append(time.perf_counter() - start)

    def start(self) -> None:
        self.times = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, wall: float, inside: list[float]) -> Sample:
        """The Sample of work that took ``wall`` seconds with probes ``inside`` it."""
        speed = inside
        if not inside:                  # shorter than one period: probe right after
            self.times = []
            self.probe()
            speed = self.times
        return Sample(wall - sum(inside), sum(speed) / len(speed), wall)

    def measure(self, run):
        """Run ``run()``; returns its result and a ``Sample``."""
        self.start()
        start = time.perf_counter()
        try:
            result = run()
        finally:
            wall = time.perf_counter() - start
            self.stop()
        return result, self._sample(wall, self.times)

    def measure_child(self, run, times_path: Path):
        """Run ``run()``, which runs one probed child; returns its result and a ``Sample``.

        The child writes its probe times to ``times_path`` as a JSON list.
        """
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
        inside = json.loads(times_path.read_text())
        times_path.unlink()
        return result, self._sample(wall, inside)
