"""A speed probe that runs beside each timed job, to factor out host speed swings.

On a shared host the same CPU-bound job can take up to twice as long from one
minute to the next. Steal time can stay near zero, and a reference loop timed
before and after a job does not follow the swings, which come and go in well
under a second. The probe is a thread that wakes every ``PERIOD`` seconds and
times a fixed pure-Python loop in its own CPU time (``thread_time``). The
loop needs the interpreter lock, so its samples interleave with the job's
own Python code and slow down when the job does.

``Probe.factor`` is the mean loop time during the job divided by
``REFERENCE_S``, the loop's time on an uncontended core of the 2-vCPU VM
(Python 3.11.7) on which the benchmark was calibrated. A job's wall time
divided by the factor estimates its wall time on that uncontended core.
"""

from __future__ import annotations

import threading
import time

PERIOD = 0.02
LOOP = 20_000
REFERENCE_S = 1.15e-3


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class Probe:
    """Context manager: samples the loop time while the block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            start = time.thread_time()
            _loop()
            self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("speed probe did not stop")

    @property
    def factor(self) -> float:
        """Host slowdown during the block; 1.0 when no sample was taken."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / REFERENCE_S
