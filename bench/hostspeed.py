"""Wall time scaled to a fixed host speed.

On a shared host the same code runs up to ~1.8x slower from one moment to
the next, in stretches from under a second to longer than a whole run, so
plain medians of two runs of the same code differ by more than any useful
bound.  While a stretch of work runs (a set-up, a unit), a timer signal
times a fixed reference kernel, which calls nothing of the package, after
every SPACING_S of work.  Each piece of work between two kernel runs is
multiplied by NOMINAL_S over the mean of their two times, so times are
reported at the host speed where the kernel takes NOMINAL_S.  Kernel time
is never counted as work.  A change to the package moves the work and not
the kernel, so it shows in full.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 1.0e-3      # the kernel's time at the reported host speed
REPEATS = 3             # kernel runs per reference time; their median
SPACING_S = 0.1         # work time between two kernel runs
ENABLED = True          # off in traced runs: kernel time would land in spans


def kernel_s() -> float:
    """Median time of a fixed pure-Python kernel (arithmetic, a dict, calls
    to builtins): it needs no import, so it can run during the set-up's
    imports too."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(7000):
            x = i * 0.5
            table[i & 63] = table.get(i & 63, 0.0) + x * x
            acc += abs(x - 3.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ScaledClock:
    """Runs the kernel now, after every SPACING_S of work until `stop()`,
    and at `stop()`.

    The signal handler runs between two bytecodes of the main thread, so an
    instant taken with time.perf_counter() during the work never falls
    inside a kernel run.  With ENABLED off no kernel runs and scaled time
    equals raw time.
    """

    def __init__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._refs: list[float] = []
        self._kernel()
        self._running = ENABLED
        if ENABLED:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SPACING_S)
        self.t0 = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        # one-shot timer, armed again after the kernel: handlers never nest,
        # and none re-arms it once stop() has begun
        if self._running:
            self._kernel()
            signal.setitimer(signal.ITIMER_REAL, SPACING_S)

    def _kernel(self) -> None:
        t0 = time.perf_counter()
        ref = kernel_s() if ENABLED else NOMINAL_S
        self._starts.append(t0)
        self._ends.append(time.perf_counter() if ENABLED else t0)
        self._refs.append(ref)

    def stop(self) -> None:
        self.t1 = time.perf_counter()
        self._running = False
        if ENABLED:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._kernel()

    def span(self, a: float, b: float) -> tuple[float, float]:
        """(raw, scaled) seconds of work between the instants a <= b."""
        raw = scaled = 0.0
        for i in range(len(self._refs) - 1):
            piece = min(b, self._starts[i + 1]) - max(a, self._ends[i])
            if piece > 0.0:
                raw += piece
                scaled += piece * NOMINAL_S / (0.5 * (self._refs[i] + self._refs[i + 1]))
        return raw, scaled

    def total(self) -> tuple[float, float]:
        """(raw, scaled) seconds of work from construction to `stop()`."""
        return self.span(self.t0, self.t1)
