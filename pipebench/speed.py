"""Machine-speed sampling, so stage times can be scaled to a nominal speed.

On a shared 2-core Xeon VM the same single-threaded Python work runs up
to 2x slower from one minute to the next, and neither CPU time nor steal
time shows it (both track wall time). The two CPUs change speed
independently: a loop pinned to one can run 1.5x slower than on the
other at the same moment. A fixed calibration loop on the same CPU as
the program slows down with it. `SpeedSampler` runs that loop every
PERIOD_S seconds from a SIGALRM handler, so its samples interleave with
the work being timed, and `scaled_seconds` converts a stage's time to
nominal seconds with the mean speed sampled around it.

The loop runs in a helper process (`python3 speed.py`), pinned with the
timed process to one CPU, while the timed process waits on a pipe. So
the probe shares the program's CPU but not its heap or its cache state.
Run inside the timed process it did not: after a 64 MiB sweep it took
1.41x its warm time, and with a fragmented heap of 10^5 live arrays
1.14x, so a program change that grew its working set or changed its
allocations would have slowed the probe and been credited with time it
did not save. In the helper both stayed within 1% of a fresh heap. The
helper runs the loop twice per sample and times the second run, so its
code and data are in cache however long it slept. Over 150 s of
training work in ~0.4 s windows it tracked the work's time as well as
the in-process loop did (r = 0.92 for both, log-log slope 0.75 and
0.78), leaving a coefficient of variation of 0.06 where raw time had
0.12.

A CPU's speed is close to bimodal (the loop takes ~330 or ~560 us) and
switches within a stage, so a median of the samples picks one mode and
mis-scales a stage that spans both. Work done is wall time times mean
speed when samples are evenly spaced in time, so that is used, with the
fastest and slowest TRIM of the samples dropped so that a stray sample
does not move the scale.

Reported seconds are therefore "seconds at NOMINAL_CALIB_S per
calibration loop". The time the timed process spends waiting for samples
is subtracted from the stage time first; raw wall seconds are kept
alongside.
"""

import contextlib
import os
import signal
import statistics
import struct
import subprocess
import sys
import time

# Timed calibrate() on an uncontended CPU of a 2-core Xeon VM with Python
# 3.11 and numpy 2.4; reported seconds are seconds at this speed.
NOMINAL_CALIB_S = 3.5e-4
PERIOD_S = 0.04
TRIM = 0.1
_DOUBLE = struct.Struct("d")


def probe_main() -> int:
    """The helper: for each byte read from stdin, run the calibration loop
    twice and write the second run's seconds to stdout; exit at EOF."""
    import numpy as np

    table = np.linspace(0.0, 1.0, 64).reshape(16, 4)
    left = np.linspace(0.0, 1.0, 240).reshape(20, 12)
    right = np.linspace(0.0, 1.0, 48).reshape(12, 4)
    index = np.arange(40) % 16

    def calibrate() -> float:
        """Fixed work shaped like the library's inner loop: a stable
        argsort of one score column, a small matmul, a scatter-add, a
        short Python loop. A pure-Python integer loop tracks the
        program's slowdown less well (it slows ~1.5x less than the
        program under contention)."""
        acc = 0.0
        for r in range(40):
            order = np.argsort(-table[:, r % 4], kind="stable")
            acc += float((left @ right)[0, 0])
            counts = np.zeros(16)
            np.add.at(counts, index, 1.0)
            for i in order.tolist()[:6]:
                acc += table[i, 1]
        return acc

    for _ in range(3):  # first calls pay numpy's lazy set-up
        calibrate()
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    stdout.write(b"r")
    stdout.flush()
    while stdin.read(1):
        calibrate()  # brings the loop's code and data back into cache
        t = time.perf_counter()
        calibrate()
        stdout.write(_DOUBLE.pack(time.perf_counter() - t))
        stdout.flush()
    return 0


class SpeedSampler:
    """Calibration samples (start, time spent waiting, timed run), taken
    on demand with `sample()`, and every PERIOD_S seconds inside a
    `periodic()` block. Use as a context manager: it pins this process
    to one CPU and starts the helper on entry, and on exit waits for the
    helper to end and restores the CPU set."""

    def __init__(self):
        self.samples: list = []
        self._proc = None
        self._cpus = None
        self._busy = False

    def __enter__(self):
        # both processes on one CPU, which then serves the helper only
        # while this process waits for it
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE)
        if self._proc.stdout.read(1) != b"r":
            self.__exit__()
            raise RuntimeError("calibration helper did not start")
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()
        os.sched_setaffinity(0, self._cpus)
        return False

    def sample(self, n: int = 1) -> None:
        if self._busy:  # an alarm landed inside a sample
            return
        self._busy = True
        try:
            for _ in range(n):
                start = time.perf_counter()
                self._proc.stdin.write(b"s")
                self._proc.stdin.flush()
                (probe,) = _DOUBLE.unpack(self._proc.stdout.read(_DOUBLE.size))
                self.samples.append((start, time.perf_counter() - start, probe))
        finally:
            self._busy = False

    @contextlib.contextmanager
    def periodic(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled_seconds(start: float, end: float, samples) -> dict:
    """Raw and speed-scaled duration of the interval [start, end).

    Raw is wall time less the time spent waiting for samples inside the
    interval. Speed is NOMINAL_CALIB_S over a timed calibration run; the
    scaled time is raw times the trimmed mean speed of the samples taken
    from just before the interval to just after it.
    """
    raw = end - start - sum(spent for t, spent, _ in samples if start <= t < end)
    speeds = sorted(NOMINAL_CALIB_S / probe for t, _, probe in samples
                    if start - 2 * PERIOD_S <= t <= end + 2 * PERIOD_S)
    if not speeds:
        raise ValueError("no calibration sample near the interval")
    cut = int(len(speeds) * TRIM)
    speed = statistics.fmean(speeds[cut:len(speeds) - cut])
    return {"raw_s": raw, "s": raw * speed, "slowdown": 1.0 / speed,
            "samples": len(speeds)}


if __name__ == "__main__":
    sys.exit(probe_main())
