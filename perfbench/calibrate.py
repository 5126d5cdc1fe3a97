"""Machine-speed calibration for a host whose speed drifts while it is measured.

On a shared 2-vCPU VM the same forward solve takes 0.16 to 0.82 s back to
back, and the process CPU time moves with the wall time, so neither a longer
run nor CPU time removes the drift.  A fixed reference loop, timed densely
next to the program, moves with it.  :class:`Speedometer` interrupts the
timed operation every PERIOD_S of program time (SIGALRM; the handler runs
between bytecodes of the main thread) and times one reference sample.  Each
stretch of program time between two samples is rescaled by the mean of
those two samples against REF_NOMINAL_S:

    calibrated_s = sum_i segment_i * REF_NOMINAL_S / mean(ref_i, ref_i+1)

so a calibrated second is a second on a host that runs the reference sample
in REF_NOMINAL_S.  Reference time is excluded from the program time.
"""

import signal
import time

import numpy as np
import scipy.fft

PERIOD_S = 0.2
REF_NOMINAL_S = 0.01


def reference_work():
    """Fixed work shaped like the program's: DCT-I on 129 and 65 x 65 plus small ufuncs."""
    a = np.linspace(0.0, 1.0, 129)
    b = np.outer(a[::2], a[::2])
    s = 0.0
    for _ in range(40):
        for _ in range(8):
            c = scipy.fft.dct(a, type=1) * 1e-3 + a
            s += float(np.max(np.abs(c)))
            a = np.sqrt(c * c + 1.0) - 1.0
        b = scipy.fft.dctn(b, type=1) * 1e-4 + b
        s += float(np.sum(b))
    return s


def reference_sample():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Speedometer:
    """Times the enclosed code in program seconds and calibrated seconds."""

    def __init__(self):
        self.segments = []
        self.samples = []
        self._active = False

    def _sample(self):
        self.samples.append(reference_sample())
        return time.perf_counter()

    def _on_alarm(self, signum, frame):
        if not self._active:
            return
        self.segments.append(time.perf_counter() - self._seg_start)
        self._seg_start = self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._seg_start = self._sample()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._active = False
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.segments.append(end - self._seg_start)
        self._sample()
        return False

    @property
    def program_s(self):
        return sum(self.segments)

    @property
    def calibrated_s(self):
        r = self.samples
        return sum(seg * 2.0 * REF_NOMINAL_S / (r[i] + r[i + 1])
                   for i, seg in enumerate(self.segments))
