"""Machine-speed probe for timing on a shared host.

On the 2-core machine this benchmark was defined on, the same job's wall time
moves by tens of percent from minute to minute, and a fixed numpy loop slows
and speeds up in step with it: the host's load moves both. The probe times
that loop -- a row-at-a-time MLP forward in plain numpy, which runs no
noisestab code -- several times a second while a job runs, from a SIGALRM
handler in the same thread. A job's wall time, minus the time the handler
took, is then rescaled by REF_S over the mean probe time during the job:
seconds at the reference speed. The raw wall times are reported beside them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

ROWS = 300
INTERVAL_S = 0.2
# median probe time on the machine the benchmark was defined on
REF_S = 0.0064


class SpeedProbe:
    def __init__(self):
        gen = np.random.Generator(np.random.PCG64(0))
        self.rows = gen.normal(size=(ROWS, 8))
        self.w1, self.w2 = gen.normal(size=(24, 8)), gen.normal(size=(4, 24))
        self.b1, self.b2 = np.zeros(24), np.zeros(4)
        self.samples = []
        self.busy_s = 0.0

    def sample(self):
        """Time one pass of the probe loop and record it."""
        start = time.perf_counter()
        for i in range(ROWS):
            h = self.rows[i:i + 1] @ self.w1.T + self.b1
            h = np.where(h > 0.0, h, 0.0)
            y = h @ self.w2.T + self.b2
            e = np.exp(y - y.max(axis=1, keepdims=True))
            e / e.sum(axis=1, keepdims=True)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.busy_s += elapsed
        return elapsed

    def _on_alarm(self, signum, frame):
        self.sample()

    def timed(self, fn):
        """Run ``fn()`` while sampling; returns (result, wall seconds without
        the probe's own time, factor that rescales them to the reference
        speed)."""
        first = len(self.samples)
        self.sample()
        busy = self.busy_s
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        net = wall - (self.busy_s - busy)
        return result, net, REF_S / statistics.fmean(self.samples[first:])
