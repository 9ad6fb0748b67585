"""Machine-speed sampling: a short reference kernel timed while an operation runs.

The benchmark's host is a few cores of a shared machine, and its speed
changes with what the other tenants run.  A fixed pure-Python loop switches
between about 26 ms and about 45 ms within a second, and over minutes the
share of time spent in the slow state drifts.  A three-second spinloop
operation takes anything from 2.2 s to 3.6 s with no change to the program,
and both wall and CPU time follow.

So, while a timed operation runs, a SIGALRM handler interrupts it every
``PERIOD_S`` seconds and times one run of a short reference kernel.  The
kernel's mean time over the operation gives the speed the operation saw, and
its time is scaled to the reference speed, the speed at which the kernel
takes ``REF_KERNEL_S``:

    scaled = (raw - time spent in the handler) * REF_KERNEL_S / mean kernel time

On that host this cut the spread (IQR over median) of an operation's time
from 0.41 to 0.07 on dpt-fxp and from 0.18 to 0.02 on lmg-ensemble.  The
kernel is part of the benchmark, not of the program, so a change to the
program moves scaled times exactly as it moves raw ones.  It is scalar float
arithmetic in the interpreter, like the loop simulator's per-step plant and
controller code.  The handler runs between bytecodes of the main thread, so
it sees the program only through the clock; it takes about 1.5% of an
operation's time, which ``clock()`` leaves out.

A disabled sampler does nothing and leaves times raw.  The quantum workload
uses one: its BLAS-bound time barely follows the host's speed states, and
scaling it by this kernel, or by a small dense matrix-vector kernel, widened
its spread from 0.06 to 0.20 and 0.10.  Set-up probes are not scaled either:
a 0.3 s fresh process gives too few and too cold kernel samples, and scaling
widened their spread from 0.11 to 0.40.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.1
# Kernel time at the reference speed: roughly its median on the 2-vCPU host
# where the benchmark was written.
REF_KERNEL_S = 1.6e-3


def _kernel() -> float:
    x, y, z = 0.6, 0.0, 0.8
    wx, wz, dt = 1.3, 0.7, 1e-3

    def f(vx, vy, vz):
        return (-wz * vy, wz * vx - wx * vz, wx * vy)

    for _ in range(1500):
        k1 = f(x, y, z)
        k2 = f(x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1], z + 0.5 * dt * k1[2])
        x += dt * k2[0]
        y += dt * k2[1]
        z += dt * k2[2]
        n = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / n, y / n, z / n
    return z


class SpeedSampler:
    """Context manager around one timed operation.  Inside it, ``clock()`` is
    ``time.perf_counter()`` minus the time the sampler itself has taken;
    after it, ``factor`` scales the operation's clock times to the reference
    speed (1 when the sampler is disabled)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.busy_s = 0.0
        self.samples: list[float] = []
        self.factor = 1.0

    def clock(self) -> float:
        return time.perf_counter() - self.busy_s

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)
        self.busy_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        if self.enabled:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.enabled:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # an operation shorter than the period
            self._sample()
        self.factor = REF_KERNEL_S * len(self.samples) / sum(self.samples)
