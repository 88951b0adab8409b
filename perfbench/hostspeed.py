"""Scale measured times to a nominal host speed with fixed probe kernels.

The benchmark runs on a few cores of a shared host. As other tenants load it,
the same code runs up to twice as slow, for seconds to minutes at a time, so
raw wall times of the same code spread between runs by more than any change
worth catching. A probe kernel is fixed work that calls no attnlab code; how
long it takes, against its nominal time, says how fast the host is right now.

``Probe.measure()`` times one interval (one CLI invocation, or one set-up
spawn). It runs the kernel once right before and once right after the
interval, and with ``every`` set also every ``every`` seconds during it, from
a SIGALRM handler on the same thread. Probe time inside the interval is taken
out of its wall time, and the rest, the program's time, is multiplied by
``mean(nominal / probe time)`` over the interval's probes: the program's time
at the nominal host speed, in seconds. The benchmark pins itself and its
children to one CPU, so the probes and the program share a core.

Kernels, each matched to the kind of work it stands for:

* ``calls``: tiny numpy calls and pure-Python arithmetic, like the per-row
  loops of simulate and verify; sampled during the interval as well.
* ``pages``: fresh 16 MiB arrays, allocated, filled and freed, like the page
  faults and copies of decoding a large tensor. Inside such an interval the
  handler would wait on long numpy calls and evict the program's data, so it
  is run around the interval only.

The nominal times are fixed constants, near what the kernels take on an idle
2-vCPU Intel Xeon VM next to the work they stand for, so scaled times read
about as that machine's wall times.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

_ROW = np.linspace(-1.0, 1.0, 16)


def _calls() -> None:
    acc = 0.0
    for i in range(100):
        e = np.exp(_ROW - _ROW.max())
        e /= e.sum()
        acc += float(e @ _ROW)
        s = 0
        for j in range(20):
            s += j * i


def _pages() -> None:
    for _ in range(2):
        a = np.ones(2 << 20)
        a.sum()
        del a


KERNELS = {"calls": (_calls, 0.0006), "pages": (_pages, 0.006)}


@dataclass
class Interval:
    wall_s: float = 0.0
    probes: list[float] = field(default_factory=list)
    inside_s: float = 0.0

    @property
    def program_s(self) -> float:
        return self.wall_s - self.inside_s

    def scaled_s(self, nominal: float) -> float:
        return self.program_s * statistics.mean(nominal / p for p in self.probes)


class Probe:
    def __init__(self, kind: str, every: float | None):
        self.kind = kind
        self.kernel, self.nominal = KERNELS[kind]
        self.every = every

    def _time(self) -> float:
        t0 = perf_counter()
        self.kernel()
        return perf_counter() - t0

    @contextmanager
    def measure(self):
        """Time the body; the yielded Interval is filled in when it ends."""
        iv = Interval(probes=[self._time()])
        inside: list[float] = []

        def handler(signum, frame):
            inside.append(self._time())

        if self.every:
            old = signal.signal(signal.SIGALRM, handler)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        t0 = perf_counter()
        try:
            yield iv
        finally:
            if self.every:
                # Stop the timer first, so that every probe ends before t1.
                signal.setitimer(signal.ITIMER_REAL, 0)
            iv.wall_s = perf_counter() - t0
            if self.every:
                signal.signal(signal.SIGALRM, old)
            iv.inside_s = min(sum(inside), iv.wall_s)
            iv.probes += inside
            iv.probes.append(self._time())
