"""A fixed reference computation, timed in the measured process itself.

The machines the benchmark runs on are shares of a bigger host, and the
host's speed drifts: the same iteration can take half as long again a
minute later.  So the child times this reference computation next to
the workload, on the same core, and run.py divides the workload's times
by the reference's.  While commands run, a SIGPROF timer interrupts them
after every PERIOD_S seconds of CPU time to take one sample; the time
spent in samples is taken out of the commands' times.  Just before and
just after the import of peakalg, BURST samples are taken in a row for
the set-up time.

Every time is CPU time of the one thread the child runs, not wall time:
when the hypervisor takes the core away, the wall clock runs on and the
CPU clock stops, and a 2 ms sample would almost never see such a gap.
The thread's clock, not the process's: while a SIGPROF timer is set, the
process's clock only moves on at scheduler ticks.

The reference is never changed: a faster or slower reference would move
every adjusted time of the benchmark.  It composes permutations of 7 and
sums products of small fractions in a dict, as peakalg's convolutions and
eliminations do, walking through a list of all 5040 permutations so that
its data do not stay in the nearest caches.  Of three references tried
against the tables workload on a 2-vCPU Xeon VM, this one slowed down
most nearly one for one with the workload; one with integer coefficients
and a bare integer loop did not.
"""

import itertools
import random
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
BURST = 5

PERMS = list(itertools.permutations(range(7)))
random.Random(0).shuffle(PERMS)
RIGHT = PERMS[:3]
COEFFS = (Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 4), -1, Fraction(7, 6))
STEP = 200


def clock() -> float:
    return time.clock_gettime(time.CLOCK_THREAD_CPUTIME_ID)


class Yardstick:
    def __init__(self):
        self.samples = []  # (start, duration)
        self.spent_s = 0.0
        self.pos = 0

    def sample(self) -> None:
        t0 = clock()
        out = {}
        for i in range(STEP):
            v = PERMS[(self.pos + 7 * i) % len(PERMS)]
            for j, w in enumerate(RIGHT):
                key = tuple(v[k] for k in w)
                s = out.get(key, 0) + COEFFS[(i + j) % 6] * COEFFS[i % 5]
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        self.pos = (self.pos + STEP + 1) % len(PERMS)
        d = clock() - t0
        self.samples.append((t0, d))
        self.spent_s += d

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
