"""The machine-speed probe that the benchmark's timings are scaled by.

The benchmark runs on shared virtual machines whose speed swings by up
to 2x, in states lasting from a few seconds to half a minute, for
reasons outside the machine.  A run's raw timings follow the share of
it spent in the slow state.  So after every op the loop also times
``probe()``, a fixed piece of interpreter work that does not touch the
program, and every timing the benchmark reports is scaled to the speed
at which the probe takes ``PROBE_S``:

* a rate is multiplied by (mean probe time over the run's ops) / PROBE_S;
* a latency is divided by the probe time measured right after its op,
  then multiplied by PROBE_S.

In a closed loop the probe samples each speed state as often as the
ops do, so if the op and the probe slow down alike the scaled rate does
not depend on the state at all.  The probe uses ints, a dict lookup and
a function call per step, which slow down alike with the program's
interpreter work, and it makes no object the garbage collector tracks,
so it starts no collection and the program's collections never land on
it.
"""
from __future__ import annotations

from time import perf_counter

# The probe's duration on a 2-vCPU Intel Xeon virtual machine in its
# fast state; scaled timings read as wall times on that machine then.
PROBE_S = 75e-6

STEPS = 400
_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}


def _step(x: int, k: int) -> int:
    return (x * 31 + _TABLE[k & 1023]) & 0xFFFFF


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work."""
    t0 = perf_counter()
    x = 0
    for k in range(STEPS):
        x = _step(x, k) ^ (x >> 3)
    return perf_counter() - t0
