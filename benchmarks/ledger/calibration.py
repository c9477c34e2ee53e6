"""Host-speed calibration: a fixed kernel timed between the program's work.

On the shared 2-vCPU VM this was built on, identical work runs 20-30 % faster
or slower for seconds to minutes at a time -- with no steal and the process
at 100 % CPU, i.e. the CPU itself is slower (a neighbour on the sibling
hyperthread, frequency).  No estimator inside a 24 s run removes a phase that
outlasts the run.  What does is measuring the phase: a small pure-Python
kernel of the same kind of work as the program (256-bit modular arithmetic,
64-bit lane mixing) is timed after every block and around every segment, and
a segment's times are expressed at the speed at which that kernel takes
:data:`REFERENCE_MS`.  Measured here the kernel tracked the program within
about 3 % across phases that moved raw op time by 25 %.

The kernel is the harness's own: a change under ``src/`` cannot move it.
"""

from __future__ import annotations

import statistics
import time

#: kernel time that defines "reference speed" (this box in its usual phase)
REFERENCE_MS = 0.78

_P = 2**256 - 2**32 - 977
_SEED = 0x1D3F5A7C9E0B2D4F6A8C0E1F3B5D7F9A1C3E5F7092B4D6F8A0C2E4F60718293A
_MASK = 0xFFFFFFFFFFFFFFFF


def kernel() -> int:
    """~0.8 ms of field squarings and lane mixing; no allocation that lasts."""
    x = _SEED
    lanes = [0] * 25
    for i in range(1500):
        x = (x * x + 7) % _P
        lanes[i % 25] ^= (x >> 17) & _MASK
    return x ^ lanes[0]


def sample() -> float:
    """One host-speed sample: the faster of two kernel runs, in milliseconds."""
    clock = time.perf_counter
    started = clock()
    kernel()
    middle = clock()
    kernel()
    ended = clock()
    return 1e3 * min(middle - started, ended - middle)


def speed_factor(samples: "list[float]") -> float:
    """How much slower than reference speed the host ran (1.0 = reference).

    Times measured alongside ``samples`` are divided by this, rates multiplied.
    """
    return statistics.median(samples) / REFERENCE_MS
