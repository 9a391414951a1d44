"""A fixed reference task that measures how fast the machine runs right now.

On a shared machine the speed of one core drifts: a pure-Python loop timed
in 20 s windows varied by +-10% from window to window, and by up to 2x over
a few minutes, while the load came from elsewhere; within a minute, one CLI
call run 25 times back to back took between 0.8x and 1.2x its median. Each
timing of the benchmark is therefore taken between runs of this reference
task and scaled to a machine on which the task takes ``REF_NOMINAL_S``:

    scaled = measured * REF_NOMINAL_S / mean(reference before, reference after)

In that series of 25 calls the scaling narrowed the spread of the call's
times (interquartile range over median) from 0.25 to 0.17; scaling all of
them by the median of their reference runs left it at 0.25, and scaling
each by the median of the seven nearest ones gave 0.19.

The task starts a fresh interpreter, imports modules the CLI also imports
and multiplies two dense polynomials with ``Fraction`` coefficients, like
the program's own work. It shares no code with whitneylah, so a change to
the program never moves it.
"""

from __future__ import annotations

import subprocess
import sys
import time

REF_NOMINAL_S = 0.1

REF_CODE = """
import argparse, dataclasses, json
from fractions import Fraction
p = {e: Fraction(3 * e + 1, e % 5 + 1) ** 2 for e in range(110)}
out = {}
for e1, c1 in p.items():
    for e2, c2 in p.items():
        out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
json.dumps([str(c) for c in out.values()])
"""


def reference_s() -> float:
    """Wall time of one run of the reference task in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_CODE], check=True)
    return time.perf_counter() - start


class Speed:
    """Scales a sequence of timings by the reference runs taken between them."""

    def __init__(self):
        reference_s()  # the first run after a pause is often slow; discard it
        self.last = reference_s()

    def factor(self) -> float:
        """Runs the task once more; the factor that takes the times measured
        since its last run to nominal speed."""
        after = reference_s()
        factor = REF_NOMINAL_S / ((self.last + after) / 2)
        self.last = after
        return factor

    def scaled(self, seconds: float) -> float:
        """``seconds`` (just measured) at nominal speed."""
        return seconds * self.factor()
