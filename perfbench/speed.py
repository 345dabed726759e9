"""In-run machine-speed reference.

The benchmark runs on shared virtual machines whose speed drifts by
15-30 % over tens of seconds to minutes: a fixed pure-Python loop, timed
back to back with no steal time reported, varies that much.  Raw seconds
from two runs a few minutes apart therefore differ by more than any
useful regression bound.

The probe is a fixed computation that the program under test never
touches.  It is timed before the first op and after every op; each op's
time is scaled by the probe's reference duration over the mean of the
probes on either side of it, which expresses it in seconds at the
reference speed.  A change to gdbound cannot move the probe, so the
scaling cancels machine drift and nothing else.

Different ops slow down differently when the machine does, so a probe
is built from the parts that behave like its workload's op: the
small-vector loop alone tracks pairwise-hinge SGD; numpy bulk work and
graph code are tracked best by all parts together.
"""

from __future__ import annotations

import time

import numpy as np

# Duration of each part on the machine the benchmark was defined on
# (2 vCPU Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4), typical load.
REFERENCE_S = {
    "interpreter": 0.0140,   # pure-Python integer loop
    "sgd_steps": 0.0130,     # 4000 pairwise-hinge updates on 72-vectors
    "set_scan": 0.0012,      # scans of a set of 4000 edge tuples
    "eigh": 0.0038,          # 72 x 72 symmetric eigendecompositions
    "memory": 0.0098,        # sums over a 16 MB array
}
ALL_PARTS = tuple(REFERENCE_S)


class SpeedProbe:
    def __init__(self, parts=ALL_PARTS):
        self.parts = tuple(parts)
        self.reference_s = sum(REFERENCE_S[p] for p in self.parts)
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(400, 72))
        pairs = rng.integers(0, 400, size=(2, 4000))
        self._diffs = rows[pairs[0]] - rows[pairs[1]]
        self._edges = frozenset((int(u), int(v)) for u, v in pairs.T)
        self._gram = rows.T @ rows / rows.shape[0]
        self._block = np.ones(1 << 21)
        self()  # the first LAPACK call pays a one-off set-up

    def __call__(self):
        """Seconds taken by one run of the selected parts."""
        start = time.perf_counter()
        for part in self.parts:
            getattr(self, "_" + part)()
        return time.perf_counter() - start

    def scaled(self, seconds, probe_before, probe_after):
        """seconds at reference speed, given the probes on either side."""
        return seconds * self.reference_s / (0.5 * (probe_before + probe_after))

    def _interpreter(self):
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    def _sgd_steps(self):
        w = np.zeros(72)
        for diff in self._diffs:
            margin = w @ diff
            w *= 0.999
            if margin < 1.0:
                w += 0.01 * diff
        return w

    def _set_scan(self):
        return sum(1 for _ in range(5) for a, b in self._edges if a == 7 or b == 7)

    def _eigh(self):
        return [np.linalg.eigh(self._gram)[0][-1] for _ in range(5)]

    def _memory(self):
        return [self._block.sum() for _ in range(8)]
