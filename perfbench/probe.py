"""Machine-speed probe that turns wall seconds into reference seconds.

The benchmark runs on shared machines whose speed drifts by 30-45% over
minutes, as other tenants' load comes and goes.  That drift moves every
pass of a run alike, so no estimator within a run removes it.  The probe
times four small fixed pieces of the kinds of work the CLI does: pure-Python
JSON encoding with indent, 40-digit mpmath arithmetic, a numpy array pass
and a numpy elimination loop (~20 ms in all).  It runs right before every
op.  Its slowness is the mean of each piece's time over its REFERENCE_S
time, and a timing is reported as

    seconds / slowness

that is, in seconds of a machine on which every piece takes its reference
time.  The probe does not touch optquad, so a change to the package moves
the numerator only.
"""
from __future__ import annotations

import json
import time

import mpmath as mp
import numpy as np

# Median time of each piece on a 2-core Intel Xeon VM (numpy 2.4, mpmath 1.3).
REFERENCE_S = (0.010, 0.002, 0.0013, 0.0045)


class Probe:
    def __init__(self):
        self.rows = [{"beta": i, "x": i / 3000, "c": 1 / (i + 1)} for i in range(1500)]
        self.grid = np.linspace(0.0, 1.0, 250_000)
        self.matrix = np.random.default_rng(1).random((160, 160))

    def _json(self):
        json.dumps({"rows": self.rows}, indent=2)

    def _mpmath(self):
        with mp.workdps(40):
            acc, third = mp.mpf(0), mp.mpf(1) / 3
            for i in range(400):
                acc += third * (i + 1)

    def _array(self):
        float((np.sinh(self.grid) - self.grid).sum())

    def _eliminate(self):
        a = self.matrix.copy()
        for k in range(a.shape[0] - 1):
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / (a[k, k] + 1.0), a[k, k + 1:])

    def __call__(self) -> float:
        """How many times slower than the reference machine this one is right now."""
        ratios = []
        for piece, reference in zip((self._json, self._mpmath, self._array, self._eliminate),
                                    REFERENCE_S):
            start = time.perf_counter()
            piece()
            ratios.append((time.perf_counter() - start) / reference)
        return sum(ratios) / len(ratios)
