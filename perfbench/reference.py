"""Machine-speed reference for the benchmark.

On a shared host the speed of the same code swings by a fifth or more
from one minute to the next, with the load other tenants put on the
caches, the memory and the cores.  A fixed mix of the kinds of work the
library does slows down with it and, unlike the library, never changes:
random lookups in a dictionary larger than the core's own cache (the
exact layers' term tables and memos), complex vector arithmetic in numpy
(the Aberth solver) and big-integer arithmetic (the exact powers and the
mpmath refine), each about a third of a pass.  run.py times passes
between requests in its own process, so that they run where and when
the requests do, and scales the end-to-end times by the median pass.
"""

from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

import numpy as np

ENTRIES = 30_000
LOOKUPS = 15_000
POINTS = 200
VECTOR_ROUNDS = 5
BIG_ROUNDS = 170


class Reference:
    def __init__(self):
        self.passes: list[float] = []
        self.last = -math.inf
        self.table = {i: i * 2654435761 % 1000003 for i in range(ENTRIES)}
        self.keys = random.Random(0).sample(range(ENTRIES), LOOKUPS)
        self.z = 0.9 * np.exp(2j * np.pi * np.arange(POINTS) / POINTS)
        self.coeffs = np.random.default_rng(0).standard_normal(POINTS + 1) + 0j
        self.dcoeffs = self.coeffs[:-1] * np.arange(POINTS, 0, -1)
        self.eye = np.eye(POINTS)
        self.base, self.modulus = 3 ** 2000, 7 ** 1500 + 12345

    def run_pass(self) -> None:
        t0 = perf_counter()
        total = 0
        for k in self.keys:
            total += self.table[k]
        z = self.z
        for _ in range(VECTOR_ROUNDS):
            ratio = np.polyval(self.coeffs, z) / np.polyval(self.dcoeffs, z)
            pull = (1 / (z[:, None] - z[None, :] + self.eye)).sum(axis=1)
            total += int(abs(ratio[0] + pull[0]) > 0)
        a = self.base
        for _ in range(BIG_ROUNDS):
            a = a * self.base % self.modulus
        self.passes.append(perf_counter() - t0)
        self.last = perf_counter()

    def median(self) -> float:
        return statistics.median(self.passes)
