"""Seek-time model calibrated to a spec's (min, avg, max) seek times.

Seek time as a function of cylinder distance ``d`` is modeled with the
standard two-regime-inspired curve

    t(d) = a + b * sqrt(d) + c * d      for d >= 1,     t(0) = 0

(square-root acceleration-limited region plus a linear coast term). The
three coefficients are solved from three constraints:

- ``t(1) = seek_min`` (single-cylinder seek),
- ``t(D) = seek_max`` (full stroke, ``D = cylinders - 1``),
- ``E[t(d) | d >= 1] = seek_avg`` under the distance distribution of
  uniformly random seeks, ``P(d) ∝ 2 * (N - d)`` for ``1 <= d < N``.

This matches how drive vendors quote "average seek" and gives a smooth,
monotonic curve hitting all three published numbers exactly.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.disk.specs import DiskSpec


class SeekModel:
    """Seek time (ms) as a function of cylinder distance.

    The curve is evaluated once per possible distance at construction
    into a lookup table — ``seek_time`` on the service-time hot path is
    then a list index instead of a ``sqrt``. Models are immutable, so
    :meth:`for_spec` shares one instance per spec across all disks of an
    array (the curve fit solves a small linear system; doing it 21 times
    per scenario is pure waste).
    """

    def __init__(self, spec: DiskSpec):
        self.spec = spec
        n = spec.cylinders
        max_distance = n - 1
        if max_distance == 1:
            # Two-cylinder degenerate disk: min == the only seek.
            self._coefficients = (spec.seek_min_ms, 0.0, 0.0)
            self._table = [0.0, spec.seek_min_ms]
            return
        distances = np.arange(1, n, dtype=float)
        weights = 2.0 * (n - distances)
        weights /= weights.sum()
        mean_sqrt = float((weights * np.sqrt(distances)).sum())
        mean_linear = float((weights * distances).sum())
        matrix = np.array(
            [
                [1.0, 1.0, 1.0],
                [1.0, math.sqrt(max_distance), float(max_distance)],
                [1.0, mean_sqrt, mean_linear],
            ]
        )
        targets = np.array([spec.seek_min_ms, spec.seek_max_ms, spec.seek_avg_ms])
        a, b, c = np.linalg.solve(matrix, targets)
        self._coefficients = (float(a), float(b), float(c))
        # math.sqrt per element (not np.sqrt over the arange) so table
        # entries are bit-identical to what the formula previously
        # returned per call.
        self._table = [0.0] + [
            float(a) + float(b) * math.sqrt(d) + float(c) * d
            for d in range(1, n)
        ]

    @classmethod
    @functools.lru_cache(maxsize=None)
    def for_spec(cls, spec: DiskSpec) -> "SeekModel":
        """The shared (immutable) model for a spec."""
        return cls(spec)

    @property
    def coefficients(self) -> tuple:
        """The fitted ``(a, b, c)`` of ``t(d) = a + b*sqrt(d) + c*d``."""
        return self._coefficients

    @property
    def table(self) -> tuple:
        """The distance-indexed lookup table (``table[d]`` = seek ms).

        Exposed for SPTF pricing, which indexes it directly instead of
        calling :meth:`seek_time` per candidate — same floats, same bits.
        """
        return tuple(self._table)

    def seek_time(self, distance: int) -> float:
        """Seek time in ms for a move of ``distance`` cylinders."""
        if distance < 0:
            raise ValueError(f"negative seek distance {distance}")
        return self._table[distance]

    def average_over_random_seeks(self) -> float:
        """Mean of ``seek_time`` under the random-seek distance law.

        Should reproduce ``spec.seek_avg_ms`` up to float error; exposed
        for calibration tests.
        """
        n = self.spec.cylinders
        distances = np.arange(1, n, dtype=float)
        weights = 2.0 * (n - distances)
        weights /= weights.sum()
        times = np.array([self.seek_time(int(d)) for d in distances])
        return float((weights * times).sum())
