"""Points and rectangular domains."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

Point = Tuple[float, ...]


def as_point(coords) -> Point:
    return tuple(float(c) for c in coords)


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_n, hi_n] with lo_i < hi_i
    and every width hi_i - lo_i finite."""

    intervals: Tuple[Tuple[float, float], ...]

    def __init__(self, intervals: Sequence[Sequence[float]]):
        ivs = tuple((float(lo), float(hi)) for lo, hi in intervals)
        if not ivs:
            raise ValueError("a domain box needs at least one axis")
        for lo, hi in ivs:
            if not lo < hi:
                raise ValueError(f"degenerate interval [{lo}, {hi}]")
            if not np.isfinite(hi - lo):
                raise ValueError(f"interval [{lo}, {hi}] has a width that is not finite")
        object.__setattr__(self, "intervals", ivs)

    @staticmethod
    def cube(lo: float, hi: float, dimension: int) -> "DomainBox":
        return DomainBox([(lo, hi)] * dimension)

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    @property
    def lows(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.intervals])

    @property
    def highs(self) -> np.ndarray:
        return np.array([hi for _, hi in self.intervals])

    def center(self) -> Point:
        return tuple((lo + hi) / 2.0 for lo, hi in self.intervals)

    def volume(self) -> float:
        v = 1.0
        for lo, hi in self.intervals:
            v *= hi - lo
        return v

    def contains(self, p: Sequence[float], slack: float = 0.0) -> bool:
        if len(p) != self.dimension:
            return False
        return all(
            lo - slack <= float(c) <= hi + slack
            for c, (lo, hi) in zip(p, self.intervals)
        )

    def contains_rows(self, rows: np.ndarray, slack: float = 0.0) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        lo = self.lows - slack
        hi = self.highs + slack
        return np.all((rows >= lo) & (rows <= hi), axis=-1)

    def inflate(self, factor: float) -> "DomainBox":
        """Scale every interval about its midpoint.  An interval whose image
        is wider than the largest float is named in the ValueError."""
        out = []
        for lo, hi in self.intervals:
            mid = lo / 2.0 + hi / 2.0
            half = (hi - lo) / 2.0 * factor
            if not np.isfinite((mid + half) - (mid - half)):
                raise ValueError(f"interval [{lo}, {hi}] inflated {factor:g} times has a width that is not finite")
            out.append((mid - half, mid + half))
        return DomainBox(out)

    def shrink(self, factor: float) -> "DomainBox":
        return self.inflate(factor)

    def sample(self, rng, count: int) -> np.ndarray:
        """Uniform samples, shape (count, dimension)."""
        return rng.uniform(self.lows, self.highs, size=(count, self.dimension))

    def grid(self, per_axis) -> np.ndarray:
        """Regular grid including endpoints, shape (prod(per_axis), dimension)."""
        if isinstance(per_axis, int):
            per_axis = [per_axis] * self.dimension
        for k in per_axis:
            if k < 0:
                raise ValueError(f"grid counts must be non-negative, got {k}")
        axes = [
            np.linspace(lo, hi, k)
            for (lo, hi), k in zip(self.intervals, per_axis)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)
