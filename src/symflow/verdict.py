"""Structured results for identity and structure checks."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .geometry import Point, as_point

Witness = Tuple[Point, float]

WITNESS_CAP = 3


class Status(str, enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


class Certainty(str, enum.Enum):
    CERTAIN = "certain"
    PROBABILISTIC = "probabilistic"


class CheckKind(str, enum.Enum):
    """Which flow relation a candidate map is tested against.

    A symmetry commutes with the flow and preserves the field direction; a
    reversibility anti-commutes and runs the flow backwards.
    """

    SYMMETRY = "symmetry"
    REVERSIBILITY = "reversibility"

    def tower_sign(self, order: int) -> int:
        if self is CheckKind.SYMMETRY:
            return 1
        return -1 if order % 2 == 0 else 1

    @property
    def flow_time_sign(self) -> int:
        return 1 if self is CheckKind.SYMMETRY else -1


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check: holds / fails / inconclusive plus evidence.

    `certainty` records whether the outcome rests on exact canonical-form
    arithmetic or on sampling.  A fails verdict always carries at least one
    witness point with its residual.
    """

    status: Status
    certainty: Certainty
    residual_max: float = 0.0
    witnesses: Tuple[Witness, ...] = ()
    notes: str = ""

    def __post_init__(self):
        if self.status is Status.FAILS and not self.witnesses:
            raise ValueError("a fails verdict requires at least one witness")
        if self.residual_max < 0:
            raise ValueError("residual_max must be nonnegative")

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def failed(self) -> bool:
        return self.status is Status.FAILS

    @property
    def certain(self) -> bool:
        return self.certainty is Certainty.CERTAIN

    @staticmethod
    def inconclusive(notes: str = "") -> "Verdict":
        return Verdict(Status.INCONCLUSIVE, Certainty.PROBABILISTIC, 0.0, (), notes)

    def with_notes(self, notes: str) -> "Verdict":
        return Verdict(self.status, self.certainty, self.residual_max, self.witnesses, notes)

    def to_jsonable(self) -> dict:
        return {
            "status": self.status.value,
            "certainty": self.certainty.value,
            "residual_max": repr(float(self.residual_max)),
            "witnesses": [
                {"point": [repr(float(c)) for c in p], "residual": repr(float(r))}
                for p, r in self.witnesses
            ],
            "notes": self.notes,
        }


def top_witnesses(points, residuals: np.ndarray, rows: np.ndarray) -> Tuple[Witness, ...]:
    """The WITNESS_CAP selected rows with the largest residuals; ties keep
    sample order."""
    idx = np.flatnonzero(rows)
    top = idx[np.argsort(-residuals[idx], kind="stable")][:WITNESS_CAP]
    return tuple((as_point(points[i]), float(residuals[i])) for i in top)


def threshold_verdict(residuals, points, tol: float, notes: str) -> Verdict:
    """The probabilistic verdict on sampled residuals of a law, residuals[i]
    taken at points[i].

    A non-finite residual is an evaluation error: its row is skipped and
    counted in the notes, and with no finite row the verdict is
    inconclusive.  The law holds when the worst finite residual is below
    tol; otherwise it fails, with the top witnesses among the rows whose
    residual is at least tol.
    """
    r = np.asarray(residuals, dtype=float)
    finite = np.isfinite(r)
    errors = int(r.size - finite.sum())
    if errors:
        notes += f", {errors} evaluation errors skipped"
    if not finite.any():
        return Verdict.inconclusive(notes)
    worst = float(r[finite].max())
    if worst < tol:
        return Verdict(Status.HOLDS, Certainty.PROBABILISTIC, worst, (), notes)
    return Verdict(Status.FAILS, Certainty.PROBABILISTIC, worst, top_witnesses(points, r, finite & (r >= tol)), notes)


def exact_value_verdict(value, point, tol: float, label: str) -> Verdict:
    """The verdict that label, a value computed exactly at point, vanishes:
    certain when it is exactly 0, probabilistic when it is nonzero but below
    tol in magnitude, and a certain failure otherwise, with point as its
    witness."""
    mag = abs(float(value))
    if value == 0:
        return Verdict(Status.HOLDS, Certainty.CERTAIN, 0.0, (), f"{label} = 0 exactly")
    if mag < tol:
        return Verdict(Status.HOLDS, Certainty.PROBABILISTIC, mag, (),
                       f"|{label}| = {mag:.3g} below threshold {tol:.3g}")
    return Verdict(Status.FAILS, Certainty.CERTAIN, mag, ((as_point(point), mag),),
                   f"{label} = {float(value):.6g} (threshold {tol:.3g})")


def combine(parts: Sequence[Verdict], notes: str = "") -> Verdict:
    """Aggregate component verdicts: any failure is decisive, any remaining
    inconclusive part blocks a holds, certainty survives only if unanimous."""
    if not parts:
        return Verdict.inconclusive(notes or "no component checks ran")
    residual = max(p.residual_max for p in parts)
    witnesses = sorted(
        (w for p in parts for w in p.witnesses), key=lambda w: -w[1]
    )[:5]
    certainty = (
        Certainty.CERTAIN
        if all(p.certainty is Certainty.CERTAIN for p in parts)
        else Certainty.PROBABILISTIC
    )
    joined = notes or "; ".join(p.notes for p in parts if p.notes)
    if any(p.status is Status.FAILS for p in parts):
        fail_certain = any(
            p.status is Status.FAILS and p.certainty is Certainty.CERTAIN for p in parts
        )
        return Verdict(
            Status.FAILS,
            Certainty.CERTAIN if fail_certain else Certainty.PROBABILISTIC,
            residual,
            tuple(witnesses),
            joined,
        )
    if any(p.status is Status.INCONCLUSIVE for p in parts):
        return Verdict(Status.INCONCLUSIVE, Certainty.PROBABILISTIC, residual, (), joined)
    return Verdict(Status.HOLDS, certainty, residual, (), joined)
