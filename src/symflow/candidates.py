"""Candidate involution synthesis and closed-form family classifications.

Candidates come from inverting the packed derivative map pointwise: if a
measure-preserving symmetry or reversibility exists, its image at z solves
Delta(w) = S Delta(z) with S the identity (symmetry) or the selection's sign
matrix (reversibility).  That equation can have several roots, so each root
is held to the tower law at the two orders past the selection: a symmetry
keeps every divergence derivative, D_j(w) = D_j(z), and a reversibility
negates the even orders.  The planar predator-prey and damped-oscillator
families additionally admit exact classifications with explicit maps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .checks import check_structural
from .expr import Expression, identically_zero, to_string
from .fields import SmoothMap, VectorField, det_kernel, is_involution, is_measure_preserving
from .geometry import DomainBox, Point, as_point
from .numeric import compile_components, newton_batch, row_norms
from .parser import parse
from .tower import Selection, build_tower, delta_map
from .verdict import Certainty, CheckKind, Witness

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
MULTISTART = 5
TRIVIAL_TOL = 1e-6
CONSISTENCY_TOL = 1e-6
SINGULAR_TOL = 1e-8
FIT_TOL = 1e-6

EXISTS = "exists"
NOT_EXISTS = "not_exists"
HYPOTHESES_VIOLATED = "hypotheses_violated"


class SingularDeltaError(Exception):
    """The packed derivative map is singular at the requested point."""


@dataclass(frozen=True)
class DeltaRoot:
    point: Point
    residual: float
    trivial: bool  # w == z, always present for the symmetry equation
    consistent: bool  # D_j(w) = s_j D_j(z) at orders max_order + 1 and + 2


class _DeltaSolver:
    """Compiled machinery for solving Delta(w) = S Delta(z), batched over
    points, and for checking each root against the tower law."""

    def __init__(self, F: VectorField, selection: Selection, kind: CheckKind):
        m = selection.max_order
        tower = build_tower(F, m + 2)
        delta = delta_map(tower, selection)
        n = delta.dimension
        self.fn = compile_components(delta.components)
        self.jac = compile_components([ex.differentiate(c, j + 1) for c in delta.components for j in range(n)])
        self.signs = np.array([kind.tower_sign(j) for j in selection.entries], dtype=float)
        # on the fixed line of a reversibility the even order m + 1 or m + 2
        # vanishes at every root, so the law needs both orders
        self.law = compile_components(tower.orders[m + 1:])
        self.law_signs = np.array([kind.tower_sign(j) for j in (m + 1, m + 2)], dtype=float)

    def singular(self, Z: np.ndarray, tol: float = SINGULAR_TOL) -> np.ndarray:
        """Per point of Z (m, n): is |det J_Delta| below tol (1 + max |J|)?"""
        with np.errstate(all="ignore"):
            J = self.jac(Z.T)
            det = det_kernel(Z.shape[1])(J)[0]
        return np.abs(det) < tol * (1.0 + np.abs(J).max(axis=0))

    def solve(self, Z: np.ndarray, seeds: np.ndarray, newton_tol: float = NEWTON_TOL) -> List[List[DeltaRoot]]:
        """Per point z of Z (m, n), the roots of Delta(w) = S Delta(z) that
        Newton reaches from the seeds and from z, all in one batched solve.
        A point's roots are its converged rows, the consistent ones first
        and each in seed order, less those within the merge radius of a
        root already kept, sorted by coordinates; a root within that radius
        of z is trivial.  The radius is TRIVIAL_TOL, or newton_tol when
        that is larger: Newton stops once the residual is below newton_tol,
        and a loose tolerance leaves its copies of one root up to about
        newton_tol / 3 apart.
        A root is consistent when |D_j(w) - s_j D_j(z)| is at most
        CONSISTENCY_TOL (1 + max(|D_j(w)|, |D_j(z)|)) at both law orders."""
        m, n = Z.shape
        k = len(seeds) + 1
        starts = np.empty((m, k, n))
        starts[:, :-1] = seeds
        starts[:, -1] = Z
        with np.errstate(all="ignore"):
            targets = np.repeat(self.signs * self.fn(Z.T).T, k, axis=0)
        W, ok, r = newton_batch(self.fn, self.jac, starts.reshape(m * k, n), targets,
                                tol=newton_tol, max_iter=NEWTON_MAX_ITER)
        W, ok, r = W.reshape(m, k, n), ok.reshape(m, k), r.reshape(m, k)
        radius = max(TRIVIAL_TOL, newton_tol)
        trivial = row_norms(W - Z[:, None, :]) < radius
        with np.errstate(all="ignore"):
            DW = np.moveaxis(self.law(np.moveaxis(W, -1, 0)), 0, -1)
            DZ = (self.law_signs * self.law(Z.T).T)[:, None, :]
            lawful = (np.abs(DW - DZ) <= CONSISTENCY_TOL * (1 + np.maximum(np.abs(DW), np.abs(DZ)))).all(axis=-1)
        out = []
        for i in range(m):
            rows = np.flatnonzero(ok[i])
            # a root is consistent when one of its copies is, so the lawful
            # copies come first and one of them is kept
            rows = rows[np.argsort(~lawful[i, rows], kind="stable")]
            Wi = W[i, rows]
            near = (row_norms(Wi[:, None, :] - Wi[None, :, :]) < radius).tolist()
            kept: List[int] = []
            for a in range(len(rows)):
                if not any(near[a][b] for b in kept):
                    kept.append(a)
            found = [DeltaRoot(as_point(Wi[a]), float(r[i, rows[a]]), bool(trivial[i, rows[a]]),
                               bool(lawful[i, rows[a]])) for a in kept]
            found.sort(key=lambda root: root.point)
            out.append(found)
        return out


def candidate_from_delta(
    F: VectorField,
    selection: Selection,
    kind: CheckKind,
    z: Sequence[float],
    multistart: int = MULTISTART,
    newton_tol: float = NEWTON_TOL,
    box: Optional[DomainBox] = None,
) -> List[DeltaRoot]:
    """All Newton roots of Delta(w) = S Delta(z) from a multistart seed grid.

    Requires Delta to be non-singular at z.  For the symmetry equation the
    trivial root w = z is always present and comes back flagged.
    """
    box = box or F.domain
    solver = _DeltaSolver(F, selection, kind)
    z = np.asarray(z, dtype=float)[None, :]
    if solver.singular(z)[0]:
        raise SingularDeltaError(f"Delta is singular at {as_point(z[0])}")
    roots = solver.solve(z, box.grid(multistart), newton_tol)[0]
    if not roots:
        raise SingularDeltaError(f"no roots converged at {as_point(z[0])}")
    return roots


@dataclass
class TableEntry:
    point: Point
    image: Point
    branch: int
    residual: float


@dataclass
class CandidatePointMap:
    """Pointwise candidate map recovered from the packed derivative identity."""

    selection: Selection
    kind: CheckKind
    entries: List[TableEntry]
    stats: dict
    status: str  # "ok" | "inconclusive" | "trivial_only"

    def images(self) -> np.ndarray:
        return np.asarray([e.image for e in self.entries])

    def points(self) -> np.ndarray:
        return np.asarray([e.point for e in self.entries])


def _unit_exponent(top) -> int:
    """The k <= 0 for which 2**k * top is below 1, top being the largest
    |entry| of some array (0 when top is not finite)."""
    top = float(top)
    return min(0, -math.frexp(top)[1]) if math.isfinite(top) else 0


def candidate_map_table(
    F: VectorField,
    selection: Selection,
    kind: CheckKind,
    grid: Sequence[int] = (20, 20),
    box: Optional[DomainBox] = None,
    anchor: Optional[Sequence[float]] = None,
    multistart: int = MULTISTART,
    newton_tol: float = NEWTON_TOL,
) -> CandidatePointMap:
    """Recover the candidate map on a grid.

    The Newton work is batched: one solve gives every non-singular grid
    point its roots from the multistart seeds and the point itself, and
    each root is checked against the tower law at the two orders past the
    selection (see _DeltaSolver.solve).  Then a sequential pass, outward
    from the anchor point, selects each point's root branch: (1) the
    trivial identity branch is dropped for symmetries, and (2) the root
    nearest the image at the closest point already assigned
    (nearest-branch continuation) is taken among the consistent roots, or
    among all roots when none is consistent.  stats["inconsistent"] counts
    the points where no root is consistent; they keep their nearest root.
    Branch switches are counted; too many unconverged points yield an
    inconclusive table.
    """
    box = box or F.domain
    solver = _DeltaSolver(F, selection, kind)
    pts = box.grid(list(grid))
    anchor_pt = np.asarray(anchor if anchor is not None else box.center(), dtype=float)
    if anchor_pt.shape != (box.dimension,):
        raise ValueError(f"anchor needs {box.dimension} coordinates, got {anchor_pt.size}")
    # distances are taken between points scaled by 2**k, which brings every
    # coordinate below 1 in size, so that no square overflows; a power of two
    # scales each difference, square, sum and root exactly, so the distances
    # keep their order and ties
    shift = _unit_exponent(max(np.abs(pts).max(initial=0.0), np.abs(anchor_pt).max(initial=0.0)))
    scaled = np.ldexp(pts, shift)
    order = np.argsort(np.linalg.norm(scaled - np.ldexp(anchor_pt, shift), axis=1))

    spacing = max(
        (hi - lo) / max(k - 1, 1) for (lo, hi), k in zip(box.intervals, grid)
    )
    switch_threshold = 5.0 * spacing

    stats = {
        "grid_points": len(pts),
        "singular_filtered": 0,
        "unconverged": 0,
        "inconsistent": 0,
        "trivial_only": 0,
        "branch_switches": 0,
    }

    singular = solver.singular(pts)
    regular = np.flatnonzero(~singular)
    roots_at = dict(zip(regular.tolist(), solver.solve(pts[regular], box.grid(multistart), newton_tol)))

    assigned: dict = {}
    branches: dict = {}
    next_branch = 0

    for idx in order:
        z = pts[idx]
        if singular[idx]:
            stats["singular_filtered"] += 1
            continue
        roots = roots_at[idx]
        if kind is CheckKind.SYMMETRY:
            nontrivial = [r for r in roots if not r.trivial]
            if roots and not nontrivial:
                stats["trivial_only"] += 1
                continue
            roots = nontrivial
        if not roots:
            stats["unconverged"] += 1
            continue

        ref_idx = None
        if assigned:
            keys = list(assigned.keys())
            dists = np.linalg.norm(scaled[keys] - scaled[idx], axis=1)
            ref_idx = keys[int(np.argmin(dists))]
        ref_value = (
            np.asarray(assigned[ref_idx].image) if ref_idx is not None else z
        )
        consistent = [root for root in roots if root.consistent]
        if not consistent:
            stats["inconsistent"] += 1
        # the roots lie anywhere, so their steps from ref_value are scaled
        # on their own; row_norms gives each row np.linalg.norm's bits, and
        # argmin takes the first nearest root, as min does
        pool = consistent or roots
        steps = np.array([root.point for root in pool]) - ref_value
        shift = _unit_exponent(np.abs(steps).max())
        jumps = row_norms(np.ldexp(steps, shift))
        best = int(np.argmin(jumps))
        chosen = pool[best]

        if ref_idx is None:
            branch = next_branch
            next_branch += 1
        else:
            if jumps[best] > math.ldexp(switch_threshold, shift):
                stats["branch_switches"] += 1
                branch = next_branch
                next_branch += 1
            else:
                branch = branches[ref_idx]
        branches[idx] = branch
        assigned[idx] = TableEntry(as_point(z), chosen.point, branch, chosen.residual)

    entries = [assigned[i] for i in sorted(assigned.keys())]
    usable = stats["grid_points"] - stats["singular_filtered"]
    if usable == 0:
        status = "inconclusive"
    elif not entries and stats["trivial_only"] > 0.8 * usable:
        status = "trivial_only"
    elif stats["unconverged"] > 0.2 * usable:
        status = "inconclusive"
    else:
        status = "ok"
    return CandidatePointMap(selection, kind, entries, stats, status)


def fit_affine_candidate(cmap: CandidatePointMap, domain: DomainBox):
    """Least-squares affine fit of the table, with coefficients snapped to
    small rationals; returns (map, max residual) or None if no affine map
    reproduces the table to within the fit tolerance."""
    if len(cmap.entries) < 3:
        return None
    Z = cmap.points()
    W = cmap.images()
    n = Z.shape[1]
    design = np.hstack([Z, np.ones((len(Z), 1))])
    coeffs, *_ = np.linalg.lstsq(design, W, rcond=None)
    residual = float(np.max(np.abs(design @ coeffs - W)))
    if residual > FIT_TOL:
        return None
    snapped = np.empty_like(coeffs)
    comps = []
    for i in range(n):
        acc: Expression = ex.ZERO
        for j in range(n + 1):
            q = Fraction(float(coeffs[j, i])).limit_denominator(100_000)
            snapped[j, i] = float(q)
            if j < n:
                acc = ex.add(acc, ex.mul(ex.Const(q), ex.Var(j + 1)))
            else:
                acc = ex.add(acc, ex.Const(q))
        comps.append(ex.simplify(acc))
    snapped_residual = float(np.max(np.abs(design @ snapped - W)))
    if snapped_residual > 10 * FIT_TOL:
        return None
    return SmoothMap(comps, domain), max(residual, snapped_residual)


def candidate_table_to_csv(cmap: CandidatePointMap, path: str) -> None:
    n = cmap.selection.dimension
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"z{i}" for i in range(1, n + 1)]
        header += [f"sigma{i}" for i in range(1, n + 1)]
        header += ["branch", "residual"]
        writer.writerow(header)
        for e in cmap.entries:
            row = [repr(float(c)) for c in e.point]
            row += [repr(float(c)) for c in e.image]
            row += [str(e.branch), repr(float(e.residual))]
            writer.writerow(row)


# ---------------------------------------------------------------------------
# closed-form classifications
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    name: str
    passed: bool
    certainty: Certainty
    detail: str = ""
    witness: Optional[Witness] = None


@dataclass
class ClassificationBranch:
    kind: CheckKind
    verdict: str
    sigma: Optional[SmoothMap]
    conditions: List[ConditionReport]
    verification: dict

    @property
    def exists(self) -> bool:
        return self.verdict == EXISTS


@dataclass
class Classification:
    family: str
    reversibility: ClassificationBranch
    symmetry: ClassificationBranch

    @property
    def overall(self) -> str:
        branches = (self.reversibility, self.symmetry)
        if any(b.verdict == EXISTS for b in branches):
            return EXISTS
        if all(b.verdict == HYPOTHESES_VIOLATED for b in branches):
            return HYPOTHESES_VIOLATED
        return NOT_EXISTS

    def branch(self, kind: CheckKind) -> ClassificationBranch:
        return self.reversibility if kind is CheckKind.REVERSIBILITY else self.symmetry


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)  # exact binary value; pass strings for decimals
    raise TypeError(f"cannot interpret {v!r} as a rational")


def lotka_volterra_field(a, b, c, d, box: Optional[DomainBox] = None) -> VectorField:
    """Planar predator-prey field (x(a - b y), y(c x - d))."""
    a, b, c, d = map(_as_fraction, (a, b, c, d))
    box = box or DomainBox.cube(-2.0, 2.0, 2)
    F1 = ex.mul(ex.Var(1), ex.sub(ex.Const(a), ex.mul(ex.Const(b), ex.Var(2))))
    F2 = ex.mul(ex.Var(2), ex.sub(ex.mul(ex.Const(c), ex.Var(1)), ex.Const(d)))
    return VectorField([F1, F2], box)


def lienard_field(f: Expression, g: Expression, box: Optional[DomainBox] = None) -> VectorField:
    """Damped-oscillator field (y, -g(x) - y f(x))."""
    box = box or DomainBox([(-1.0, 1.0), (-2.0, 2.0)])
    F2 = ex.neg(ex.add(g, ex.mul(ex.Var(2), f)))
    return VectorField([ex.Var(2), F2], box)


class VerificationError(RuntimeError):
    """A map that a classifier emitted failed its own re-verification: an
    internal error, not a verdict on the input."""


def _verify_emitted(F: VectorField, sigma: SmoothMap, kind: CheckKind, rng=None) -> dict:
    checks = {
        "structural": check_structural(F, sigma, kind, rng=rng),
        "involution": is_involution(sigma, rng=rng),
        "measure_preserving": is_measure_preserving(sigma, rng=rng),
    }
    if not all(v.holds for v in checks.values()):
        bad = ", ".join(k for k, v in checks.items() if not v.holds)
        raise VerificationError(f"internal error: emitted map failed verification ({bad})")
    return checks


def _route(kind: CheckKind, F: VectorField, hypotheses: List[ConditionReport],
           conditions: Callable[[], List[ConditionReport]], sigma: Callable[[], SmoothMap],
           rng=None) -> ClassificationBranch:
    """One branch of a classification: hypotheses_violated unless every
    hypothesis passes; else the conditions, called only then, decide
    between not_exists and exists with the map sigma() re-verified."""
    if not all(c.passed for c in hypotheses):
        return ClassificationBranch(kind, HYPOTHESES_VIOLATED, None, hypotheses, {})
    reports = hypotheses + conditions()
    if not all(c.passed for c in reports):
        return ClassificationBranch(kind, NOT_EXISTS, None, reports, {})
    emitted = sigma()
    return ClassificationBranch(kind, EXISTS, emitted, reports, _verify_emitted(F, emitted, kind, rng=rng))


def classify_lotka_volterra(a, b, c, d, box: Optional[DomainBox] = None) -> Classification:
    """Exact classification of the planar predator-prey family.

    With b c != 0 the family has an area-preserving reversibility exactly
    when a = d, namely (b y / c, c x / b), and an area-preserving symmetry
    exactly when a + d = 0, namely (-b y / c, -c x / b).  All conditions are
    exact rational tests; emitted maps are re-verified before return.
    """
    a, b, c, d = map(_as_fraction, (a, b, c, d))
    F = lotka_volterra_field(a, b, c, d, box)
    bc = ConditionReport("bc_nonzero", b * c != 0, Certainty.CERTAIN,
                         f"b*c = {b * c}" if b * c else "b = 0 or c = 0 degenerates the system into a triangular one")

    def swap(s: int) -> Callable[[], SmoothMap]:
        # (s b y / c, s c x / b)
        return lambda: SmoothMap([ex.simplify(ex.mul(ex.Const(s * b / c), ex.Var(2))),
                                  ex.simplify(ex.mul(ex.Const(s * c / b), ex.Var(1)))], F.domain)

    return Classification(
        "lotka_volterra",
        _route(CheckKind.REVERSIBILITY, F, [bc],
               lambda: [ConditionReport("a_equals_d", a == d, Certainty.CERTAIN, f"a - d = {a - d}")], swap(1)),
        _route(CheckKind.SYMMETRY, F, [bc],
               lambda: [ConditionReport("a_plus_d_zero", a + d == 0, Certainty.CERTAIN, f"a + d = {a + d}")],
               swap(-1)),
    )


def _sign_profile(e: Expression) -> Optional[str]:
    """Certain sign information from the canonical form of a one-variable
    polynomial: "positive" (positive away from 0), "odd_positive"
    (sign matches x), "odd_negative" (sign opposes x), or None."""
    terms = ex.polynomial_terms(e)
    if not terms:
        return None
    degrees = [sum(exps) for exps in terms]
    coeffs = list(terms.values())
    if all(d % 2 == 0 and d > 0 for d in degrees) and all(c > 0 for c in coeffs):
        return "positive"
    if all(d % 2 == 1 for d in degrees) and all(c > 0 for c in coeffs):
        return "odd_positive"
    if all(d % 2 == 1 for d in degrees) and all(c < 0 for c in coeffs):
        return "odd_negative"
    return None


def _sampled_halves(e: Expression, interval: Tuple[float, float]):
    """(min, max, argmin x) of e over 100 evenly spaced points on each
    half of the interval, left then right, kept 1e-6 (hi - lo) off its ends
    and off 0, over the finite values; None when a sampled half has none.
    A half narrower than two margins is skipped: it reads as the empty
    range (inf, -inf, nan), which passes every sign test (the other half
    is then wide, since 0 is inside the interval)."""
    lo, hi = interval
    margin = 1e-6 * (hi - lo)
    fn = compile_components([e])
    halves = []
    for a, b in ((lo + margin, -margin), (margin, hi - margin)):
        if a >= b:
            halves.append((np.inf, -np.inf, np.nan))
            continue
        xs = np.linspace(a, b, 100)
        with np.errstate(all="ignore"):
            vals = fn(xs[None])[0]
        finite = np.isfinite(vals)
        if not finite.any():
            return None
        xs, vals = xs[finite], vals[finite]
        i = int(np.argmin(vals))
        halves.append((float(vals[i]), float(vals.max()), float(xs[i])))
    return halves


def _positive_away_from_zero(e: Expression, interval: Tuple[float, float], name: str) -> ConditionReport:
    """e > 0 on the interval away from 0: certain for a positive even-power
    form, else sampled, with the lowest sample (the left one on a tie) as
    the witness against it."""
    if _sign_profile(e) == "positive":
        return ConditionReport(name, True, Certainty.CERTAIN, f"{to_string(ex.simplify(e))} is a positive even-power form")
    halves = _sampled_halves(e, interval)
    if halves is None:
        return ConditionReport(name, False, Certainty.PROBABILISTIC, "could not sample the expression")
    low, _, x = min(halves, key=lambda half: half[0])
    if low > 0:
        return ConditionReport(name, True, Certainty.PROBABILISTIC, f"sampled min {low:.3g} > 0")
    return ConditionReport(name, False, Certainty.PROBABILISTIC, f"sampled value {low:.3g} <= 0", ((x,), low))


def _v_shape(fprime: Expression, interval: Tuple[float, float]) -> ConditionReport:
    """Decreasing-then-increasing (or the mirrored pattern, accepted via time
    reversal) for the damping derivative."""
    profile = _sign_profile(fprime)
    if profile == "odd_positive":
        return ConditionReport("fprime_v_shape", True, Certainty.CERTAIN, "derivative sign matches x (standard pattern)")
    if profile == "odd_negative":
        return ConditionReport("fprime_v_shape", True, Certainty.CERTAIN, "mirrored sign pattern accepted (time reversal)")
    halves = _sampled_halves(fprime, interval)
    if halves is None:
        return ConditionReport("fprime_v_shape", False, Certainty.PROBABILISTIC, "could not sample the derivative")
    (left_min, left_max, _), (right_min, right_max, _) = halves
    if left_max < 0 and right_min > 0:
        return ConditionReport("fprime_v_shape", True, Certainty.PROBABILISTIC, "sampled: negative left of 0, positive right")
    if left_min > 0 and right_max < 0:
        return ConditionReport("fprime_v_shape", True, Certainty.PROBABILISTIC, "sampled mirrored pattern accepted (time reversal)")
    return ConditionReport(
        "fprime_v_shape", False, Certainty.PROBABILISTIC,
        f"sampled ranges left [{left_min:.3g}, {left_max:.3g}], right [{right_min:.3g}, {right_max:.3g}]",
    )


def _parity_condition(e: Expression, name: str, even: bool, box: DomainBox, rng=None) -> ConditionReport:
    mirrored = ex.compose(e, [ex.neg(ex.Var(1))])
    residual = ex.sub(e, mirrored) if even else ex.add(e, mirrored)
    v = identically_zero(residual, box, rng=rng)
    witness = v.witnesses[0] if v.witnesses else None
    return ConditionReport(name, v.holds, v.certainty, v.notes, witness)


def _f_at_zero(f: Expression) -> ConditionReport:
    try:
        value = ex.evaluate_exact(f, (Fraction(0),))
        return ConditionReport("f_zero_at_origin", value == 0, Certainty.CERTAIN, f"f(0) = {value}")
    except ex.ExprError:
        pass
    try:
        value = ex.evaluate(f, (0.0,))
    except ex.EvaluationError:
        return ConditionReport("f_zero_at_origin", False, Certainty.PROBABILISTIC, "f(0) undefined")
    return ConditionReport(
        "f_zero_at_origin", abs(value) < 1e-12, Certainty.PROBABILISTIC, f"f(0) = {value:.3g}"
    )


def classify_lienard(
    f,
    g,
    interval: Tuple[float, float] = (-1.0, 1.0),
    y_range: Tuple[float, float] = (-2.0, 2.0),
    rng=None,
) -> Classification:
    """Classification of the damped-oscillator family x'' + f(x) x' + g(x) = 0.

    Reversibility route (monotone damping, restoring force of the sign of x):
    an area-preserving reversibility exists iff f and g are both odd, and it
    is the mirror map (-x, y).  Symmetry route (V-shaped damping): a
    non-trivial area-preserving symmetry exists iff f is even and g is odd,
    and it is the point reflection (-x, -y).  Sign hypotheses on an interval
    are certified symbolically when the canonical form allows it and sampled
    otherwise; sampled outcomes are reported as probabilistic.
    """
    if isinstance(f, str):
        f = parse(f, 1)
    if isinstance(g, str):
        g = parse(g, 1)
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < 0 < hi:
        raise ValueError(f"interval must contain 0 in its interior, got ({lo}, {hi})")
    box = DomainBox([(lo, hi), y_range])
    box1 = DomainBox([(lo, hi)])
    F = lienard_field(f, g, box)
    fprime = ex.differentiate(f, 1)
    xg_pos = _positive_away_from_zero(ex.mul(ex.Var(1), g), (lo, hi), "xg_positive")

    def parity(e: Expression, name: str, even: bool) -> ConditionReport:
        return _parity_condition(e, name, even=even, box=box1, rng=rng)

    # reversibility, drawing from rng first: f(0)=0, f' > 0 away from 0, x g(x) > 0 away from 0
    branch_r = _route(
        CheckKind.REVERSIBILITY, F,
        [_f_at_zero(f), _positive_away_from_zero(fprime, (lo, hi), "fprime_positive"), xg_pos],
        lambda: [parity(f, "f_odd", False), parity(g, "g_odd", False)],
        lambda: SmoothMap([ex.neg(ex.Var(1)), ex.Var(2)], box), rng)
    # symmetry: V-shaped (or mirrored) damping derivative, x g(x) > 0 away from 0
    branch_s = _route(
        CheckKind.SYMMETRY, F, [_v_shape(fprime, (lo, hi)), xg_pos],
        lambda: [parity(f, "f_even", True), parity(g, "g_odd", False)],
        lambda: SmoothMap([ex.neg(ex.Var(1)), ex.neg(ex.Var(2))], box), rng)
    return Classification("lienard", branch_r, branch_s)
