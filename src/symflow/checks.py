"""Structure checks for candidate (field, map) pairs.

Verifies the field-level commutation identities, the transformation law of
the divergence-derivative tower, the vanishing of even tower orders on the
fixed set of a reversibility, level-set invariance, and local
non-invertibility of the packed derivative map at fixed points.

Certainty policy: a verdict is certain only when both the field and the map
are polynomial, in which case identities are decided through canonical
forms.  Any transcendental ingredient downgrades the whole check to
sampling, even when local rewrites happen to cancel everything.

On the sampled branch nothing is composed and no tower is built.  sigma is
compiled once per check and evaluated at the sample points Z.  The
structural identity evaluates each side at its own points, sigma(Z) or Z
(`expr.sampled_law_verdict`).  The tower law D_j(sigma(z)) = s_j D_j(z)
reads every order at once from one Taylor-jet run of F and div F over the
columns [Z | sigma(Z)] (`numeric.compile_jets`): D_j is j! times the t^j
coefficient of div F along the solution through the point, so the node
budget, which bounds symbolic towers, does not bound it.  A row's scale
at order j is its largest |subterm| of sigma at z, |k! c_k| of every jet
subterm for k <= j at z and at sigma(z), and |residual|; a row where any
of these is not finite is an evaluation error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from . import expr as ex
from .expr import Expression, identically_zero, sampled_law_verdict
from .fields import JacobianMatrix, SmoothMap, VectorField, det_kernel, divergence, jacobian
from .geometry import DomainBox, Point, as_point
from .numeric import compile_components, compile_jets, compile_scaled, newton_batch
from .tower import DivergenceTower, Selection, build_tower, delta_map
from .verdict import CheckKind, Verdict, combine, exact_value_verdict, threshold_verdict

FIXED_POINT_TOL = 1e-8
FIXED_VALUE_TOL = 1e-10
LEVEL_EPS_ON = 1e-8
LEVEL_TOL = 1e-6
SINGULAR_TOL = 1e-8


def _require_same_dimension(F: VectorField, sigma: SmoothMap):
    if F.dimension != sigma.dimension:
        raise ValueError(
            f"field dimension {F.dimension} != map dimension {sigma.dimension}"
        )


def check_structural(
    F: VectorField,
    sigma: SmoothMap,
    kind: CheckKind,
    box: Optional[DomainBox] = None,
    trials: int = 200,
    rng=None,
) -> Verdict:
    """Field-level identity: F(sigma(z)) equals J_sigma(z) F(z) for a
    symmetry and its negative for a reversibility, componentwise."""
    _require_same_dimension(F, sigma)
    box = box or F.domain
    rng = rng if rng is not None else np.random.default_rng(0)
    Jv = jacobian(sigma).times_vector(F.components)
    sign = 1 if kind is CheckKind.SYMMETRY else -1
    parts = []
    if F.is_polynomial() and sigma.is_polynomial():
        for comp, rhs in zip(F.components, Jv):
            residual = ex.sub(ex.compose(comp, sigma.components), rhs if sign == 1 else ex.neg(rhs))
            parts.append(identically_zero(residual, box, trials, rng=rng))
    else:
        image = compile_scaled(sigma.components)
        for comp, rhs in zip(F.components, Jv):
            parts.append(sampled_law_verdict(image, comp, rhs, sign, box, trials, rng))
    return combine(parts, notes=f"structural {kind.value} residual F(sigma) -/+ J_sigma F")


def tower_order_verdicts(
    F: VectorField,
    sigma: SmoothMap,
    kind: CheckKind,
    max_order: int,
    box: Optional[DomainBox] = None,
    trials: int = 200,
    rng=None,
    tower: Optional[DivergenceTower] = None,
) -> List[Verdict]:
    """Per-order tests of the tower transformation law.

    Order j must satisfy D_j(sigma(z)) = s_j D_j(z) with s_j = +1 for a
    symmetry and s_j = (-1)^(j+1) for a reversibility.  A given tower must
    hold orders 0..max_order.  Polynomial data decide each order exactly on
    the tower's canonical forms; otherwise every order is sampled at one
    draw of points, its values taken from F's jets, not from the tower.
    """
    _require_same_dimension(F, sigma)
    box = box or F.domain
    rng = rng if rng is not None else np.random.default_rng(0)
    if tower is not None and tower.max_order < max_order:
        raise ValueError(f"tower holds orders 0..{tower.max_order}, but max_order is {max_order}")
    if F.is_polynomial() and sigma.is_polynomial():
        tower = tower or build_tower(F, max_order)
        verdicts = []
        for j in range(max_order + 1):
            dj = tower.orders[j]
            lhs = ex.compose(dj, sigma.components)
            residual = ex.sub(lhs, dj) if kind.tower_sign(j) == 1 else ex.add(lhs, dj)
            verdicts.append(identically_zero(residual, box, trials, rng=rng))
    else:
        verdicts = _sampled_tower_verdicts(F, sigma, kind, max_order, box, trials, rng)
    return [v.with_notes(f"order {j} (sign {kind.tower_sign(j):+d}): {v.notes}") for j, v in enumerate(verdicts)]


def _sampled_tower_verdicts(F, sigma, kind, max_order, box, trials, rng) -> List[Verdict]:
    """The tower law at `trials` points Z of the box, drawn once: sigma's
    kernel gives sigma(Z), and one jet run of F and div F over the columns
    [Z | sigma(Z)] gives every order at both (see the module docstring for
    each row's scale)."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pts = box.sample(rng, trials)
    image, sigma_scale, sigma_ok = compile_scaled(sigma.components)(pts.T)
    (D,), jet_scale = compile_jets(F.components, [divergence(F)])(np.hstack([pts.T, image]), max_order)
    out = []
    for j in range(max_order + 1):
        with np.errstate(all="ignore"):
            residual = np.abs(D[j, trials:] - kind.tower_sign(j) * D[j, :trials])
        # max propagates NaN; rows that are not ok are skipped whatever their scale
        scale = np.maximum.reduce([sigma_scale, jet_scale[j, :trials], jet_scale[j, trials:], residual])
        out.append(ex._relative_verdict(pts, residual, scale, sigma_ok & np.isfinite(scale)))
    return out


def check_tower_transform(
    F: VectorField,
    sigma: SmoothMap,
    kind: CheckKind,
    max_order: int,
    box: Optional[DomainBox] = None,
    trials: int = 200,
    rng=None,
) -> Verdict:
    parts = tower_order_verdicts(F, sigma, kind, max_order, box, trials, rng)
    summary = "; ".join(
        p.notes.split(":")[0] + "=" + p.status.value for p in parts
    )
    return combine(parts, notes=f"tower transform up to order {max_order}: {summary}")


# ---------------------------------------------------------------------------
# fixed sets of a candidate map
# ---------------------------------------------------------------------------


def _exact_affine_parts(sigma: SmoothMap):
    """(A, b) with sigma(z) = A z + b over exact rationals, or None."""
    n = sigma.dimension
    J = jacobian(sigma)
    A = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = J.entries[i][j]
            if not isinstance(entry, ex.Const):
                return None
            row.append(entry.value)
        A.append(row)
    origin = tuple(Fraction(0) for _ in range(n))
    try:
        b = [ex.evaluate_exact(c, origin) for c in sigma.components]
    except ex.ExprError:
        return None
    return A, b


def _solve_affine_exact(M, rhs):
    """Full rational solution set of M x = rhs: (particular, kernel basis),
    or None when inconsistent."""
    n = len(rhs)
    rows = [[M[i][j] for j in range(n)] + [rhs[i]] for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if all(v == 0 for v in rows[i][:n]) and rows[i][n] != 0:
            return None
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = rows[i][n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][fc]
        basis.append(v)
    return particular, basis


def _line_box_interval(particular, direction, box: DomainBox):
    """Parameter range of {p + t v} inside the box, or None when empty."""
    lo, hi = -float("inf"), float("inf")
    for (blo, bhi), p, v in zip(box.intervals, particular, direction):
        p, v = float(p), float(v)
        if v == 0.0:
            if not blo - 1e-12 <= p <= bhi + 1e-12:
                return None
            continue
        t1, t2 = (blo - p) / v, (bhi - p) / v
        lo = max(lo, min(t1, t2))
        hi = min(hi, max(t1, t2))
    if not lo < hi:
        return None
    return lo, hi


class FixedSet:
    """Fixed points of a map inside a box, with an exact affine
    parametrization when the map is affine with rational coefficients."""

    def __init__(self, points, particular=None, basis=None, t_box=None):
        self.points: List[Point] = points
        self.particular = particular
        self.basis = basis
        self.t_box = t_box  # DomainBox over the kernel parameters

    @property
    def exact(self) -> bool:
        return self.particular is not None


def fixed_points(
    sigma: SmoothMap,
    box: Optional[DomainBox] = None,
    seeds_per_axis: int = 8,
    samples_per_free_axis: int = 7,
) -> FixedSet:
    """Solve sigma(z) = z: exactly for affine rational maps (including fixed
    lines), by damped Newton from a seed grid otherwise."""
    box = box or sigma.domain
    n = sigma.dimension
    affine = _exact_affine_parts(sigma)
    if affine is not None:
        A, b = affine
        M = [[A[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
        rhs = [-bi for bi in b]
        sol = _solve_affine_exact(M, rhs)
        if sol is None:
            return FixedSet([])
        particular, basis = sol
        if not basis:
            p = as_point(particular)
            pts = [p] if box.contains(p, slack=1e-9) else []
            return FixedSet(pts, particular, basis, None)
        if len(basis) == 1:
            rng_t = _line_box_interval(particular, basis[0], box)
            if rng_t is None:
                return FixedSet([], particular, basis, None)
            lo, hi = rng_t
            pad = 0.05 * (hi - lo)
            ts = np.linspace(lo + pad, hi - pad, samples_per_free_axis)
            pts = [
                as_point([float(p) + t * float(v) for p, v in zip(particular, basis[0])])
                for t in ts
            ]
            return FixedSet(pts, particular, basis, DomainBox([(lo, hi)]))
        # higher-dimensional kernels: sample a bounding cube and filter
        span = float(np.max(box.highs - box.lows))
        cube = DomainBox.cube(-span, span, len(basis))
        grid = cube.grid(samples_per_free_axis)
        pts = []
        for t in grid:
            p = [float(pi) + float(np.dot(t, [float(v[i]) for v in basis])) for i, pi in enumerate(particular)]
            if box.contains(p, slack=1e-9):
                pts.append(as_point(p))
        return FixedSet(pts, particular, basis, cube)

    fn = compile_components([ex.sub(c, ex.Var(i + 1)) for i, c in enumerate(sigma.components)])
    entries = jacobian(sigma).entries
    jac_fn = compile_components(
        [ex.sub(entries[i][j], ex.ONE) if i == j else entries[i][j] for i in range(n) for j in range(n)]
    )
    X, ok, r = newton_batch(fn, jac_fn, box.grid(seeds_per_axis), tol=FIXED_POINT_TOL, max_iter=60)
    pts: List[Point] = []
    for x in X[ok]:
        if not box.contains(x, slack=1e-9):
            continue
        if any(np.linalg.norm(x - np.asarray(q)) < 1e-6 for q in pts):
            continue
        pts.append(as_point(x))
    pts.sort()
    return FixedSet(pts)


def check_fixed_points_even_orders(
    F: VectorField,
    sigma: SmoothMap,
    box: Optional[DomainBox] = None,
    max_j: int = 1,
    value_tol: float = FIXED_VALUE_TOL,
    trials: int = 200,
    rng=None,
) -> Verdict:
    """Even tower orders must vanish on the fixed set of a reversibility.

    Exact affine fixed sets are handled symbolically (restrict each even
    order to the parametrized fixed set and test for the zero polynomial);
    otherwise the located fixed points are evaluated numerically.
    """
    _require_same_dimension(F, sigma)
    box = box or F.domain
    rng = rng if rng is not None else np.random.default_rng(0)
    fs = fixed_points(sigma, box)
    if not fs.points:
        return Verdict.inconclusive("no fixed points of sigma found in the box")
    tower = build_tower(F, 2 * max_j)
    orders = [2 * j for j in range(max_j + 1)]

    if fs.exact and F.is_polynomial():
        parts = []
        for k in orders:
            dk = tower.orders[k]
            if not fs.basis:
                value = ex.evaluate_exact(dk, fs.particular)
                parts.append(exact_value_verdict(value, fs.particular, value_tol, f"D_{k}{as_point(fs.particular)}"))
                continue
            # restrict D^(k) to the affine fixed set and test identically
            maps = []
            for i in range(F.dimension):
                acc: Expression = ex.Const(fs.particular[i])
                for t_idx, v in enumerate(fs.basis, start=1):
                    acc = ex.add(acc, ex.mul(ex.Const(v[i]), ex.Var(t_idx)))
                maps.append(acc)
            restricted = ex.compose(dk, maps)
            t_box = fs.t_box or DomainBox.cube(-1.0, 1.0, len(fs.basis))
            v = identically_zero(restricted, t_box, trials, rng=rng)
            parts.append(v.with_notes(f"order {k} on the fixed set: {v.notes}"))
        return combine(parts, notes=f"even orders {orders} on the sigma-fixed set")

    parts = []
    for k in orders:
        fn = compile_components([tower.orders[k]])
        with np.errstate(all="ignore"):
            vals = np.abs(fn(np.array(fs.points).T)[0])
        parts.append(threshold_verdict(vals, fs.points, value_tol, f"order {k} at {len(fs.points)} fixed points"))
    return combine(parts, notes=f"even orders {orders} at located fixed points")


def check_level_set_invariance(
    F: VectorField,
    sigma: SmoothMap,
    kind: CheckKind,
    order: int,
    levels: Sequence[float],
    box: Optional[DomainBox] = None,
    samples: int = 40,
    eps_on: float = LEVEL_EPS_ON,
    tol: float = LEVEL_TOL,
    rng=None,
) -> Verdict:
    """Level sets of tower entries map into themselves under sigma.

    Points are projected onto the level set with a one-dimensional Newton
    step along the gradient, pushed through sigma, and the defining value is
    re-checked: equal for a symmetry or an odd order under a reversibility,
    equal up to sign (squared comparison) for even orders.
    """
    _require_same_dimension(F, sigma)
    box = box or F.domain
    rng = rng if rng is not None else np.random.default_rng(0)
    tower = build_tower(F, order)
    dj = tower.orders[order]
    fn = compile_components([dj])
    grad = compile_components([ex.differentiate(dj, i + 1) for i in range(F.dimension)])
    sig = compile_components(sigma.components)

    signed = kind is CheckKind.REVERSIBILITY and order % 2 == 0
    parts = []
    for L in levels:
        label = f"level-set invariance of order {order} at level {L}"
        if signed:
            label += " (sign-free, even order)"
        pts = _project_to_level(fn, grad, box, float(L), samples, eps_on, rng)
        if not pts:
            parts.append(Verdict.inconclusive(f"{label}: no points found in the box"))
            continue
        with np.errstate(all="ignore"):
            images = sig(np.array(pts).T)
            vals = fn(images)[0]
        # where sigma is undefined, so is the level value, even a constant one
        vals[~np.isfinite(images).all(axis=0)] = np.nan
        residuals = np.abs(vals * vals - float(L) * float(L)) if signed else np.abs(vals - float(L))
        parts.append(threshold_verdict(residuals, pts, tol, f"{label}: {len(pts)} points"))
    return combine(parts)


def _project_to_level(fn, grad, box, L, samples, eps_on, rng, max_attempts_factor=50):
    pts = []
    attempts = 0
    limit = max_attempts_factor * samples
    while len(pts) < samples and attempts < limit:
        attempts += 1
        p = box.sample(rng, 1)[0]
        # up to 40 steps; the value after the last one decides the point
        for step in range(41):
            with np.errstate(all="ignore"):
                v, g = float(fn(p)[0]) - L, grad(p)
            if abs(v) < eps_on or step == 40:
                break
            gg = float(np.dot(g, g))
            if not np.isfinite(gg) or gg < 1e-14:
                break
            p = p - (v / gg) * g
        if abs(v) < eps_on and box.contains(p):
            pts.append(as_point(p))
    return pts


def check_delta_noninvertibility(
    F: VectorField,
    z0: Sequence,
    selection: Selection,
    sigma: Optional[SmoothMap] = None,
    tol_rel: float = SINGULAR_TOL,
) -> Verdict:
    """At a fixed point of a symmetry (or of any map whose selected sign
    matrix is the identity), the packed derivative map cannot be locally
    invertible: its Jacobian determinant must vanish.

    The verdict records, as an assumption, that the map is non-trivial in
    every neighbourhood of the fixed point; that is not decidable from a
    finite description.
    """
    if sigma is not None:
        image = sigma.apply([float(c) for c in z0])
        drift = float(np.linalg.norm(np.asarray(image) - np.asarray([float(c) for c in z0])))
        if drift >= FIXED_POINT_TOL:
            raise ValueError(f"z0 is not a fixed point of sigma (|sigma(z0)-z0| = {drift:.3g})")
    tower = build_tower(F, selection.max_order)
    delta = delta_map(tower, selection)
    n = delta.dimension
    entries = tuple(
        tuple(ex.differentiate(delta.components[i], j + 1) for j in range(n))
        for i in range(n)
    )
    assumption = "assumes sigma is non-trivial in every neighbourhood of z0"

    jac_fn = compile_components([e for row in entries for e in row])
    with np.errstate(all="ignore"):
        Jnum = jac_fn(np.array([float(c) for c in z0]))
    threshold = tol_rel * (1.0 + _largest_minor(Jnum.reshape(n, n)))
    p = as_point([float(c) for c in z0])

    # a polynomial determinant commutes with evaluation, so only values are expanded
    if F.is_polynomial() and all(isinstance(c, (int, Fraction)) for c in z0):
        q = [Fraction(c) for c in z0]
        at_z0 = tuple(tuple(ex.const(ex.evaluate_exact(e, q)) for e in row) for row in entries)
        value = JacobianMatrix(at_z0).det().value
        v = exact_value_verdict(value, p, threshold, "det J_Delta(z0)")
        return v.with_notes(f"{v.notes}; {assumption}")

    with np.errstate(all="ignore"):
        det_val = abs(float(det_kernel(n)(Jnum)[0]))
    return threshold_verdict(
        [det_val], [p], threshold, f"|det J_Delta(z0)| = {det_val:.3g} (threshold {threshold:.3g}); {assumption}"
    )


def _largest_minor(J: np.ndarray) -> float:
    """The largest |det| of the n^2 minors of J (n, n) that drop one row and
    one column; 1 for n = 1."""
    n = len(J)
    if n == 1:
        return 1.0
    minors = [np.delete(np.delete(J, i, axis=0), j, axis=1).ravel() for i in range(n) for j in range(n)]
    with np.errstate(all="ignore"):
        return max(abs(float(d)) for d in det_kernel(n - 1)(np.array(minors).T)[0])
