"""Vector fields, smooth maps, Jacobians, and the two structural predicates
on maps (involution, volume preservation)."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .expr import Expression, identically_zero, to_string
from .geometry import DomainBox, Point, as_point
from .numeric import compile_components, newton_batch, row_norms, solve_rows
from .verdict import Certainty, Status, Verdict, combine

logger = logging.getLogger(__name__)

CRITICAL_RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-6
NEWTON_MAX_ITER = 50
DEFAULT_SEED_GRID = 8


def _validated_components(components, dimension) -> tuple:
    comps = tuple(components)
    if dimension is not None and len(comps) != dimension:
        raise ValueError(f"expected {dimension} components, got {len(comps)}")
    for c in comps:
        k = ex.max_var_index(c)
        if k > len(comps):
            raise ValueError(
                f"component {to_string(c)} uses variable {k} beyond dimension {len(comps)}"
            )
    return comps


@dataclass(frozen=True)
class VectorField:
    """A smooth vector field: n component expressions over a box domain."""

    components: Tuple[Expression, ...]
    domain: DomainBox

    def __init__(self, components: Sequence[Expression], domain: DomainBox):
        comps = _validated_components(components, None)
        if domain.dimension != len(comps):
            raise ValueError("domain dimension does not match component count")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "domain", domain)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def is_polynomial(self) -> bool:
        return all(ex.is_polynomial(c) for c in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(to_string(c) for c in self.components) + ")"


@dataclass(frozen=True)
class SmoothMap:
    """A smooth transformation of the domain; same shape as a field."""

    components: Tuple[Expression, ...]
    domain: DomainBox

    def __init__(self, components: Sequence[Expression], domain: DomainBox):
        comps = _validated_components(components, None)
        if domain.dimension != len(comps):
            raise ValueError("domain dimension does not match component count")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "domain", domain)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def is_polynomial(self) -> bool:
        return all(ex.is_polynomial(c) for c in self.components)

    def apply(self, p: Sequence[float]) -> Point:
        return tuple(ex.evaluate(c, p) for c in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(to_string(c) for c in self.components) + ")"


def identity_map(dimension: int, domain: DomainBox) -> SmoothMap:
    return SmoothMap([ex.Var(i) for i in range(1, dimension + 1)], domain)


@dataclass(frozen=True)
class JacobianMatrix:
    entries: Tuple[Tuple[Expression, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def det(self) -> Expression:
        """The canonical determinant in any dimension (`_laplace` on NFs)."""
        rows = [[ex._to_nf(e) for e in row] for row in self.entries]
        return ex._canonical(_laplace(rows, dict, ex._nf_const(1), _nf_join, len))

    def times_vector(self, vector: Sequence[Expression]) -> Tuple[Expression, ...]:
        n = self.dimension
        out = []
        for i in range(n):
            acc: Expression = ex.ZERO
            for j in range(n):
                acc = ex.add(acc, ex.mul(self.entries[i][j], vector[j]))
            out.append(ex.simplify(acc))
        return tuple(out)


def _laplace(rows: list, zero, one, join, size):
    """The determinant by Laplace expansion along the first row, in the
    caller's ring: `zero()` is a new empty sum, `one` the minor of no rows,
    `join(acc, a, minor, k)` returns acc + (-1)^k * a * minor.  The minor of
    rows r.. over the columns outside `used` (a bit set of r columns) sums
    over those columns j in order, skipping zero (falsy) entries, rows[r][j]
    times the minor of `used | 1 << j`.  So each minor is built once, from
    the last row up, if a chain of nonzero entries reaches it.  The minors,
    then their `size`s, count against the tower's NODE_BUDGET, read at call
    time; past it, TowerBudgetError."""
    from .tower import NODE_BUDGET, TowerBudgetError  # tower imports this module

    n = len(rows)
    over = f"the minors of the {n} x {n} determinant exceed the node budget ({NODE_BUDGET})"
    levels = [[0]]  # levels[r]: the column sets of the minors of rows r.. reached
    total = 1
    for row in rows[:-1]:
        # a dict keeps its order, so the work is the same on every run
        reached = dict.fromkeys(used | 1 << j for used in levels[-1] for j, a in enumerate(row)
                                if a and not used >> j & 1)
        total += len(reached)
        if total > NODE_BUDGET:
            raise TowerBudgetError(over)
        levels.append(reached)
    minors = {(1 << n) - 1: one}
    for r in range(n - 1, -1, -1):
        for used in levels[r]:
            acc = zero()
            k = 0
            for j, a in enumerate(rows[r]):
                if used >> j & 1:
                    continue
                if a:
                    acc = join(acc, a, minors[used | 1 << j], k)
                k += 1
            total += size(acc)
            if total > NODE_BUDGET:
                raise TowerBudgetError(over)
            minors[used] = acc
    return minors[0]


def _nf_join(acc: dict, a: dict, minor: dict, k: int) -> dict:
    return ex._nf_addmul(acc, a if k % 2 == 0 else ex._nf_scale(a, -1), minor)


def _tree_join(acc, a: Expression, minor, k: int) -> Expression:
    # None is the empty sum and the minor of no rows: no sum of variables is empty
    term = a if minor is None else ex.mul(a, minor)
    return term if acc is None else ex.add(acc, term) if k % 2 == 0 else ex.sub(acc, term)


@lru_cache(maxsize=8)
def det_kernel(n: int):
    """The kernel of the n x n determinant over the columns Z[i n + j] = J_ij
    (row-major): `_laplace` as a tree of variables whose minors are shared
    subtrees, at most n 2^(n-1) products, so only the minors count.  A row
    of a batch has the bits of its matrix alone on every host."""
    rows = [[ex.Var(i * n + j + 1) for j in range(n)] for i in range(n)]
    return compile_components([_laplace(rows, lambda: None, None, _tree_join, lambda t: 0)])


def jacobian(m) -> JacobianMatrix:
    """Matrix of simplified partials d(component i)/d(z_j)."""
    comps = m.components
    n = len(comps)
    return JacobianMatrix(
        tuple(
            tuple(ex.differentiate(comps[i], j + 1) for j in range(n))
            for i in range(n)
        )
    )


def divergence(F: VectorField) -> Expression:
    """Sum of d(F_i)/d(z_i), simplified."""
    acc: Expression = ex.ZERO
    for i, c in enumerate(F.components, start=1):
        acc = ex.add(acc, ex.differentiate(c, i))
    return ex.simplify(acc)


def lie_derivative(e: Expression, F: VectorField) -> Expression:
    """Derivative of e along the flow of F: sum_i (de/dz_i) F_i."""
    if ex.max_var_index(e) > F.dimension:
        raise ValueError("expression dimension exceeds field dimension")
    return ex.derivative_along(e, F.components)


def is_involution(m: SmoothMap, box: Optional[DomainBox] = None, trials: int = 200, rng=None) -> Verdict:
    """Does applying the map twice return every point?  Componentwise zero
    test of m(m(z)) - z; certain for polynomial maps."""
    box = box or m.domain
    parts = []
    for i, c in enumerate(m.components, start=1):
        twice = ex.compose(c, m.components)
        residual = ex.sub(twice, ex.Var(i))
        parts.append(identically_zero(residual, box, trials, rng=rng))
    return combine(parts, notes="involution residual m(m(z)) - z")


def is_measure_preserving(
    m: SmoothMap, box: Optional[DomainBox] = None, trials: int = 200, rng=None
) -> Verdict:
    """Volume preservation via |det J| = 1, tested as (det J)^2 - 1 = 0.  Only
    the polynomials 1 and -1 square to 1, so a nonconstant polynomial det J
    fails at once: its square is sampled for witnesses, never expanded."""
    box = box or m.domain
    d = jacobian(m).det()
    residual = ex.sub(ex.mul(d, d), ex.ONE)
    if ex.is_polynomial(d) and ex.max_var_index(d) > 0:
        rng = rng if rng is not None else np.random.default_rng(0)
        witnesses = ex._certain_nonzero_witnesses(residual, box, trials, rng)
        v = Verdict(Status.FAILS, Certainty.CERTAIN, max(w[1] for w in witnesses), witnesses, "a nonconstant polynomial")
    else:
        v = identically_zero(residual, box, trials, rng=rng)
    return v.with_notes(f"det J = {to_string(d)}; {v.notes}")


def find_critical_points(
    F: VectorField,
    seeds_per_axis: int = DEFAULT_SEED_GRID,
    residual_tol: float = CRITICAL_RESIDUAL_TOL,
    dedup_tol: float = DEDUP_TOL,
) -> list:
    """Newton root inventory of F(z) = 0 inside the domain box.

    Seeds on a uniform grid (endpoints included), damped Newton with step
    halving on every seed at once, converged roots polished, then in seed
    order duplicates merged and roots outside the box discarded.  The
    non-convergence count is logged; an empty list is a valid result.
    """
    f = compile_components(F.components)
    jac_fn = compile_components([e for row in jacobian(F).entries for e in row])
    seeds = F.domain.grid(seeds_per_axis)
    blob_radius = 1e-2 * float(np.linalg.norm(F.domain.highs - F.domain.lows))
    X, ok, r = newton_batch(f, jac_fn, seeds, tol=residual_tol, max_iter=NEWTON_MAX_ITER)
    roots: list = []
    for x in _polish_roots(f, jac_fn, X[ok]):
        if not F.domain.contains(x, slack=1e-9):
            continue
        if _is_duplicate(f, x, roots, dedup_tol, blob_radius, residual_tol):
            continue
        roots.append(as_point(x))
    failures = int((~ok).sum())
    if failures:
        logger.debug("find_critical_points: %d/%d seeds did not converge", failures, len(seeds))
    roots.sort()
    return roots


def _polish_roots(f, jac_fn, X, max_iter=80, step_tol=1e-13):
    """Full Newton steps past the residual tolerance, on every row of X;
    degenerate roots converge only linearly, so the first residual-based
    stop leaves a blob.  A row stops once its step is shorter than
    step_tol (after taking it), or before a step when its residual, its
    Jacobian or the step is non-finite or its Jacobian is singular."""
    X = np.array(X, dtype=float)
    n = X.shape[-1]
    live = np.arange(len(X))
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if not len(live):
                break
            Xl = X[live].T
            fx, J = f(Xl).T, jac_fn(Xl).T.reshape(len(live), n, n)
            finite = np.isfinite(fx).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
            live, fx, J = live[finite], fx[finite], J[finite]
            step, solved = solve_rows(J, -fx)
            solved &= np.isfinite(step).all(axis=1)
            live, step = live[solved], step[solved]
            X[live] = X[live] + step
            live = live[row_norms(step) >= step_tol]
    return X


def _is_duplicate(f, x, roots, dedup_tol, blob_radius, residual_tol):
    for known in roots:
        gap = np.linalg.norm(x - np.asarray(known))
        if gap < dedup_tol:
            return True
        # nearby quasi-roots whose midpoint still solves the system belong to
        # one degenerate root, not two isolated ones
        if gap < blob_radius:
            mid = (x + np.asarray(known)) / 2.0
            with np.errstate(all="ignore"):
                fm = f(mid)
            if np.linalg.norm(fm) < 10 * residual_tol:
                return True
    return False
