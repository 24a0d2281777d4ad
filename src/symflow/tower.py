"""Divergence-derivative towers along the flow, selections, sign matrices,
and the packed derivative maps they induce.

The tower lists the divergence and its successive derivatives along
solutions: order 0 is div F, order j+1 is the derivative of order j along
the flow (a Lie derivative).  A selection picks n tower orders; packing the
selected entries gives a map R^n -> R^n whose transformation law under
symmetries and reversibilities drives the structure checks.

The symbolic tower serves the exact checks on polynomial data, the
candidate tables, the fixed-set, level-set and non-invertibility checks,
and the oracles.  A sampled tower law on non-polynomial data reads the same
numbers from Taylor jets of F instead (`numeric.compile_jets`), so
NODE_BUDGET bounds only symbolic towers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .expr import Expression, int_power
from .fields import VectorField, divergence, lie_derivative
from .flow import ESCAPE_INFLATION
from .numeric import compile_components, rk4_path

NODE_BUDGET = 100_000
ORACLE_STEP = 1e-3


class TowerBudgetError(Exception):
    """A simplified tower entry exceeded the node budget."""


class TrajectoryEscape(Exception):
    """The flow left the (inflated) domain box during oracle integration."""


@dataclass(frozen=True)
class DivergenceTower:
    field: VectorField
    orders: Tuple[Expression, ...]

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

    def order(self, j: int) -> Expression:
        if not 0 <= j <= self.max_order:
            raise IndexError(f"tower holds orders 0..{self.max_order}, asked for {j}")
        return self.orders[j]


def build_tower(F: VectorField, max_order: int, node_budget: Optional[int] = None) -> DivergenceTower:
    """Tower [D^(0), ..., D^(max_order)] with D^(j+1) = lie_derivative(D^(j), F).
    The node budget defaults to NODE_BUDGET, read at call time."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if node_budget is None:
        node_budget = NODE_BUDGET
    orders = [divergence(F)]
    if ex.node_count(orders[0]) > node_budget:
        raise TowerBudgetError("divergence alone exceeds the node budget")
    # a component's canonical tree, if it remembers its (exact) NF, gives every order that NF unwalked
    exact = [s if s._nf is not None else c for c, s in zip(F.components, map(ex.simplify, F.components))]
    F_nf = VectorField(exact, F.domain)
    for _ in range(max_order):
        nxt = lie_derivative(orders[-1], F_nf)
        nodes = ex.node_count(nxt)
        if nodes > node_budget:
            raise TowerBudgetError(
                f"tower entry at order {len(orders)} has {nodes} nodes "
                f"(budget {node_budget})"
            )
        orders.append(nxt)
    return DivergenceTower(F, tuple(orders))


@dataclass(frozen=True)
class Selection:
    """Strictly increasing choice of n tower orders."""

    entries: Tuple[int, ...]

    def __init__(self, entries: Sequence[int]):
        ent = tuple(int(k) for k in entries)
        if not ent:
            raise ValueError("a selection needs at least one entry")
        if any(k < 0 for k in ent):
            raise ValueError("selection entries must be nonnegative")
        if any(a >= b for a, b in zip(ent, ent[1:])):
            raise ValueError(f"selection must be strictly increasing, got {ent}")
        object.__setattr__(self, "entries", ent)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def max_order(self) -> int:
        return self.entries[-1]


def default_selection(dimension: int) -> Selection:
    """Orders (0, 1, ..., n-1): the divergence and its first n-1 derivatives."""
    return Selection(range(dimension))


@dataclass(frozen=True)
class SignMatrix:
    """Diagonal of (-1)^(order+1) over the selected orders: the sign law a
    reversibility imposes on each packed component."""

    diagonal: Tuple[int, ...]

    def __post_init__(self):
        if any(d not in (-1, 1) for d in self.diagonal):
            raise ValueError("sign matrix entries must be +-1")


def sign_matrix(selection: Selection) -> SignMatrix:
    return SignMatrix(tuple((-1) ** (k + 1) for k in selection.entries))


@dataclass(frozen=True)
class DeltaMap:
    """Selected tower entries packed into a map R^n -> R^n."""

    components: Tuple[Expression, ...]
    selection: Selection
    field: VectorField

    @property
    def dimension(self) -> int:
        return len(self.components)


def delta_map(tower: DivergenceTower, selection: Selection) -> DeltaMap:
    if selection.dimension != tower.field.dimension:
        raise ValueError(
            f"selection length {selection.dimension} != field dimension {tower.field.dimension}"
        )
    if selection.max_order > tower.max_order:
        raise IndexError(
            f"selection asks for order {selection.max_order}, tower stops at {tower.max_order}"
        )
    comps = tuple(tower.orders[k] for k in selection.entries)
    return DeltaMap(comps, selection, tower.field)


# second-order central stencils on 2j+1 points, Richardson-extrapolated
# in tower_fd_oracle
_STENCILS = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
}


@lru_cache(maxsize=32)
def _oracle_kernels(F: VectorField):
    """The kernels of div F and of F, and the escape guard, per field."""
    guard = F.domain.inflate(ESCAPE_INFLATION)
    return compile_components([divergence(F)]), compile_components(F.components), guard.lows, guard.highs


def tower_fd_oracle(F: VectorField, z: Sequence[float], order: int, h: float = ORACLE_STEP) -> float:
    """Finite-difference estimate of the order-j tower value at z.

    Independent cross-check: integrates the flow with RK4 and differences
    the divergence along it; never touches the symbolic tower.  Orders
    j >= 1 take the Richardson extrapolation (4 S(h) - S(2h)) / 3 of the
    second-order central stencil S, which cancels its h^2 error term: one
    path of twice the stencil's reach gives the samples of both steps.
    """
    if not 0 <= order <= 4:
        raise ValueError("oracle supports orders 0..4")
    # the comparisons are false for nan
    if not 0 < h < math.inf:
        raise ValueError("step must be positive and finite")
    if int_power(h, max(order, 1)) == 0.0:
        raise ValueError("stencil underflow: step too small")
    div_fn, f, lo, hi = _oracle_kernels(F)
    reach = 2 * max(abs(k) for k in _STENCILS[order])

    # path[k, :, 0] is the state at offset +k, path[k, :, 1] at offset -k
    z = np.asarray(z, dtype=float)
    path, died = rk4_path(f, np.stack([z, z], axis=-1), np.array([h, -h]), reach, lo, hi)
    for row, direction in enumerate((+1, -1)):
        if died[row]:
            raise TrajectoryEscape(
                f"flow left the domain after {died[row]} steps of {direction * h}"
            )
    with np.errstate(all="ignore"):
        div = div_fn(np.moveaxis(path, 1, 0))[0]
    if not np.isfinite(div).all():
        raise TrajectoryEscape("divergence not finite along the stencil")

    def stencil(stride: int) -> float:
        acc = sum(coeff * float(div[stride * abs(k), int(k < 0)]) for k, coeff in _STENCILS[order].items())
        return acc / int_power(stride * h, order)

    return (4.0 * stencil(1) - stencil(2)) / 3.0 if order > 0 else float(div[0, 0])
