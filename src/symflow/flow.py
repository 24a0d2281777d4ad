"""Numerical flow machinery: fixed-step RK4 trajectories, flow-level
commutation tests, and a Monte-Carlo volume-growth check.

Fixed steps, not adaptive ones, are deliberate: the commutation test
compares two trajectories integrated on identical step grids, which cancels
the integrator bias and leaves only the structural mismatch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import SmoothMap, VectorField, det_kernel, divergence, jacobian
from .geometry import DomainBox, Point, as_point
from .numeric import compile_components, rk4_march, rk4_path, rk4_variational
from .verdict import CheckKind, Verdict, threshold_verdict

TOL_FLOW = 1e-5
DEFAULT_STEP = 1e-3
ESCAPE_INFLATION = 2.0
LIOUVILLE_TOL = 5e-2
LIOUVILLE_POINTS = 100_000
_SLOPE_DT = 0.05  # half-width for the central difference of the volume curve


@dataclass(frozen=True)
class IntegratorConfig:
    step: float = DEFAULT_STEP
    horizon: float = 1.0
    escape_inflation: float = ESCAPE_INFLATION
    seed: int = 0

    def __post_init__(self):
        # the comparisons are false for nan; an infinite step would march
        # one step of the whole horizon, an infinite horizon no step count
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve; times strictly increasing, z(0) included."""

    times: np.ndarray
    states: np.ndarray
    field: VectorField
    escaped: bool = False
    escape_cause: Optional[str] = None

    def final_state(self) -> Point:
        return as_point(self.states[-1])

    def initial_state(self) -> Point:
        return as_point(self.states[0])


def integrate(F: VectorField, z0: Sequence[float], cfg: IntegratorConfig) -> Trajectory:
    """Classic RK4 trajectory over [-T, T], integrated in both directions.

    Escaping the inflated domain truncates that direction and flags the
    trajectory instead of raising.
    """
    z0 = np.asarray(z0, dtype=float)
    if not F.domain.contains(z0):
        raise ValueError("initial state outside the domain box")
    guard = F.domain.inflate(cfg.escape_inflation)
    steps = max(1, round(cfg.horizon / cfg.step))
    h = cfg.horizon / steps

    # path[k, i, row]: coordinate i after k steps, forward in row 0, backward in row 1
    path, died = rk4_path(compile_components(F.components), np.stack([z0, z0], axis=-1),
                          np.array([h, -h]), steps, guard.lows, guard.highs)

    def direction(row):
        k = int(died[row])
        if not k:
            return path[:, :, row], None
        if np.all(np.isfinite(path[k, :, row])):
            return path[:k, :, row], f"left the inflated domain at step {k}"
        return path[:k, :, row], f"non-finite state at step {k}"

    fwd, cause_f = direction(0)
    bwd, cause_b = direction(1)
    times = np.concatenate(
        [-h * np.arange(len(bwd) - 1, 0, -1), h * np.arange(0, len(fwd))]
    )
    states = np.vstack([bwd[:0:-1], fwd])
    cause = cause_f or cause_b
    return Trajectory(times, states, F, escaped=cause is not None, escape_cause=cause)


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    n = traj.states.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"z{i}" for i in range(1, n + 1)])
        for t, row in zip(traj.times, traj.states):
            writer.writerow([repr(float(t))] + [repr(float(c)) for c in row])


def check_flow_relation(
    F: VectorField,
    sigma: SmoothMap,
    kind: CheckKind,
    samples: int = 50,
    cfg: IntegratorConfig = IntegratorConfig(),
    sample_box: Optional[DomainBox] = None,
    tol: float = TOL_FLOW,
    rng=None,
) -> Verdict:
    """Flow-level commutation test: compare sigma applied after the flow
    against the flow (time-reversed for a reversibility) started from
    sigma(z), at sampled (t, z) pairs.

    Both trajectories use identical step counts.  Samples whose trajectories
    escape are skipped and counted; more than half skipped is inconclusive.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    box = sample_box or F.domain
    sig = compile_components(sigma.components)
    guard = F.domain.inflate(cfg.escape_inflation)

    steps_total = max(1, round(cfg.horizon / cfg.step))
    h = cfg.horizon / steps_total
    Z = box.sample(rng, samples)
    ks = rng.integers(1, steps_total + 1, size=samples)

    # one march: rows [0, samples) follow the flow from Z, the rest follow
    # it (time-reversed for a reversibility) from sigma(Z); each row's state
    # is picked at its own step k, unless the row escaped before
    with np.errstate(all="ignore"):
        start = np.concatenate([Z, sig(Z.T).T])
    steps = np.repeat([h, kind.flow_time_sign * h], samples)
    due_at = np.concatenate([ks, ks])
    picked = np.full_like(start, np.nan)

    def pick(k, state, alive):
        due = alive & (due_at == k)
        if due.any():
            picked[due] = state[:, due].T

    rk4_march(compile_components(F.components), start.T, steps, steps_total,
              guard.lows, guard.highs, on_step=pick)
    with np.errstate(all="ignore"):
        lhs = sig(picked[:samples].T).T
    rhs = picked[samples:]

    # an escaped row of picked is nan, which a constant sigma maps to a finite point
    good = np.all(np.isfinite(np.hstack([picked[:samples], lhs, rhs])), axis=-1)
    skipped = int(samples - good.sum())
    if skipped > samples / 2:
        return Verdict.inconclusive(
            f"{skipped}/{samples} samples escaped before their comparison time"
        )
    diffs = np.linalg.norm(lhs[good] - rhs[good], axis=-1)
    notes = f"{int(good.sum())} samples, horizon {cfg.horizon}, step {h:.3g}"
    if skipped:
        notes += f", {skipped} escaped samples skipped"
    return threshold_verdict(diffs, Z[good], tol, notes)


def check_liouville(
    F: VectorField,
    region: DomainBox,
    t_max: float = _SLOPE_DT,
    mc_points: int = LIOUVILLE_POINTS,
    tol: float = LIOUVILLE_TOL,
    seed: int = 0,
) -> Verdict:
    """Desk-scale volume balance: the growth rate of the evolved region's
    volume at t=0 must equal the integral of div F over the region.

    The left side integrates the variational equation dJ/dt = J_F J along
    the flow to +-t and central-differences the Monte-Carlo volume
    sum(det J)/N * vol; the right side averages div F over the same sample.
    det J is one compiled kernel of the determinant (`fields.det_kernel`),
    run on the rows of J in the marched state: elementwise products and
    sums, so the same bits on every host.  A point escapes when its final
    state leaves the inflated domain, whose bounds are finite, so a nan or
    infinite state escapes too.  Escape shrinks the region about its center
    once, then gives up.
    """
    # the comparison is false for nan
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if mc_points <= 0:
        raise ValueError("mc_points must be positive")
    rng = np.random.default_rng(seed)
    n = F.dimension
    jac_rows = jacobian(F).entries
    div_fn = compile_components([divergence(F)])
    det_fn = det_kernel(n)
    guard = F.domain.inflate(ESCAPE_INFLATION)
    lo, hi = guard.lows[:, None], guard.highs[:, None]
    dt = min(_SLOPE_DT, t_max)
    steps = max(1, round(dt / DEFAULT_STEP))

    def attempt(reg: DomainBox):
        pts = reg.sample(rng, mc_points)
        vol = reg.volume()
        sides = {}
        with np.errstate(all="ignore"):
            for s in (+1, -1):
                zT, JT = rk4_variational(F.components, jac_rows, pts, s * dt, steps)
                # the views' transposes are the march's own rows of z and of J
                if not ((zT.T >= lo) & (zT.T <= hi)).all():
                    return None
                J_rows = JT.transpose(1, 2, 0).reshape(n * n, mc_points)
                sides[s] = vol * float(np.mean(det_fn(J_rows)[0]))
            slope = (sides[+1] - sides[-1]) / (2.0 * dt)
            div_integral = vol * float(np.mean(div_fn(pts.T)[0]))
        return slope, div_integral

    result = attempt(region)
    shrunk = False
    if result is None:
        result = attempt(region.shrink(0.5))
        shrunk = True
        if result is None:
            return Verdict.inconclusive("flow escaped the domain even after shrinking the region")
    slope, div_integral = result
    denom = max(abs(slope), abs(div_integral), 1e-8)
    rel = abs(slope - div_integral) / denom
    notes = (
        f"volume slope {slope:.6g} vs divergence integral {div_integral:.6g}, "
        f"relative error {rel:.3g} at {mc_points} points"
    )
    if shrunk:
        notes += " (region shrunk once after escape)"
    return threshold_verdict([rel], [region.center()], tol, notes)

