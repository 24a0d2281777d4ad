"""The compiled kernels, the one RK4 marcher and the one batched Newton
solver in symflow.numeric."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import rk4_reference
from newton_reference import damped_newton, newton_rows

from symflow import expr as ex
from symflow import numeric
from symflow.fields import VectorField, jacobian
from symflow.flow import IntegratorConfig, integrate
from symflow.geometry import DomainBox
from symflow.numeric import (
    compile_components,
    newton_batch,
    rk4_march,
    rk4_path,
    rk4_variational,
    variational_kernel,
    solve_rows,
)
from symflow.parser import parse


def field2(*texts, box=None):
    return VectorField([parse(t, 2) for t in texts], box or DomainBox.cube(-3, 3, 2))


def reference_rk4(f, z, h, steps):
    """Point-layout RK4 on arrays of shape (..., n): the reference the
    column marcher must match bit for bit."""
    for _ in range(steps):
        k1 = f(z)
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def flat_jacobian(F):
    """F's Jacobian entries, row-major, as one list."""
    return [e for row in jacobian(F).entries for e in row]


def variational_system(F):
    """F's components and Jacobian rows, as rk4_variational takes them."""
    return F.components, jacobian(F).entries


def point_major(kernel):
    """A kernel as a function of points (..., n) giving (..., k), for the
    point-layout references."""
    return lambda z: np.moveaxis(kernel(np.moveaxis(z, -1, 0)), 0, -1)


def reference_variational(f, flat_jac, z, h, steps):
    n = z.shape[-1]

    def jac(z):
        return flat_jac(z).reshape(z.shape[:-1] + (n, n))

    J = np.broadcast_to(np.eye(n), z.shape[:-1] + (n, n)).copy()
    for _ in range(steps):
        k1z, k1J = f(z), jac(z) @ J
        z2 = z + 0.5 * h * k1z
        k2z, k2J = f(z2), jac(z2) @ (J + 0.5 * h * k1J)
        z3 = z + 0.5 * h * k2z
        k3z, k3J = f(z3), jac(z3) @ (J + 0.5 * h * k2J)
        z4 = z + h * k3z
        k4z, k4J = f(z4), jac(z4) @ (J + h * k3J)
        z = z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        J = J + (h / 6.0) * (k1J + 2.0 * k2J + 2.0 * k3J + k4J)
    return z, J


PENDULUM = ("y", "-sin(x) - y/4 + exp(x*y)/10")

VARIATIONAL_FIELDS = {
    1: ("x - x^3",),
    2: ("y + x^2 - x*y", "-sin(x) + y^2/2"),
    3: ("y*z - x", "x^2 - 1", "sin(y) + 2"),
    4: ("z2 - z1*z4", "z3", "z1*z2 - z4^2", "1/2 - z3"),
}


class TestColumnKernels:
    def test_allocates_one_row_per_expression(self):
        F = field2("x*y + 1", "3")
        f = compile_components(F.components)
        Z = np.random.default_rng(0).uniform(-2, 2, (2, 7))
        out = f(Z)
        assert out.shape == (2, 7) and out.flags.c_contiguous
        assert np.array_equal(out[0], Z[0] * Z[1] + 1.0) and np.all(out[1] == 3.0)
        assert np.array_equal(f(Z.reshape(2, 7, 1)), out.reshape(2, 7, 1))

    def test_single_point(self):
        # integer powers of 3 and more go through the same chain of
        # multiplications on a batch and on a point
        for F in (field2(*PENDULUM), field2("x^3 + y^5 - 3*x*y^4", "x^-3*y^2 - (x + y)^7"), field2("y", "2")):
            f = compile_components(F.components)
            Z = np.random.default_rng(1).uniform(-2, 2, (2, 5))
            batch = f(Z)
            for r in range(5):
                point = f(Z[:, r])
                assert point.shape == (2,) and point.tobytes() == batch[:, r].tobytes()
                into = np.full(2, np.nan)
                assert f(Z[:, r], into) is into and into.tobytes() == point.tobytes()

    def test_writes_into_a_strided_out(self):
        f = compile_components(field2(*PENDULUM).components + (parse("x^3", 2), parse("y", 2), parse("1/2", 2)))
        Z = np.random.default_rng(2).uniform(-1, 1, (2, 6))
        want = f(Z)
        # every other row of a larger buffer, and the transposed view of a
        # point-major (N, k) buffer
        buf = np.full((10, 6), -7.0)
        assert f(Z, buf[::2]).base is buf
        assert buf[::2].tobytes() == want.tobytes() and np.all(buf[1::2] == -7.0)
        rows = np.empty((6, 5))
        f(Z, rows.T)
        assert rows.T.tobytes() == want.tobytes()

    def test_outputs_are_copies_of_z(self):
        # the identity, a repeated output, a swap and a constant: out never
        # shares memory with Z, so writing into out leaves Z alone
        f = compile_components([parse(t, 2) for t in ("x", "y", "x", "y^1", "-(-x)", "2")])
        Z = np.random.default_rng(3).uniform(-1, 1, (2, 4))
        before = Z.copy()
        for z in (Z, Z[:, 0]):
            out = f(z)
            assert not np.shares_memory(out, Z)
            assert np.array_equal(out[:5], z[[0, 1, 0, 1, 0]]) and np.all(out[5] == 2.0)
            out[...] = np.nan
        assert np.array_equal(Z, before)

    def test_a_negative_zero_stays_negative(self):
        # nothing is added to the values, so -x at x = 0 is -0.0 and a
        # constant row stays finite where a coordinate is not
        f = compile_components([parse("-x", 2), parse("3", 2), parse("y", 2)])
        out = f(np.array([[0.0, np.inf], [1.0, 2.0]]))
        assert np.signbit(out[0, 0]) and out[0, 1] == -np.inf
        assert np.array_equal(out[1:], [[3.0, 3.0], [1.0, 2.0]])

    def test_matrix_keeps_row_major_columns(self):
        F = field2("x^2*y", "x - y^3")
        jac = compile_components(flat_jacobian(F))
        Z = np.random.default_rng(2).uniform(-1, 1, (2, 4))
        for i, row in enumerate(jacobian(F).entries):
            for j, e in enumerate(row):
                assert np.array_equal(jac(Z)[2 * i + j], compile_components([e])(Z)[0])

    @pytest.mark.parametrize("n", sorted(VARIATIONAL_FIELDS))
    def test_variational_kernel_matches_reference(self, n):
        # the compiled F, J_F J against the hand-written reference, bit for
        # bit, on states with non-finite entries too
        F = VectorField([parse(t, n) for t in VARIATIONAL_FIELDS[n]], DomainBox.cube(-1, 1, n))
        kernel = variational_kernel(*map(tuple, variational_system(F)))
        y = np.random.default_rng(n).uniform(-2, 2, (n + n * n, 64))
        y[:, 5] = np.nan
        y[n:, 7] = np.inf
        y[0, 9] = 0.0
        with np.errstate(all="ignore"):
            got = kernel(y)
            want = rk4_reference.variational_kernel(compile_components(F.components),
                                                    compile_components(flat_jacobian(F)), n)(y)
        assert got.shape == (n + n * n, 64)
        assert got.tobytes() == np.stack(want).tobytes()


class TestMarch:
    def test_same_bits_as_point_layout_reference(self):
        F = field2(*PENDULUM)
        f = compile_components(F.components)
        Z = np.random.default_rng(3).uniform(-1, 1, (40, 2))
        for h, steps in ((0.3 / 30, 30), (0.01, 1)):
            zT, _ = rk4_march(f, Z.T, h, steps)
            assert np.array_equal(np.stack(zT, axis=-1), reference_rk4(point_major(f), Z, h, steps))

    def test_batch_rows_equal_rows_marched_alone(self):
        f = compile_components(field2(*PENDULUM).components)
        Z = np.random.default_rng(5).uniform(-1, 1, (25, 2))
        h = np.where(np.arange(25) % 2 == 0, 0.01, -0.01)
        batch, _ = rk4_march(f, Z.T, h, 50)
        for r in range(25):
            alone, _ = rk4_march(f, Z[r : r + 1].T, h[r], 50)
            assert np.array_equal(np.stack(alone)[:, 0], np.stack(batch)[:, r])

    def test_blocks_of_a_long_batch_match_one_piece(self, monkeypatch):
        from symflow import numeric

        f = compile_components(field2(*PENDULUM).components)
        Z = np.random.default_rng(10).uniform(-1, 1, (50, 2))
        Z[7] = np.nan
        h = np.where(np.arange(50) % 3 == 0, -0.01, 0.01)
        whole, died_whole = rk4_march(f, Z.T, h, 20, [-3, -3], [3, 3])
        monkeypatch.setattr(numeric, "BLOCK_ROWS", 8)
        blocked, died = rk4_march(f, Z.T, h, 20, [-3, -3], [3, 3])
        assert np.array_equal(died, died_whole) and died[7] == 1
        alive = died == 0
        assert np.array_equal(np.stack(blocked)[:, alive], np.stack(whole)[:, alive])

    def test_escape_is_masked_per_row(self):
        # x' = x^2 sqrt(1 + y) blows up from x = 0.9 inside the horizon; the
        # row at y = -1.5 turns non-finite at once through the square root;
        # the other two stay inside the guard
        f = compile_components(field2("x^2*sqrt(1 + y)", "-y").components)
        Z = np.array([[0.1, 0.5], [0.9, 0.2], [0.0, -1.5], [-0.2, -0.4]])
        lo, hi = [-2.0, -2.0], [2.0, 2.0]
        seen = []
        z, died = rk4_march(f, Z.T, 0.01, 200, lo, hi,
                            on_step=lambda k, zs, alive: seen.append(alive.copy()))
        assert died[2] == 1
        # the escaping row's first step outside, found by marching it alone
        path = [Z[1:2].T]
        for _ in range(200):
            path.append(np.stack(rk4_march(f, path[-1], 0.01, 1)[0]))
        first_out = next(k for k, p in enumerate(path) if not np.all(np.abs(p) <= 2.0))
        assert died[1] == first_out
        assert [bool(a[1]) for a in seen] == [k < first_out for k in range(1, len(seen) + 1)]
        # the neighbours stay alive, with the bits of a march without a guard
        free, _ = rk4_march(f, Z[[0, 3]].T, 0.01, 200)
        assert died[0] == 0 and died[3] == 0 and len(seen) == 200
        assert np.array_equal(np.stack(z)[:, [0, 3]], np.stack(free))

    def test_stops_once_every_row_is_masked(self):
        f = compile_components(field2("1", "0").components)
        steps = []
        _, died = rk4_march(f, np.array([[0.0, 0.5], [0.0, 0.0]]), 0.3, 100, [-1, -1], [1, 1],
                            on_step=lambda k, zs, alive: steps.append(k))
        assert list(died) == [4, 2] and steps == [1, 2, 3, 4]


# fields for the stacked-state checks: a transcendental one, one with only
# constant components, one whose components are the input columns
# themselves, and one that blows up or turns non-finite inside the guard
MARCH_FIELDS = {
    "pendulum": PENDULUM,
    "constant": ("1", "0"),
    "swap": ("y", "x"),
    "blowup": ("x^2*sqrt(1 + y)", "-y"),
}



@st.composite
def batches(draw, max_rows=30):
    """Start points (rows, 2), some with a NaN coordinate, and a step: one
    float, or one per row with mixed signs."""
    rows = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    Z = rng.uniform(-1.5, 1.5, (rows, 2))
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        Z[r, rng.integers(2)] = np.nan
    step = draw(st.sampled_from([0.01, 0.05, 0.2]))
    h = step * rng.choice([-1.0, 1.0], rows) if draw(st.booleans()) else step
    return Z, h


def reference_march(texts, Z, h, steps, lo=None, hi=None, on_step=None):
    kernel = compile_components(field2(*texts).components)
    cols, died = rk4_reference.rk4_march(kernel, list(Z.T), h, steps, lo, hi, on_step)
    return np.stack(cols), died


def stacked_march(texts, Z, h, steps, lo=None, hi=None, on_step=None):
    return rk4_march(compile_components(field2(*texts).components), Z.T, h, steps, lo, hi, on_step)


GUARD = ([-2.0, -2.0], [2.0, 2.0])


class TestStackedMarchMatchesReference:
    """The stacked march against the list-of-columns reference
    (tests/rk4_reference.py): the same operations in the same order, so the
    same bits in every state and the same `died`."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(MARCH_FIELDS)), batches(), st.integers(1, 40), st.booleans())
    def test_states_and_died(self, name, batch, steps, guarded):
        Z, h = batch
        guard = GUARD if guarded else (None, None)
        z, died = stacked_march(MARCH_FIELDS[name], Z, h, steps, *guard)
        z_ref, died_ref = reference_march(MARCH_FIELDS[name], Z, h, steps, *guard)
        assert z.shape == z_ref.shape and z.flags.c_contiguous
        assert np.array_equal(z, z_ref, equal_nan=True)
        assert np.array_equal(died, died_ref)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(MARCH_FIELDS)), batches(), st.integers(1, 30))
    def test_on_step_sees_each_state(self, name, batch, steps):
        Z, h = batch
        seen, seen_ref = [], []
        stacked_march(MARCH_FIELDS[name], Z, h, steps, *GUARD,
                      on_step=lambda k, state, alive: seen.append((k, state.copy(), alive.copy())))
        reference_march(MARCH_FIELDS[name], Z, h, steps, *GUARD,
                        on_step=lambda k, cols, alive: seen_ref.append((k, np.stack(cols), alive.copy())))
        assert [k for k, _, _ in seen] == [k for k, _, _ in seen_ref]
        for (_, state, alive), (_, state_ref, alive_ref) in zip(seen, seen_ref):
            assert np.array_equal(state, state_ref, equal_nan=True)
            assert np.array_equal(alive, alive_ref)

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(MARCH_FIELDS)), batches(max_rows=60), st.integers(1, 7), st.integers(1, 30))
    def test_blocks(self, monkeypatch, name, batch, block_rows, steps):
        # a block stops once its own rows are all masked, so only the rows
        # that stay alive have a specified state
        Z, h = batch
        monkeypatch.setattr(numeric, "BLOCK_ROWS", block_rows)
        z, died = stacked_march(MARCH_FIELDS[name], Z, h, steps, *GUARD)
        z_ref, died_ref = reference_march(MARCH_FIELDS[name], Z, h, steps, *GUARD)
        assert np.array_equal(died, died_ref)
        assert np.array_equal(z[:, died == 0], z_ref[:, died == 0])

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(VARIATIONAL_FIELDS)), st.integers(0, 2**16), st.integers(1, 40),
           st.integers(1, 20), st.sampled_from([0.01, -0.01, 0.05]), st.booleans())
    def test_variational_system(self, monkeypatch, n, seed, rows, steps, h, blocked):
        if blocked:
            monkeypatch.setattr(numeric, "BLOCK_ROWS", 3)
        F = VectorField([parse(t, n) for t in VARIATIONAL_FIELDS[n]], DomainBox.cube(-1, 1, n))
        comps, rows_of_jac = variational_system(F)
        f, jac = compile_components(comps), compile_components(flat_jacobian(F))
        Z = np.random.default_rng(seed).uniform(-1, 1, (rows, n))
        T = h * steps
        h = T / steps  # the step rk4_variational takes
        y0 = np.concatenate([Z.T, np.repeat(np.eye(n).reshape(n * n, 1), rows, axis=1)])
        y, _ = rk4_march(variational_kernel(tuple(comps), tuple(rows_of_jac)), y0, h, steps)
        y_ref, _ = rk4_reference.rk4_march(rk4_reference.variational_kernel(f, jac, n), list(y0), h, steps)
        assert np.array_equal(y, np.stack(y_ref))
        zT, JT = rk4_variational(comps, rows_of_jac, Z, T, steps)
        assert np.array_equal(zT, y[:n].T) and np.array_equal(JT, y[n:].T.reshape(rows, n, n))

    def test_caller_arrays_and_kernel_outputs_are_left_untouched(self):
        Z = np.random.default_rng(11).uniform(-1, 1, (2, 9))
        h = np.where(np.arange(9) % 2 == 0, 0.01, -0.01)
        lo, hi = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
        kept = np.ones(9)
        inputs = [a.copy() for a in (Z, h, lo, hi, kept)]
        # the derivative copies a row of the stage input and an array it owns
        def f(y, out):
            out[0] = y[1]
            out[1] = kept

        z, _ = rk4_march(f, Z, h, 25, lo, hi)
        assert all(np.array_equal(a, b) for a, b in zip((Z, h, lo, hi, kept), inputs))
        z_ref, _ = rk4_reference.rk4_march(lambda y: (y[1], kept), list(Z), h, 25, lo, hi)
        assert np.array_equal(z, np.stack(z_ref))

    def test_rk4_path_keeps_every_state(self):
        # each recorded state is a copy: later steps do not overwrite it
        Z = np.random.default_rng(12).uniform(-1, 1, (6, 2))
        path, died = rk4_path(compile_components(field2(*PENDULUM).components), Z.T, 0.05, 12, *GUARD)
        states = [Z.T]
        reference_march(PENDULUM, Z, 0.05, 12, *GUARD,
                        on_step=lambda k, cols, alive: states.append(np.stack(cols)))
        assert path.shape == (13, 2, 6) and not died.any()
        assert np.array_equal(path, np.stack(states))


class TestVariational:
    def test_rotation(self):
        F = field2("y", "-x")
        Z = np.random.default_rng(6).uniform(-1, 1, (10, 2))
        T = 1.0
        zT, JT = rk4_variational(*variational_system(F), Z, T, 1000)
        c, s = np.cos(T), np.sin(T)
        R = np.array([[c, s], [-s, c]])
        assert np.allclose(JT, R, atol=1e-12, rtol=0)
        assert np.allclose(zT, Z @ R.T, atol=1e-12, rtol=0)

    def test_expansion_determinant(self):
        F = field2("x", "y")
        Z = np.random.default_rng(7).uniform(-1, 1, (10, 2))
        for T in (0.5, -0.5):
            _, JT = rk4_variational(*variational_system(F), Z, T, 500)
            assert np.allclose(np.linalg.det(JT), np.exp(2 * T), rtol=1e-12, atol=0)

    def test_returns_views_of_the_marched_state(self):
        # z(T) and J(T) share the one marched state, and their transposes
        # are its contiguous rows
        F = field2("y + x^2", "-x*y")
        Z = np.random.default_rng(9).uniform(-1, 1, (50, 2))
        zT, JT = rk4_variational(*variational_system(F), Z, 0.05, 5)
        assert zT.shape == (50, 2) and JT.shape == (50, 2, 2)
        assert zT.base is not None and zT.base is JT.base
        assert zT.T.flags.c_contiguous and JT.transpose(1, 2, 0).flags.c_contiguous

    def test_close_to_matrix_product_reference(self):
        # the reference multiplies with `@`, which may fuse multiply-adds, so
        # the two agree to rounding, not bit for bit
        F = field2("y + x^2 - x*y", "-sin(x) + y^2/2")
        Z = np.random.default_rng(8).uniform(-0.5, 0.5, (200, 2))
        zT, JT = rk4_variational(*variational_system(F), Z, 0.05, 50)
        f, jac = compile_components(F.components), compile_components(flat_jacobian(F))
        zR, JR = reference_variational(point_major(f), point_major(jac), Z, 0.05 / 50, 50)
        assert np.array_equal(zT, zR)
        assert np.allclose(JT, JR, rtol=0, atol=1e3 * np.finfo(float).eps)


class TestIntegrateRow:
    def test_integrate_equals_batched_row(self):
        F = field2(*PENDULUM)
        cfg = IntegratorConfig(step=1e-2, horizon=0.5)
        z0 = np.array([0.3, -0.7])
        traj = integrate(F, z0, cfg)
        Z = np.random.default_rng(9).uniform(-1, 1, (8, 2))
        Z[5] = z0
        f = compile_components(F.components)
        fwd, _ = rk4_march(f, Z.T, cfg.step, 50)
        bwd, _ = rk4_march(f, Z.T, -cfg.step, 50)
        assert traj.final_state() == tuple(np.stack(fwd)[:, 5])
        assert traj.initial_state() == tuple(np.stack(bwd)[:, 5])
        assert len(traj.times) == 101 and not traj.escaped

    def test_integrate_reports_non_finite_cause(self):
        F = field2("sqrt(x) - 10", "y", box=DomainBox.cube(-1, 3, 2))
        traj = integrate(F, (0.01, 0.0), IntegratorConfig(step=1e-2, horizon=1.0))
        assert traj.escaped
        assert np.all(np.isfinite(traj.states))
        assert traj.escape_cause == "non-finite state at step 1"

    def test_integrate_backward_escape_at_first_step(self):
        F = field2("10 - sqrt(x)", "y", box=DomainBox.cube(-1, 3, 2))
        traj = integrate(F, (0.01, 0.0), IntegratorConfig(step=1e-2, horizon=0.2))
        assert traj.escape_cause == "non-finite state at step 1"
        assert traj.states.shape == (21, 2) and traj.times[0] == 0.0


def test_oracle_compiles_once_per_field(monkeypatch):
    from symflow import tower

    F = field2("y + x^2", "-x")
    tower._oracle_kernels.cache_clear()
    first = [tower.tower_fd_oracle(F, (0.1, 0.2), j) for j in range(4)]
    calls = []
    monkeypatch.setattr(tower, "compile_components", lambda e: calls.append(e))
    again = [tower.tower_fd_oracle(F, (0.1, 0.2), j) for j in range(4)]
    assert calls == [] and first == again
    assert first[0] == pytest.approx(0.2, abs=1e-12)


# ---------------------------------------------------------------------------
# the batched Newton solver against the scalar reference, row by row
# ---------------------------------------------------------------------------

NAMES = "xyz"


@st.composite
def polynomial_systems(draw):
    """A square polynomial system in 1-3 variables with integer powers up to
    4, and its Jacobian, as expressions."""
    n = draw(st.integers(min_value=1, max_value=3))
    comps = []
    for _ in range(n):
        terms = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            c = draw(st.integers(min_value=-3, max_value=3).filter(bool))
            powers = [draw(st.integers(min_value=0, max_value=4)) for _ in range(n)]
            terms.append("*".join([str(c)] + [f"{NAMES[i]}^{k}" for i, k in enumerate(powers) if k]))
        terms.append(str(draw(st.integers(min_value=-3, max_value=3))))
        comps.append(parse(" + ".join(terms), n))
    entries = [[ex.differentiate(c, j + 1) for j in range(n)] for c in comps]
    return comps, entries


def assert_same_rows(got, want):
    """x, converged and residual equal bit for bit."""
    assert got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
    assert got[2].tobytes() == want[2].tobytes()


def kernels(comps, entries):
    return compile_components(comps), compile_components([e for row in entries for e in row])


class TestNewtonBatch:
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(polynomial_systems(), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    def test_rows_match_scalar_reference(self, system, seed, with_target):
        f, jac = kernels(*system)
        n = len(system[0])
        rng = np.random.default_rng(seed)
        seeds = rng.uniform(-2, 2, (12, n))
        target = rng.uniform(-1, 1, (12, n)) if with_target else None
        got = newton_batch(f, jac, seeds, target, tol=1e-10, max_iter=40)
        assert_same_rows(got, newton_rows(f, jac, seeds, target, tol=1e-10, max_iter=40))
        # a converged row's residual is below tol, so callers need not test it again
        x, ok, r = got
        assert (r[ok] < 1e-10).all()

    def test_non_finite_start(self):
        f, jac = kernels([parse("log(x) - 1", 1)], [[parse("1/x", 1)]])
        seeds = np.array([[-1.0], [np.nan], [2.0]])
        x, ok, r = newton_batch(f, jac, seeds)
        assert_same_rows((x, ok, r), newton_rows(f, jac, seeds))
        assert list(ok) == [False, False, True] and np.isinf(r[:2]).all()
        assert x[0, 0] == -1.0 and np.isnan(x[1, 0])

    def test_non_finite_jacobian(self):
        f, jac = kernels([parse("sqrt(x) - 1", 1)], [[parse("1/(2*sqrt(x))", 1)]])
        seeds = np.array([[0.0], [4.0]])
        x, ok, r = newton_batch(f, jac, seeds)
        assert_same_rows((x, ok, r), newton_rows(f, jac, seeds))
        assert list(ok) == [False, True] and x[0, 0] == 0.0 and r[0] == 1.0

    def test_singular_row_falls_back_to_row_solves(self):
        # at x = 0 the Jacobian [[2x, 0], [0, 1]] is exactly singular, so
        # the stacked solve raises; the other rows still converge
        comps = [parse("x^2 - 1", 2), parse("y - 1", 2)]
        f, jac = kernels(comps, [[ex.differentiate(c, j) for j in (1, 2)] for c in comps])
        seeds = np.array([[2.0, 0.0], [0.0, 3.0], [-3.0, 1.0], [0.5, 0.5]])
        x, ok, r = newton_batch(f, jac, seeds)
        assert_same_rows((x, ok, r), newton_rows(f, jac, seeds))
        assert list(ok) == [True, False, True, True]
        assert np.array_equal(x[1], seeds[1]) and r[1] > 1.0

    def test_singular_matrices_alone_are_solved_one_by_one(self, monkeypatch):
        # three exactly singular matrices among 50: the others are solved as
        # one stack, with the bits of a solve of each matrix alone
        rng = np.random.default_rng(9)
        J = rng.uniform(-2, 2, (50, 3, 3))
        b = rng.uniform(-1, 1, (50, 3))
        J[4, 2] = J[4, 0]  # a repeated row
        J[23, :, 1] = 0.0  # a zero column
        J[49, 1] = 0.0  # a zero row
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(J, b[..., None])
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
        x, solved = solve_rows(J, b)
        monkeypatch.undo()
        # the whole stack, the 47 others as one stack, then the 3 alone
        assert len(calls) == 5
        want = np.zeros_like(b)
        for i in range(50):
            try:
                want[i] = np.linalg.solve(J[i], b[i])
            except np.linalg.LinAlgError:
                pass
        assert np.flatnonzero(~solved).tolist() == [4, 23, 49]
        assert x.tobytes() == want.tobytes()

    def test_stalled_line_search(self):
        # a Jacobian of the wrong sign points every step uphill
        def f(Z, out=None):
            return np.subtract(Z, 1.0, out=out)

        def jac(Z, out=None):
            return np.negative(np.ones_like(Z), out=out)

        seeds = np.array([[3.0], [1.0 + 1e-12], [-2.0]])
        x, ok, r = newton_batch(f, jac, seeds)
        assert_same_rows((x, ok, r), newton_rows(f, jac, seeds))
        assert list(ok) == [False, True, False]
        assert np.array_equal(x, seeds) and r[0] == 2.0

    def test_max_iter_exhaustion(self):
        # exp(x) = 0 has no root: every full step lowers the residual by e
        def f(Z, out=None):
            return np.exp(Z, out=out)

        jac = f

        seeds = np.array([[0.0], [1.0]])
        for max_iter in (0, 1, 5):
            x, ok, r = newton_batch(f, jac, seeds, max_iter=max_iter)
            assert_same_rows((x, ok, r), newton_rows(f, jac, seeds, max_iter=max_iter))
            assert not ok.any() and np.array_equal(x[:, 0], seeds[:, 0] - max_iter)

    def test_converged_on_the_last_iteration(self):
        def f(Z, out=None):
            return np.subtract(2.0 * Z, 1.0, out=out)

        def jac(Z, out=None):
            return np.add(0.0 * Z, 2.0, out=out)

        seeds = np.array([[3.0], [0.5]])
        x, ok, r = newton_batch(f, jac, seeds, max_iter=1)
        assert_same_rows((x, ok, r), newton_rows(f, jac, seeds, max_iter=1))
        assert ok.all() and np.all(x == 0.5)

    def test_zero_rows(self):
        f, jac = kernels([parse("x*y - 1", 2), parse("x - y", 2)],
                         [[parse("y", 2), parse("x", 2)], [parse("1", 2), parse("-1", 2)]])
        x, ok, r = newton_batch(f, jac, np.zeros((0, 2)), np.zeros((0, 2)))
        assert x.shape == (0, 2) and ok.shape == (0,) and r.shape == (0,)
        assert ok.dtype == bool and r.dtype == float

    def test_blocks_of_a_long_batch_match_one_piece(self, monkeypatch):
        comps = [parse("x^3 - 2*x*y + 1", 2), parse("y^2 - x - 1", 2)]
        f, jac = kernels(comps, [[ex.differentiate(c, j) for j in (1, 2)] for c in comps])
        seeds = np.random.default_rng(7).uniform(-2, 2, (30, 2))
        seeds[11] = (0.0, 0.0)  # a singular Jacobian in the second block
        target = np.random.default_rng(8).uniform(-1, 1, (30, 2))
        whole = newton_batch(f, jac, seeds, target)
        monkeypatch.setattr(numeric, "BLOCK_ROWS", 7)
        assert_same_rows(newton_batch(f, jac, seeds, target), whole)
        assert_same_rows(whole, newton_rows(f, jac, seeds, target))


class TestIntPower:
    def test_rows_get_single_point_bits(self):
        comps = [parse("x^3*y^-2 + x^2 - 3*y^4", 2), parse("(x + y)^5 - x^-1", 2)]
        f = compile_components(comps)
        Z = np.random.default_rng(4).uniform(-3, 3, (400, 2))
        batch = f(Z.T)
        single = np.array([f(z) for z in Z])
        assert batch.T.tobytes() == single.tobytes()

    def test_overflow_and_zero_division_give_inf(self):
        f = compile_components([parse("x^3", 1), parse("x^-1", 1)])
        Z = np.array([[1e200], [0.0], [2.0]])
        with np.errstate(all="ignore"):
            out = f(Z.T).T
            single = np.array([f(z) for z in Z])
        assert out[0, 0] == np.inf and out[1, 1] == np.inf
        assert out.tobytes() == single.tobytes()

    def test_no_integer_power_is_rendered_with_numpy_power(self):
        e = parse("x^3 + y^-2 + x^2*y^5 + sqrt(x)^(1/2)", 2)
        src = compile_components([e]).source
        assert re.search(r"\*\*\s*-?\d", src) is None and "_pow(" in src
