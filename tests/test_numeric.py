"""The column kernels and the one RK4 marcher in symflow.numeric."""

import numpy as np
import pytest

from symflow.fields import VectorField, jacobian
from symflow.flow import IntegratorConfig, integrate
from symflow.geometry import DomainBox
from symflow.numeric import (
    compile_columns,
    compile_components,
    compile_matrix,
    rk4_final,
    rk4_march,
    rk4_step,
    rk4_variational,
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


def reference_variational(f, jac, z, h, steps):
    n = z.shape[-1]
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


class TestColumnKernels:
    def test_stacked_wrapper_matches_columns(self):
        F = field2("x*y + 1", "3")
        f = compile_components(F.components)
        Z = np.random.default_rng(0).uniform(-2, 2, (7, 2))
        out = f(Z)
        cols = compile_columns(F.components)(Z.T)
        assert out.shape == (7, 2)
        assert np.array_equal(out[:, 0], cols[0])
        assert cols[1] == 3.0 and np.all(out[:, 1] == 3.0)
        assert np.array_equal(f(Z.reshape(7, 1, 2)), out.reshape(7, 1, 2))

    def test_single_point(self):
        f = compile_components(field2(*PENDULUM).components)
        Z = np.random.default_rng(1).uniform(-2, 2, (5, 2))
        batch = f(Z)
        for row, z in zip(batch, Z):
            assert np.array_equal(f(z), row)

    def test_matrix_keeps_row_major_columns(self):
        F = field2("x^2*y", "x - y^3")
        jac = compile_matrix(jacobian(F).entries)
        Z = np.random.default_rng(2).uniform(-1, 1, (4, 2))
        flat = jac.columns(Z.T)
        assert np.array_equal(jac(Z).reshape(4, 4), np.stack(np.broadcast_arrays(*flat), axis=-1))


class TestMarch:
    def test_same_bits_as_point_layout_reference(self):
        F = field2(*PENDULUM)
        f = compile_components(F.components)
        Z = np.random.default_rng(3).uniform(-1, 1, (40, 2))
        assert np.array_equal(rk4_final(f, Z, 0.3, 30), reference_rk4(f, Z, 0.3 / 30, 30))
        assert np.array_equal(rk4_step(f, Z, 0.01), reference_rk4(f, Z, 0.01, 1))

    def test_batch_rows_equal_rows_marched_alone(self):
        f = compile_columns(field2(*PENDULUM).components)
        Z = np.random.default_rng(5).uniform(-1, 1, (25, 2))
        h = np.where(np.arange(25) % 2 == 0, 0.01, -0.01)
        batch, _ = rk4_march(f, Z.T, h, 50)
        for r in range(25):
            alone, _ = rk4_march(f, Z[r : r + 1].T, h[r], 50)
            assert np.array_equal(np.stack(alone)[:, 0], np.stack(batch)[:, r])

    def test_blocks_of_a_long_batch_match_one_piece(self, monkeypatch):
        from symflow import numeric

        f = compile_columns(field2(*PENDULUM).components)
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
        f = compile_columns(field2("x^2*sqrt(1 + y)", "-y").components)
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
        f = compile_columns(field2("1", "0").components)
        steps = []
        _, died = rk4_march(f, np.array([[0.0, 0.5], [0.0, 0.0]]), 0.3, 100, [-1, -1], [1, 1],
                            on_step=lambda k, zs, alive: steps.append(k))
        assert list(died) == [4, 2] and steps == [1, 2, 3, 4]


class TestVariational:
    def test_rotation(self):
        F = field2("y", "-x")
        f, jac = compile_components(F.components), compile_matrix(jacobian(F).entries)
        Z = np.random.default_rng(6).uniform(-1, 1, (10, 2))
        T = 1.0
        zT, JT = rk4_variational(f, jac, Z, T, 1000)
        c, s = np.cos(T), np.sin(T)
        R = np.array([[c, s], [-s, c]])
        assert np.allclose(JT, R, atol=1e-12, rtol=0)
        assert np.allclose(zT, Z @ R.T, atol=1e-12, rtol=0)

    def test_expansion_determinant(self):
        F = field2("x", "y")
        f, jac = compile_components(F.components), compile_matrix(jacobian(F).entries)
        Z = np.random.default_rng(7).uniform(-1, 1, (10, 2))
        for T in (0.5, -0.5):
            _, JT = rk4_variational(f, jac, Z, T, 500)
            assert np.allclose(np.linalg.det(JT), np.exp(2 * T), rtol=1e-12, atol=0)

    def test_close_to_matrix_product_reference(self):
        # the reference multiplies with `@`, which may fuse multiply-adds, so
        # the two agree to rounding, not bit for bit
        F = field2("y + x^2 - x*y", "-sin(x) + y^2/2")
        f, jac = compile_components(F.components), compile_matrix(jacobian(F).entries)
        Z = np.random.default_rng(8).uniform(-0.5, 0.5, (200, 2))
        zT, JT = rk4_variational(f, jac, Z, 0.05, 50)
        zR, JR = reference_variational(f, jac, Z, 0.05 / 50, 50)
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
        f = compile_columns(F.components)
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
    monkeypatch.setattr(tower, "compile_columns", lambda e: calls.append(e))
    again = [tower.tower_fd_oracle(F, (0.1, 0.2), j) for j in range(4)]
    assert calls == [] and first == again
    assert first[0] == pytest.approx(0.2, abs=1e-12)
