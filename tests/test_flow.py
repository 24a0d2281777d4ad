"""Flow integration, flow-level commutation, and the volume-growth check."""

import numpy as np
import pytest

from symflow.candidates import lotka_volterra_field
from symflow import flow
from symflow.fields import SmoothMap, VectorField, det_kernel
from symflow.flow import (
    IntegratorConfig,
    check_flow_relation,
    check_liouville,
    integrate,
    trajectory_to_csv,
)
from symflow.geometry import DomainBox
from symflow.numeric import compile_components, rk4_march
from symflow.parser import parse
from symflow.verdict import CheckKind, Status


def field2(*texts, box=None):
    box = box or DomainBox.cube(-3, 3, 2)
    return VectorField([parse(t, 2) for t in texts], box)


def map2(*texts, box=None):
    box = box or DomainBox.cube(-3, 3, 2)
    return SmoothMap([parse(t, 2) for t in texts], box)


class TestIntegrate:
    def test_harmonic_oscillator_period(self):
        F = field2("y", "-x")
        traj = integrate(F, (1.0, 0.0), IntegratorConfig(step=1e-3, horizon=2 * np.pi))
        assert not traj.escaped
        assert np.linalg.norm(np.asarray(traj.final_state()) - (1.0, 0.0)) < 1e-6

    def test_riccati_closed_form(self):
        # x' = x^2 has x(t) = x0 / (1 - x0 t)
        F = field2("x^2", "y^2", box=DomainBox.cube(-1, 1, 2))
        traj = integrate(F, (0.1, 0.1), IntegratorConfig(step=1e-3, horizon=1.0))
        assert traj.final_state()[0] == pytest.approx(0.1 / 0.9, abs=1e-6)
        assert traj.initial_state()[0] == pytest.approx(0.1 / 1.1, abs=1e-6)

    def test_critical_point_is_stationary(self):
        F = field2("y + x^2", "-x")
        traj = integrate(F, (0.0, 0.0), IntegratorConfig(step=1e-3, horizon=1.0))
        assert np.max(np.abs(traj.states)) == 0.0

    def test_escape_is_flagged_and_truncated(self):
        F = field2("x^2", "y^2", box=DomainBox.cube(-1, 1, 2))
        traj = integrate(F, (0.9, 0.9), IntegratorConfig(step=1e-2, horizon=5.0))
        assert traj.escaped
        assert traj.escape_cause
        assert np.all(np.isfinite(traj.states))

    def test_time_symmetry(self):
        F = field2("y", "-sin(x)")
        f = compile_components(F.components)
        z = np.array([0.5, 0.3])
        there, _ = rk4_march(f, z, 1.0 / 1000, 1000)
        back, _ = rk4_march(f, there, -1.0 / 1000, 1000)
        assert np.linalg.norm(np.array(back) - z) < 10 * 1e-5

    def test_fourth_order_convergence(self):
        F = field2("y", "-x")
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            traj = integrate(F, (1.0, 0.0), IntegratorConfig(step=h, horizon=2 * np.pi))
            errs.append(np.linalg.norm(np.asarray(traj.final_state()) - (1.0, 0.0)))
        assert errs[0] / errs[1] > 12
        assert errs[1] / errs[2] > 12

    def test_rejects_start_outside_domain(self):
        F = field2("y", "-x", box=DomainBox.cube(-1, 1, 2))
        with pytest.raises(ValueError):
            integrate(F, (5.0, 0.0), IntegratorConfig(horizon=1.0))

    @pytest.mark.parametrize("setting", ["step", "horizon"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_rejects_non_positive_or_non_finite(self, setting, value):
        with pytest.raises(ValueError, match=f"^{setting} must be positive and finite$"):
            IntegratorConfig(**{setting: value})

    def test_csv_export(self, tmp_path):
        F = field2("y", "-x")
        traj = integrate(F, (1.0, 0.0), IntegratorConfig(step=0.1, horizon=0.5))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,z1,z2"
        assert len(lines) == len(traj.times) + 1


class TestFlowRelation:
    def test_pendulum_symmetry(self):
        F = field2("y", "-sin(x)")
        v = check_flow_relation(
            F,
            map2("-x", "-y"),
            CheckKind.SYMMETRY,
            samples=40,
            cfg=IntegratorConfig(step=1e-3, horizon=1.0),
            sample_box=DomainBox.cube(-1, 1, 2),
            rng=np.random.default_rng(0),
        )
        assert v.status is Status.HOLDS
        assert v.residual_max < 1e-5

    def test_predator_prey_reversibility(self):
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-1, 8, 2))
        v = check_flow_relation(
            F,
            map2("2*y/3", "3*x/2", box=F.domain),
            CheckKind.REVERSIBILITY,
            samples=50,
            cfg=IntegratorConfig(step=1e-3, horizon=0.5),
            sample_box=DomainBox.cube(0.2, 2.0, 2),
            rng=np.random.default_rng(1),
        )
        assert v.status is Status.HOLDS
        assert v.residual_max < 1e-5

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_non_positive_samples(self, samples):
        with pytest.raises(ValueError, match="^samples must be positive$"):
            check_flow_relation(field2("y", "-x"), map2("-x", "y"), CheckKind.REVERSIBILITY, samples=samples)

    def test_non_odd_restoring_force_fails(self):
        F = field2("y + x^2", "-(x + x^2)")
        v = check_flow_relation(
            F,
            map2("-x", "y"),
            CheckKind.REVERSIBILITY,
            samples=40,
            cfg=IntegratorConfig(step=1e-3, horizon=0.5),
            sample_box=DomainBox.cube(-0.5, 0.5, 2),
            rng=np.random.default_rng(2),
        )
        assert v.status is Status.FAILS
        assert v.witnesses

    def test_matches_structural_verdicts_on_corpus(self):
        from symflow.checks import check_structural

        cases = [
            (lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-1, 8, 2)),
             ("2*y/3", "3*x/2"), CheckKind.REVERSIBILITY, DomainBox.cube(0.2, 1.5, 2)),
            (field2("y", "-sin(x)"), ("-x", "-y"), CheckKind.SYMMETRY, DomainBox.cube(-1, 1, 2)),
            (field2("y + x^2", "-(x + x^3)"), ("-x", "y"), CheckKind.REVERSIBILITY,
             DomainBox.cube(-0.5, 0.5, 2)),
        ]
        for F, sig_texts, kind, sample_box in cases:
            sigma = map2(*sig_texts, box=F.domain)
            assert check_structural(F, sigma, kind).holds
            v = check_flow_relation(
                F, sigma, kind, samples=30,
                cfg=IntegratorConfig(step=1e-3, horizon=0.5),
                sample_box=sample_box, rng=np.random.default_rng(3),
            )
            assert v.status is Status.HOLDS

    def test_mostly_escaping_is_inconclusive(self):
        F = field2("x^2", "y^2", box=DomainBox.cube(-1, 1, 2))
        v = check_flow_relation(
            F,
            map2("-x", "-y", box=F.domain),
            CheckKind.REVERSIBILITY,
            samples=20,
            cfg=IntegratorConfig(step=1e-2, horizon=8.0),
            sample_box=DomainBox.cube(0.5, 0.95, 2),
            rng=np.random.default_rng(4),
        )
        assert v.status is Status.INCONCLUSIVE


class TestLiouville:
    def test_rotation_preserves_area(self):
        F = field2("y", "-x", box=DomainBox.cube(-5, 5, 2))
        v = check_liouville(F, DomainBox([(0.2, 0.8), (0.2, 0.8)]), t_max=0.5,
                            mc_points=20000, seed=0)
        assert v.status is Status.HOLDS

    def test_uniform_expansion_rate(self):
        # div = 2 everywhere: volume grows like e^{2t}, slope 2*vol at t=0
        F = field2("x", "y", box=DomainBox.cube(-5, 5, 2))
        region = DomainBox([(0.5, 1.5), (0.5, 1.5)])
        v = check_liouville(F, region, t_max=0.5, mc_points=20000, seed=1)
        assert v.status is Status.HOLDS
        assert "2" in v.notes

    def test_quadratic_field_matches_quadrature(self):
        # independent oracle: integral of 2x + 2y over [0.1, 0.2]^2 equals
        # 0.006 analytically; confirm with a dense trapezoid rule, then
        # confirm the Monte-Carlo balance check agrees
        xs = np.linspace(0.1, 0.2, 801)
        grid = 2 * xs[:, None] + 2 * xs[None, :]
        quad = np.trapezoid(np.trapezoid(grid, xs, axis=1), xs)
        assert quad == pytest.approx(0.006, rel=1e-9)

        F = field2("x^2", "y^2", box=DomainBox.cube(-1, 1, 2))
        v = check_liouville(F, DomainBox([(0.1, 0.2), (0.1, 0.2)]), t_max=0.5,
                            mc_points=20000, seed=2)
        assert v.status is Status.HOLDS

    def test_escape_shrinks_then_gives_up(self):
        F = field2("x^2", "y^2", box=DomainBox.cube(-1, 1, 2))
        v = check_liouville(F, DomainBox([(0.8, 0.99), (0.8, 0.99)]), t_max=2.0,
                            mc_points=2000, seed=3)
        assert v.status in (Status.HOLDS, Status.INCONCLUSIVE)

    @pytest.mark.parametrize("mc_points", [0, -5])
    def test_rejects_non_positive_mc_points(self, mc_points):
        F = field2("y", "-x", box=DomainBox.cube(-5, 5, 2))
        with pytest.raises(ValueError, match="^mc_points must be positive$"):
            check_liouville(F, DomainBox([(0.2, 0.8), (0.2, 0.8)]), mc_points=mc_points)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_t_max(self, t_max):
        F = field2("y", "-x", box=DomainBox.cube(-5, 5, 2))
        with pytest.raises(ValueError, match="^t_max must be positive$"):
            check_liouville(F, DomainBox([(0.2, 0.8), (0.2, 0.8)]), t_max=t_max)

    @pytest.mark.parametrize("x_rate, final", [("x^3", np.isposinf), ("x^3 - x^2", np.isnan)])
    def test_non_finite_final_state_escapes(self, monkeypatch, x_rate, final):
        # x' = x^3 from x >= 10 blows up within the step grid: the forward
        # march ends at x = inf, or, with x^3 - x^2, at inf - inf = nan;
        # either fails the guard bounds, so both regions escape
        F = field2(x_rate, "0", box=DomainBox.cube(-100, 100, 2))
        region = DomainBox.cube(10, 20, 2)
        ends, march = [], flow.rk4_variational

        def recording(*args):
            zT, JT = march(*args)
            ends.append((args[2], zT.copy()))
            return zT, JT

        monkeypatch.setattr(flow, "rk4_variational", recording)
        v = check_liouville(F, region, mc_points=500, seed=4)
        assert v.status is Status.INCONCLUSIVE
        assert v.notes == "flow escaped the domain even after shrinking the region"
        # one forward march per region: the full region, then the shrunk one
        assert len(ends) == 2
        for (pts, zT), reg in zip(ends, (region, region.shrink(0.5))):
            assert reg.contains_rows(pts).all()
            assert final(zT[:, 0]).all() and np.isfinite(zT[:, 1]).all()

    def test_eight_dimensions_give_a_verdict(self):
        # the determinant kernel shares its minors: 8 2^7 products, under
        # the node budget that its 8! expanded terms would exceed
        n = 8
        F = VectorField([parse(f"z{i % n + 1}^2 - z{i}", n) for i in range(1, n + 1)], DomainBox.cube(-2, 2, n))
        v = check_liouville(F, DomainBox.cube(0.1, 0.3, n), t_max=0.2, mc_points=200, seed=5)
        assert v.status is Status.HOLDS
        assert v.notes.startswith("volume slope -2.10305e-05 vs divergence integral -2.048e-05")

    def test_calls_no_lapack_determinant_and_stacks_no_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called")

        F = field2("x", "y", box=DomainBox.cube(-5, 5, 2))
        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(np, "stack", refuse)
        v = check_liouville(F, DomainBox([(0.5, 1.5), (0.5, 1.5)]), t_max=0.5, mc_points=2000, seed=1)
        assert v.status is Status.HOLDS


def det_columns(A):
    """Matrices A (..., n, n) as the kernel's columns Z[i n + j] = A[..., i, j]."""
    n = A.shape[-1]
    return np.moveaxis(A.reshape(A.shape[:-2] + (n * n,)), -1, 0)


class TestDeterminantKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_lapack_to_a_few_ulps(self, n):
        A = np.eye(n) + np.random.default_rng(n).uniform(-0.3, 0.3, (500, n, n))
        d = det_kernel(n)(det_columns(A))[0]
        ref = np.linalg.det(A)
        assert np.all(np.abs(d - ref) <= 8 * np.finfo(float).eps * np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_is_exactly_one(self, n):
        assert det_kernel(n)(det_columns(np.eye(n)))[0] == 1.0

    @pytest.mark.parametrize("rows", [
        [[2, 4], [1, 2]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[1, -2, 0, 3], [2, 1, 1, 0], [3, -1, 1, 3], [0, 5, 4, -1]],
    ])
    def test_integer_singular_matrix_is_exactly_zero(self, rows):
        A = np.array(rows, dtype=float)
        assert np.linalg.matrix_rank(A) < len(A)
        assert det_kernel(len(A))(det_columns(A))[0] == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_batch_row_has_the_bits_of_the_matrix_alone(self, n):
        A = np.random.default_rng(10 + n).uniform(-2, 2, (40, n, n))
        batch = det_kernel(n)(det_columns(A))[0]
        alone = [det_kernel(n)(det_columns(a))[0] for a in A]
        assert np.array_equal(batch, alone)
