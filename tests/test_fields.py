"""Fields, maps, Jacobians, divergence, Lie derivatives, critical points."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from symflow.expr import Const, evaluate, simplify, to_string
from symflow.fields import (
    SmoothMap,
    VectorField,
    divergence,
    find_critical_points,
    identity_map,
    is_involution,
    is_measure_preserving,
    jacobian,
    lie_derivative,
)
from symflow.candidates import lotka_volterra_field
from symflow.geometry import DomainBox
from symflow.parser import parse
from symflow.verdict import Certainty, Status

from conftest import p2, poly_exprs
from newton_reference import polish_root


def field2(*texts, box=None):
    box = box or DomainBox.cube(-2, 2, 2)
    return VectorField([parse(t, 2) for t in texts], box)


def map2(*texts, box=None):
    box = box or DomainBox.cube(-2, 2, 2)
    return SmoothMap([parse(t, 2) for t in texts], box)


class TestJacobian:
    def test_mirror(self):
        J = jacobian(map2("-x", "y"))
        assert J.entries == ((Const(-1), Const(0)), (Const(0), Const(1)))

    def test_swap_scale(self):
        J = jacobian(map2("2*y/3", "3*x/2"))
        assert [[to_string(e) for e in row] for row in J.entries] == [
            ["0", "2/3"],
            ["3/2", "0"],
        ]

    def test_identity_3d(self):
        m = identity_map(3, DomainBox.cube(-1, 1, 3))
        J = jacobian(m)
        for i in range(3):
            for j in range(3):
                assert J.entries[i][j] == Const(1 if i == j else 0)

    def test_det_cofactor(self):
        J = jacobian(map2("2*y/3", "3*x/2"))
        assert J.det() == Const(-1)


class TestDivergence:
    def test_quadratic_center(self):
        for g in ("x", "x + x^2", "sin(x)"):
            F = field2("y + x^2", f"-({g})")
            assert divergence(F) == p2("2*x")

    def test_predator_prey(self):
        F = field2("x*(1 - 2*y)", "y*(3*x - 1)")
        assert divergence(F) == simplify(p2("3*x - 2*y + 1 - 1"))

    def test_general_coefficients(self):
        # div of (x(a-by), y(cx-d)) is cx - by + a - d; spot-check a=2,b=3,c=5,d=7
        F = lotka_volterra_field(2, 3, 5, 7)
        assert divergence(F) == simplify(p2("5*x - 3*y + 2 - 7"))

    def test_squares(self):
        assert divergence(field2("x^2", "y^2")) == p2("2*x + 2*y")

    def test_equals_trace_of_jacobian(self):
        F = field2("x^2*y - y", "x + y^3")
        J = jacobian(SmoothMap(F.components, F.domain))
        trace = simplify(parse(f"({to_string(J.entries[0][0])}) + ({to_string(J.entries[1][1])})", 2))
        assert divergence(F) == trace


class TestLieDerivative:
    def test_quadratic_center_first_order(self):
        F = field2("y + x^2", "-(x + x^3)")
        assert lie_derivative(p2("2*x"), F) == p2("2*x^2 + 2*y")

    def test_predator_prey_equal_rates(self):
        # for (x(a-by), y(cx-d)) with a=d: derivative of cx-by+a-d along the
        # flow is -2bcxy + a(cx+by); instance a=d=1, b=2, c=3
        F = field2("x*(1 - 2*y)", "y*(3*x - 1)")
        got = lie_derivative(p2("3*x - 2*y"), F)
        assert got == simplify(p2("-12*x*y + 3*x + 2*y"))

    def test_constant_annihilated(self):
        F = field2("x^2", "y^2")
        assert lie_derivative(Const(5), F) == Const(0)

    @given(poly_exprs(max_leaves=6), poly_exprs(max_leaves=6))
    @settings(max_examples=30, deadline=None)
    def test_linear_and_leibniz(self, e1, e2):
        from symflow.expr import add, mul

        F = field2("y + x^2", "-x")
        left = lie_derivative(simplify(add(e1, e2)), F)
        right = simplify(add(lie_derivative(e1, F), lie_derivative(e2, F)))
        assert left == right
        left = lie_derivative(simplify(mul(e1, e2)), F)
        right = simplify(
            add(
                mul(simplify(e1), lie_derivative(e2, F)),
                mul(simplify(e2), lie_derivative(e1, F)),
            )
        )
        assert left == right


class TestInvolution:
    def test_swap_scale_certain(self):
        v = is_involution(map2("2*y/3", "3*x/2"))
        assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN

    def test_translation_fails(self):
        v = is_involution(map2("x + 1", "y"))
        assert v.status is Status.FAILS
        assert v.witnesses

    def test_affine_reflection(self):
        # (a/c - x, a/b - y) with a=1, b=2, c=3
        v = is_involution(map2("1/3 - x", "1/2 - y"))
        assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN

    def test_chain_rule_determinant_product(self, rng):
        m = map2("2*y/3", "3*x/2")
        d = jacobian(m).det()
        for _ in range(20):
            p = tuple(rng.uniform(-2, 2, 2))
            q = m.apply(p)
            assert evaluate(d, p) * evaluate(d, q) == pytest.approx(1.0, abs=1e-9)


class TestMeasurePreserving:
    def test_point_reflection(self):
        v = is_measure_preserving(map2("-x", "-y"))
        assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN
        assert "det J = 1" in v.notes

    def test_swap_scale_det_minus_one(self):
        v = is_measure_preserving(map2("2*y/3", "3*x/2"))
        assert v.status is Status.HOLDS
        assert "det J = -1" in v.notes

    def test_dilation_fails(self):
        v = is_measure_preserving(map2("2*x", "y"))
        assert v.status is Status.FAILS
        assert "det J = 2" in v.notes

    def test_high_dimension_triangular_shear(self):
        # shears (adding functions of earlier coordinates) preserve volume;
        # dimensions above four go through the sampled determinant path
        comps = [parse("z1", 5)]
        for i in range(2, 6):
            comps.append(parse(f"z{i} + z{i-1}^2", 5))
        shear = SmoothMap(comps, DomainBox.cube(-1, 1, 5))
        v = is_measure_preserving(shear)
        assert v.status is Status.HOLDS
        assert v.certainty is Certainty.PROBABILISTIC

    def test_high_dimension_overflow_is_skipped_without_warning(self):
        # det J = exp(exp(exp(z1)) + exp(z1) + z1), whose square overflows
        # for z1 beyond about 1.8; those rows are counted, and numpy warns
        # about nothing
        comps = [parse("exp(exp(exp(z1)))", 5)] + [parse(f"z{i}", 5) for i in range(2, 6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = is_measure_preserving(SmoothMap(comps, DomainBox.cube(-3, 3, 5)))
        assert v.status is Status.FAILS and np.isfinite(v.residual_max)
        assert len(v.witnesses) == 3
        assert v.notes.startswith("sampled determinant, ") and v.notes.endswith(" evaluation errors skipped")

    def test_high_dimension_dilation_fails(self):
        comps = [parse("2*z1", 5)] + [parse(f"z{i}", 5) for i in range(2, 6)]
        v = is_measure_preserving(SmoothMap(comps, DomainBox.cube(-1, 1, 5)))
        assert v.status is Status.FAILS


class TestCriticalPoints:
    def test_predator_prey_unit(self):
        F = lotka_volterra_field(1, 1, 1, 1, DomainBox.cube(-2, 2, 2))
        roots = find_critical_points(F)
        assert len(roots) == 2
        np.testing.assert_allclose(roots[0], (0.0, 0.0), atol=1e-9)
        np.testing.assert_allclose(roots[1], (1.0, 1.0), atol=1e-9)

    def test_cubic_single_root(self):
        F = field2("y", "-x^3", box=DomainBox.cube(-2, 2, 2))
        roots = find_critical_points(F)
        assert len(roots) == 1
        np.testing.assert_allclose(roots[0], (0.0, 0.0), atol=1e-8)

    def test_pendulum_row_of_roots(self):
        F = field2("y", "-sin(x)", box=DomainBox([(-7, 7), (-1, 1)]))
        roots = find_critical_points(F)
        xs = sorted(r[0] for r in roots)
        expected = [-2 * np.pi, -np.pi, 0.0, np.pi, 2 * np.pi]
        assert len(roots) == 5
        np.testing.assert_allclose(xs, expected, atol=1e-8)
        assert all(abs(r[1]) < 1e-9 for r in roots)

    def test_residuals_small(self):
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-2, 2, 2))
        f = lambda p: [evaluate(c, p) for c in F.components]  # noqa: E731
        for r in find_critical_points(F):
            assert np.linalg.norm(f(r)) < 1e-10

    def test_symmetry_permutes_roots(self):
        # a verified reversibility must map the root inventory onto itself
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-2, 2, 2))
        sigma = map2("2*y/3", "3*x/2")
        roots = find_critical_points(F)
        images = sorted(sigma.apply(r) for r in roots)
        for img, root in zip(images, roots):
            np.testing.assert_allclose(img, root, atol=1e-8)

    def test_batched_polish_matches_one_root_at_a_time(self):
        from symflow.fields import _polish_roots
        from symflow.numeric import compile_components

        F = field2("x^2 + y^3", "sqrt(y) - x", box=DomainBox.cube(-2, 2, 2))
        f = compile_components(F.components)
        jac = compile_components([e for row in jacobian(F).entries for e in row])
        # a degenerate root, a singular Jacobian at the origin, a non-finite
        # residual (y < 0) and ordinary starts
        X = np.array([[1e-4, 1e-8], [0.0, 0.0], [0.5, -1.0], [0.3, 0.2], [-0.7, 0.4]])
        polished = _polish_roots(f, jac, X)
        assert polished.tobytes() == np.array([polish_root(f, jac, x) for x in X]).tobytes()
        assert np.array_equal(polished[1:3], X[1:3])

