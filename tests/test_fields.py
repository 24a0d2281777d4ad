"""Fields, maps, Jacobians, divergence, Lie derivatives, critical points."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import symflow.tower
from symflow import expr as ex
from symflow.expr import Const, Var, evaluate, simplify, to_string
from symflow.fields import (
    JacobianMatrix,
    SmoothMap,
    VectorField,
    det_kernel,
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
from symflow.numeric import compile_components
from symflow.parser import parse
from symflow.tower import TowerBudgetError
from symflow.verdict import Certainty, Status

import calculus_reference as cr
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


def random_entry(rng, n):
    """A random entry text in n variables: 0 a quarter of the time, else a
    sum of one to three monomials with rational coefficients, now and then
    times an atom or an opaque square root."""
    if rng.random() < 0.25:
        return "0"
    terms = []
    for _ in range(rng.integers(1, 4)):
        factors = [f"{rng.integers(-3, 4) or 1}/{rng.integers(1, 4)}"]
        factors += [f"z{rng.integers(1, n + 1)}" for _ in range(rng.integers(0, 3))]
        terms.append("*".join(factors))
    text = " + ".join(terms)
    extra = rng.random()
    if extra < 0.1:
        return f"({text})*sin(z{rng.integers(1, n + 1)})"
    if extra < 0.2:
        return f"({text})*sqrt(1 + z{rng.integers(1, n + 1)}^2)"
    return text


class TestDeterminant:
    def test_prints_the_cofactor_expansion_up_to_four_dimensions(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            rows = [[parse(random_entry(rng, n), n) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                rows = [[simplify(e) for e in row] for row in rows]
            want = to_string(simplify(cr._cofactor_det([list(r) for r in rows])))
            assert to_string(JacobianMatrix(tuple(map(tuple, rows))).det()) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_kernel_is_the_cofactor_kernel(self, n):
        # the shared minors emit as the cofactor tree's equal subtrees did
        rows = [[Var(i * n + j + 1) for j in range(n)] for i in range(n)]
        assert det_kernel(n).source == compile_components([cr._cofactor_det(rows)]).source

    def test_zero_entries_are_skipped(self, monkeypatch):
        # a diagonal matrix reaches one minor per row and multiplies no zero
        calls = []
        addmul = ex._nf_addmul
        monkeypatch.setattr(ex, "_nf_addmul", lambda *a: calls.append(1) or addmul(*a))
        n = 40
        rows = tuple(tuple(Var(i + 1) if i == j else Const(0) for j in range(n)) for i in range(n))
        assert to_string(JacobianMatrix(rows).det()) == "*".join(to_string(Var(i + 1)) for i in range(n))
        assert len(calls) == n

    def test_budget_is_read_at_call_time(self, monkeypatch):
        # the 3 x 3 determinant over 9 variables counts 1 + 3 + 3 minors, then
        # 3 terms of order 1, 3*2 of order 2 and 6 of order 3: 22 in all
        rows = tuple(tuple(Var(3 * i + j + 1) for j in range(3)) for i in range(3))
        monkeypatch.setattr(symflow.tower, "NODE_BUDGET", 21)
        with pytest.raises(TowerBudgetError, match=r"3 x 3 determinant exceed the node budget \(21\)"):
            JacobianMatrix(rows).det()
        monkeypatch.setattr(symflow.tower, "NODE_BUDGET", 22)
        assert len(ex._to_nf(JacobianMatrix(rows).det())) == 6

    def test_dense_constant_map_in_18_dimensions_is_over_budget(self):
        # 2^18 column sets of minors: the count stops the expansion before
        # any product is taken
        n = 18
        comps = [parse(" + ".join(f"{1 + (i * j) % 7}*z{j}" for j in range(1, n + 1)), n)
                 for i in range(1, n + 1)]
        m = SmoothMap(comps, DomainBox.cube(-1, 1, n))
        start = time.perf_counter()
        with pytest.raises(TowerBudgetError, match="18 x 18 determinant"):
            is_measure_preserving(m)
        assert time.perf_counter() - start < 5.0


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
        # det J is decided on its canonical form in every dimension
        comps = [parse("z1", 5)]
        for i in range(2, 6):
            comps.append(parse(f"z{i} + z{i-1}^2", 5))
        shear = SmoothMap(comps, DomainBox.cube(-1, 1, 5))
        v = is_measure_preserving(shear)
        assert v.status is Status.HOLDS
        assert v.certainty is Certainty.CERTAIN
        assert v.notes == "det J = 1; zero polynomial"

    def test_high_dimension_overflow_is_skipped_without_warning(self):
        # det J = exp(exp(exp(z1)) + exp(z1) + z1), whose square overflows
        # for z1 beyond about 1.8; those rows are counted, and numpy warns
        # about nothing
        comps = [parse("exp(exp(exp(z1)))", 5)] + [parse(f"z{i}", 5) for i in range(2, 6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = is_measure_preserving(SmoothMap(comps, DomainBox.cube(-3, 3, 5)))
        assert v.status is Status.FAILS and v.certainty is Certainty.PROBABILISTIC
        assert np.isfinite(v.residual_max) and len(v.witnesses) == 2
        assert v.notes.startswith("det J = exp(exp(exp(x)))*exp(exp(x))*exp(x); sampled ")
        assert v.notes.endswith(" evaluation errors skipped")

    @pytest.mark.parametrize("fourth, involution", [("z4 + z5^2", False), ("z4 + z5^3", True)])
    def test_five_dimensional_polynomial_maps_are_certain(self, fourth, involution):
        # with z4 + z5^2 the fourth component of sigma(sigma(z)) is
        # z4 + 2 z5^2, so only the odd power makes an involution
        comps = [parse(t, 5) for t in ("z2", "z1", "-z3", fourth, "-z5")]
        sigma = SmoothMap(comps, DomainBox.cube(-1, 1, 5))
        v = is_measure_preserving(sigma)
        assert (v.status, v.certainty) == (Status.HOLDS, Certainty.CERTAIN)
        assert v.notes == "det J = -1; zero polynomial"
        v = is_involution(sigma)
        assert v.status is (Status.HOLDS if involution else Status.FAILS)
        assert v.certainty is Certainty.CERTAIN

    def test_nonconstant_polynomial_fails_without_expanding_the_square(self, monkeypatch):
        # only the constants 1 and -1 square to 1; the witnesses come from
        # samples of (det J)^2 - 1, which is never simplified
        def refuse(e):
            raise AssertionError("simplified")

        monkeypatch.setattr(ex, "simplify", refuse)
        v = is_measure_preserving(map2("x*y", "y"))
        assert (v.status, v.certainty) == (Status.FAILS, Certainty.CERTAIN)
        assert v.notes == "det J = y; a nonconstant polynomial"
        assert v.witnesses and v.residual_max == v.witnesses[0][1]
        for p, r in v.witnesses:
            assert r == abs(p[1] * p[1] - 1) > 0

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

