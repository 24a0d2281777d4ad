"""The structure-check battery."""

import numpy as np
import pytest

from symflow import checks
from symflow.candidates import lienard_field, lotka_volterra_field
from symflow.checks import (
    check_delta_noninvertibility,
    check_fixed_points_even_orders,
    check_level_set_invariance,
    check_structural,
    check_tower_transform,
    fixed_points,
    tower_order_verdicts,
)
from symflow.expr import Const
from symflow.fields import JacobianMatrix, SmoothMap, VectorField, identity_map
from symflow.geometry import DomainBox
from symflow.parser import parse
from symflow.tower import build_tower, default_selection
from symflow.verdict import Certainty, CheckKind, Status


def field2(*texts, box=None):
    box = box or DomainBox.cube(-2, 2, 2)
    return VectorField([parse(t, 2) for t in texts], box)


def map2(*texts, box=None):
    box = box or DomainBox.cube(-2, 2, 2)
    return SmoothMap([parse(t, 2) for t in texts], box)


MIRROR = ("-x", "y")
POINT_REFLECTION = ("-x", "-y")


class TestStructural:
    def test_odd_damped_oscillator_mirror(self):
        F = lienard_field(parse("x^3", 1), parse("x", 1))
        v = check_structural(F, map2(*MIRROR), CheckKind.REVERSIBILITY)
        assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN

    def test_predator_prey_swap(self):
        F = field2("x*(1 - 2*y)", "y*(3*x - 1)")
        v = check_structural(F, map2("2*y/3", "3*x/2"), CheckKind.REVERSIBILITY)
        assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN

    def test_pendulum_point_reflection_symmetry(self):
        F = field2("y", "-sin(x)")
        v = check_structural(F, map2(*POINT_REFLECTION), CheckKind.SYMMETRY)
        assert v.status is Status.HOLDS
        assert v.certainty is Certainty.PROBABILISTIC
        assert v.residual_max < 1e-9

    def test_identity_is_always_a_symmetry(self):
        for F in (
            field2("x*(1 - 2*y)", "y*(3*x - 1)"),
            field2("y + x^2", "-sin(x)"),
            field2("x^2", "y^2"),
        ):
            v = check_structural(F, identity_map(2, F.domain), CheckKind.SYMMETRY)
            assert v.status is Status.HOLDS

    def test_non_odd_restoring_force_fails(self):
        F = field2("y + x^2", "-(x + x^2)")
        v = check_structural(F, map2(*MIRROR), CheckKind.REVERSIBILITY)
        assert v.status is Status.FAILS
        assert v.certainty is Certainty.CERTAIN
        assert v.witnesses

    def test_mutual_exclusion_on_nontrivial_fields(self):
        # a verified reversibility is not simultaneously a symmetry
        F = field2("x*(1 - 2*y)", "y*(3*x - 1)")
        sigma = map2("2*y/3", "3*x/2")
        assert check_structural(F, sigma, CheckKind.REVERSIBILITY).holds
        assert check_structural(F, sigma, CheckKind.SYMMETRY).failed

    def test_dimension_mismatch(self):
        F = field2("x^2", "y^2")
        with pytest.raises(ValueError):
            check_structural(F, SmoothMap([parse("-x", 1)], DomainBox.cube(-1, 1, 1)), CheckKind.SYMMETRY)


class TestTowerTransform:
    def test_squares_reversibility_sign_pattern(self):
        F = field2("x^2", "y^2")
        parts = tower_order_verdicts(F, map2(*POINT_REFLECTION), CheckKind.REVERSIBILITY, 3)
        assert all(p.status is Status.HOLDS for p in parts)
        assert all(p.certainty is Certainty.CERTAIN for p in parts)
        # the sign is the content: the symmetry law fails at even orders
        wrong = tower_order_verdicts(F, map2(*POINT_REFLECTION), CheckKind.SYMMETRY, 3)
        assert wrong[0].status is Status.FAILS
        assert wrong[1].status is Status.HOLDS  # odd orders agree for both laws

    def test_predator_prey_law(self):
        F = lotka_volterra_field(1, 2, 3, 1)
        v = check_tower_transform(F, map2("2*y/3", "3*x/2"), CheckKind.REVERSIBILITY, 3)
        assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN

    def test_holding_exact_law_builds_no_tree(self, monkeypatch):
        # tower orders and sigma-images are only read through their normal
        # forms, so the trees of these sums are never built; a one-term
        # form (a monomial, a variable) is built at once, as it is cheap
        from symflow import expr

        sizes = []
        build = expr._nf_to_expr
        monkeypatch.setattr(expr, "_nf_to_expr", lambda nf: sizes.append(len(nf)) or build(nf))
        F = lotka_volterra_field(1, 2, 3, 1)
        v = check_tower_transform(F, map2("2*y/3", "3*x/2"), CheckKind.REVERSIBILITY, 3)
        assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN
        assert all(n <= 1 for n in sizes)

    def test_short_tower_is_refused_by_its_orders(self):
        F = field2("y + sin(x)", "-x")
        short = build_tower(F, 1)
        with pytest.raises(ValueError, match=r"tower holds orders 0\.\.1, but max_order is 3"):
            tower_order_verdicts(F, map2(*MIRROR), CheckKind.REVERSIBILITY, 3, tower=short)
        parts = tower_order_verdicts(F, map2(*MIRROR), CheckKind.REVERSIBILITY, 1, tower=short)
        assert len(parts) == 2

    def test_identity_symmetry_all_orders(self):
        F = field2("y + x^2", "-(x + x^3)")
        v = check_tower_transform(F, identity_map(2, F.domain), CheckKind.SYMMETRY, 4)
        assert v.status is Status.HOLDS

    def test_structural_implies_tower_on_corpus(self):
        cases = [
            (lienard_field(parse("x^3", 1), parse("x", 1)), map2(*MIRROR), CheckKind.REVERSIBILITY),
            (lotka_volterra_field(1, 2, 3, 1), map2("2*y/3", "3*x/2"), CheckKind.REVERSIBILITY),
            (lotka_volterra_field(1, 1, 1, -1), map2("-y", "-x"), CheckKind.SYMMETRY),
            (field2("x^2", "y^2"), map2(*POINT_REFLECTION), CheckKind.REVERSIBILITY),
        ]
        for F, sigma, kind in cases:
            assert check_structural(F, sigma, kind).holds
            assert check_tower_transform(F, sigma, kind, 3).holds


class TestFixedPoints:
    def test_affine_line(self):
        fs = fixed_points(map2(*MIRROR))
        assert fs.exact
        assert len(fs.basis) == 1
        assert all(abs(p[0]) < 1e-12 for p in fs.points)

    def test_affine_point(self):
        fs = fixed_points(map2(*POINT_REFLECTION))
        assert fs.exact and not fs.basis
        assert fs.points == [(0.0, 0.0)]

    def test_swap_scale_line(self):
        fs = fixed_points(map2("2*y/3", "3*x/2"))
        assert fs.exact and len(fs.basis) == 1
        for p in fs.points:
            assert p[1] == pytest.approx(1.5 * p[0], abs=1e-12)

    def test_no_fixed_points(self):
        fs = fixed_points(map2("x + 1", "y"))
        assert fs.points == []

    def test_nonlinear_fixed_points_via_newton(self):
        fs = fixed_points(map2("y^3", "x^(1/3)", box=DomainBox.cube(0.1, 2, 2)))
        assert fs.points
        for p in fs.points:
            assert p[0] == pytest.approx(p[1] ** 3, abs=1e-6)


class TestFixedPointsEvenOrders:
    def test_reversibility_corpus_holds(self):
        cases = [
            (lotka_volterra_field(1, 2, 3, 1), ("2*y/3", "3*x/2")),
            (lienard_field(parse("x^3", 1), parse("x", 1)), MIRROR),
            (field2("x^2", "y^2"), POINT_REFLECTION),
            (field2("y + x^2", "-x^3"), MIRROR),
            (field2("y + x^2", "-(x + x^3)"), MIRROR),
        ]
        for F, sigma in cases:
            v = check_fixed_points_even_orders(F, map2(*sigma), max_j=1)
            assert v.status is Status.HOLDS
            assert v.certainty is Certainty.CERTAIN

    def test_one_dimensional_symmetry_counterexample_fails(self):
        # x' = x is symmetric under x -> -x, yet div = 1 at the fixed point:
        # the even-order vanishing law holds for reversibilities only
        F = VectorField([parse("x", 1)], DomainBox.cube(-1, 1, 1))
        sigma = SmoothMap([parse("-x", 1)], F.domain)
        v = check_fixed_points_even_orders(F, sigma, max_j=0)
        assert v.status is Status.FAILS
        assert v.certainty is Certainty.CERTAIN
        assert v.witnesses[0][1] == pytest.approx(1.0)

    def test_no_fixed_points_is_inconclusive(self):
        F = field2("x^2", "y^2")
        v = check_fixed_points_even_orders(F, map2("x + 1", "y"))
        assert v.status is Status.INCONCLUSIVE


class TestLevelSets:
    def test_null_divergence_line_maps_to_itself(self):
        F = field2("x^2", "y^2")
        v = check_level_set_invariance(
            F, map2(*POINT_REFLECTION), CheckKind.REVERSIBILITY, 0, [0.0], samples=25
        )
        assert v.status is Status.HOLDS

    def test_predator_prey_first_order_level(self):
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-4, 4, 2))
        v = check_level_set_invariance(
            F,
            map2("2*y/3", "3*x/2", box=F.domain),
            CheckKind.REVERSIBILITY,
            1,
            [1.0],
            box=DomainBox.cube(0.05, 2.5, 2),
            samples=25,
        )
        assert v.status is Status.HOLDS

    def test_verified_symmetry_arbitrary_level(self):
        F = field2("y", "-sin(x)", box=DomainBox.cube(-3, 3, 2))
        # divergence vanishes identically, so only the zero level is populated
        v = check_level_set_invariance(
            F, map2(*POINT_REFLECTION, box=F.domain), CheckKind.SYMMETRY, 0, [0.0], samples=10
        )
        assert v.status is Status.HOLDS

    def test_empty_level_set_inconclusive(self):
        F = field2("x^2", "y^2")
        v = check_level_set_invariance(
            F, map2(*POINT_REFLECTION), CheckKind.REVERSIBILITY, 0, [100.0], samples=10
        )
        assert v.status is Status.INCONCLUSIVE

    def test_broken_invariance_detected(self):
        F = field2("x^2", "y^2")
        v = check_level_set_invariance(
            F, map2("2*x", "y"), CheckKind.SYMMETRY, 0, [1.0], samples=20
        )
        assert v.status is Status.FAILS
        assert v.witnesses and all(r >= checks.LEVEL_TOL for _, r in v.witnesses)

    def test_rows_where_sigma_is_undefined_are_skipped_and_counted(self):
        # log(x) is undefined for x <= 0, about half the points of the level
        # set; those rows are evaluation errors, not a failure with a nan
        # residual and passing rows as witnesses
        v = check_level_set_invariance(
            field2("y", "-x"), map2("log(x)", "y"), CheckKind.SYMMETRY, 0, [0.0]
        )
        assert v.status is Status.HOLDS and v.residual_max == 0.0
        assert not v.witnesses
        skipped = int(v.notes.split(", ")[-1].split()[0])
        assert 0 < skipped < 40 and v.notes.endswith(f"40 points, {skipped} evaluation errors skipped")


class TestDeltaNoninvertibility:
    def test_even_damping_vanishes_at_origin(self):
        F = lienard_field(parse("x^2", 1), parse("x", 1))
        v = check_delta_noninvertibility(F, (0, 0), default_selection(2))
        assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN
        assert "non-trivial" in v.notes

    def test_predator_prey_opposite_rates(self):
        F = lotka_volterra_field(1, 1, 1, -1)
        v = check_delta_noninvertibility(F, (0, 0), default_selection(2))
        assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN

    def test_globally_invertible_counterexample(self):
        # the mirror reversibility of (y + x^2, -x) has a fixed line, yet its
        # packed derivative map is globally invertible: the vanishing law
        # needs the identity sign pattern, which this selection lacks
        F = field2("y + x^2", "-x")
        sigma = map2(*MIRROR)
        v = check_delta_noninvertibility(F, (0, 0), default_selection(2), sigma=sigma)
        assert v.status is Status.FAILS
        assert v.witnesses[0][1] == pytest.approx(4.0)

    def test_numeric_branch_builds_no_symbolic_determinant(self, monkeypatch):
        # a transcendental field is decided numerically, so the symbolic
        # determinant of J_Delta would be thrown away
        def refuse(self):
            raise AssertionError("symbolic determinant built for a numeric check")

        monkeypatch.setattr(JacobianMatrix, "det", refuse)
        F = VectorField(
            [parse(t, 3) for t in ("sin(y)*exp(x)", "cos(x*z) + y^2", "exp(x*y)*z")],
            DomainBox.cube(-1, 1, 3),
        )
        v = check_delta_noninvertibility(F, (0.1, 0.2, 0.3), default_selection(3))
        assert v.status is Status.FAILS and v.certainty is Certainty.PROBABILISTIC
        assert v.witnesses == (((0.1, 0.2, 0.3), v.residual_max),)
        assert np.isfinite(v.residual_max)

    def test_exact_branch_takes_the_determinant_of_exact_values(self, monkeypatch):
        # a polynomial determinant commutes with evaluation, so the entries
        # of J_Delta are evaluated at z0 before the determinant is taken
        det = JacobianMatrix.det

        def of_constants(self):
            assert all(isinstance(e, Const) for row in self.entries for e in row)
            return det(self)

        monkeypatch.setattr(JacobianMatrix, "det", of_constants)
        n = 6
        F = VectorField([parse(f"z{i % n + 1} - z{i}^2 + z{(i + 1) % n + 1}*z{i}", n) for i in range(1, n + 1)],
                        DomainBox.cube(-2, 2, n))
        v = check_delta_noninvertibility(F, (0,) * n, default_selection(n))
        assert (v.status, v.certainty) == (Status.HOLDS, Certainty.CERTAIN)
        assert v.notes == "det J_Delta(z0) = 0 exactly; assumes sigma is non-trivial in every neighbourhood of z0"

    def test_rejects_non_fixed_point(self):
        F = field2("y + x^2", "-x")
        with pytest.raises(ValueError):
            check_delta_noninvertibility(F, (1, 1), default_selection(2), sigma=map2(*MIRROR))
