"""Divergence towers, selections, sign matrices, and the FD oracle."""

import numpy as np
import pytest

from symflow.expr import Const, evaluate, node_count, simplify
from symflow.fields import VectorField, divergence, lie_derivative
from symflow.candidates import lienard_field, lotka_volterra_field
from symflow.geometry import DomainBox
from symflow.parser import parse
from symflow.tower import (
    Selection,
    TowerBudgetError,
    build_tower,
    default_selection,
    delta_map,
    sign_matrix,
    tower_fd_oracle,
)

from conftest import p2


def field2(*texts, box=None):
    box = box or DomainBox.cube(-2, 2, 2)
    return VectorField([parse(t, 2) for t in texts], box)


class TestBuildTower:
    def test_quadratic_center_independent_of_g(self):
        for g in ("x", "x + x^2", "sin(x)", "exp(x)"):
            F = field2("y + x^2", f"-({g})")
            t = build_tower(F, 1)
            assert t.orders == (p2("2*x"), p2("2*x^2 + 2*y"))

    def test_damped_oscillator_shape(self):
        # (y, -g - y f) has tower (-f, -f' y); instance f = x^3, g = x
        F = lienard_field(parse("x^3", 1), parse("x", 1))
        t = build_tower(F, 1)
        assert t.orders[0] == p2("-x^3")
        assert t.orders[1] == simplify(p2("-3*x^2*y"))

    def test_linear_field_constant_divergence(self):
        F = field2("2*x + y", "x - 3*y")
        t = build_tower(F, 4)
        assert t.orders[0] == Const(-1)
        assert all(o == Const(0) for o in t.orders[1:])

    def test_recurrence_invariant(self):
        F = field2("x^2", "y^2")
        t = build_tower(F, 3)
        assert t.orders[0] == divergence(F)
        for j in range(3):
            assert t.orders[j + 1] == lie_derivative(t.orders[j], F)

    def test_node_budget_guard(self):
        F = field2("x^3*y^3 + x", "y^3*x^2 + y")
        with pytest.raises(TowerBudgetError):
            build_tower(F, 12, node_budget=500)

    def test_divergence_budget_checked_before_any_order(self, monkeypatch):
        import symflow.tower

        def no_orders(*args):
            raise AssertionError("an order was built")

        monkeypatch.setattr(symflow.tower, "lie_derivative", no_orders)
        with pytest.raises(TowerBudgetError, match="divergence alone"):
            build_tower(field2("x^3*y^3 + x", "y^3*x^2 + y"), 12, node_budget=5)

    def test_cubic_field_in_four_variables(self):
        texts = ("z2*z3 - z1^3 + z4", "z1*z4^2 - z2 + z3^2", "z1^2*z2 - z3*z4", "z3^3 - z1*z2 + z4^2")
        F = VectorField([parse(t, 4) for t in texts], DomainBox.cube(-1, 1, 4))
        t = build_tower(F, 5)
        assert [node_count(o) for o in t.orders] == [9, 31, 177, 709, 2269, 5543]
        # every entry remembers its normal form, so the next order and the
        # checks read the dict instead of walking the tree again
        assert all(o._nf is not None for o in t.orders)


class TestSelection:
    def test_validation(self):
        with pytest.raises(ValueError):
            Selection([1, 1])
        with pytest.raises(ValueError):
            Selection([2, 1])
        with pytest.raises(ValueError):
            Selection([-1, 0])
        assert default_selection(3).entries == (0, 1, 2)

    def test_sign_matrix_small(self):
        assert sign_matrix(Selection([0, 1])).diagonal == (-1, 1)
        assert sign_matrix(Selection([0, 1, 2])).diagonal == (-1, 1, -1)
        assert sign_matrix(Selection([0, 1, 2, 3])).diagonal == (-1, 1, -1, 1)

    def test_sign_matrix_odd_entries(self):
        assert sign_matrix(Selection([1, 3])).diagonal == (1, 1)

    def test_sign_matrix_squares_to_identity(self):
        for entries in ([0, 1], [0, 2, 5], [1, 3], [0, 1, 2, 3]):
            s = sign_matrix(Selection(entries))
            assert all(d * d == 1 for d in s.diagonal)


class TestDeltaMap:
    def test_damped_oscillator(self):
        F = lienard_field(parse("x^3", 1), parse("x", 1))
        t = build_tower(F, 1)
        d = delta_map(t, Selection([0, 1]))
        assert d.components == (p2("-x^3"), simplify(p2("-3*x^2*y")))

    def test_predator_prey_equal_rates(self):
        F = lotka_volterra_field(1, 2, 3, 1)
        t = build_tower(F, 1)
        d = delta_map(t, Selection([0, 1]))
        assert d.components[0] == simplify(p2("3*x - 2*y"))
        assert d.components[1] == simplify(p2("-12*x*y + 3*x + 2*y"))

    def test_default_selection_is_derivative_stack(self):
        F = field2("x^2", "y^2")
        t = build_tower(F, 1)
        d = delta_map(t, default_selection(2))
        assert d.components == (t.orders[0], t.orders[1])
        assert len(d.components) == 2

    def test_order_out_of_range(self):
        F = field2("x^2", "y^2")
        t = build_tower(F, 1)
        with pytest.raises(IndexError):
            delta_map(t, Selection([0, 2]))


class TestOracle:
    def test_zeroth_order_is_divergence(self):
        F = field2("y + x^2", "-x")
        z = (0.7, -0.3)
        assert tower_fd_oracle(F, z, 0) == pytest.approx(evaluate(divergence(F), z), abs=1e-15)

    def test_first_order_quadratic_center(self):
        # symbolic value at (0.3, 0.2): 2y + 2x^2 = 0.58
        F = field2("y + x^2", "-x")
        assert evaluate(p2("2*y + 2*x^2"), (0.3, 0.2)) == pytest.approx(0.58)
        assert tower_fd_oracle(F, (0.3, 0.2), 1) == pytest.approx(0.58, abs=1e-5)

    def test_second_order_squares(self):
        # D = 2x + 2y, D' = 2x^2 + 2y^2, D'' = 4x^3 + 4y^3; at (0.1, 0.2):
        # 4*(0.001 + 0.008) = 0.036
        F = field2("x^2", "y^2")
        t = build_tower(F, 2)
        assert t.orders[2] == p2("4*x^3 + 4*y^3")
        sym = evaluate(t.orders[2], (0.1, 0.2))
        assert sym == pytest.approx(0.036)
        assert tower_fd_oracle(F, (0.1, 0.2), 2) == pytest.approx(sym, abs=1e-4)

    def test_agreement_sweep(self, rng):
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-4, 4, 2))
        t = build_tower(F, 3)
        for _ in range(10):
            z = tuple(rng.uniform(0.2, 1.2, 2))
            for j in range(4):
                sym = evaluate(t.orders[j], z)
                fd = tower_fd_oracle(F, z, j)
                assert abs(fd - sym) < 1e-4 * (1 + abs(sym))

    @pytest.mark.parametrize("texts, z", [
        (("-x/2 + x^2*sin(2*y)/2 - x^2/2", "y^2/2 + x*y*sin(y)/2 + x^2/2"), (0.752078, -0.785746)),
        (("-x/2 + x^2*sin(2*y)/2 + x^2/2", "-y^2/2 + x*y*sin(y)/2 - x^2/2"), (-0.698959, 0.7983)),
    ], ids=["order3-a", "order3-b"])
    def test_within_the_criterion_8_bound(self, texts, z):
        # the plain second-order stencil missed by about 1.5e-4 relative at
        # order 3 here, where h^2/4 |D_5| is large
        F = field2(*texts)
        t = build_tower(F, 3)
        for j in range(4):
            exact = evaluate(t.orders[j], z)
            assert abs(tower_fd_oracle(F, z, j) - exact) < 1e-4 * (1 + abs(exact))

    def test_seeded_sweep_over_mild_fields(self):
        # random planar fields of three terms with coefficients +-1/2, some
        # with a sine factor, at points in [-0.8, 0.8]^2
        rng = np.random.default_rng(8)
        monomials = ["x", "y", "x^2", "x*y", "y^2", "x^2*y", "x*y^2", "x^3", "y^3", "x^2*sin(y)", "x*y*sin(x)"]
        for _ in range(10):
            F = field2(*(" + ".join(f"{rng.choice([-1, 1])}/2*{m}" for m in rng.choice(monomials, 3, replace=False))
                         for _ in range(2)))
            t = build_tower(F, 3)
            for z in rng.uniform(-0.8, 0.8, (5, 2)):
                for j in range(4):
                    exact = evaluate(t.orders[j], tuple(z))
                    assert abs(tower_fd_oracle(F, z, j) - exact) < 1e-4 * (1 + abs(exact))

    def test_bad_arguments(self):
        F = field2("x^2", "y^2")
        with pytest.raises(ValueError):
            tower_fd_oracle(F, (0.1, 0.1), 5)
        for h in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step must be positive and finite"):
                tower_fd_oracle(F, (0.1, 0.1), 1, h=h)

    def test_trajectory_escape(self):
        from symflow.tower import TrajectoryEscape

        F = field2("x^2", "y^2", box=DomainBox.cube(-1, 1, 2))
        with pytest.raises(TrajectoryEscape):
            tower_fd_oracle(F, (0.99, 0.99), 3, h=0.5)
