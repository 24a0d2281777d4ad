"""Taylor jets on the emitter tape (`numeric.compile_jets`).

The jets give the divergence derivatives along solutions, D_j(z) =
j! [t^j] div F(phi_t(z)), from F's tape alone.  The symbolic tower gives
the same numbers by Lie derivatives (`tower.build_tower`), so each is an
independent oracle for the other: flow series against repeated
differentiation.  The sampled tower law reads only the jets.
"""

import contextlib
import io
import random
from fractions import Fraction

import numpy as np
import pytest

import symflow.tower
from symflow import checks, cli, fields
from symflow import expr as ex
from symflow.checks import tower_order_verdicts
from symflow.expr import Const, Unary, Var
from symflow.fields import SmoothMap, VectorField, divergence
from symflow.geometry import DomainBox
from symflow.numeric import compile_jets, compile_scaled
from symflow.parser import parse
from symflow.tower import build_tower
from symflow.verdict import CheckKind, Status

ORDER = 6


def _random_polynomial(seed: int) -> VectorField:
    r = random.Random(seed)
    n = r.randint(2, 3)
    comps = []
    for _ in range(n):
        acc = Const(Fraction(r.choice((-2, -1, 1, 2)), r.choice((1, 2, 3))))
        for _ in range(r.randint(2, 4)):
            term = Const(Fraction(r.choice((-2, -1, 1, 2)), r.choice((1, 2, 3))))
            for _ in range(r.randint(1, 3)):
                term = ex.mul(term, Var(r.randint(1, n)))
            acc = ex.add(acc, term)
        comps.append(acc)
    return VectorField(comps, DomainBox.cube(-1.0, 1.0, n))


# small enough that order 6 of the symbolic tower keeps 1e-10 relative: its
# compiled trees cancel large terms, which the jets never form
FIELDS = [_random_polynomial(seed) for seed in range(4)] + [
    VectorField([parse(t, len(texts)) for t in texts], DomainBox.cube(-1.0, 1.0, len(texts))) for texts in (
        ("y/(1 + x^2)", "-x + 1/(2 + y)"),
        ("x*y/(3 - y)", "x - y^2/(2 + x)"),
        ("x^3*y - y/(1 + x^2)", "-x"),
        ("y*cos(x) + x^2", "sin(y) - x*y"),
        ("x*exp(y)", "log(2 + y) + sqrt(3 + x)"),
        ("(2 + x)^(1/3)*y", "x^5 - (2 + y)^-2"),
        ("x*sin(z)", "y*exp(x - z)/2", "log(3 + x*y) - z^2"),
        ("cos(x + y) - z", "x*sin(y)", "y*exp(-z^2)"),
    )
]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_jets_match_the_symbolic_tower(F):
    # an oracle for build_tower at seeded points: Lie derivatives compiled
    # against the flow series of F's tape
    Z = F.domain.sample(np.random.default_rng(11), 40).T
    want, _, ok = compile_scaled(build_tower(F, ORDER).orders)(Z)
    (got,), scale = compile_jets(F.components, [divergence(F)])(Z, ORDER)
    assert ok.all() and np.isfinite(scale).all()
    np.testing.assert_array_equal(got[0], want[0])  # order 0 is the same kernel
    assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))


def test_the_oracle_sees_more_than_order_zero():
    # the tower of a wrong field differs from the jets of the right one
    F = FIELDS[6]
    G = VectorField([F.components[0], ex.add(F.components[1], Var(1))], F.domain)
    Z = F.domain.sample(np.random.default_rng(11), 40).T
    (got,), _ = compile_jets(F.components, [divergence(F)])(Z, 2)
    want = compile_scaled(build_tower(G, 2).orders)(Z)[0]
    np.testing.assert_array_equal(got[0], want[0])
    assert np.abs(got[1:] - want[1:]).max() > 1e-3


def test_scale_covers_every_subterm_up_to_the_order():
    # x' = 1, y' = 0 along exp(3x): D_j = 3^j exp(3x); the subterm 3x has
    # the jets (3x, 3, 0, ...), and the constant 3 counts at order 0
    jets = compile_jets([Const(1), Const(0)], [Unary("exp", ex.mul(Const(3), Var(1)))])
    (d,), scale = jets(np.array([[0.0, 1.0], [0.0, 0.0]]), 3)
    np.testing.assert_allclose(d, np.exp([0.0, 3.0]) * (3.0 ** np.arange(4))[:, None], rtol=1e-14)
    np.testing.assert_allclose(scale[:, 0], [3.0, 3.0, 9.0, 27.0], rtol=1e-14)
    np.testing.assert_array_equal(scale[:, 1], np.abs(d[:, 1]))


# --- edge cases --------------------------------------------------------------


@pytest.mark.parametrize("point, want", [
    # along x' = y' = 1, x^3 y^5 is t^8 at the origin, and t^3 (1 + t)^5 at (0, 1)
    ((0.0, 0.0), [0.0] * 8 + [40320.0]),
    ((0.0, 1.0), [0.0, 0.0, 0.0, 6.0, 120.0, 1200.0, 7200.0, 25200.0, 40320.0]),
])
def test_integer_powers_at_a_zero_coordinate_are_exact(point, want):
    e = ex.mul(ex.pow_(Var(1), 3), ex.pow_(Var(2), 5))
    (d,), scale = compile_jets([Const(1), Const(1)], [e])(np.array(point)[:, None], 8)
    assert d[:, 0].tolist() == want
    assert np.isfinite(scale).all()


def test_a_zero_divisor_is_no_finite_row():
    jets = compile_jets([Const(1), Const(0)], [ex.div(Const(1), Var(1))])
    (d,), scale = jets(np.array([[0.0, 2.0], [0.0, 0.0]]), 2)
    assert not np.isfinite(scale[:, 0]).any()
    assert np.isfinite(scale[:, 1]).all()
    np.testing.assert_allclose(d[:, 1], [0.5, -0.25, 0.25])


def test_division_by_zero_is_an_error_row_not_a_witness():
    # sigma sends every point to y = 0, where F's x/y divides by zero
    box = DomainBox.cube(-1.0, 1.0, 2)
    F = VectorField([parse("x/y", 2), parse("y", 2)], box)
    sigma = SmoothMap([parse("x", 2), parse("0*y", 2)], box)
    for v in tower_order_verdicts(F, sigma, CheckKind.SYMMETRY, 2, trials=50):
        assert v.status is Status.INCONCLUSIVE and not v.witnesses
        assert "all 50 sample evaluations failed" in v.notes


def test_sampled_law_builds_no_tower(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("symbolic tower on the sampled branch")

    monkeypatch.setattr(checks, "build_tower", refuse)
    monkeypatch.setattr(symflow.tower, "lie_derivative", refuse)
    monkeypatch.setattr(fields, "lie_derivative", refuse)
    box = DomainBox.cube(-1.5, 1.5, 2)
    F = VectorField([parse("y", 2), parse("-sin(x) - x*cos(y)", 2)], box)
    sigma = SmoothMap([parse("x", 2), parse("-y", 2)], box)
    parts = tower_order_verdicts(F, sigma, CheckKind.REVERSIBILITY, 4)
    assert [v.status for v in parts] == [Status.HOLDS] * 5
    # a given tower must still reach max_order, but its orders are not read:
    # an all-zero tower would obey the symmetry law, and D_0 = x sin(y) does not
    zeros = symflow.tower.DivergenceTower(F, (Const(0),) * 2)
    with pytest.raises(ValueError, match=r"tower holds orders 0\.\.1, but max_order is 4"):
        tower_order_verdicts(F, sigma, CheckKind.REVERSIBILITY, 4, tower=zeros)
    assert tower_order_verdicts(F, sigma, CheckKind.SYMMETRY, 1, tower=zeros)[0].status is Status.FAILS


def test_transcendental_spec_over_the_node_budget_gets_a_verdict(monkeypatch, tmp_path):
    # the budget bounds symbolic towers, and this one's order 1 has 22
    # nodes; a sampled tower law builds none
    monkeypatch.setattr(symflow.tower, "NODE_BUDGET", 20)
    spec = tmp_path / "pendulum.spec"
    spec.write_text("dim=2\nF1=y\nF2=-sin(x) - x*cos(y)\nS1=x\nS2=-y\nbox=-1.5,1.5,-1.5,1.5\n")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["check", str(spec), "--kind", "reversibility", "--orders", "5"])
    assert code == 0, out.getvalue()
    assert '"name": "tower_transform"' in out.getvalue()
