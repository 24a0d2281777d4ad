"""Sampled laws on non-polynomial data, evaluated side by side.

`expr.sampled_law_verdict` tests a law lhs(sigma(z)) = sign * rhs(z) by
evaluating sigma at the sample points, lhs at their images and rhs at the
points, with kernels compiled once per map and per side.  The checks use it
for the structural identity whenever the field or the map is not
polynomial, and compose nothing; the tower law reads F's Taylor jets at the
points and at their images (tests/test_jets.py), and is held here to the
same error rows.  The sweep below feeds tower orders to the helper too.

The reference is the route it replaced, kept only here: compose the law
symbolically, subtract, and sample the residual with
`expr.sampled_zero_verdict`.  Both draw the same points from the same
generator, so they must reach the same status and certainty there, and
their residuals agree to ZERO_TOL_REL of the scale: the two evaluate
different but equal expressions, so the last digits differ.
"""

import contextlib
import io
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from symflow import cli
from symflow import expr as ex
from symflow.checks import check_structural, tower_order_verdicts
from symflow.expr import Const, Unary, Var, ZERO_TOL_REL, _sample, _sample_law, sampled_zero_verdict
from symflow.fields import SmoothMap, VectorField, is_involution, jacobian
from symflow.geometry import DomainBox
from symflow.numeric import compile_scaled
from symflow.parser import parse
from symflow.tower import build_tower
from symflow.verdict import CheckKind, Status

KINDS = (CheckKind.SYMMETRY, CheckKind.REVERSIBILITY)
TRIALS = 120


# --- the sweep: transcendental fields under signed permutations -------------


def _random_involution(r: random.Random, n: int):
    """A signed permutation P with P^2 = I, as (perm, signs): (Pz)_i is
    signs[i] * z[perm[i]]; swapped pairs share a sign."""
    perm, signs = list(range(n)), [1] * n
    free = list(range(n))
    r.shuffle(free)
    while free:
        i = free.pop()
        if free and r.random() < 0.6:
            j = free.pop()
            perm[i], perm[j] = j, i
            signs[i] = signs[j] = r.choice((1, -1))
        else:
            signs[i] = r.choice((1, -1))
    return perm, signs


def _random_term(r: random.Random, n: int):
    term = Const(Fraction(r.choice((-2, -1, 1, 2)), r.choice((1, 2))))
    for _ in range(r.randint(0, 2)):
        term = ex.mul(term, Var(r.randint(1, n)))
    if r.random() < 0.7:
        arg = ex.add(ex.mul(Const(r.choice((-1, 1, 2))), Var(r.randint(1, n))), Var(r.randint(1, n)))
        term = ex.mul(term, Unary(r.choice(("sin", "cos", "exp")), arg))
    return term


def _random_component(r: random.Random, n: int):
    acc = _random_term(r, n)
    for _ in range(r.randint(0, 2)):
        acc = ex.add(acc, _random_term(r, n))
    return acc


def _sweep_case(seed: int):
    """(F, sigma, kind): for even seeds F = G + s P G(P z), built to obey
    the law of kind under P; for odd seeds F = G, which almost never does."""
    r = random.Random(seed)
    n = r.randint(2, 4)
    perm, signs = _random_involution(r, n)
    P = [ex.mul(Const(signs[i]), Var(perm[i] + 1)) for i in range(n)]
    kind = r.choice(KINDS)
    G = [_random_component(r, n) for _ in range(n)]
    if seed % 2 == 0:
        s = 1 if kind is CheckKind.SYMMETRY else -1
        F = [ex.simplify(ex.add(G[i], ex.mul(Const(s * signs[i]), ex.compose(G[perm[i]], P)))) for i in range(n)]
    else:
        F = [ex.simplify(g) for g in G]
    box = DomainBox.cube(-1.5, 1.5, n)
    return VectorField(F, box), SmoothMap([ex.simplify(p) for p in P], box), kind


def _conjugated_case():
    """F = phi_* (y, -x + y^2) with phi(x, y) = (x, y + sin(x)/2): reversible
    under sigma = phi (x, -y) phi^-1 = (x, sin(x) - y), a non-linear
    involution, and its divergence 2y - sin(x) is not 0."""
    box = DomainBox.cube(-1.5, 1.5, 2)
    F = VectorField([parse("y - sin(x)/2", 2), parse("-x + cos(x)/2*(y - sin(x)/2) + (y - sin(x)/2)^2", 2)], box)
    return F, SmoothMap([parse("x", 2), parse("sin(x) - y", 2)], box)


CASES = [_sweep_case(seed) for seed in range(16)] + [
    (*_conjugated_case(), kind) for kind in KINDS
]


def _laws(F, sigma, kind, max_order):
    """Each law a check samples, as (composed residual, lhs, rhs, sign)."""
    tower = build_tower(F, max_order)
    for j in range(max_order + 1):
        dj, s = tower.orders[j], kind.tower_sign(j)
        lhs = ex.compose(dj, sigma.components)
        yield (ex.sub(lhs, dj) if s == 1 else ex.add(lhs, dj)), dj, dj, s
    sign = 1 if kind is CheckKind.SYMMETRY else -1
    for comp, rhs in zip(F.components, jacobian(sigma).times_vector(F.components)):
        yield ex.sub(ex.compose(comp, sigma.components), rhs if sign == 1 else ex.neg(rhs)), comp, rhs, sign


@pytest.mark.parametrize("F, sigma, kind", CASES)
def test_rows_match_the_composed_residual(F, sigma, kind):
    image = compile_scaled(sigma.components)
    for residual, lhs, rhs, sign in _laws(F, sigma, kind, 2):
        pts, got, scale, ok = _sample_law(image, lhs, rhs, sign, F.domain, TRIALS, np.random.default_rng(7))
        ref_pts, want, _, ref_ok = _sample(residual, F.domain, TRIALS, np.random.default_rng(7))
        np.testing.assert_array_equal(pts, ref_pts)
        np.testing.assert_array_equal(ok, ref_ok)
        assert np.all(np.abs(got - want)[ok] <= ZERO_TOL_REL * (1.0 + scale[ok]))


@pytest.mark.parametrize("F, sigma, kind", CASES)
def test_verdicts_match_the_composed_route(F, sigma, kind):
    image = compile_scaled(sigma.components)
    for residual, lhs, rhs, sign in _laws(F, sigma, kind, 2):
        got = ex.sampled_law_verdict(image, lhs, rhs, sign, F.domain, TRIALS, np.random.default_rng(3))
        want = sampled_zero_verdict(residual, F.domain, TRIALS, rng=np.random.default_rng(3))
        assert (got.status, got.certainty) == (want.status, want.certainty)
        assert sorted(p for p, _ in got.witnesses) == sorted(p for p, _ in want.witnesses)
        if want.status is not Status.INCONCLUSIVE:  # tol is ZERO_TOL_REL * (1 + scale)
            tol = float(re.search(r"tol (\S+?),? ", want.notes + " ").group(1))
            assert abs(got.residual_max - want.residual_max) <= tol


def test_sweep_covers_both_outcomes():
    statuses = {check_structural(F, sigma, kind, trials=TRIALS).status for F, sigma, kind in CASES}
    assert statuses == {Status.HOLDS, Status.FAILS}
    F, sigma = _conjugated_case()
    assert check_structural(F, sigma, CheckKind.REVERSIBILITY).holds
    assert all(v.holds for v in tower_order_verdicts(F, sigma, CheckKind.REVERSIBILITY, 3))
    assert not check_structural(F, sigma, CheckKind.SYMMETRY).holds
    assert is_involution(sigma).holds


# --- nothing is composed on the sampled branch -------------------------------


def test_sampled_checks_compose_nothing(monkeypatch, tmp_path):
    # polynomial data may still be composed: the exact branches and
    # fields.is_involution of a linear map decide through canonical forms
    compose = ex.compose

    def refuse(e, maps):
        if not (ex.is_polynomial(e) and all(map(ex.is_polynomial, maps))):
            raise AssertionError("compose called on the sampled branch")
        return compose(e, maps)

    monkeypatch.setattr(ex, "compose", refuse)
    F, sigma = _conjugated_case()
    assert check_structural(F, sigma, CheckKind.REVERSIBILITY).holds
    assert all(v.holds for v in tower_order_verdicts(F, sigma, CheckKind.REVERSIBILITY, 3))
    spec = tmp_path / "pendulum.spec"
    spec.write_text("dim=2\nF1=y\nF2=-sin(x)\nS1=x\nS2=-y\nbox=-1.5,1.5,-1.5,1.5\n")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["check", str(spec), "--kind", "reversibility", "--orders", "3"])
    assert code == 0, out.getvalue()
    assert "probabilistic" in out.getvalue()


# --- rows where sigma(z) leaves the domain of a log --------------------------


def test_rows_whose_image_leaves_the_domain_are_errors_not_witnesses():
    # sigma = (-x, y) on x in [-0.5, 2]: log(1 + x) is defined at every z,
    # and at sigma(z) only for x < 1; D_0 = log(1 + x) + 2 breaks the
    # reversibility law log(1 - x) + log(1 + x) + 4 = 0 on every other row
    box = DomainBox([(-0.5, 2.0), (-1.0, 1.0)])
    F = VectorField([parse("(1 + x)*log(1 + x)", 2), parse("y", 2)], box)
    sigma = SmoothMap([parse("-x", 2), parse("y", 2)], box)
    order0 = tower_order_verdicts(F, sigma, CheckKind.REVERSIBILITY, 0, trials=TRIALS,
                                  rng=np.random.default_rng(5))[0]
    x = box.sample(np.random.default_rng(5), TRIALS)[:, 0]
    errors = int((x >= 1.0).sum())
    assert 0 < errors < TRIALS
    assert order0.status is Status.FAILS
    assert f", {errors} evaluation errors skipped" in order0.notes
    assert f"sampled {TRIALS - errors}/{TRIALS} points" in order0.notes
    assert order0.witnesses and all(p[0] < 1.0 for p, _ in order0.witnesses)


def test_log_of_a_reflected_coordinate_leaves_no_row():
    # with log(x) itself, z and sigma(z) = (-x, y) are never both in its domain
    box = DomainBox.cube(-1.0, 1.0, 2)
    F = VectorField([parse("x*log(x)", 2), parse("x", 2)], box)
    sigma = SmoothMap([parse("-x", 2), parse("y", 2)], box)
    for v in tower_order_verdicts(F, sigma, CheckKind.REVERSIBILITY, 1, trials=TRIALS):
        assert v.status is Status.INCONCLUSIVE and not v.witnesses
        assert f"all {TRIALS} sample evaluations failed" in v.notes
    structural = check_structural(F, sigma, CheckKind.REVERSIBILITY, trials=TRIALS)
    assert structural.status is Status.INCONCLUSIVE and not structural.witnesses


# --- the helper's error rows and scale, on trees compiled as written ----------

X = Var(1)
LINE = DomainBox([(0.0, 20.0)])


def _law(sigma, lhs, rhs, sign, box=LINE, trials=50):
    return ex.sampled_law_verdict(compile_scaled(sigma), lhs, rhs, sign, box, trials, np.random.default_rng(2))


def test_a_side_with_an_overflowing_subterm_is_an_error_row():
    # exp(-exp(x + 700)) is a finite 0 where exp(x + 700) overflows, as the
    # tree walk, which raises there, would not have it
    side = Unary("exp", ex.neg(Unary("exp", X)))
    v = _law([ex.add(X, Const(700))], side, side, 1)
    x = LINE.sample(np.random.default_rng(2), 50)[:, 0]
    errors = int((x + 700.0 > np.log(np.finfo(float).max)).sum())
    assert 0 < errors < 50
    assert f", {errors} evaluation errors skipped" in v.notes


def test_an_overflowing_residual_is_an_error_row():
    v = _law([ex.neg(X)], X, X, 1, box=DomainBox([(1e308, 1.5e308)]))
    assert v.status is Status.INCONCLUSIVE and "all 50 sample evaluations failed" in v.notes


@pytest.mark.parametrize("sigma, rhs, peak", [
    # a subterm of sigma sets the scale: 10^8 x / 10^8 is x
    ([ex.div(ex.mul(Const(10**8), X), Const(10**8))], X, 10**8),
    # so does the residual: x - (-x) is larger than either side
    ([X], ex.neg(X), 2),
])
def test_the_scale_covers_sigma_and_the_residual(sigma, rhs, peak):
    v = _law(sigma, X, rhs, 1)
    x = LINE.sample(np.random.default_rng(2), 50)[:, 0]
    tol = ZERO_TOL_REL * (1.0 + peak * float(x.max()))
    assert f"tol {tol:.3g}" in v.notes
