"""Differential check of the symbolic core against SymPy, a second CAS.

SymPy is a test-only dependency: without it this module is skipped.  Each
test compares an expanded difference with 0, so it holds whatever canonical
form either side prints.  Polynomial data, sums of polynomial times
sin/cos/exp/log of a polynomial, and sums of quotients by (and powers of)
nonconstant polynomials are checked; SymPy orients sin(-u) and
cos(-u) itself, and expands function arguments, so the two sides meet.
Determinants of polynomial Jacobians are checked up to six dimensions.
Two tests are numeric: a rational tower must take SymPy's values at fixed
points, and SymPy evaluates the tower law at the witnesses of a sampled
check and must give the residuals the check reports.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from symflow.checks import tower_order_verdicts  # noqa: E402
from symflow.expr import (  # noqa: E402
    Binary, Const, ExprError, Unary, Var, compose, differentiate, evaluate, node_count, simplify, to_string,
)
from symflow.fields import SmoothMap, VectorField, jacobian  # noqa: E402
from symflow.geometry import DomainBox  # noqa: E402
from symflow.parser import parse  # noqa: E402
from symflow.tower import build_tower  # noqa: E402
from symflow.verdict import CheckKind, Status  # noqa: E402

SYMBOLS = sympy.symbols("z1:7")

_nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(lambda q: q != 0)


def poly_trees(n, max_leaves=10):
    """Polynomial trees in n variables: + - *, division by a nonzero
    constant, powers 0..3 and negation."""
    leaf = st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=4).map(Const),
        st.integers(min_value=1, max_value=n).map(Var),
    )
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(Binary, st.sampled_from(["add", "sub", "mul"]), children, children),
            st.builds(lambda b, k: Binary("pow", b, Const(k)), children, st.integers(0, 3)),
            st.builds(lambda a, c: Binary("div", a, Const(c)), children, _nonzero),
            st.builds(Unary, st.just("neg"), children),
        ),
        max_leaves=max_leaves,
    )


def small_polys(n):
    """Sums of up to four monomials of degree <= 3 in n variables, kept small
    so that SymPy expands a tower of them quickly."""
    def monomial(coeff, exps):
        tree = Const(coeff)
        for i, k in enumerate(exps, start=1):
            if k:
                tree = Binary("mul", tree, Binary("pow", Var(i), Const(k)))
        return tree

    exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda v: sum(v) <= 3)
    terms = st.lists(st.builds(monomial, _nonzero, exps), min_size=1, max_size=4)
    return terms.map(lambda ts: ts[0] if len(ts) == 1 else _sum(ts))


def _sum(trees):
    acc = trees[0]
    for t in trees[1:]:
        acc = Binary("add", acc, t)
    return acc


def transcendental_trees(n, max_terms=3, functions=("sin", "cos", "exp", "log")):
    """Sums of up to max_terms terms, each a polynomial tree or a polynomial
    tree times one of the functions of a nonconstant polynomial tree, in n
    variables."""
    argument = poly_trees(n, max_leaves=4).filter(lambda u: not isinstance(simplify(u), Const))
    term = st.one_of(
        poly_trees(n, max_leaves=4),
        st.builds(lambda p, f, u: Binary("mul", p, Unary(f, u)),
                  poly_trees(n, max_leaves=3), st.sampled_from(functions), argument),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(_sum)


_FUNCTIONS = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp, "log": sympy.log, "sqrt": sympy.sqrt}


def to_sympy(e):
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return SYMBOLS[e.index - 1]
    if isinstance(e, Unary):
        if e.op == "neg":
            return -to_sympy(e.arg)
        return _FUNCTIONS[e.op](to_sympy(e.arg))
    a, b = to_sympy(e.left), to_sympy(e.right)
    if e.op == "add":
        return a + b
    if e.op == "sub":
        return a - b
    if e.op == "mul":
        return a * b
    if e.op == "div":
        return a / b
    return a**b


def same(a, b):
    # expand leaves a quotient such as (z + 1)^-3 - (z + 1)/(z + 1)^4 whole
    d = sympy.expand(a - b)
    return d == 0 or sympy.cancel(d) == 0


dims = st.integers(min_value=1, max_value=4)
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)


@given(st.data())
@EXAMPLES
def test_simplify(data):
    n = data.draw(dims)
    e = data.draw(poly_trees(n))
    assert same(to_sympy(simplify(e)), to_sympy(e))


@given(st.data())
@EXAMPLES
def test_differentiate(data):
    n = data.draw(dims)
    e = data.draw(poly_trees(n))
    for var in range(1, n + 1):
        want = sympy.diff(to_sympy(e), SYMBOLS[var - 1])
        assert same(to_sympy(differentiate(e, var)), want)
        assert same(to_sympy(differentiate(simplify(e), var)), want)


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_compose_with_polynomial_maps(data):
    n = data.draw(dims)
    e = data.draw(poly_trees(n))
    maps = [data.draw(poly_trees(n, max_leaves=5)) for _ in range(n)]
    want = to_sympy(e).xreplace({SYMBOLS[i]: to_sympy(m) for i, m in enumerate(maps)})
    assert same(to_sympy(compose(e, maps)), want)
    assert same(to_sympy(compose(simplify(e), [simplify(m) for m in maps])), want)


@given(st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_build_tower(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    comps = [data.draw(small_polys(n)) for _ in range(n)]
    order = data.draw(st.integers(min_value=0, max_value=3))
    tower = build_tower(VectorField(comps, DomainBox.cube(-1.0, 1.0, n)), order)
    F = [to_sympy(c) for c in comps]
    z = SYMBOLS[:n]
    want = sum(sympy.diff(F[i], z[i]) for i in range(n))
    for j in range(order + 1):
        assert same(to_sympy(tower.orders[j]), want), f"order {j}"
        want = sympy.expand(sum(sympy.diff(want, z[i]) * F[i] for i in range(n)))


def sparse_polys(n):
    """Sums of one to three monomials, each a coefficient times up to two
    powers 1 or 2 of variables, in n variables."""
    power = st.builds(lambda i, k: Binary("pow", Var(i), Const(k)), st.integers(1, n), st.integers(1, 2))
    monomial = st.builds(lambda c, ps: _product([Const(c)] + ps), _nonzero, st.lists(power, max_size=2))
    return st.lists(monomial, min_size=1, max_size=3).map(_sum)


def _product(trees):
    acc = trees[0]
    for t in trees[1:]:
        acc = Binary("mul", acc, t)
    return acc


@pytest.mark.parametrize("n", range(2, 7))
@given(st.data())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_jacobian_determinant(n, data):
    # z_i z_(i+1) in component i fills the diagonal and the cyclic
    # superdiagonal, so no determinant is trivially constant
    comps = [Binary("add", Binary("mul", Var(i + 1), Var((i + 1) % n + 1)), data.draw(sparse_polys(n)))
             for i in range(n)]
    det = jacobian(SmoothMap(comps, DomainBox.cube(-1.0, 1.0, n))).det()
    # SymPy's determinant over its polynomial ring; Matrix.det on the
    # expressions takes seconds per example at n = 5 and 6
    M = DomainMatrix.from_Matrix(sympy.Matrix([to_sympy(c) for c in comps]).jacobian(SYMBOLS[:n]))
    assert same(to_sympy(det), M.domain.to_sympy(M.det()))


# --- transcendental data: atoms in the normal form ---------------------------

small_dims = st.integers(min_value=1, max_value=3)
TRANSCENDENTAL = settings(max_examples=40, deadline=None, derandomize=True)


@given(st.data())
@TRANSCENDENTAL
def test_simplify_transcendental(data):
    n = data.draw(small_dims)
    e = data.draw(transcendental_trees(n))
    assert same(to_sympy(simplify(e)), to_sympy(e))


@given(st.data())
@TRANSCENDENTAL
def test_differentiate_transcendental(data):
    n = data.draw(small_dims)
    e = data.draw(transcendental_trees(n))
    s = simplify(e)
    for var in range(1, n + 1):
        want = sympy.diff(to_sympy(e), SYMBOLS[var - 1])
        assert same(to_sympy(differentiate(e, var)), want)
        assert same(to_sympy(differentiate(s, var)), want)


def signed_permutations(n):
    return st.tuples(st.permutations(range(1, n + 1)), st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)).map(
        lambda ps: [Binary("mul", Const(sign), Var(i)) for i, sign in zip(*ps)])


@given(st.data())
@TRANSCENDENTAL
def test_compose_transcendental(data):
    n = data.draw(small_dims)
    e = data.draw(transcendental_trees(n))
    maps = data.draw(st.one_of(signed_permutations(n), st.lists(poly_trees(n, max_leaves=3), min_size=n, max_size=n)))
    want = to_sympy(e).xreplace({SYMBOLS[i]: to_sympy(m) for i, m in enumerate(maps)})
    try:
        got = compose(simplify(e), [simplify(m) for m in maps])
    except ExprError:  # a log argument sent to 0 has no value; SymPy gives zoo
        assume(False)
    assert same(to_sympy(got), want)
    assert same(to_sympy(compose(e, maps)), want)


@given(st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_build_tower_transcendental(data):
    n = data.draw(st.integers(min_value=1, max_value=2))
    # no log here: its derivatives are quotients, slow for SymPy to cancel
    comps = [data.draw(transcendental_trees(n, max_terms=2, functions=("sin", "cos", "exp"))) for _ in range(n)]
    order = data.draw(st.integers(min_value=0, max_value=2))
    tower = build_tower(VectorField(comps, DomainBox.cube(-1.0, 1.0, n)), order)
    F = [to_sympy(c) for c in comps]
    z = SYMBOLS[:n]
    want = sum(sympy.diff(F[i], z[i]) for i in range(n))
    for j in range(order + 1):
        assert same(to_sympy(tower.orders[j]), want), f"order {j}"
        want = sympy.expand(sum(sympy.diff(want, z[i]) * F[i] for i in range(n)))


# --- rational data: quotients by nonconstant polynomials (opaque bases) -------

_divisor_powers = st.sampled_from([Fraction(-1), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)])


def rational_trees(n, max_terms=3):
    """Sums of up to max_terms terms, each a polynomial tree, a polynomial
    tree divided by a nonconstant polynomial tree, or a polynomial tree times
    a power -1, -2 or +-1/2 of a nonconstant polynomial tree, in n
    variables: the divisors and the bases stay opaque in the normal form."""
    divisor = poly_trees(n, max_leaves=4).filter(lambda u: not isinstance(simplify(u), Const))
    term = st.one_of(
        poly_trees(n, max_leaves=4),
        st.builds(lambda p, u: Binary("div", p, u), poly_trees(n, max_leaves=3), divisor),
        st.builds(lambda p, u, q: Binary("mul", p, Binary("pow", u, Const(q))),
                  poly_trees(n, max_leaves=3), divisor, _divisor_powers),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(_sum)


@given(st.data())
@TRANSCENDENTAL
def test_differentiate_rational(data):
    n = data.draw(small_dims)
    e = data.draw(rational_trees(n))
    s = simplify(e)
    for var in range(1, n + 1):
        want = sympy.diff(to_sympy(e), SYMBOLS[var - 1])
        assert same(to_sympy(differentiate(e, var)), want)
        assert same(to_sympy(differentiate(s, var)), want)


@given(st.data())
@TRANSCENDENTAL
def test_compose_rational(data):
    n = data.draw(small_dims)
    e = data.draw(rational_trees(n))
    maps = data.draw(st.one_of(signed_permutations(n), st.lists(poly_trees(n, max_leaves=3), min_size=n, max_size=n)))
    want = to_sympy(e).xreplace({SYMBOLS[i]: to_sympy(m) for i, m in enumerate(maps)})
    try:
        got = compose(e, maps)
    except ExprError:  # a map that sends a divisor to 0; SymPy gives zoo
        assume(False)
    assert same(to_sympy(got), want)
    assert same(to_sympy(compose(simplify(e), [simplify(m) for m in maps])), want)


@pytest.mark.parametrize("text, printed", [
    ("x/(1+y^2)", "(y^2 + 1)^(-1)"),
    ("1/(x+y)", "-(x + y)^(-2)"),
])
def test_derivative_of_a_quotient_keeps_the_divisor(text, printed):
    for source in (parse(text, 2), simplify(parse(text, 2))):
        got = differentiate(source, 1)
        assert to_string(got) == printed
        assert same(to_sympy(got), sympy.diff(to_sympy(parse(text, 2)), SYMBOLS[0]))


def test_rational_tower_stays_small():
    # every order keeps the divisor x^2 + 1 as one opaque base instead of
    # expanding its powers (x^4 + 2*x^2 + 1, ...)
    texts = ("x*y/(1+x^2)", "-y/(1+x^2) + sqrt(1+y^2)")
    tower = build_tower(VectorField([parse(t, 2) for t in texts], DomainBox.cube(-1.0, 1.0, 2)), 4)
    assert node_count(tower.orders[4]) <= 2149
    z = SYMBOLS[:2]
    F = [to_sympy(parse(t, 2)) for t in texts]
    dj = sum(sympy.diff(F[i], z[i]) for i in range(2))
    for j, order in enumerate(tower.orders):
        if j:
            dj = sum(sympy.diff(dj, z[i]) * F[i] for i in range(2))
        for point in ((0.3, -0.7), (-0.9, 0.4)):
            want = float(dj.subs(dict(zip(z, point))).evalf(30))
            assert abs(evaluate(order, point) - want) <= 1e-12 * (1 + abs(want)), f"order {j}"


# --- sampled tower law: witnesses against SymPy -------------------------------


@pytest.mark.parametrize("texts, sigma, kind", [
    (("y + x*sin(x)", "-x"), ("-x", "y"), "symmetry"),
    (("x*exp(y)", "cos(x) - y^2"), ("y", "x"), "reversibility"),
    (("y*cos(x) + x^2", "sin(y) - x*y"), ("-x", "-y"), "reversibility"),
])
def test_sampled_tower_witnesses_match_sympy(texts, sigma, kind):
    # each witness w of a failing sampled order reports |D_j(sigma(w)) -
    # s_j D_j(w)|; SymPy builds D_j from F on its own and evaluates that
    # residual at w to 30 digits
    box = DomainBox.cube(-1.5, 1.5, 2)
    F = VectorField([parse(t, 2) for t in texts], box)
    kind = CheckKind(kind)
    parts = tower_order_verdicts(F, SmoothMap([parse(t, 2) for t in sigma], box), kind, 2)
    z = SYMBOLS[:2]
    comps = [to_sympy(c) for c in F.components]
    image = {z[i]: to_sympy(parse(t, 2)) for i, t in enumerate(sigma)}
    dj = sum(sympy.diff(comps[i], z[i]) for i in range(2))
    failed = 0
    for j, part in enumerate(parts):
        if part.status is Status.FAILS:
            failed += 1
            residual = dj.xreplace(image) - kind.tower_sign(j) * dj
            for w, reported in part.witnesses:
                want = abs(residual.subs(dict(zip(z, w))).evalf(30))
                assert abs(reported - float(want)) <= 1e-9 * float(want)
        dj = sum(sympy.diff(dj, z[i]) * comps[i] for i in range(2))
    assert failed
