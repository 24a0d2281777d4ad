"""Differential check of the polynomial core against SymPy, a second CAS.

SymPy is a test-only dependency: without it this module is skipped.  Each
test compares an expanded difference with 0, so it holds whatever canonical
form either side prints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from symflow.expr import Binary, Const, Unary, Var, compose, differentiate, simplify  # noqa: E402
from symflow.fields import VectorField  # noqa: E402
from symflow.geometry import DomainBox  # noqa: E402
from symflow.tower import build_tower  # noqa: E402

SYMBOLS = sympy.symbols("z1:5")

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


def to_sympy(e):
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return SYMBOLS[e.index - 1]
    if isinstance(e, Unary):
        assert e.op == "neg"
        return -to_sympy(e.arg)
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
    return sympy.expand(a - b) == 0


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
