"""Expression core: simplification, calculus, evaluation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symflow.expr import (
    Binary,
    Const,
    EvaluationError,
    ExprError,
    Unary,
    Var,
    compose,
    differentiate,
    evaluate,
    evaluate_exact,
    is_polynomial,
    simplify,
    to_string,
)
from symflow import expr as ex
from symflow.parser import parse

from conftest import p1, p2, poly_exprs, smooth_exprs


class TestSimplify:
    def test_collects_like_terms(self):
        assert simplify(p2("x + x")) == p2("2*x")

    def test_polynomial_cancellation(self):
        assert simplify(p2("(x+y)^2 - x^2 - 2*x*y - y^2")) == Const(0)

    def test_commutativity_cancels(self):
        e = p2("3*x*2*y - 2*y*3*x")
        assert simplify(e) == Const(0)

    def test_graded_lex_order(self):
        # degree-2 terms precede degree-1, ties broken by the first variable
        assert to_string(simplify(p2("y + x^2 + x*y + x"))) == "x^2 + x*y + x + y"

    def test_idempotent(self):
        e = simplify(p2("(1 - 2*y)*x + sin(-x)"))
        assert simplify(e) == e

    def test_sin_sign_orientation(self):
        assert simplify(p2("sin(-x) + sin(x)")) == Const(0)
        assert simplify(p2("cos(-x) - cos(x)")) == Const(0)

    def test_constant_folding_inside_functions(self):
        assert simplify(p1("sin(0)")) == Const(0)
        assert simplify(p1("cos(0)")) == Const(1)
        assert simplify(p1("exp(0)")) == Const(1)
        assert simplify(p1("log(1)")) == Const(0)

    def test_sqrt_normalizes_to_half_power(self):
        assert simplify(p1("sqrt(x)")) == Binary("pow", Var(1), Const(Fraction(1, 2)))
        assert simplify(p1("sqrt(4)")) == Const(2)
        assert simplify(p1("sqrt(x)*sqrt(x)")) == Var(1)

    def test_squared_base_does_not_collapse_under_sqrt(self):
        # (x^2)^(1/2) is |x|, not x; the form must stay opaque
        e = simplify(p1("(x^2)^(1/2)"))
        assert e != Var(1)
        assert evaluate(e, (-2.0,)) == pytest.approx(2.0)

    def test_division_by_constant_folds(self):
        assert simplify(p2("2*y/3")) == simplify(p2("(2/3)*y"))

    def test_variable_cancellation_in_quotients(self):
        assert simplify(p1("x/x")) == Const(1)

    def test_division_by_symbolic_zero_raises(self):
        with pytest.raises(ExprError):
            simplify(p1("1/(x - x)"))

    @given(poly_exprs())
    @settings(max_examples=60, deadline=None)
    def test_idempotence_property(self, e):
        s = simplify(e)
        assert simplify(s) == s

    @given(smooth_exprs())
    @settings(max_examples=60, deadline=None)
    def test_value_preserved(self, e):
        rng = np.random.default_rng(7)
        s = simplify(e)
        for _ in range(3):
            p = tuple(rng.uniform(-1.5, 1.5, 2))
            try:
                a = evaluate(e, p)
            except EvaluationError:
                continue
            b = evaluate(s, p)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))


class TestPolynomialDetection:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^2 + 2*y", True),
            ("x/2", True),
            ("x/y", False),
            ("x^(-1)", False),
            ("x^(1/2)", False),
            ("sin(x)", False),
            ("-(x*y)", True),
        ],
    )
    def test_fragment(self, text, expected):
        assert is_polynomial(p2(text)) is expected


class TestDifferentiate:
    def test_power_rule(self):
        assert differentiate(p2("y + x^2"), 1) == p2("2*x")

    def test_worked_partial(self):
        assert differentiate(p2("2*y + 2*x^2"), 2) == Const(2)

    def test_product_chain(self):
        assert differentiate(p2("sin(x)*y"), 1) == simplify(p2("cos(x)*y"))

    def test_quotient_rule(self):
        d = differentiate(p2("x/y"), 2)
        for pt in [(1.0, 2.0), (0.5, -1.5)]:
            assert evaluate(d, pt) == pytest.approx(-pt[0] / pt[1] ** 2)

    def test_log_sqrt(self):
        assert evaluate(differentiate(p1("log(x)"), 1), (2.0,)) == pytest.approx(0.5)
        assert evaluate(differentiate(p1("sqrt(x)"), 1), (4.0,)) == pytest.approx(0.25)

    @given(poly_exprs(max_leaves=8))
    @settings(max_examples=40, deadline=None)
    def test_against_central_differences(self, e):
        rng = np.random.default_rng(3)
        d = differentiate(e, 1)
        h = 1e-6
        for _ in range(2):
            x, y = rng.uniform(-1.0, 1.0, 2)
            fd = (evaluate(e, (x + h, y)) - evaluate(e, (x - h, y))) / (2 * h)
            sym = evaluate(d, (x, y))
            assert abs(fd - sym) <= 1e-5 * (1 + abs(sym)) + 1e-7


class TestEvaluate:
    def test_basic(self):
        assert evaluate(p2("2*x"), (3, 5)) == 6
        assert evaluate(p2("2*y + 2*x^2"), (1, 1)) == 4

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(p2("1/x"), (0, 1))

    def test_log_domain(self):
        with pytest.raises(EvaluationError):
            evaluate(p1("log(x)"), (-1.0,))

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvaluationError):
            evaluate(p1("x^(1/2)"), (-1.0,))

    def test_exact_rational(self):
        v = evaluate_exact(p2("x^2/3 + y"), (Fraction(1, 2), Fraction(1, 3)))
        assert v == Fraction(1, 12) + Fraction(1, 3)

    def test_exact_rejects_transcendentals(self):
        with pytest.raises(ExprError):
            evaluate_exact(p1("sin(x)"), (Fraction(0),))


class TestCompose:
    def test_sign_flip(self):
        assert compose(p2("2*x"), [p2("-x"), p2("y")]) == p2("-2*x")

    def test_product_preserved(self):
        # the swap-and-scale map leaves x*y unchanged
        m = [p2("2*y/3"), p2("3*x/2")]
        assert compose(p2("x*y"), m) == simplify(p2("x*y"))

    def test_identity(self):
        assert compose(p2("x"), [p2("x"), p2("y")]) == Var(1)

    def test_dimension_mismatch(self):
        with pytest.raises(ExprError):
            compose(p2("x + y"), [p2("x")])

    @given(poly_exprs(max_leaves=8))
    @settings(max_examples=40, deadline=None)
    def test_identity_map_fixes_everything(self, e):
        assert compose(e, [Var(1), Var(2)]) == simplify(e)


class TestPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "x^2 + y",
            "2/3*x*y",
            "-(y*sin(x))",
            "x^(-1)",
            "x^(1/2)",
            "3*x^2 - 2*y + 1/2",
            "-2*x",
            "-x",
            "x^2*y^3 - 12*x*y + 1",
        ],
    )
    def test_round_trip_on_canonical_forms(self, text):
        e = simplify(parse(text, 2))
        assert parse(to_string(e), 2) == e

    @given(poly_exprs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, e):
        s = simplify(e)
        assert parse(to_string(s), 2) == s


# --- normal forms kept through the core: integer exponents, remembered NFs,
# dict-level calculus --------------------------------------------------------

_POWERS = [Fraction(k) for k in (-2, -1, 2, 3)] + [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]


def laurent_exprs(max_leaves=10):
    """Trees whose normal forms stay over variables: variables under integer,
    negative and fractional powers, joined by + - * and negation."""
    leaf = st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=3).map(Const),
        st.integers(min_value=1, max_value=2).map(Var),
        st.builds(lambda i, q: Binary("pow", Var(i), Const(q)), st.integers(1, 2), st.sampled_from(_POWERS)),
    )
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(Binary, st.sampled_from(["add", "sub", "mul"]), children, children),
            st.builds(Unary, st.just("neg"), children),
        ),
        max_leaves=max_leaves,
    )


def _exponents(nf):
    return [p for m in nf for _, p in m]


class TestRememberedNormalForm:
    def test_integer_exponents_are_ints(self):
        nf = ex._to_nf(p2("x^2*y - x^(3/2) + x^(-1)"))
        assert sorted(map(str, _exponents(nf))) == ["-1", "1", "2", "3/2"]
        assert {type(p) for p in _exponents(nf)} == {int, Fraction}
        assert all(type(p) is int for p in _exponents(ex._to_nf(p2("(x + y)^3*x"))))

    def test_simplify_output_remembers_and_is_not_re_expanded(self):
        s = simplify(p2("(x + 2*y)^4 - x*y"))
        assert s._nf is not None
        assert ex._to_nf(s) is s._nf
        assert simplify(s) is s
        assert differentiate(s, 1)._nf == ex._to_nf(parse(to_string(differentiate(s, 1)), 2))

    def test_remembered_nf_is_never_mutated(self):
        s = simplify(p2("x^2*y - 3*y + 1"))
        before = dict(s._nf)
        simplify(Binary("sub", s, Var(1)))
        simplify(Binary("add", Binary("add", s, s), s))
        simplify(Binary("mul", s, Binary("pow", s, Const(2))))
        differentiate(s, 2)
        compose(s, [s, Var(1)])
        ex.derivative_along(s, [s, s])
        assert s._nf == before
        assert to_string(s) == "x^2*y - 3*y + 1"

    def test_constants_get_no_cache(self):
        assert simplify(p2("x - x"))._nf is None
        assert simplify(p2("(x + 1)^2 - x^2 - 2*x"))._nf is None
        assert ex.ZERO._nf is None and ex.ONE._nf is None

    @pytest.mark.parametrize("text, printed, again", [
        ("sqrt(x+1)*sqrt(x+1)", "x + 1", "x + 1"),
        ("sqrt(x+1)*sqrt(x+1) - x - 1", "-x + (x + 1) - 1", "0"),
        ("sqrt(x+y)^2*y", "y*(x + y)", "x*y + y^2"),
    ])
    def test_opaque_base_gets_no_cache(self, text, printed, again):
        # ("e", u)^1 prints as u; re-simplifying u expands it, so remembering
        # the opaque NF on that tree would change the second result
        s = simplify(p2(text))
        assert s._nf is None
        assert to_string(s) == printed
        assert to_string(simplify(s)) == again

    @given(laurent_exprs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_cached_nf_matches_a_fresh_walk(self, e):
        s = simplify(e)
        fresh = parse(to_string(s), 2)  # a new tree: no node carries an NF
        assert fresh == s
        if isinstance(s, Const):
            assert s._nf is None
            return
        assert s._nf == ex._to_nf(fresh)
        assert all(type(p) is int or p.denominator != 1 for p in _exponents(s._nf))
        assert is_polynomial(s) == is_polynomial(fresh)
        assert ex.max_var_index(s) == ex.max_var_index(fresh)


class TestDictCalculusMatchesTreePath:
    """The dict-level operations give the tree path's canonical form."""

    @given(st.one_of(poly_exprs(), laurent_exprs()), st.integers(1, 2))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_differentiate(self, e, var):
        for source in (e, simplify(e)):
            assert differentiate(source, var) == simplify(ex._d(source, var))

    @given(laurent_exprs(), poly_exprs(max_leaves=6), poly_exprs(max_leaves=6))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_compose(self, e, m1, m2):
        maps = [m1, simplify(m2)]
        for source in (e, simplify(e)):
            try:
                expected = simplify(ex._subst(source, maps))
            except ExprError as exc:  # a map that vanishes under a negative power
                with pytest.raises(ExprError, match=str(exc)):
                    compose(source, maps)
                continue
            assert compose(source, maps) == expected

    @given(st.one_of(poly_exprs(), laurent_exprs()), smooth_exprs(max_leaves=6), poly_exprs(max_leaves=6))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_derivative_along(self, e, c1, c2):
        expected = simplify(Binary(
            "add", Binary("mul", differentiate(e, 1), c1), Binary("mul", differentiate(e, 2), c2)
        ))
        assert ex.derivative_along(simplify(e), [c1, c2]) == expected


class TestLongChains:
    N = 2000  # twice the default recursion limit

    def chain(self):
        return simplify(parse(" + ".join(f"{k}*x^{k}" for k in range(1, self.N + 1)), 1))

    def test_walks_do_not_recurse(self):
        s = self.chain()
        # x, then N - 1 terms k*x^k of five nodes each, joined by N - 1 adds
        assert ex.node_count(s) == 6 * self.N - 5
        assert ex.max_var_index(s) == 1
        assert is_polynomial(s)
        text = to_string(s)
        assert text.startswith(f"{self.N}*x^{self.N} + ") and text.endswith(" + 2*x^2 + x")

    def test_tree_path_handles_long_sums(self):
        # trees this deep compare by their text: dataclass equality recurses
        s = self.chain()
        text = to_string(s)
        fresh = parse(text, 1)
        assert to_string(simplify(fresh)) == text
        assert to_string(simplify(ex._d(fresh, 1))) == to_string(differentiate(s, 1))
        swapped = ex._subst(Binary("mul", fresh, Unary("sin", Var(1))), [Var(1)])
        assert to_string(swapped) == f"({text})*sin(x)"


def test_polynomial_terms():
    assert ex.polynomial_terms(p2("3*x^2*y - y + 1/2")) == {
        (2, 1): 3, (0, 1): -1, (0, 0): Fraction(1, 2),
    }
    assert ex.polynomial_terms(p2("x - x")) == {}
    assert ex.polynomial_terms(p2("x^(1/2)")) is None
    assert ex.polynomial_terms(p2("sin(x)")) is None


# --- transcendental data in normal form: atoms over exact arguments ----------

_FUNCS = ["sin", "cos", "exp", "log"]


def atom_exprs(max_leaves=8):
    """Trees whose normal forms hold atoms: sin/cos/exp/log of
    laurent_exprs, alone, nested or under integer, negative and fractional
    powers, joined with variables by + - * and negation."""
    inner = laurent_exprs(max_leaves=4)
    atoms = st.builds(Unary, st.sampled_from(_FUNCS), inner)
    leaf = st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=3).map(Const),
        st.integers(min_value=1, max_value=2).map(Var),
        atoms,
        st.builds(lambda a, q: Binary("pow", a, Const(q)), atoms, st.sampled_from(_POWERS)),
    )
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(Binary, st.sampled_from(["add", "sub", "mul"]), children, children),
            st.builds(Unary, st.just("neg"), children),
            st.builds(Unary, st.sampled_from(_FUNCS), children),
        ),
        max_leaves=max_leaves,
    )


def _simplified(e):
    """simplify(e), or a rejected example when e divides by a symbolic zero
    (sin(0)^(-1), say)."""
    try:
        return simplify(e)
    except ExprError:
        assume(False)


def _nodes(e):
    """Every node of e, and of the atom arguments its remembered NF holds."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(ex._children(node))
        for m in node._nf or ():
            stack.extend(bk[2] for bk, _ in m if bk[0] == "f")


def _outcome(fn, *args):
    """fn(*args), or the ExprError it raises (log(0) divides by zero in
    its derivative, a map can vanish under a negative power)."""
    try:
        return fn(*args)
    except ExprError as exc:
        return ("ExprError", str(exc))


class _Hashed:
    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def dataclass_hash(e):
    """The hash a frozen dataclass gives e: the hash of its fields' tuple."""
    if isinstance(e, Const):
        return hash((e.value,))
    if isinstance(e, Var):
        return hash((e.index,))
    if isinstance(e, Unary):
        return hash((e.op, _Hashed(dataclass_hash(e.arg))))
    return hash((e.op, _Hashed(dataclass_hash(e.left)), _Hashed(dataclass_hash(e.right))))


def dataclass_eq(a, b):
    """Frozen-dataclass equality: the same class and equal fields."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return a.value == b.value
    if isinstance(a, Var):
        return a.index == b.index
    if isinstance(a, Unary):
        return a.op == b.op and dataclass_eq(a.arg, b.arg)
    return a.op == b.op and dataclass_eq(a.left, b.left) and dataclass_eq(a.right, b.right)


def rebuilt(e):
    """A copy of e that shares no node with it."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Var):
        return Var(e.index)
    if isinstance(e, Unary):
        return Unary(e.op, rebuilt(e.arg))
    return Binary(e.op, rebuilt(e.left), rebuilt(e.right))


class TestAtomNormalForms:
    def test_simplify_output_remembers_and_is_returned_without_a_walk(self):
        s = simplify(p2("x*sin(x*y + 1)^2 - exp(-y)/cos(x) + log(x^2)"))
        assert s._nf is not None and ex._to_nf(s) is s._nf
        assert simplify(s) is s
        assert not is_polynomial(s) and ex.max_var_index(s) == 2
        atom_args = [bk[2] for m in s._nf for bk, _ in m if bk[0] == "f"]
        assert atom_args and all(a._nf is not None for a in atom_args)

    @given(atom_exprs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_remembered_nf_matches_a_fresh_walk(self, e):
        s = _simplified(e)
        fresh = parse(to_string(s), 2)  # a new tree: no node carries an NF
        assert fresh == s
        # remembered exactly when e's NF is exact: no opaque base at any depth
        assert (s._nf is not None) == (not isinstance(s, Const) and ex._is_exact(ex._to_nf(e)))
        if s._nf is not None:
            assert s._nf == ex._to_nf(fresh)
            assert ex._to_nf(s) is s._nf
            assert is_polynomial(s) == is_polynomial(fresh)
            assert ex.max_var_index(s) == ex.max_var_index(fresh)

    @pytest.mark.parametrize("text, printed, again", [
        ("sin(sqrt(x+1)*sqrt(x+1))", "sin(x + 1)", "sin(x + 1)"),
        ("exp(1/(x+y))*x", "x*exp((x + y)^(-1))", "x*exp((x + y)^(-1))"),
        ("cos(x)*sqrt(x+y)^2", "cos(x)*(x + y)", "x*cos(x) + y*cos(x)"),
    ])
    def test_opaque_base_at_any_depth_gets_no_cache(self, text, printed, again):
        s = simplify(p2(text))
        assert s._nf is None
        assert to_string(s) == printed
        assert to_string(simplify(s)) == again

    @pytest.mark.parametrize("text, swapped, d_dx, along", [
        # a negative atom power, and a sin argument whose sign flips under
        # the swap (the printed forms are those of the tree path)
        ("1/cos(x)", "cos(y)^(-1)", "sin(x)*cos(x)^(-2)", "y*sin(x)*cos(x)^(-2)"),
        ("sin(x - y)", "-sin(x - y)", "cos(x - y)", "-(x*cos(x - y)) + y*cos(x - y)"),
        ("x*cos(y - x)^2 + exp(-x)*log(x*y)", "y*cos(x - y)^2 + exp(-y)*log(x*y)",
         "-2*x*sin(x - y)*cos(x - y) + cos(x - y)^2 - exp(-x)*log(x*y) + x^(-1)*exp(-x)",
         "2*x^2*sin(x - y)*cos(x - y) - 2*x*y*sin(x - y)*cos(x - y) + y*cos(x - y)^2"
         " - y*exp(-x)*log(x*y) + x*y^(-1)*exp(-x) + x^(-1)*y*exp(-x)"),
    ])
    def test_fixed_cases(self, text, swapped, d_dx, along):
        s = simplify(p2(text))
        sigma = [Var(2), Var(1)]
        for got, want, tree in [
            (compose(s, sigma), swapped, simplify(ex._subst(s, sigma))),
            (differentiate(s, 1), d_dx, simplify(ex._d(s, 1))),
            (ex.derivative_along(s, sigma), along, None),
        ]:
            assert to_string(got) == want
            assert got._nf is not None and got._nf == ex._to_nf(parse(want, 2))
            assert tree is None or got == tree

    @given(atom_exprs(), st.integers(1, 2))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_differentiate_matches_tree_path(self, e, var):
        s = _simplified(e)
        for source in (e, s):
            got = _outcome(differentiate, source, var)
            assert got == _outcome(lambda: simplify(ex._d(source, var)))
            if not isinstance(got, tuple) and got._nf is not None:
                assert got._nf == ex._to_nf(parse(to_string(got), 2))

    @given(atom_exprs(), st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
           poly_exprs(max_leaves=5), smooth_exprs(max_leaves=5))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_compose_matches_tree_path(self, e, signs, m1, m2):
        s = _simplified(e)
        swap = [Binary("mul", Const(signs[0]), Var(2)), Binary("mul", Const(signs[1]), Var(1))]
        for maps in (swap, [m1, simplify(m2)], [simplify(m1), m2]):
            for source in (e, s):
                expected = _outcome(lambda: simplify(ex._subst(source, maps)))
                assert _outcome(compose, source, maps) == expected

    @given(atom_exprs(), smooth_exprs(max_leaves=6), poly_exprs(max_leaves=6))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_derivative_along_matches_tree_path(self, e, c1, c2):
        s = _simplified(e)
        expected = _outcome(lambda: simplify(Binary(
            "add",
            Binary("mul", simplify(ex._d(s, 1)), c1),
            Binary("mul", simplify(ex._d(s, 2)), c2),
        )))
        assert _outcome(ex.derivative_along, s, [c1, c2]) == expected


class TestCachedKeys:
    @given(atom_exprs(), poly_exprs(max_leaves=5))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_cached_hashes_and_texts_are_never_stale(self, e, m):
        s = _simplified(e)
        results = [s, _outcome(differentiate, s, 1), _outcome(compose, s, [m, Var(1)]),
                   _outcome(ex.derivative_along, s, [m, s])]
        for r in (r for r in results if not isinstance(r, tuple)):
            hash(r)
            for node in _nodes(r):
                assert node._hash is None or node._hash == dataclass_hash(node)
                assert node._text is None or node._text == to_string(node)
        # every atom's sort key reads its argument's text
        for m_ in s._nf or ():
            for bk, _ in m_:
                if bk[0] == "f":
                    assert ex._base_sort_key(bk)[2] == to_string(bk[2])

    @given(smooth_exprs(), smooth_exprs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_equality_and_hash_are_the_dataclass_ones(self, a, b):
        c = rebuilt(a)
        assert hash(a) == hash(c) == dataclass_hash(a)
        assert a == c and not (a != c)
        assert (a == b) == dataclass_eq(a, b) and (a != b) == (not dataclass_eq(a, b))
        assert (a == b) == (b == a)
        assert a != to_string(a) and not (a == 0)


def _is_lazy(e):
    """Whether e is a canonical sum whose fields are not built yet."""
    return type(e) is Binary and "op" not in vars(e)


def _reads_like_eager(make):
    """make() returns a canonical tree.  Each read of a fresh result, made
    first, gives what the eagerly built tree _nf_to_expr(nf) gives, and
    node_count leaves a lazy result unbuilt."""
    e = make()
    if isinstance(e, tuple) or e._nf is None:  # an ExprError, or a constant
        return
    eager = ex._nf_to_expr(e._nf)
    fresh = parse(to_string(eager), 2)  # no node carries an NF: node_count walks it
    lazy = len(e._nf) > 1
    assert _is_lazy(e) == lazy
    assert ex.node_count(e) == ex.node_count(fresh)
    assert _is_lazy(e) == lazy  # node_count built nothing
    assert hash(make()) == hash(eager)
    assert to_string(make()) == to_string(eager)
    assert repr(make()) == repr(eager)
    t = make()
    assert t == eager and eager == t and not (t != eager)
    assert e == fresh and ex._fields(e) == ex._fields(eager)


class TestLazyCanonicalTrees:
    """A canonical sum is built from its NF on the first read of its fields,
    and reads the same as the eagerly built tree."""

    SIGMA = [Binary("mul", Const(Fraction(-2, 3)), Var(2)), parse("3/2*x - x^2", 2)]

    def check_all(self, e):
        s = _simplified(e)
        _reads_like_eager(lambda: simplify(e))
        for var in (1, 2):
            _reads_like_eager(lambda: _outcome(differentiate, s, var))
        _reads_like_eager(lambda: _outcome(compose, s, self.SIGMA))
        _reads_like_eager(lambda: _outcome(ex.derivative_along, s, self.SIGMA))

    @pytest.mark.parametrize("text", [
        "-x^2*y + 1/2*x - 3/4",  # a leading -1 and Fraction coefficients
        "-x*y^3 - x + y^2",
        "x^3 - 5/3*x*sin(x - y)^2 + exp(-y)*y",  # pow factors and atoms
        "-sin(x + 1)*cos(y)^2 + 2*exp(x*y - 1) - 1",
    ])
    def test_fixed_cases(self, text):
        self.check_all(p2(text))

    @given(st.one_of(poly_exprs(), atom_exprs()))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_reads_match_the_eager_tree(self, e):
        self.check_all(e)


class TestLongTrees:
    N = 3000  # three times the default recursion limit

    def chain(self, bump=0):
        return simplify(parse(" + ".join(f"{k + bump * (k == 7)}*x^{k}" for k in range(1, self.N + 1)), 1))

    def test_equality_and_hash(self):
        s = self.chain()
        t = parse(to_string(s), 1)  # a fresh tree of the same shape
        assert s == t and not (s != t) and hash(s) == hash(t)
        u = self.chain(bump=1)
        assert s != u and not (s == u)

    def test_evaluate(self):
        s = self.chain()
        n = self.N
        assert evaluate(s, (1.0,)) == n * (n + 1) / 2
        assert evaluate(s, (-1.0,)) == n / 2  # -1 + 2 - 3 + ... + n, n even
        assert evaluate_exact(s, (1,)) == n * (n + 1) // 2
        assert evaluate_exact(s, (Fraction(-1),)) == n // 2

    def test_errors_name_the_first_failing_subtree(self):
        # evaluation keeps the recursive walk's order: left operand first,
        # and an exact evaluation rejects a function before its argument
        with pytest.raises(EvaluationError, match="log"):
            evaluate(p2("log(x) + 1/y"), (-1.0, 0.0))
        with pytest.raises(EvaluationError, match="division"):
            evaluate(p2("1/y + log(x)"), (-1.0, 0.0))
        with pytest.raises(ExprError, match="sin has no exact"):
            evaluate_exact(p1("sin(1/x)"), (0,))
        with pytest.raises(EvaluationError, match="division"):
            evaluate_exact(p1("1/x + sin(x)"), (0,))
