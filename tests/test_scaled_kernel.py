"""The compiled scaled kernel against the tree walk `evaluate`.

`numeric.compile_scaled` replaces a per-point tree walk in every sampled
zero test, so it must fail exactly the rows where the walk raises
EvaluationError, and agree with it on the value and on the scale (the
largest |subterm|) to a few ulps: numpy's exp, log and fractional powers
are not always libm's.  On trees of + - * / and integer powers the two
agree bit for bit, since both take integer powers by `expr.int_power`.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symflow.expr import (
    Binary,
    Const,
    EvaluationError,
    Unary,
    Var,
    add,
    div,
    evaluate,
    identically_zero,
    mul,
    pow_,
    sampled_zero_verdict,
    sub,
)
from symflow.geometry import DomainBox
from symflow.numeric import compile_components, compile_scaled
from symflow.verdict import Status

# the kernel's value and scale may differ from the tree walk's by this many
# ulps of the scale; exp, log and powers nested a few deep stay near 10
ULPS = 32

_consts = st.fractions(min_value=-4, max_value=4, max_denominator=4).map(Const)
_vars = st.integers(min_value=1, max_value=2).map(Var)
_exponents = st.sampled_from(
    [-2, -1, 0, 1, 2, 3, 5, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2)]
)


def trees(max_leaves=12):
    """Trees over + - * /, integer and fractional powers and every unary
    function, in two variables."""
    return st.recursive(
        st.one_of(_consts, _vars),
        lambda children: st.one_of(
            st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), children, children),
            st.builds(lambda b, q: Binary("pow", b, Const(q)), children, _exponents),
            st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "exp", "log", "sqrt"]), children),
        ),
        max_leaves=max_leaves,
    )


# random points, and points on the axes where quotients, logs and negative
# powers fail
POINTS = np.vstack([
    np.random.default_rng(0).uniform(-3, 3, (40, 2)),
    [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-0.0, 2.0], [1.0, 1.0], [-1.0, -1.0]],
])


def scaled(e):
    """The kernel of e alone: (value, scale, ok) with value of shape (N,)."""
    kernel = compile_scaled([e])

    def run(Z):
        (value,), scale, ok = kernel(Z)
        return value, scale, ok

    return run


def subterms(e):
    """Every node the tree walk visits: not the exponent of a pow."""
    yield e
    if isinstance(e, Unary):
        yield from subterms(e.arg)
    elif isinstance(e, Binary):
        yield from subterms(e.left)
        if e.op != "pow":
            yield from subterms(e.right)


def walk(e, p):
    """(value, scale) by the tree walk, or None where it raises."""
    try:
        return evaluate(e, p), max(abs(evaluate(t, p)) for t in subterms(e))
    except EvaluationError:
        return None


def assert_matches_walk(e, points):
    value, scale, ok = scaled(e)(points.T)
    for i, p in enumerate(points):
        ref = walk(e, tuple(p))
        assert ok[i] == (ref is not None), (str(e), p)
        if ref is not None:
            tol = ULPS * math.ulp(ref[1])
            assert abs(value[i] - ref[0]) <= tol, (str(e), p)
            assert abs(scale[i] - ref[1]) <= tol, (str(e), p)


@given(trees())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_kernel_matches_tree_walk(e):
    assert_matches_walk(e, POINTS)


X, Y = Var(1), Var(2)


@pytest.mark.parametrize(
    "e",
    [
        add(div(Const(3), Const(4)), Const(1)),  # constant: the scale is 4
        div(Const(1), sub(Const(2), Const(2))),  # 1/(2-2): every row fails
        pow_(Const(0), -1),  # 0^-1: every row fails
        add(X, pow_(Const(0), -1)),
        pow_(X, -1),  # fails where x = 0 or -0
        Unary("exp", mul(Const(1000), X)),  # overflows for x > 0.71
        Unary("log", X),  # fails at 0, -0 and below
        Unary("sqrt", Y),
        pow_(Y, Fraction(-1, 2)),
        add(add(pow_(X, 2), pow_(X, 3)), add(pow_(Y, Fraction(1, 2)), pow_(Y, Fraction(3, 2)))),
    ],
    ids=str,
)
def test_fixed_cases(e):
    assert_matches_walk(e, POINTS)


def rational_trees(max_leaves=12):
    """Trees over + - * / and integer powers only, in two variables."""
    return st.recursive(
        st.one_of(_consts, _vars),
        lambda children: st.one_of(
            st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), children, children),
            st.builds(lambda b, k: Binary("pow", b, Const(k)), children, st.integers(-4, 7)),
        ),
        max_leaves=max_leaves,
    )


def assert_walks_bits(e, points):
    """The kernel's value is the tree walk's, bit for bit, on every row
    the walk can evaluate."""
    value, _, ok = scaled(e)(points.T)
    for i, p in enumerate(points):
        ref = walk(e, tuple(p))
        assert ok[i] == (ref is not None), (str(e), p)
        if ref is not None:
            assert value[i].tobytes() == np.float64(ref[0]).tobytes(), (str(e), p)


@pytest.mark.parametrize(
    "e",
    [
        pow_(X, 3),
        sub(add(pow_(X, 3), pow_(Y, 5)), mul(Const(3), mul(X, pow_(Y, 4)))),
        pow_(add(X, Y), 7),
        div(pow_(X, -3), pow_(Y, 2)),
        pow_(sub(X, Y), -5),
        add(pow_(X, 0), pow_(div(X, Y), 6)),
    ],
    ids=str,
)
def test_rational_cases_give_the_tree_walks_bits(e):
    assert_walks_bits(e, POINTS)


@given(rational_trees())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_rational_trees_give_the_tree_walks_bits(e):
    assert_walks_bits(e, POINTS)


@pytest.mark.parametrize("e, x", [(pow_(X, 3), 1e200), (pow_(X, -2), 1e-200)], ids=str)
def test_power_overflow_fails_the_row(e, x):
    # the chain gives inf without raising, and a negative power whose chain
    # underflows to 0 divides by zero: the walk raises, the kernel masks
    with pytest.raises(EvaluationError, match="pow overflow"):
        evaluate(e, (x, 1.0))
    _, _, ok = scaled(e)(np.array([[x, 2.0], [1.0, 1.0]]))
    assert ok.tolist() == [False, True]


def test_constant_scale_and_value():
    value, scale, ok = scaled(add(div(Const(3), Const(4)), Const(1)))(POINTS.T)
    assert ok.all() and (value == 1.75).all() and (scale == 4.0).all()


def test_a_sequence_compiles_to_one_kernel_with_one_scale():
    # a map's components: one value row each, one scale over all subterms
    exprs = [add(Unary("sin", X), Y), mul(X, Const(3)), Const(2), Unary("log", Y)]
    value, scale, ok = compile_scaled(exprs)(POINTS.T)
    singles = [scaled(e)(POINTS.T) for e in exprs]
    assert value.shape == (len(exprs), len(POINTS))
    for row, (v, _, _) in zip(value, singles):
        np.testing.assert_array_equal(row, v)
    np.testing.assert_array_equal(scale, np.max([s for _, s, _ in singles], axis=0))
    np.testing.assert_array_equal(ok, np.all([k for _, _, k in singles], axis=0))


def test_constant_zero_divisor_raises_nothing():
    e = div(Const(1), sub(Const(2), Const(2)))
    value, scale, ok = scaled(e)(POINTS.T)
    assert not ok.any()
    (col,) = compile_components([add(X, e)])(POINTS.T)
    assert np.isinf(col).all()
    v = sampled_zero_verdict(e, DomainBox.cube(-1, 1, 2), trials=20)
    assert v.status is Status.INCONCLUSIVE and "all 20" in v.notes


def test_variable_beyond_the_box_fails_every_row():
    e = add(X, Var(3))
    with pytest.raises(EvaluationError):
        evaluate(e, (0.5, 0.5))
    _, _, ok = scaled(e)(POINTS.T)
    assert not ok.any()
    box = DomainBox.cube(-1, 1, 2)
    assert sampled_zero_verdict(Unary("sin", e), box, trials=30).status is Status.INCONCLUSIVE
    # a polynomial that no sample can evaluate still fails with certainty
    assert identically_zero(e, box, trials=30).status is Status.FAILS


def test_errors_are_counted_per_row():
    # 1/x fails on exactly the rows with x = 0
    pts = np.array([[0.0, 1.0], [1.0, 1.0], [-0.0, 2.0], [2.0, 0.0]])
    value, _, ok = scaled(div(Const(1), X))(pts.T)
    assert ok.tolist() == [False, True, False, True]
    assert value[1] == 1.0 and value[3] == 0.5


def test_shared_subtrees_are_emitted_once():
    # s is one object used twice; t is an equal but distinct tree
    s = Unary("sin", mul(X, Y))
    t = Unary("sin", mul(X, Y))
    e = add(add(mul(s, s), t), Unary("cos", mul(X, Y)))
    src = compile_components([e]).source
    assert src.count("_np.sin(") == 1 and src.count("_np.cos(") == 1
    assert src.count(" = Z[0]") == 1 and src.count(" = Z[1]") == 1
    # x, y, x*y, sin, sin^2, +, cos are temporaries; the last + goes to out
    assert len(re.findall(r"^    t\d+ = ", src, re.M)) == 7
    assert src.count("_np.add(t5, t6, out=out[0, ...])") == 1
    assert_matches_walk(e, POINTS)


def test_long_batches_run_in_blocks_with_the_same_rows():
    e = add(Unary("log", X), div(Unary("exp", Y), X))
    pts = np.random.default_rng(1).uniform(-3, 3, (2500, 2))
    pts[::97, 0] = 0.0
    whole = scaled(e)(pts.T)
    parts = [scaled(e)(pts[i : i + 100].T) for i in range(0, 2500, 100)]
    for got, want in zip(whole, (np.concatenate(p) for p in zip(*parts))):
        np.testing.assert_array_equal(got, want)


def test_witnesses_are_the_largest_residuals_in_sample_order():
    box = DomainBox.cube(-2, 2, 2)
    # sin, sqrt and + - * / give the tree walk's bits, so the order is exact
    e = add(mul(Unary("sin", X), Y), Unary("sqrt", add(mul(X, X), Const(1))))
    v = sampled_zero_verdict(e, box, trials=50, rng=np.random.default_rng(3))
    pts = box.sample(np.random.default_rng(3), 50)
    ranked = sorted(((tuple(p), abs(evaluate(e, p))) for p in pts), key=lambda w: -w[1])
    assert v.witnesses == tuple(ranked[:3])
    # equal residuals keep sample order
    flat = add(Const(1), mul(Const(0), Unary("sin", X)))
    v = sampled_zero_verdict(flat, box, trials=200, rng=np.random.default_rng(4))
    pts = box.sample(np.random.default_rng(4), 200)
    assert [w[0] for w in v.witnesses] == [tuple(p) for p in pts[:3]]


def test_deep_trees_compile_flat():
    # a left-deep sum 3000 terms deep: past the recursion limit of a tree
    # walk and the parser's limit of 200 nested parentheses
    e = X
    for k in range(3000):
        e = add(e, mul(Const(k % 7), Y))
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    want = pts[:, 0] + sum(k % 7 for k in range(3000)) * pts[:, 1]
    (col,) = compile_components([e])(pts.T)
    np.testing.assert_allclose(col, want, rtol=1e-12)
    value, _, ok = scaled(e)(pts.T)
    assert ok.all()
    np.testing.assert_array_equal(value, col)


def test_column_kernels_free_dead_temporaries():
    # every temporary is deleted once, right after its last use, so a large
    # batch holds only the live ones; the outputs live in out
    e = Unary("sin", add(mul(X, Y), pow_(Y, 2)))
    lines = compile_components([e, mul(X, Y)]).source.splitlines()
    assigned = [m.group(1) for m in (re.match(r"    (t\d+) = ", line) for line in lines) if m]
    deleted = {t.strip(): i for i, line in enumerate(lines) if line.startswith("    del ")
               for t in line[8:].split(",")}
    assert sorted(deleted) == sorted(assigned) and len(assigned) == 5  # x, y, x*y, y^2, +
    for t, at in deleted.items():
        used = [i for i, line in enumerate(lines) if re.search(rf"\b{t}\b", line) and not line.startswith("    del ")]
        assert at == max(used) + 1
    assert "_np.sin(t4, out=out[0, ...])" in lines[-3] and lines[-1] == "    return out"
    assert any("out=out[1, ...]" in line for line in lines)


@given(trees())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_tape_matches_the_rendered_kernel_bit_for_bit(e):
    # compile_scaled runs the emitter's tape; compile_components renders the
    # same tape as source: the same operations in the same order
    value, _, ok = scaled(e)(POINTS.T)
    if not ok.any() and np.isnan(value).all():
        return  # a non-finite constant: every row fails unevaluated
    with np.errstate(all="ignore"):
        (col,) = compile_components([e])(POINTS.T)
    col = np.broadcast_to(np.asarray(col, dtype=float), value.shape)
    assert (np.isfinite(value) == np.isfinite(col)).all()
    assert value.tobytes() == col.tobytes()


def test_sampled_zero_tests_generate_no_code(monkeypatch):
    import builtins

    def no_exec(*args, **kwargs):
        raise AssertionError("exec called")

    monkeypatch.setattr(builtins, "exec", no_exec)
    box = DomainBox.cube(-1, 1, 2)
    e = sub(Unary("sin", add(X, Y)), add(mul(Unary("sin", X), Unary("cos", Y)),
                                         mul(Unary("cos", X), Unary("sin", Y))))
    assert sampled_zero_verdict(e, box, trials=50).status is Status.HOLDS
    assert identically_zero(Unary("exp", X), box, trials=50).status is Status.FAILS
    with pytest.raises(AssertionError, match="exec"):
        compile_components([e])
