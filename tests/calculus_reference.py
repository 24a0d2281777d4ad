"""The tree-walking derivative and substitution that the normal-form
calculus (`expr.differentiate`, `expr.compose`, `expr.derivative_along`)
replaced, kept as a test-only reference: `_d` differentiates a tree node by
node and `_subst` replaces each variable by its map component, both without
simplifying.  `simplify` of their result is the reference canonical form."""

from typing import Sequence

from symflow.expr import (
    ONE,
    ZERO,
    Binary,
    Const,
    Expression,
    Unary,
    Var,
    _sum_chain,
    add,
    const,
    div,
    mul,
    neg,
    pow_,
    sub,
)


def _d(e: Expression, var: int) -> Expression:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == var else ZERO
    if isinstance(e, Unary):
        u, du = e.arg, _d(e.arg, var)
        if e.op == "neg":
            return neg(du)
        if e.op == "sin":
            return mul(Unary("cos", u), du)
        if e.op == "cos":
            return neg(mul(Unary("sin", u), du))
        if e.op == "exp":
            return mul(Unary("exp", u), du)
        if e.op == "log":
            return div(du, u)
        return div(du, mul(const(2), Unary("sqrt", u)))
    if e.op in ("add", "sub"):
        inner, chain = _sum_chain(e)
        out = _d(inner, var)
        for node in chain:
            out = Binary(node.op, out, _d(node.right, var))
        return out
    if e.op == "mul":
        return add(mul(_d(e.left, var), e.right), mul(e.left, _d(e.right, var)))
    if e.op == "div":
        num = sub(mul(_d(e.left, var), e.right), mul(e.left, _d(e.right, var)))
        return div(num, pow_(e.right, 2))
    q = e.right.value
    if q == 0:
        return ZERO
    return mul(mul(Const(q), Binary("pow", e.left, Const(q - 1))), _d(e.left, var))


def _subst(e: Expression, maps: Sequence[Expression]) -> Expression:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return maps[e.index - 1]
    if isinstance(e, Unary):
        return Unary(e.op, _subst(e.arg, maps))
    if e.op in ("add", "sub"):
        inner, chain = _sum_chain(e)
        out = _subst(inner, maps)
        for node in chain:
            out = Binary(node.op, out, _subst(node.right, maps))
        return out
    return Binary(e.op, _subst(e.left, maps), _subst(e.right, maps))

