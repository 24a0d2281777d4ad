"""Test-only references for the normal-form core, each a recursive tree
walk that the core replaced:

- `_d` differentiates a tree node by node and `_subst` replaces each
  variable by its map component, both without simplifying; `simplify` of
  their result is the reference canonical form of the normal-form calculus
  (`expr.differentiate`, `expr.compose`, `expr.derivative_along`);
- `_to_nf` is the normal form of a tree by recursion on its nodes (add and
  sub chains in a loop, `_sum_chain`), the reference for `expr._to_nf`,
  which folds over one explicit-stack walk;
- `_cofactor_det` is the determinant of a matrix of trees by cofactor
  expansion along the first row, recursing on each minor without sharing
  them; `simplify` of its result is the reference for
  `JacobianMatrix.det`, and its kernel over n^2 variables the reference
  for `fields.det_kernel`."""

from fractions import Fraction
from typing import Sequence

from symflow import expr as ex
from symflow.expr import (
    ONE,
    ZERO,
    Binary,
    Const,
    Expression,
    Unary,
    Var,
    _nf_const,
    _nf_func,
    _nf_iadd,
    _nf_invert,
    _nf_mul,
    _nf_pow,
    _nf_scale,
    add,
    const,
    div,
    mul,
    neg,
    pow_,
    sub,
)


def _sum_chain(e: Binary) -> tuple:
    """The left-deep add/sub chain that starts at e, as its innermost left
    operand and its nodes from the inside out, so that a long sum is walked
    in a loop.  Below e the chain stops at a tree that remembers its NF."""
    chain = [e]
    e = e.left
    while e._nf is None and isinstance(e, Binary) and e.op in ("add", "sub"):
        chain.append(e)
        e = e.left
    chain.reverse()
    return e, chain


def _to_nf(e: Expression) -> dict:
    if e._nf is not None:
        return e._nf
    if isinstance(e, Const):
        return _nf_const(e.value)
    if isinstance(e, Var):
        return {((("v", e.index), 1),): 1}
    if isinstance(e, Unary):
        if e.op == "neg":
            return _nf_scale(_to_nf(e.arg), -1)
        if e.op == "sqrt":
            return _nf_pow(_to_nf(e.arg), Fraction(1, 2))
        return _nf_func(e.op, _to_nf(e.arg))
    if e.op in ("add", "sub"):
        inner, chain = _sum_chain(e)
        out = dict(_to_nf(inner))
        for node in chain:
            right = _to_nf(node.right)
            _nf_iadd(out, right if node.op == "add" else _nf_scale(right, -1))
        return out
    if e.op == "mul":
        return _nf_mul(_to_nf(e.left), _to_nf(e.right))
    if e.op == "div":
        return _nf_mul(_to_nf(e.left), _nf_invert(_to_nf(e.right)))
    return _nf_pow(_to_nf(e.left), e.right.value)


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



def _cofactor_det(rows) -> Expression:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc: Expression
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = ex.mul(rows[0][j], _cofactor_det(minor))
        acc = term if j == 0 else ex.add(acc, term) if j % 2 == 0 else ex.sub(acc, term)
    return acc
