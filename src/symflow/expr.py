"""Symbolic expression trees with exact rational arithmetic.

An expression is an immutable tree of Const / Var / Unary / Binary nodes.
``simplify`` rewrites a tree into a canonical form: a sum of monomials over
"atoms" (variables and irreducible function applications), expanded,
collected, and ordered graded-lexicographically.  For polynomial expressions
the canonical form is a normal form, so two polynomials are identical iff
their simplified trees are equal.  Transcendental identities beyond local
rewrites (constant folding, sign orientation of sin/cos arguments) are out of
scope and are only ever decided probabilistically, by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Sequence, Union

import numpy as np

from .geometry import DomainBox
from .verdict import Certainty, Status, Verdict, threshold_verdict, top_witnesses

UNARY_OPS = ("neg", "sin", "cos", "exp", "log", "sqrt")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")

DEFAULT_TRIALS = 200
ZERO_TOL_REL = 1e-9  # identically_zero: tol = ZERO_TOL_REL * (1 + subterm scale)


class ExprError(Exception):
    """Malformed expression or unsupported symbolic operation."""


class EvaluationError(ExprError):
    """Numeric evaluation hit a domain violation (division by zero, log <= 0, ...)."""

    def __init__(self, message: str, subtree: "Expression"):
        super().__init__(f"{message}: {to_string(subtree)}")
        self.subtree = subtree


@dataclass(frozen=True)
class Const:
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Var:
    index: int  # 1-based

    def __post_init__(self):
        if self.index < 1:
            raise ExprError(f"variable index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Expression"

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ExprError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expression"
    right: "Expression"

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ExprError(f"unknown binary operator {self.op!r}")
        if self.op == "pow" and not isinstance(self.right, Const):
            raise ExprError("pow exponent must be a rational constant")

    def __getattr__(self, name):
        # only a lazy canonical sum (see _canonical) lacks its fields; it
        # builds them from its NF on the first read
        if name not in ("op", "left", "right") or self._nf is None:
            raise AttributeError(name)
        tree = _nf_to_expr(self._nf)
        for f in ("op", "left", "right"):
            object.__setattr__(self, f, getattr(tree, f))
        return getattr(tree, name)


Expression = Union[Const, Var, Unary, Binary]

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(value) -> Const:
    return Const(Fraction(value))


def add(a: Expression, b: Expression) -> Binary:
    return Binary("add", a, b)


def sub(a: Expression, b: Expression) -> Binary:
    return Binary("sub", a, b)


def mul(a: Expression, b: Expression) -> Binary:
    return Binary("mul", a, b)


def div(a: Expression, b: Expression) -> Binary:
    return Binary("div", a, b)


def pow_(a: Expression, exponent) -> Binary:
    return Binary("pow", a, Const(Fraction(exponent)))


def neg(a: Expression) -> Unary:
    return Unary("neg", a)


# ---------------------------------------------------------------------------
# tree utilities
#
# A canonical sum is a left-deep chain, one level per term, so the walks
# below keep their own stack instead of recursing.
# ---------------------------------------------------------------------------


def _walk(e: Expression, known):
    """e's nodes in postorder as (event, node) pairs, with an explicit stack.
    A raw node gives one event in `_nf_postorder`'s vocabulary, plus ("div",
    None) and ("f", op, arg) for sqrt too; a pow exponent is no node.  A node
    that remembers its (exact) NF gives its canonical tree's events off the
    NF, unbuilt, each atom's argument walked just before the atom.  known(n)
    is the caller's value for a node n, or None; n with a value v gives the
    one event ("ref", v), unwalked.  node is the node the event completes."""
    todo: list = [e]
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is tuple:  # (event, node), whose operands are walked
            yield x
        elif cls is list:  # [events, i]: a canonical tree's inner events from i on
            events, i = x
            for i in range(i, len(events)):
                ev = events[i]
                if ev[0] == "f":
                    v = known(ev[2])
                    if v is None:  # walk the argument, then go on
                        todo += [events, i + 1], (ev, None), ev[2]
                        break
                    yield ("ref", v), ev[2]
                yield ev, None
        else:
            v = known(x)
            if v is not None:
                yield ("ref", v), x
            elif x._nf is not None:
                events = list(_nf_postorder(x._nf))
                ev = events.pop()  # the event that completes x
                todo += ((ev, x), ev[2]) if ev[0] == "f" else ((ev, x),)
                todo.append([events, 0])
            elif cls is Const:
                yield ("const", x.value), x
            elif cls is Var:
                yield ("v", x.index), x
            elif cls is Unary:
                todo += (("neg", None) if x.op == "neg" else ("f", x.op, x.arg), x), x.arg
            elif x.op == "pow":
                todo += (("pow", x.right.value), x), x.left
            else:
                todo += ((x.op, None), x), x.right, x.left


def node_count(e: Expression) -> int:
    count = 0
    stack = [e]
    while stack:
        e = stack.pop()
        nf = e._nf
        if nf is not None:
            # the tree is _nf_to_expr(nf), so count its shape off the NF and
            # leave a lazy tree unbuilt: an add/sub node between terms; per
            # term of k factors, the factors (a pow adds 2, an atom its
            # argument) and k - 1 mul nodes, 2 more for a constant factor
            # (|c| != 1) and 1 more for the neg of a leading -1
            lead = min(nf, key=_term_key(nf)) if -1 in nf.values() else None
            count += len(nf) - 1
            for m, c in nf.items():
                if not m:
                    count += 1
                    continue
                count += 2 * len(m) - 1 + 2 * (abs(c) != 1) + (c == -1 and m == lead)
                for bk, p in m:
                    count += 2 * (p != 1)
                    if bk[0] == "f":
                        stack.append(bk[2])
            continue
        count += 1
        if isinstance(e, Unary):
            stack.append(e.arg)
        elif isinstance(e, Binary):
            stack.append(e.left)
            stack.append(e.right)
    return count


def max_var_index(e: Expression) -> int:
    top = 0
    stack = [e]
    args: set = set()  # the atom arguments already pushed, by id
    while stack:
        e = stack.pop()
        if e._nf is not None:
            # variables sort first, so a monomial's last variable factor
            # holds its largest index; the atoms after it hold their own
            for m in e._nf:
                for bk, _ in reversed(m):
                    if bk[0] == "v":
                        top = max(top, bk[1])
                        break
                    if id(bk[2]) not in args:
                        args.add(id(bk[2]))
                        stack.append(bk[2])
        elif isinstance(e, Var):
            top = max(top, e.index)
        elif isinstance(e, Unary):
            stack.append(e.arg)
        elif isinstance(e, Binary):
            stack.append(e.left)
            stack.append(e.right)
    return top


def is_polynomial(e: Expression) -> bool:
    """True iff e is syntactically a polynomial with rational coefficients.

    Division is allowed only by nonzero constants, pow only with nonnegative
    integer exponents.  This is the fragment where canonical forms decide
    identities with certainty.
    """
    stack = [e]
    while stack:
        e = stack.pop()
        if e._nf is not None:
            # a canonical tree prints its exponents as pow nodes; an atom is
            # no polynomial
            if not all(bk[0] == "v" and type(p) is int and p > 0 for m in e._nf for bk, p in m):
                return False
        elif isinstance(e, Unary):
            if e.op != "neg":
                return False
            stack.append(e.arg)
        elif isinstance(e, Binary):
            if e.op in ("add", "sub", "mul"):
                stack.append(e.right)
            elif e.op == "div":
                if not (isinstance(e.right, Const) and e.right.value != 0):
                    return False
            elif e.op == "pow":
                q = e.right.value
                if q.denominator != 1 or q < 0:
                    return False
            else:
                return False
            stack.append(e.left)
    return True


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 25
_PREC_POW = 40
_PREC_ATOM = 100


def _const_text(v) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _const_part(v) -> tuple:
    """(text, precedence) of the rational constant v, an int or a Fraction."""
    return _const_text(v), _PREC_NEG if v < 0 else (_PREC_MUL if v.denominator != 1 else _PREC_ATOM)


def _wrap(part: tuple, context_prec: int) -> str:
    text, prec = part
    if prec < context_prec:
        return f"({text})"
    return text


_INFIX = {"add": (" + ", _PREC_ADD), "sub": (" - ", _PREC_ADD), "mul": ("*", _PREC_MUL), "div": ("/", _PREC_MUL)}


def _apply(op: str, q, parts: list) -> tuple:
    """(text, precedence) of op over its operands' (text, precedence),
    popped off the end of parts; q is a pow's exponent or an f's name."""
    if op in _INFIX:
        right = parts.pop()
        left = parts.pop()
        sep, prec = _INFIX[op]
        return f"{_wrap(left, prec)}{sep}{_wrap(right, prec + 1)}", prec
    arg = parts.pop()
    if op == "pow":
        # base needs parens unless it is a plain positive-integer Const, Var
        # or function call; exponent gets parens unless a nonnegative integer
        base = _wrap(arg, _PREC_ATOM)
        if q.denominator == 1 and q >= 0:
            return f"{base}^{q.numerator}", _PREC_POW
        return f"{base}^({_const_text(q)})", _PREC_POW
    if op == "neg":
        return "-" + _wrap(arg, _PREC_NEG + 1), _PREC_NEG
    return f"{q}({arg[0]})", _PREC_ATOM


def _prec(e: Expression) -> int:
    """The precedence of e's text; a lazy tree is a sum, and stays unbuilt."""
    if e._nf is not None and len(e._nf) > 1:
        return _PREC_ADD
    if e.__class__ is Binary:
        return _INFIX[e.op][1] if e.op in _INFIX else _PREC_POW
    if e.__class__ is Unary:
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    return _const_part(e.value)[1] if e.__class__ is Const else _PREC_ATOM


def to_string(e: Expression) -> str:
    """Deterministic infix rendering; parses back to the same tree.  A node
    with an NF is printed off its NF, and a node with a kept text by it."""
    parts: list = []
    for ev, node in _walk(e, _TEXT):
        op, x = ev[0], ev[1]
        if op == "const":
            parts.append(_const_part(x))
        elif op == "v":
            parts.append((f"z{x}" if x > 3 else "xyz"[x - 1], _PREC_ATOM))
        elif op == "ref":
            parts.append((x, _prec(node)))
        else:
            parts.append(_apply(op, x, parts))
    return parts[0][0]


def _fields(e: Expression) -> tuple:
    if isinstance(e, Binary):
        return (e.op, e.left, e.right)
    if isinstance(e, Unary):
        return (e.op, e.arg)
    return (e.value,) if isinstance(e, Const) else (e.index,)


class _Hashed(int):
    """A node's hash h in a tuple of fields: an int that hashes to h."""

    __hash__ = int.__int__


def _tree_hash(e: Expression) -> int:
    """The dataclass hash, hash of the tuple of fields, kept on each node of
    one walk that neither recurses nor builds a lazy tree."""
    if e._hash is None:
        hashes: list = []
        for ev, node in _walk(e, _HASH):
            op, x = ev[0], ev[1]
            if op == "const" or op == "v":
                h = hash((x,))
            elif op == "ref":
                h = x
            elif op == "f" or op == "neg":
                h = hash((x if op == "f" else op, _Hashed(hashes.pop())))
            else:  # a pow's exponent is a Const node
                right = _Hashed(hash((x,)) if op == "pow" else hashes.pop())
                h = hash((op, _Hashed(hashes.pop()), right))
            if node is not None:
                object.__setattr__(node, "_hash", h)
            hashes.append(h)
    return e._hash


def _tree_eq(a: Expression, b) -> bool:
    """The dataclass equality (same classes and equal fields, compared
    left to right), walked with an explicit stack."""
    if a.__class__ is not b.__class__:
        return NotImplemented
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.__class__ is not y.__class__:
            return False
        if x._hash is not None and y._hash is not None and x._hash != y._hash:
            return False
        fx, fy = _fields(x), _fields(y)
        if fx[0] != fy[0]:
            return False
        stack += reversed(tuple(zip(fx[1:], fy[1:])))
    return True


for _cls in (Const, Var, Unary, Binary):
    _cls.__str__ = to_string
    _cls.__eq__ = _tree_eq
    _cls.__hash__ = _tree_hash
    # caches set once on the frozen node: the normal form a canonical tree
    # remembers (see below), the hash, and the text of an atom argument.
    # Class attributes, not dataclass fields, so equality, hashing and
    # printing never see them
    _cls._nf = None
    _cls._hash = None
    _cls._text = None

_NF, _HASH, _TEXT = attrgetter("_nf"), attrgetter("_hash"), attrgetter("_text")


# ---------------------------------------------------------------------------
# canonical form
#
# A normal form (NF) maps monomials to nonzero rational coefficients, each
# an int or a Fraction (so integer polynomials compute in ints).  A
# monomial is a tuple of (base key, exponent) factors sorted by base key,
# with nonzero rational exponents: an int for an integral power, a Fraction
# only for a fractional one.  Base keys:
#   ("v", i)            variable i
#   ("f", name, expr)   an atom: sin/cos/exp/log applied to a canonical
#                       argument (a sin/cos argument's leading coefficient
#                       is positive)
#   ("e", expr)         composite base kept opaque under a non-integer or
#                       negative power (no sound expansion exists)
# Variable keys sort first, so a monomial is over variables iff its last
# factor is.  An atom's sort key reads its argument's text, which is
# rendered once and kept on the argument (`_text`).
#
# A tree that simplify (or a dict-level operation) returns for an exact NF
# remembers that NF in its `_nf` attribute, set once on the frozen node, and
# `_to_nf` returns it without walking the tree.  An NF is exact when every
# base is a variable, or an atom whose argument is a constant or itself
# remembers its NF; then, by induction on the depth of atoms, the round trip
# is exact: `_to_nf(_nf_to_expr(nf)) == nf`.  With an opaque base, at any
# depth, it is not: sqrt(u)*sqrt(u) gives ("e", u)^1, printed as u, which
# re-simplifies to the expansion of u.  Const trees (ZERO and ONE are
# shared) never carry an NF.  NF dicts are shared through these caches, so
# no NF is mutated once built.
#
# The tree of an exact NF of two or more terms is built on first read:
# `_canonical` returns a Binary that holds only the NF, and
# `Binary.__getattr__` builds its op, left and right with `_nf_to_expr` when
# one is first read.  `is_polynomial`, `max_var_index` and `node_count` read
# the NF instead.  `_to_nf`, `to_string`, `_tree_hash` and the kernel
# emitter (`numeric._Emitter`) fold over one walk, `_walk`, which reads a
# canonical tree's nodes off its NF with `_nf_postorder`, the one place that
# shapes a canonical tree.  So neither a check that decides on NFs (a tower
# order, a sigma-image, a residual that cancels), nor a sampled check, nor
# a dict keyed on an atom builds the tree; equality and reads of its fields
# (the tree-walking evaluators among them) build it and see the same tree
# as ever.  A walk with an NF shortcut tests `_nf` before any field.
#
# differentiate, compose and derivative_along have one path: they work on
# the dict `_to_nf(e)` of any input, so their result depends only on that
# NF, never on how the input tree was written.  A derivative takes the
# product rule over a monomial's factors: a variable lowers its exponent,
# an atom gives d sin u = cos u du, d cos u = -sin u du, d exp u = exp u du
# and d log u = du u^-1, and an opaque base's power p gives
# p ("e", u)^(p-1) du, each du from the NF of the argument's tree.  A
# composition multiplies cached powers of the bases' images: a variable's
# image is its map component, an atom's is `_nf_func(name, image of its
# argument)`, which orients a sin/cos argument as simplify does, and an
# opaque base's is the image of the NF of its tree, raised by `_nf_pow`.
# Both make the derivative or image of every base under a nested atom or
# opaque base innermost first, over an explicit stack (`_bottom_up`), so a
# deep nest meets no recursion limit.
# ---------------------------------------------------------------------------

_FUNC_RANK = {"sin": 0, "cos": 1, "exp": 2, "log": 3}


def _text(e: Expression) -> str:
    """to_string(e), rendered once and kept on the node."""
    if e._text is None:
        object.__setattr__(e, "_text", to_string(e))
    return e._text


def _base_sort_key(bk) -> tuple:
    if bk[0] == "v":
        return (0, bk[1], "")
    if bk[0] == "f":
        return (1, _FUNC_RANK[bk[1]], _text(bk[2]))
    return (2, 0, _text(bk[1]))


def _is_exact(nf: dict) -> bool:
    """Whether the round trip of nf through its tree is exact: every base a
    variable, or an atom over a constant or over a tree remembering its NF."""
    for m in nf:
        if m and m[-1][0][0] != "v":
            for bk, _ in m:
                if bk[0] == "e" or (bk[0] == "f" and bk[2]._nf is None and not isinstance(bk[2], Const)):
                    return False
    return True


def _term_key(nf: dict):
    """Sort key that puts the terms of nf in graded-lex order, larger
    monomial first: the negated degree, then the negated exponents over the
    bases of nf in base order (an absent base has exponent 0)."""
    bases = sorted({bk for m in nf for bk, _ in m}, key=_base_sort_key)
    slot = {bk: k for k, bk in enumerate(bases, start=1)}

    def key(m):
        v = [0] * (len(slot) + 1)
        for bk, p in m:
            v[slot[bk]] = -p
        v[0] = -sum(p for _, p in m)
        return v

    return key


_MONO_ONE = ()


def _nf_const(c) -> dict:
    if c == 0:
        return {}
    return {_MONO_ONE: c.numerator if c.denominator == 1 else c}


def _nf_iadd(out: dict, b: dict) -> dict:
    """out += b, in place; out must be a dict this caller built."""
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _nf_scale(a: dict, c) -> dict:
    if c == 0:
        return {}
    return {m: k * c for m, k in a.items()}


def _mono_mul(m1, m2):
    factors = dict(m1)
    for bk, e in m2:
        s = factors.get(bk, 0) + e
        if s == 0:
            factors.pop(bk, None)
        else:
            factors[bk] = s if type(s) is int or s.denominator != 1 else s.numerator
    if (not m1 or m1[-1][0][0] == "v") and (not m2 or m2[-1][0][0] == "v"):
        return tuple(sorted(factors.items()))
    return tuple(sorted(factors.items(), key=lambda f: _base_sort_key(f[0])))


def _nf_addmul(out: dict, a: dict, b: dict) -> dict:
    """out += a * b, in place; out must be a dict this caller built."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _nf_mul(a: dict, b: dict) -> dict:
    return _nf_addmul({}, a, b)


def _nf_is_constant(a: dict) -> bool:
    return len(a) == 0 or (len(a) == 1 and _MONO_ONE in a)


def _nf_leading_negative(a: dict) -> bool:
    if not a:
        return False
    return a[min(a, key=_term_key(a))] < 0


def _int_nth_root(n: int, r: int):
    if n < 0:
        return None
    if n in (0, 1):
        return n
    x = round(n ** (1.0 / r))
    for cand in (x - 1, x, x + 1):
        if cand >= 0 and cand**r == n:
            return cand
    return None


def _rational_root(c: Fraction, q: Fraction):
    """c**q as an exact Fraction, or None when no exact value exists."""
    p, r = q.numerator, q.denominator
    if c == 0:
        return Fraction(0) if p > 0 else None
    sign = 1
    if c < 0:
        if r % 2 == 0:
            return None
        sign = -1
        c = -c
    rn = _int_nth_root(c.numerator, r)
    rd = _int_nth_root(c.denominator, r)
    if rn is None or rd is None:
        return None
    root = Fraction(sign * rn, rd)
    return root**p


def _nf_invert(a: dict) -> dict:
    if not a:
        raise ExprError("division by an expression that simplifies to zero")
    if _nf_is_constant(a):
        return _nf_const(1 / Fraction(a[_MONO_ONE]))
    if len(a) == 1:
        ((m, c),) = a.items()
        inv = tuple(
            sorted(((bk, -e) for bk, e in m), key=lambda f: _base_sort_key(f[0]))
        )
        return {inv: 1 / Fraction(c)}
    return {((("e", _nf_to_expr(a)), -1),): 1}


def _nf_pow(a: dict, q) -> dict:
    """a**q for a rational exponent q (a Fraction or an int)."""
    if q == 0:
        return _nf_const(1)  # u^0 -> 1 (a.e. convention)
    if _nf_is_constant(a):
        c = Fraction(a.get(_MONO_ONE, 0))
        if q.denominator == 1:
            k = int(q)
            if c == 0 and k < 0:
                raise ExprError("zero raised to a negative power")
            return _nf_const(c**k)
        root = _rational_root(c, q)
        if root is not None:
            return _nf_const(root)
        return {((("e", _nf_to_expr(a)), q),): 1}
    if q.denominator == 1:
        k = int(q)
        if k < 0:
            return _nf_pow(_nf_invert(a), -k)
        out = _nf_const(1)
        base = a
        while k:
            if k & 1:
                out = _nf_mul(out, base)
            k >>= 1
            if k:
                base = _nf_mul(base, base)
        return out
    # fractional exponent: only u^q with a bare base is kept open; exponents
    # merge only under integer outer powers (sound a.e.), so (x^2)^(1/2)
    # stays opaque rather than collapsing to x
    if len(a) == 1:
        ((m, c),) = a.items()
        if c == 1 and len(m) == 1 and m[0][1] == 1:
            return {((m[0][0], q),): 1}
    return {((("e", _nf_to_expr(a)), q),): 1}


def _nf_func(name: str, arg: dict) -> dict:
    if name == "sin" and not arg:
        return {}
    if name in ("cos", "exp") and not arg:
        return _nf_const(1)
    if name == "log" and arg == _nf_const(1):
        return {}
    if name in ("sin", "cos") and _nf_leading_negative(arg):
        inner = _nf_func(name, _nf_scale(arg, -1))
        return _nf_scale(inner, -1) if name == "sin" else inner
    atom = ("f", name, _canonical(arg))
    return {((atom, 1),): 1}


def _to_nf(e: Expression) -> dict:
    """The NF of e, folded over a walk that stops at each tree remembering its
    NF; a sum adds in place only into the sum this fold built last."""
    if e._nf is not None:
        return e._nf
    nfs: list = []
    own = None  # the sum this fold built last, which it adds into in place
    for ev, node in _walk(e, _NF):
        op, x = ev[0], ev[1]
        if op == "const":
            nf = _nf_const(x)
        elif op == "v":
            nf = {((ev, 1),): 1}
        elif op == "ref":
            nf = x
        elif op == "f":
            nf = _nf_pow(nfs.pop(), Fraction(1, 2)) if x == "sqrt" else _nf_func(x, nfs.pop())
        elif op == "neg":
            nf = _nf_scale(nfs.pop(), -1)
        elif op == "pow":
            nf = _nf_pow(nfs.pop(), x)
        else:
            right, nf = nfs.pop(), nfs.pop()
            if op == "mul":
                nf = _nf_mul(nf, right)
            elif op == "div":
                nf = _nf_mul(nf, _nf_invert(right))
            else:
                nf = own = _nf_iadd(nf if nf is own else dict(nf), right if op == "add" else _nf_scale(right, -1))
        nfs.append(nf)
    return nfs[0]


def _nf_postorder(nf: dict):
    """The nodes of the canonical tree of a nonempty nf in postorder, read
    off nf without building them, as (op, x) pairs:
      ("const", c)                      the constant c
      ("v", i), ("f", name, u), ("e", u)  a base, by its key
      ("pow", p)                        the node before, to the power p
      ("neg", None)                     the negation of the node before
      ("add" | "sub" | "mul", None)     the two nodes before, in order
    The tree is a left fold of add/sub over the terms in `_term_key` order,
    each term after the first taken with |c|.  A term is its coefficient c
    and then a left fold of mul over its factors, with no coefficient node
    when c is 1 and the neg of the product when c is -1; a factor is its
    base, under a pow when its exponent is not 1."""
    for k, m in enumerate(sorted(nf, key=_term_key(nf))):
        c = nf[m] if k == 0 else abs(nf[m])
        scaled = not m or (c != 1 and c != -1)
        if scaled:
            yield ("const", c)
        for j, (bk, p) in enumerate(m):
            yield bk
            if p != 1:
                yield ("pow", p)
            if j or scaled:
                yield ("mul", None)
        if m and c == -1:
            yield ("neg", None)
        if k:
            yield ("sub", None) if nf[m] < 0 else ("add", None)


def _nf_to_expr(nf: dict) -> Expression:
    if not nf:
        return ZERO
    stack: list = []
    for node in _nf_postorder(nf):
        op, x = node[0], node[1]
        if op == "const":
            stack.append(Const(x))
        elif op == "v":
            stack.append(Var(x))
        elif op == "f":
            stack.append(Unary(x, node[2]))
        elif op == "e":
            stack.append(x)
        elif op == "pow":
            stack.append(Binary("pow", stack.pop(), Const(x)))
        elif op == "neg":
            stack.append(Unary("neg", stack.pop()))
        else:
            right = stack.pop()
            stack.append(Binary(op, stack.pop(), right))
    return stack[0]


def _canonical(nf: dict) -> Expression:
    """The canonical tree of nf, remembering nf when nf is exact; an exact
    sum of terms is a lazy tree, built on the first read of its fields."""
    if not _is_exact(nf):
        return _nf_to_expr(nf)
    tree = object.__new__(Binary) if len(nf) > 1 else _nf_to_expr(nf)
    if not isinstance(tree, Const):
        object.__setattr__(tree, "_nf", nf)
    return tree


def simplify(e: Expression) -> Expression:
    """Canonical form: expanded, collected, graded-lex ordered.  Idempotent."""
    if e._nf is not None:
        return e  # built from its NF, so already canonical
    return _canonical(_to_nf(e))


def is_zero(e: Expression) -> bool:
    return isinstance(e, Const) and e.value == 0


def polynomial_terms(e: Expression):
    """The terms of a polynomial e as {(a_1, ..., a_n): coefficient}, the key
    standing for z1^a_1 * ... * zn^a_n with n = max_var_index(e); None when
    e is not a polynomial."""
    if not is_polynomial(e):
        return None
    n = max_var_index(e)
    out = {}
    for m, c in _to_nf(e).items():
        exps = [0] * n
        for (_, i), p in m:
            exps[i - 1] = p
        out[tuple(exps)] = Fraction(c)
    return out


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def _bottom_up(todo: list, done: dict, make) -> None:
    """Set done[bk] = make(bk, NF of bk's tree) for every base bk in todo
    and every base under it, through atoms' arguments and opaque bases'
    trees, innermost first, with an explicit stack: a base is made once
    every base under it that is not a variable is in done, so make never
    meets a base that is not made yet."""
    args: dict = {}  # base -> the NF of its argument, or of its opaque tree
    while todo:
        bk = todo[-1]
        if bk in done:
            todo.pop()
            continue
        inner = args.get(bk)
        if inner is None:
            inner = args[bk] = _to_nf(bk[1] if bk[0] == "e" else bk[2])
            missing = [b for m in inner for b, _ in m if b[0] != "v" and b not in done]
            if missing:
                todo += missing
                continue
        todo.pop()
        done[bk] = make(bk, inner)


def _base_diff(bk, u_nf: dict, du: dict) -> dict:
    """d/dz of a base bk that is not a variable, from the NF u_nf under it
    and that NF's derivative du: du for an opaque base ("e", u), and the
    chain rule for an atom ("f", name, u)."""
    if bk[0] == "e":
        return du
    _, name, u = bk
    if name == "log":
        # inverted even where du = 0, so that log(0) raises as du/u does
        outer = _nf_invert(u_nf)
    if not du:
        return {}
    if name == "sin":
        outer = {((("f", "cos", u), 1),): 1}
    elif name == "cos":
        outer = {((("f", "sin", u), 1),): -1}
    elif name == "exp":
        outer = {((bk, 1),): 1}
    return _nf_mul(outer, du)


def _nf_diff(nf: dict, var: int, bases: dict = None) -> dict:
    """d/dz_var of an NF, by the product rule over each monomial's factors:
    z_var lowers its exponent by one, and any other base's power p gives
    p base^(p-1) d(base).  bases holds the derivative of each base met so
    far; a base's is made with those of every base under it, innermost
    first (`_bottom_up`), so nested atoms do not recurse."""
    if bases is None:
        bases = {}
    out: dict = {}
    for m, c in nf.items():
        for k, (bk, p) in enumerate(m):
            if bk[0] == "v":
                if bk[1] != var:
                    continue
                d = None  # the factor's derivative is 1
            else:
                d = bases.get(bk)
                if d is None:
                    _bottom_up([bk], bases, lambda b, u: _base_diff(b, u, _nf_diff(u, var, bases)))
                    d = bases[bk]
                if not d:
                    continue
            q = p - 1
            rest = m[k + 1 :]
            lowered = m[:k] + (((bk, q),) + rest if q != 0 else rest)
            if d is None:
                s = out.get(lowered, 0) + c * p
                if s == 0:
                    del out[lowered]
                else:
                    out[lowered] = s
            else:
                _nf_addmul(out, {lowered: c * p}, d)
    return out


def differentiate(e: Expression, var: int) -> Expression:
    """Exact partial derivative with respect to variable `var` (1-based)."""
    if var < 1:
        raise ExprError(f"variable index must be >= 1, got {var}")
    return _canonical(_nf_diff(_to_nf(e), var))


def derivative_along(e: Expression, components: Sequence[Expression]) -> Expression:
    """sum_i (de/dz_i) * components[i-1], simplified: the derivative of e
    along the field with these components."""
    nf = _to_nf(e)
    out: dict = {}
    for i, c in enumerate(components, start=1):
        _nf_addmul(out, _nf_diff(nf, i), _to_nf(c))
    return _canonical(out)


def _nf_compose(nf: dict, maps: Sequence[Expression]) -> dict:
    """nf with maps[i-1] substituted for variable i.  A variable's image is
    the NF of its map component, an atom's image is its function of the
    image of its argument, and an opaque base's image is the image of the
    NF of its tree; the images of nested bases are made innermost first
    (`_bottom_up`), and the powers of each image are built once and shared
    between terms and between nested atoms."""
    powers: dict = {}
    images: dict = {}  # base that is not a variable -> its image

    def image(bk, u):
        return substitute(u) if bk[0] == "e" else _nf_func(bk[1], substitute(u))

    def power(bk, p):
        got = powers.get((bk, p))
        if got is None:
            if p == 1:  # the image itself
                if bk[0] == "v":
                    if bk[1] > len(maps):
                        raise ExprError(f"expression uses variable {bk[1]} but only {len(maps)} components given")
                    got = _to_nf(maps[bk[1] - 1])
                else:
                    _bottom_up([bk], images, image)
                    got = images[bk]
            elif type(p) is int and p > 1:
                k = p - 1  # a loop up from the highest power built: p deep recursion overflows
                while k > 1 and (bk, k) not in powers:
                    k -= 1
                got = power(bk, k)
                for j in range(k + 1, p + 1):
                    got = powers[(bk, j)] = _nf_mul(got, power(bk, 1))
            else:
                got = _nf_pow(power(bk, 1), p)
            powers[(bk, p)] = got
        return got

    def substitute(nf):
        out: dict = {}
        for m, c in nf.items():
            if not m:
                _nf_iadd(out, {m: c})
                continue
            prod = {_MONO_ONE: c}
            for bk, p in m[:-1]:
                prod = _nf_mul(prod, power(bk, p))
            bk, p = m[-1]
            _nf_addmul(out, prod, power(bk, p))
        return out

    return substitute(nf)


def compose(e: Expression, maps: Sequence[Expression]) -> Expression:
    """Substitute maps[i-1] for variable i throughout, then simplify."""
    return _canonical(_nf_compose(_to_nf(e), maps))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def const_float(c: Fraction) -> float:
    """The nearest double to c; a rational beyond the doubles is +-inf,
    which evaluation treats as a domain fault."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def _postorder(e: Expression, enter=None):
    """The nodes of e in the order a left-to-right recursive walk finishes
    them, with an explicit stack; a pow exponent is not visited.
    enter(node), if given, runs when the walk first reaches a node."""
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            yield node
            continue
        if enter is not None:
            enter(node)
        stack.append((node, True))
        if isinstance(node, Unary):
            stack.append((node.arg, False))
        elif isinstance(node, Binary):
            if node.op != "pow":
                stack.append((node.right, False))
            stack.append((node.left, False))


def int_power(x, k: int):
    """x**k for an integer k, on a float or elementwise on an array, by
    binary powering: a fixed chain of multiplications, each correctly
    rounded on every CPU and SIMD width, so a value gets the same bits alone
    or in a batch, on any host.  A negative k divides 1 by the chain; k == 0
    gives exactly 1, at nan and inf too."""
    if k < 0:
        return 1.0 / int_power(x, -k)
    if k < 2:
        return x if k else x ** 0
    y = int_power(x * x, k >> 1)
    return y * x if k & 1 else y


def _eval_node(e: Expression, vals: list, coords: Sequence[float]) -> float:
    """e's value from its operands' values, popped off the end of vals."""
    if isinstance(e, Const):
        v = const_float(e.value)
    elif isinstance(e, Var):
        if e.index > len(coords):
            raise EvaluationError(f"point has {len(coords)} coordinates", e)
        v = float(coords[e.index - 1])
    elif isinstance(e, Unary):
        u = vals.pop()
        if e.op == "neg":
            v = -u
        elif e.op == "sin":
            v = math.sin(u)
        elif e.op == "cos":
            v = math.cos(u)
        elif e.op == "exp":
            try:
                v = math.exp(u)
            except OverflowError:
                raise EvaluationError("exp overflow", e) from None
        elif e.op == "log":
            if u <= 0.0:
                raise EvaluationError("log of a non-positive value", e)
            v = math.log(u)
        else:
            if u < 0.0:
                raise EvaluationError("sqrt of a negative value", e)
            v = math.sqrt(u)
    elif e.op == "pow":
        a = vals.pop()
        q = e.right.value
        if a == 0.0 and q < 0:
            raise EvaluationError("zero base with negative exponent", e)
        if a < 0.0 and q.denominator != 1:
            raise EvaluationError("negative base with fractional exponent", e)
        try:
            # an overflowing chain gives inf without raising, and a negative
            # power whose chain underflows to 0 divides by zero
            v = int_power(a, int(q)) if q.denominator == 1 else a ** float(q)
        except (OverflowError, ZeroDivisionError):
            v = math.inf
        if not math.isfinite(v):
            raise EvaluationError("pow overflow", e)
    else:
        b = vals.pop()
        a = vals.pop()
        if e.op == "add":
            v = a + b
        elif e.op == "sub":
            v = a - b
        elif e.op == "mul":
            v = a * b
        else:
            if b == 0.0:
                raise EvaluationError("division by zero", e)
            v = a / b
    if not math.isfinite(v):
        raise EvaluationError("non-finite intermediate value", e)
    return v


def evaluate(e: Expression, point: Sequence[float]) -> float:
    """IEEE double evaluation at a point; raises EvaluationError on domain faults."""
    coords = tuple(point)
    vals: list = []
    for node in _postorder(e):
        vals.append(_eval_node(node, vals, coords))
    return vals[0]


def _exact_node(node: Expression, vals: list, coords: tuple) -> Fraction:
    """node's exact value from its operands' values, popped off vals."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        if node.index > len(coords):
            raise EvaluationError(f"point has {len(coords)} coordinates", node)
        return coords[node.index - 1]
    if isinstance(node, Unary):  # neg: enter() rejected the others
        return -vals.pop()
    if node.op == "pow":
        a = vals.pop()
        q = node.right.value
        if q.denominator != 1:
            root = _rational_root(a, q)
            if root is None:
                raise ExprError("fractional power has no exact rational value")
            return root
        if a == 0 and q < 0:
            raise EvaluationError("zero base with negative exponent", node)
        return a ** int(q)
    b = vals.pop()
    a = vals.pop()
    if node.op == "add":
        return a + b
    if node.op == "sub":
        return a - b
    if node.op == "mul":
        return a * b
    if b == 0:
        raise EvaluationError("division by zero", node)
    return a / b


def _rational_only(node: Expression) -> None:
    if isinstance(node, Unary) and node.op != "neg":
        raise ExprError(f"{node.op} has no exact rational value")


def evaluate_exact(e: Expression, point: Sequence) -> Fraction:
    """Exact rational evaluation; requires a rational-only tree and rational coordinates."""
    coords = tuple(Fraction(c) for c in point)
    vals: list = []
    for node in _postorder(e, enter=_rational_only):
        vals.append(_exact_node(node, vals, coords))
    return vals[0]


# ---------------------------------------------------------------------------
# identity testing
# ---------------------------------------------------------------------------


def _sample(e: Expression, box: DomainBox, trials: int, rng) -> tuple:
    """Draw `trials` points of the box once and evaluate e at all of them
    with one compiled kernel: (points, |value|, scale, ok) per row."""
    from .numeric import compile_scaled  # numeric imports this module

    pts = box.sample(rng, trials)
    (value,), scale, ok = compile_scaled([e])(pts.T)
    return pts, np.abs(value), scale, ok


def _relative_verdict(pts, residuals, scale, ok, tol=None) -> Verdict:
    """The verdict on sampled |residuals|: rows that are not ok are
    evaluation errors, even where the residual is finite, and the default
    tolerance is ZERO_TOL_REL times 1 + the largest scale of an ok row."""
    good = int(ok.sum())
    if not good:
        return Verdict.inconclusive(f"all {len(pts)} sample evaluations failed")
    tol_eff = tol if tol is not None else ZERO_TOL_REL * (1.0 + float(scale[ok].max()))
    return threshold_verdict(np.where(ok, residuals, np.nan), pts, tol_eff,
                             f"sampled {good}/{len(pts)} points, tol {tol_eff:.3g}")


def sampled_zero_verdict(
    e: Expression,
    box: DomainBox,
    trials: int = DEFAULT_TRIALS,
    tol: float | None = None,
    rng=None,
) -> Verdict:
    """Probabilistic zero test: sample `trials` uniform points in `box`.

    The default tolerance is relative to the largest sampled subterm
    magnitude, so the test is scale-free across coefficient sizes; pass `tol`
    for an absolute threshold.  Evaluation errors are skipped and counted; if
    every sample errors the verdict is inconclusive.

    One compiled numpy kernel (`numeric.compile_scaled`) evaluates e at
    every sample at once.  It computes each distinct subterm once, as a
    common-subexpression temporary, and takes the scale, the largest
    |subterm| per point, inside the kernel.  A point whose subterms are not
    all finite (a zero divisor, log <= 0, sqrt < 0, an overflow, ...) is an
    evaluation error, exactly where the tree walk `evaluate` raises
    EvaluationError.  Values agree with the tree walk's to a few ulps, and
    exactly on + - * / and integer powers: numpy's exp, log, sin, cos and
    fractional powers are not always libm's.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    return _relative_verdict(*_sample(e, box, trials, rng), tol)


def _sample_law(sigma, lhs: Expression, rhs: Expression, sign: int, box: DomainBox, trials: int, rng) -> tuple:
    """Draw `trials` points z of the box once and evaluate
    lhs(sigma(z)) - sign * rhs(z) at all of them: (points, |residual|,
    scale, ok) per row."""
    from .numeric import compile_scaled  # numeric imports this module

    pts = box.sample(rng, trials)
    image, scale, ok = sigma(pts.T)
    (left,), ls, lk = compile_scaled([lhs])(image)
    (right,), rs, rk = compile_scaled([rhs])(pts.T)
    with np.errstate(all="ignore"):
        residual = np.abs(left - right if sign == 1 else left + right)
    # max propagates NaN; rows that are not ok are skipped whatever their scale
    return pts, residual, np.maximum.reduce([scale, ls, rs, residual]), ok & lk & rk & np.isfinite(residual)


def sampled_law_verdict(sigma, lhs: Expression, rhs: Expression, sign: int, box: DomainBox,
                        trials: int = DEFAULT_TRIALS, rng=None) -> Verdict:
    """Probabilistic test of the law lhs(sigma(z)) = sign * rhs(z), sign
    +1 or -1, at `trials` uniform points z of the box, drawn as
    `sampled_zero_verdict` draws them.

    sigma is the map's kernel, `numeric.compile_scaled(sigma.components)`,
    so a caller compiles the map once per check; lhs and rhs are compiled
    here, once each.  Nothing is composed symbolically.  The relative
    tolerance is set, as in `sampled_zero_verdict`, by the largest
    |subterm| of an ok row: over sigma's subterms at z, lhs's at sigma(z),
    rhs's at z and |residual|.
    A row where any of these is not finite is an evaluation error, skipped
    and counted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    return _relative_verdict(*_sample_law(sigma, lhs, rhs, sign, box, trials, rng))


def _certain_nonzero_witnesses(canonical: Expression, box: DomainBox, trials: int, rng) -> tuple:
    pts, residuals, _, ok = _sample(canonical, box, trials, rng)
    nonzero = ok & (residuals > 0.0)
    if nonzero.any():
        return top_witnesses(pts, residuals, nonzero)
    # a nonzero polynomial vanishes only on a null set; fall back to a
    # deterministic rational probe so the fails verdict always carries a witness
    n = max(max_var_index(canonical), 1)
    for k in range(1, 50):
        p = tuple(Fraction(2 * k + i, 2 * k + i + 1) for i in range(n))
        v = evaluate_exact(canonical, p)
        if v != 0:
            return ((tuple(float(c) for c in p), abs(const_float(v))),)
    return top_witnesses(pts, residuals, ok) if ok.any() else ((tuple(0.0 for _ in range(n)), 0.0),)


def identically_zero(
    e: Expression,
    box: DomainBox,
    trials: int = DEFAULT_TRIALS,
    tol: float | None = None,
    rng=None,
) -> Verdict:
    """Decide whether e vanishes identically on the box.

    Polynomial expressions are decided with certainty through the canonical
    form; anything containing transcendental functions, quotients by
    non-constants, or fractional powers is sampled and the verdict is only
    ever probabilistic.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    if is_polynomial(e):
        s = simplify(e)
        if is_zero(s):
            return Verdict(Status.HOLDS, Certainty.CERTAIN, 0.0, (), "zero polynomial")
        witnesses = _certain_nonzero_witnesses(s, box, trials, rng)
        worst = max((w[1] for w in witnesses), default=0.0)
        return Verdict(
            Status.FAILS,
            Certainty.CERTAIN,
            worst,
            witnesses,
            f"nonzero canonical form {to_string(s)}",
        )
    return sampled_zero_verdict(e, box, trials, tol, rng)
