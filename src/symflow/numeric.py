"""Compiled numeric evaluation and shared numerical kernels.

Expressions compile once into a kernel k(Z, out=None) -> out: Z[i] is the
column of coordinate i + 1 (arrays of one common shape, or one point's
coordinates), and expression i is written into out[i], allocated as
(k,) + shape(Z[0]) when not given.  A point-major caller passes X.T and a
transposed view of its own buffer.  out never holds a view of Z.  Domain
faults (division by zero, log of a negative) surface as non-finite entries
rather than exceptions; callers mask them and set np.errstate.

One emitter (`_Emitter`) records every kernel as a tape of numpy
operations, one common-subexpression temporary per distinct subterm, and
folds subterms without variables into constants.  It folds over
`expr._walk`, the walk behind the normal form, the text and the hash, so a
canonical tree that remembers its normal form gives the tape its tree
would, unbuilt.  An integer power is one tape entry, computed by the tree
walk's own chain of multiplications (`expr.int_power`), so a polynomial
kernel gives the same bits on every row, point and host; numpy's exp,
log, sin and cos may differ between hosts.  `compile_components`, for the
RK4 and Newton kernels that run thousands of times, renders the tape as
straight-line source and compiles it once; each output goes into out, by
its own ufunc where it has one, and each temporary is deleted after its
last use.  `compile_scaled`, behind every sampled zero test and sampled
law, runs a few times per kernel, so it runs the tape directly, with no
source text and no `exec`: the same operators and functions in the same
order, so the same bits.  It also returns per row the largest |subterm|,
which sets the relative tolerance, and a mask of the rows where every
subterm is finite, which are the rows the tree walk `expr.evaluate` can
evaluate.  `compile_jets` runs the same tape in Taylor mode: with a field F
on the tape beside its expressions, it propagates the Taylor coefficients
of the solution through each point, and of every subterm along it, so an
expression's derivatives along the flow come from F's tape alone, with no
Lie derivative taken.  Its coefficient 0 has `compile_scaled`'s bits.

Every RK4 integration goes through `rk4_march`, which marches one stacked
state: a C-contiguous array with one row per component and one column per
point.  A block of BLOCK_ROWS points allocates its stage buffers once, and
every stage combination is one whole-array ufunc call with `out=`.  The
derivative is a kernel k(y, out) writing into a stage buffer.  A point
that leaves the guard bounds or turns non-finite is masked at its own step;
the arithmetic is elementwise, so a point's states are the same bits
whether it is marched alone or in a batch.  The variational equation is
marched as an augmented state whose derivative is one compiled kernel
(`variational_kernel`) of F and of the entries of J_F J; `rk4_variational`
returns z(T) and J(T) as views of that marched state, not as copies.

Every Newton solve goes through `newton_batch`, damped Newton on the rows of
a seed array at once, whose kernels write into transposed views of the
solver's own arrays.  Each row keeps its own residual target, step length
and stop.  A row's iterates are the same bits a single-point solve gives
it, because every operation is elementwise or per row: the row norms take
the same dot product `np.linalg.norm` takes, and the stacked
`np.linalg.solve` runs the same LAPACK solve per matrix.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import Expression, Var, _walk, add, const_float, int_power, mul

_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
# the Python operators behind _SYMBOLS, as the rendered source applies them
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}
# the ufuncs whose numpy name differs from the tape's, for writes with out=
_UFUNCS = {"sub": "subtract", "mul": "multiply", "div": "divide", "neg": "negative"}


def _literal(v: float) -> str:
    if math.isfinite(v):
        return repr(v)
    if math.isnan(v):
        return "_np.nan"
    return "_np.inf" if v > 0 else "(-_np.inf)"


def _fold(op: str, q, a: float, b: float = 0.0) -> float:
    """A subterm without variables, computed with float64 scalars: the same
    bits the kernel would give it, and a zero divisor gives inf, not an
    exception."""
    a, b = np.float64(a), np.float64(b)
    with np.errstate(all="ignore"):
        if op == "neg":
            v = -a
        elif op == "pow":
            v = int_power(a, int(q)) if q.denominator == 1 else np.float_power(a, float(q))
        elif op in _BINARY:
            v = _BINARY[op](a, b)
        else:
            v = getattr(np, op)(a)
    return float(v)


class _Emitter:
    """A tape of numpy operations for expressions, one temporary per
    distinct subterm that depends on a variable.

    Each temporary is one tape entry (op, a, b): a coordinate column
    ("col", index), a unary function, a power ("pow" for an integral
    exponent, "float_power" for a fractional one, with b the exponent) or a
    binary operator, whose operands are temporaries (by index) or float
    constants.  `source` renders the tape as straight-line code and `run`
    applies the same operators and numpy functions in the same order, so
    both give the same bits.

    `emit` folds over `expr._walk`, which skips a node already emitted,
    found again by its id: n nodes cost O(n), where a dict keyed on the
    nodes would compare equal but distinct subtrees node by node.  Subterms
    are hash-consed on (operator, operands), and those without variables
    are folded into constants (`_fold`).  The walk keeps its own stack, so a
    deep tree meets no recursion limit, and reads a canonical tree off its
    normal form, unbuilt, giving its tree's tape, `consts` and source.
    `consts` holds the value of every constant subterm, leaves included; a
    pow exponent is no subterm.
    """

    def __init__(self):
        self.tape: list = []
        self.consts: list = []
        self.nvars = 0
        self._seen: dict = {}  # id(node) -> temporary index, or float if constant
        self._keys: dict = {}  # (op, operand keys) -> temporary index

    @staticmethod
    def text(x) -> str:
        return f"t{x}" if x.__class__ is int else _literal(x)

    def emit(self, root: Expression):
        """Emit root and its subterms, operands before the nodes that use
        them; returns root's temporary index, or its value if constant."""
        seen = self._seen
        vals: list = []
        for ev, node in _walk(root, lambda e: seen.get(id(e))):
            op, x = ev[0], ev[1]
            if op == "const":
                v = const_float(x)
                self.consts.append(v)
            elif op == "v":
                self.nvars = max(self.nvars, x)
                v = self._op("col", x - 1)
            elif op == "f":
                v = self._op(x, vals.pop())
            elif op == "pow" or op == "neg":
                v = self._op(op, vals.pop(), x)
            elif op == "ref":
                v = x
            else:
                b = vals.pop()
                v = self._op(op, vals.pop(), b)
            if node is not None:
                seen[id(node)] = v
            vals.append(v)
        return vals[0]

    def _op(self, op: str, a, b=None):
        """The temporary, or the folded constant, of op over the operands a
        and b, each a temporary index or a float; b is a pow's rational
        exponent, and None for a unary op or a column."""
        if a.__class__ is float and (b is None or op == "pow" or b.__class__ is float):
            v = _fold(op, None, a, b) if op in _BINARY else _fold(op, b, a)
            self.consts.append(v)
            return v
        if op == "pow":
            key = entry = ("pow", a, int(b)) if b.denominator == 1 else ("float_power", a, float(b))
        elif b is None:
            key = entry = (op, a, None)
        else:
            entry = (op, a, b)
            # a constant operand is keyed by its text: 0.0 and -0.0 differ
            key = (op, a if a.__class__ is int else _literal(a), b if b.__class__ is int else _literal(b))
        k = self._keys.get(key)
        if k is None:
            k = self._keys[key] = len(self.tape)
            self.tape.append(entry)
        return k

    def _code(self, entry: tuple, dest: Optional[str] = None) -> str:
        """The source of a tape entry's value, or, with dest, of the ufunc
        call that writes it into dest."""
        op, a, b = entry
        if dest is not None:
            args = "".join(self.text(x) + ", " for x in ((a,) if b is None else (a, b)))
            return f"_np.{_UFUNCS.get(op, op)}({args}out={dest})"
        if op == "col":
            return f"Z[{a}]"
        if op == "neg":
            return f"-t{a}"
        if op == "pow":
            return f"_pow(t{a}, {b})"
        if op == "float_power":
            return f"_np.float_power(t{a}, {b!r})"
        if b is None:
            return f"_np.{op}(t{a})"
        return f"{self.text(a)}{_SYMBOLS[op]}{self.text(b)}"

    def source(self, outs: list) -> str:
        """The tape as the body of _f(Z, out=None), which writes outs[i]
        into out[i] and returns out.  The first output a ufunc computes
        from a temporary is written by that ufunc into out[i, ...] (the
        ellipsis keeps a single point's entry a view); a constant, an input
        column, an integer power or a repeated output is copied there.
        Every temporary is deleted after its last use, so that a batch holds
        only the live ones, as a nested expression would.  Integer powers
        call `_pow`, which is `int_power`."""
        last = {}
        for i, (op, a, b) in enumerate(self.tape):
            if op != "col":
                for x in (a, b) if op in _BINARY else (a,):
                    if x.__class__ is int:
                        last[x] = i
        rows: dict = {}
        for i, o in enumerate(outs):
            if o.__class__ is int:  # 3.0 == 3, so a constant is no key
                rows.setdefault(o, []).append(i)
        lines = [f"    out[{i}] = {_literal(o)}\n" for i, o in enumerate(outs) if o.__class__ is float]
        dead: dict = {}
        for t, entry in enumerate(self.tape):
            at = rows.get(t, ())
            if at and entry[0] not in ("col", "pow"):
                code, at = self._code(entry, f"out[{at[0]}, ...]"), at[1:]
            else:
                code = self._code(entry)
            if t in last or at:
                lines.append(f"    t{t} = {code}\n")
                dead.setdefault(last.get(t, t), []).append(f"t{t}")
            else:
                lines.append(f"    {code}\n")
            lines += [f"    out[{i}] = t{t}\n" for i in at]
            if t in dead:
                lines.append(f"    del {', '.join(dead.pop(t))}\n")
        head = f"def _f(Z, out=None):\n    if out is None:\n        out = _np.empty(({len(outs)},) + _np.shape(Z[0]))\n"
        return f"{head}{''.join(lines)}    return out\n"

    def run(self, Z) -> list:
        """Every temporary of the tape over the columns Z, in order."""
        t: list = []
        for op, a, b in self.tape:
            if op == "col":
                t.append(Z[a])
            elif op in _BINARY:
                t.append(_BINARY[op](t[a] if a.__class__ is int else a, t[b] if b.__class__ is int else b))
            elif op == "pow":
                t.append(int_power(t[a], b))
            elif op == "neg":
                t.append(-t[a])
            elif op == "float_power":
                t.append(np.float_power(t[a], b))
            else:
                t.append(getattr(np, op)(t[a]))
        return t


def compile_components(exprs: Sequence[Expression]) -> Callable:
    """Compile expressions into a kernel k(Z, out=None) -> out: Z[i] is the
    float column of coordinate i + 1 (arrays of one common shape, or a
    single point's coordinates), and expression i at those columns is
    written into out[i], which is returned.  Without out, the kernel
    allocates one of shape (k,) + shape(Z[0]); a given out may be any view
    of that shape, a strided one included, but must not overlap Z.  An
    integer power is a chain of multiplications (`int_power`) and every
    other operation is elementwise, so a polynomial kernel gives a row of a
    batch the bits of the same point alone, on every host; numpy's exp,
    log, sin and cos may still differ between hosts.  The kernel sets no
    error state: callers run it under np.errstate."""
    em = _Emitter()
    src = em.source([em.emit(e) for e in exprs])
    ns: dict = {"_np": np, "_pow": int_power}
    exec(src, ns)
    fn = ns["_f"]
    fn.source = src
    return fn


# rows per block of a scaled evaluation: a block holds every temporary of the
# expressions twice (the arrays and their stack), 4 KiB per temporary at 256
# rows, so 8 MiB for 2000 distinct subterms
SCALED_BLOCK_ROWS = 256


def compile_scaled(exprs: Sequence[Expression]) -> Callable[[np.ndarray], tuple]:
    """Compile k expressions into f(Z) -> (values, scale, ok) over columns
    Z of shape (n, N): the values, of shape (k, N), and per row the largest
    |subterm| of all of them (variables and constants included, a pow
    exponent not) and whether every subterm is finite.  A row is ok exactly
    when the tree walk `expr.evaluate` raises no EvaluationError there; a
    variable beyond the n columns fails every row.  Runs the emitter's tape,
    with no generated code, under its own np.errstate."""
    em = _Emitter()
    outs = [em.emit(e) for e in exprs]
    consts = np.abs(np.array(em.consts, dtype=float))
    const_ok = bool(np.isfinite(consts).all())
    const_scale = float(consts.max(initial=0.0)) if const_ok else 0.0

    def run(Z):
        Z = np.asarray(Z, dtype=float)
        rows = Z.shape[1]
        values = np.empty((len(outs), rows))
        if em.nvars > Z.shape[0] or not const_ok:
            values.fill(np.nan)
            return values, np.zeros(rows), np.zeros(rows, dtype=bool)
        scale = np.full(rows, const_scale)
        with np.errstate(all="ignore"):
            for i in range(0, rows, SCALED_BLOCK_ROWS):
                block = slice(i, i + SCALED_BLOCK_ROWS)
                temps = em.run(Z[:, block])
                for k, o in enumerate(outs):
                    values[k, block] = temps[o] if o.__class__ is int else o
                if temps:
                    np.maximum(scale[block], np.abs(np.array(temps)).max(axis=0), out=scale[block])
        # max propagates NaN, so one non-finite subterm makes the scale so
        return values, scale, np.isfinite(scale)

    return run


# float64 cells per block of a jet run: every slot's coefficients of one
# block, 8 MiB in all
JET_BLOCK_CELLS = 1 << 20


def _jet_program(em: _Emitter, flow: list) -> tuple:
    """The emitter's tape as steps (op, dest, a, b) over coefficient slots,
    tape entry t in slot t: add/sub/mul/div keep their constant operands
    as floats; an integer power becomes `int_power`'s chain of "mul" steps
    (intermediates in extra slots), "copy" of a slot or of the constant 1,
    and a "div" of 1 by the chain for a negative exponent; sin and cos of
    one argument are one "sincos" step into both slots, the one off the
    tape an extra slot; column i reads the series of flow[i].  Returns
    (steps, slot count, {constant slot: value})."""
    steps: list = []
    slots = len(em.tape)
    consts: dict = {}  # literal -> (slot, value)

    def extra() -> int:
        nonlocal slots
        slots += 1
        return slots - 1

    def const(v: float) -> int:
        got = consts.get(_literal(v))
        if got is None:
            got = consts[_literal(v)] = (extra(), v)
        return got[0]

    def chain(x: int, k: int, dest: int):
        # int_power(x, k), k >= 2, into dest: int_power(x*x, k >> 1), times x when k is odd
        half, odd = k >> 1, k & 1
        square = dest if half == 1 and not odd else extra()
        steps.append(("mul", square, x, x))
        y = square
        if half > 1:
            y = extra() if odd else dest
            chain(square, half, y)
        if odd:
            steps.append(("mul", dest, y, x))

    paired: set = set()
    for t, (op, a, b) in enumerate(em.tape):
        if op == "col":
            o = flow[a]
            steps.append(("col", t, a, o if o.__class__ is int else const(o)))
        elif op == "pow":
            if b == 0 or b == 1:
                steps.append(("copy", t, a if b else const(1.0), None))
            elif b > 1:
                chain(a, b, t)
            else:
                r = a
                if b < -1:
                    r = extra()
                    chain(a, -b, r)
                steps.append(("div", t, 1.0, r))
        elif op in ("sin", "cos"):
            if a not in paired:
                paired.add(a)
                other = em._keys.get(("cos" if op == "sin" else "sin", a, None))
                if other is None:
                    other = extra()
                steps.append(("sincos",) + ((t, other) if op == "sin" else (other, t)) + (a,))
        else:
            steps.append((op, t, a, b))
    return steps, slots, dict(consts.values())


def _dot(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """sum_i x[i] y[i] over the leading axis: one coefficient of a product."""
    return np.einsum("ij,ij->j", x, y, out=out)


def _jet_step(C: np.ndarray, k: int, op: str, d: int, a, b) -> None:
    """Coefficient k of step (op, d, a, b) of `_jet_program`, from its
    operands' coefficients 0..k and its own 0..k-1, in C[slot, order, row]:
    Cauchy products, the quotient recurrence, and the recurrences of exp,
    log, the sin/cos pair, sqrt and float_power u^b (Griewank & Walther,
    Evaluating Derivatives, 2nd ed., 2008, ch. 13).  Coefficient 0 applies
    the tape's own operation, so it has the bits `_Emitter.run` gives;
    columns' coefficient 0 is the caller's."""
    w = C[d]
    if op == "col":  # z_k = F(z)_{k-1} / k
        np.divide(C[b, k - 1], k, out=w[k])
        return
    u = C[a] if a.__class__ is int else None
    if op in _BINARY:
        v = C[b] if b.__class__ is int else None
        if k == 0:
            w[0] = _BINARY[op](a if u is None else u[0], b if v is None else v[0])
        elif op == "mul":
            if u is None or v is None:
                np.multiply(a if u is None else u[k], b if v is None else v[k], out=w[k])
            else:
                _dot(u[: k + 1], v[k::-1], out=w[k])
        elif op == "div":
            if v is None:
                np.divide(u[k], b, out=w[k])
            else:  # v w = u
                acc = _dot(v[1 : k + 1], w[k - 1 :: -1])
                np.divide(np.negative(acc, out=acc) if u is None else u[k] - acc, v[0], out=w[k])
        elif v is None:  # u +- constant
            w[k] = u[k]
        elif u is None:  # constant +- v
            w[k] = v[k] if op == "add" else -v[k]
        else:
            (np.add if op == "add" else np.subtract)(u[k], v[k], out=w[k])
        return
    if op == "copy":
        w[k] = u[k]
    elif op == "neg":
        np.negative(u[k], out=w[k])
    elif op == "sincos":  # d holds sin(u), a cos(u), b is u
        c, u = C[a], C[b]
        if k == 0:
            np.sin(u[0], out=w[0])
            np.cos(u[0], out=c[0])
        else:  # s' = u' c, c' = -u' s
            du = u[1 : k + 1] * (np.arange(1, k + 1) / k)[:, None]
            _dot(du, c[k - 1 :: -1], out=w[k])
            np.negative(_dot(du, w[k - 1 :: -1]), out=c[k])
    elif k == 0:
        if op == "float_power":
            np.float_power(u[0], b, out=w[0])
        else:
            getattr(np, op)(u[0], out=w[0])
    elif op == "exp":  # w' = u' w
        _dot(u[1 : k + 1] * (np.arange(1, k + 1) / k)[:, None], w[k - 1 :: -1], out=w[k])
    elif op == "log":  # u w' = u'
        acc = _dot(w[1:k] * (np.arange(1, k) / k)[:, None], u[k - 1 : 0 : -1])
        np.divide(u[k] - acc, u[0], out=w[k])
    elif op == "sqrt":  # w w = u
        np.divide(u[k] - _dot(w[1:k], w[k - 1 : 0 : -1]), 2.0 * w[0], out=w[k])
    else:  # float_power: u w' = b u' w
        i = np.arange(1, k + 1)
        acc = _dot(u[1 : k + 1] * ((b * i - (k - i)) / k)[:, None], w[k - 1 :: -1])
        np.divide(acc, u[0], out=w[k])


def compile_jets(flow: Sequence[Expression], exprs: Sequence[Expression]) -> Callable[[np.ndarray, int], tuple]:
    """Compile the field with components `flow` and k expressions into
    f(Z, order) -> (derivs, scale) over columns Z of shape (n, N), n the
    number of components.  derivs[i, j], for j = 0..order, is the j-th
    derivative of exprs[i] along the field's solutions at z,
    j! [t^j] exprs[i](phi_t(z)), which is L_F^j exprs[i](z).  scale[j] is
    per row the largest |k! c_k| over the Taylor coefficients c_k, k <= j,
    of every subterm (variables included, constants at k = 0), and not
    finite where any of them is not.

    This is the emitter's tape run in Taylor mode: one tape holds the field
    and the expressions, each coordinate's series grows by
    z_{k+1} = F(z)_k / (k + 1), and each tape entry's series follows from
    its operands' by the recurrences of `_jet_step`.  Coefficient 0 of every
    subterm has the bits `compile_scaled` gives it.  An integer power
    multiplies series along `int_power`'s chain, never dividing by its
    base, so a zero base is no fault.  Rows run in blocks of at most
    JET_BLOCK_CELLS coefficients in all, under np.errstate."""
    em = _Emitter()
    field = [em.emit(c) for c in flow]
    outs = [em.emit(e) for e in exprs]
    if em.nvars > len(field):
        raise ValueError(f"an expression uses variable {em.nvars}, but the field has {len(field)} components")
    steps, slots, const_slots = _jet_program(em, field)
    columns = [(d, i) for op, d, i, _ in steps if op == "col"]
    consts = np.abs(np.array(em.consts, dtype=float))
    const_scale = float(consts.max(initial=0.0)) if np.isfinite(consts).all() else math.nan
    tape = len(em.tape)

    def run(Z, order: int):
        Z = np.asarray(Z, dtype=float)
        rows = Z.shape[1]
        derivs = np.empty((len(outs), order + 1, rows))
        scale = np.empty((order + 1, rows))
        factorial = np.cumprod([1.0] + list(range(1, order + 1)))
        block = max(1, JET_BLOCK_CELLS // (max(slots, 1) * (order + 1)))
        with np.errstate(all="ignore"):
            for lo in range(0, rows, block):
                part = slice(lo, lo + block)
                C = np.zeros((slots, order + 1, len(Z[0, part])))
                for s, v in const_slots.items():
                    C[s, 0] = v
                for d, i in columns:
                    C[d, 0] = Z[i, part]
                top = np.full(C.shape[2], const_scale)
                for k in range(order + 1):
                    for op, d, a, b in steps:
                        if k or op != "col":
                            _jet_step(C, k, op, d, a, b)
                    if tape:
                        top = np.maximum(top, np.abs(C[:tape, k]).max(axis=0) * factorial[k])
                    scale[k, part] = top
                for i, o in enumerate(outs):
                    if o.__class__ is int:
                        np.multiply(C[o], factorial[:, None], out=derivs[i, :, part])
                    else:
                        derivs[i, 0, part], derivs[i, 1:, part] = o, 0.0
        return derivs, scale

    return run


# ---------------------------------------------------------------------------
# Runge-Kutta: one classic fixed-step RK4 marcher over a stacked state
# ---------------------------------------------------------------------------

# points per block of a long march: the state and the four stage buffers of
# a few dozen components at this length stay in a 2 MiB L2 cache, and on a
# 2-vCPU Xeon a 100k-point variational march runs twice as fast in such
# blocks as in one piece
BLOCK_ROWS = 4096


def rk4_march(
    f: Callable,
    z: Sequence,
    h,
    steps: int,
    lo: Optional[Sequence[float]] = None,
    hi: Optional[Sequence[float]] = None,
    on_step: Optional[Callable] = None,
) -> tuple:
    """March the state z of dz/dt = F(z) by `steps` classic RK4 steps of
    size h, a float or an array giving each point its own step (its sign
    sets the direction).  z[i] holds component i over the points: z is an
    array of shape (m, ...) or a sequence of m equal-shape columns, and a
    point is one index into the trailing axes.  f(y, out) writes F at the
    state y into out, both of shape (m, ...): a kernel
    (`compile_components`) of F's components is one.

    The march copies z once into its own C-contiguous state and keeps, per
    block, two stage-derivative buffers, one stage-input buffer and one
    accumulator; every stage combination is one ufunc call into one of them,
    with the operations of a column-by-column RK4 step in the same order, so
    every state has the same bits.  It never writes into z.

    With guard bounds lo, hi (one pair per leading component), a point is
    masked at the first step whose state leaves [lo, hi]; a non-finite
    state fails every comparison, so it is masked too.  Masked points keep
    being stepped, which leaves the other points alone, and the march stops
    once every point is masked.  on_step(k, state, alive) runs after each
    step k = 1, 2, ... with the march's own state, which the next step
    overwrites: a caller that keeps it copies it.  Without on_step, a long
    one-dimensional batch is marched in blocks of BLOCK_ROWS points, one
    block after another.

    Returns (z, died): the final state, of shape (m, ...), and per point the
    step at which the point was masked, 0 for points that never were; a
    masked point's state is unspecified.  Runs under np.errstate(all="ignore").
    """
    z = np.asarray(z, dtype=float)
    points = np.broadcast_shapes(z.shape[1:], np.shape(h))
    if on_step is None and len(points) == 1 and points[0] > BLOCK_ROWS:
        blocks = [
            rk4_march(f, z[:, i : i + BLOCK_ROWS],
                      h if np.ndim(h) == 0 else h[i : i + BLOCK_ROWS], steps, lo, hi)
            for i in range(0, points[0], BLOCK_ROWS)
        ]
        return np.concatenate([b[0] for b in blocks], axis=1), np.concatenate([b[1] for b in blocks])
    # a single point marches as a batch of one, so every state row is an array
    state = np.empty(z.shape[:1] + (points or (1,)))
    state[...] = z if points else z[:, None]
    z, shaped = state, state.reshape(z.shape[:1] + points)
    # k1 and k3 go to ka, k2 and k4 to kb; y is the stage input, s the sum
    ka, kb, y, s = (np.empty_like(z) for _ in range(4))
    half, sixth = 0.5 * h, h / 6.0
    if lo is not None:
        bounds = (-1,) + (1,) * (z.ndim - 1)
        lo = np.reshape(np.asarray(lo, dtype=float), bounds)
        hi = np.reshape(np.asarray(hi, dtype=float), bounds)
        guarded = z[: len(lo)]
    died = np.zeros(z.shape[1:], dtype=int)
    alive = died == 0
    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            f(z, ka)
            np.multiply(half, ka, out=y)
            np.add(z, y, out=y)
            f(y, kb)
            np.multiply(2.0, kb, out=s)
            np.add(ka, s, out=s)
            np.multiply(half, kb, out=y)
            np.add(z, y, out=y)
            f(y, ka)
            np.multiply(2.0, ka, out=kb)
            np.add(s, kb, out=s)
            np.multiply(h, ka, out=y)
            np.add(z, y, out=y)
            f(y, kb)
            np.add(s, kb, out=s)
            np.multiply(sixth, s, out=s)
            np.add(z, s, out=z)
            if lo is not None:
                ok = alive & ((guarded >= lo) & (guarded <= hi)).all(axis=0)
                died[alive & ~ok] = k
                alive = ok
            if on_step is not None:
                on_step(k, shaped, alive.reshape(points))
            if not alive.any():
                break
    return shaped, died.reshape(points)


def rk4_path(f: Callable, z: Sequence, h, steps: int, lo=None, hi=None) -> tuple:
    """rk4_march keeping every state: returns (path, died), where path[k]
    is a copy of the state after step k (path[0] is z), up to the step at
    which the march stopped."""
    path = [np.array(z, dtype=float)]
    _, died = rk4_march(f, path[0], h, steps, lo, hi,
                        on_step=lambda k, state, alive: path.append(state.copy()))
    return np.stack(path), died


@lru_cache(maxsize=32)
def variational_kernel(components: tuple, jacobian_rows: tuple) -> Callable:
    """The kernel of the variational system z' = F(z), J' = J_F(z) J over
    the state rows (z_1, ..., z_n, J_11, J_12, ..., J_nn), J row-major,
    from F's components and the rows of its Jacobian, compiled once per
    field.  Entry (i, j) of J_F J is the sum over k of dF_i/dz_k J_kj, left
    to right over k, built from raw nodes (`expr.add`, `expr.mul`):
    simplify would reorder the sum and move bits."""
    n = len(components)
    products = tuple(reduce(add, (mul(row[k], Var(n + 1 + k * n + j)) for k in range(n)))
                     for row in jacobian_rows for j in range(n))
    return compile_components(components + products)


def rk4_variational(
    components: Sequence[Expression],
    jacobian_rows: Sequence[Sequence[Expression]],
    z0: np.ndarray,
    t_total: float,
    steps: int,
) -> tuple:
    """Integrate dz/dt = F(z) together with dJ/dt = J_F(z) J, J(0) = I, for
    the field F with these components and these Jacobian rows, by marching
    `variational_kernel` with rk4_march.

    Returns (z(T), J(T)) where J is the Jacobian of the time-T flow map with
    respect to the initial state.  Batched: z0 of shape (N, n) gives J of
    shape (N, n, n).  Both are views of the marched state, not copies:
    z(T)[..., i] is its row i and J(T)[..., i, j] its row n + i n + j, so
    moving their component axes back to the front gives those rows,
    contiguous: zT.T and JT.transpose(1, 2, 0) for a batch.
    """
    z = np.asarray(z0, dtype=float)
    n = z.shape[-1]
    y = np.empty((n + n * n,) + z.shape[:-1])
    y[:n] = np.moveaxis(z, -1, 0)
    y[n:] = np.eye(n).reshape((n * n,) + (1,) * (z.ndim - 1))
    kernel = variational_kernel(tuple(components), tuple(map(tuple, jacobian_rows)))
    y, _ = rk4_march(kernel, y, t_total / steps, steps)
    return np.moveaxis(y[:n], 0, -1), np.moveaxis(y[n:].reshape((n, n) + y.shape[1:]), (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# damped Newton: one batched solver over rows
# ---------------------------------------------------------------------------


def row_norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of v (..., n), the same bits
    `np.linalg.norm` gives that row alone: both take BLAS's dot product of
    a contiguous row (a sum of squares would round differently)."""
    v = np.ascontiguousarray(v)
    return np.sqrt(np.vecdot(v, v))


def solve_rows(J: np.ndarray, b: np.ndarray) -> tuple:
    """Solve J[i] x[i] = b[i] for every row; returns (x, solved).  A stacked
    solve raises when one matrix is singular.  Then the rows whose
    determinant is nonzero are solved as one stack, and the others alone,
    and only the singular ones are marked unsolved: a zero LU pivot makes
    the determinant exactly 0, an overflowing LU makes it nan."""
    solved = np.ones(len(b), dtype=bool)
    try:
        return np.linalg.solve(J, b[..., None])[..., 0], solved
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        alone = ~(np.abs(np.linalg.det(J)) > 0)
        x[~alone] = np.linalg.solve(J[~alone], b[~alone, :, None])[..., 0]
        for i in np.flatnonzero(alone):
            try:
                x[i] = np.linalg.solve(J[i], b[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return x, solved


def newton_batch(
    f: Callable,
    jac: Callable,
    seeds: np.ndarray,
    target: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> tuple:
    """Damped Newton on every row of seeds (N, n) at once: row i solves
    f(x) = target[i] (0 without a target) from seeds[i], with f and jac the
    kernels (`compile_components`) of f's n components and of its n*n
    row-major Jacobian entries.  They write into transposed views of the
    solver's own (m, n) and (m, n, n) arrays.

    Per row: stop, converged, once the residual norm is below tol; stop,
    not converged, on a non-finite start (seed or residual; residual inf), a
    non-finite or singular Jacobian, or a line search that halves the step
    down to 2**-12 without reaching a finite iterate of lower residual norm;
    after max_iter iterations, a row is converged if its residual norm is
    below tol.  Returns (x, converged,
    residual) with the rows' last iterates and residual norms.  Runs in
    blocks of BLOCK_ROWS rows, under np.errstate(all="ignore").
    """
    x = np.array(seeds, dtype=float)
    if target is not None:
        target = np.asarray(target, dtype=float)
    rows = len(x)
    if rows > BLOCK_ROWS:
        blocks = [
            newton_batch(f, jac, x[i : i + BLOCK_ROWS],
                         None if target is None else target[i : i + BLOCK_ROWS], tol, max_iter)
            for i in range(0, rows, BLOCK_ROWS)
        ]
        return tuple(np.concatenate(part) for part in zip(*blocks))
    r = np.full(rows, np.inf)
    converged = np.zeros(rows, dtype=bool)
    if rows == 0:
        return x, converged, r

    n = x.shape[1]

    def residual(X, at):
        fx = np.empty_like(X)
        f(X.T, fx.T)
        if target is not None:
            np.subtract(fx, target[at], out=fx)
        return fx

    with np.errstate(all="ignore"):
        fx = residual(x, slice(None))
        # a kernel may give finite values at a non-finite point, so both count
        live = np.flatnonzero(np.isfinite(fx).all(axis=1) & np.isfinite(x).all(axis=1))
        r[live] = row_norms(fx[live])
        for _ in range(max_iter):
            done = r[live] < tol
            converged[live[done]] = True
            live = live[~done]
            if not len(live):
                break
            J = np.empty((len(live), n, n))
            jac(x[live].T, J.reshape(len(live), n * n).T)
            finite = np.isfinite(J).all(axis=(1, 2))
            live, J = live[finite], J[finite]
            step, solved = solve_rows(J, -fx[live])
            live, step = live[solved], step[solved]
            # line search: rows still searching, by position in live
            lam = np.ones(len(live))
            improved = np.zeros(len(live), dtype=bool)
            searching = np.arange(len(live))
            while len(searching):
                at = live[searching]
                xn = x[at] + lam[searching, None] * step[searching]
                fn = residual(xn, at)
                finite = np.isfinite(fn).all(axis=1) & np.isfinite(xn).all(axis=1)
                rn = np.full(len(at), np.inf)
                rn[finite] = row_norms(fn[finite])
                better = finite & (rn < r[at])
                moved = at[better]
                x[moved], fx[moved], r[moved] = xn[better], fn[better], rn[better]
                improved[searching[better]] = True
                searching = searching[~better]
                lam[searching] *= 0.5
                searching = searching[lam[searching] >= 2.0**-12]
            live = live[improved]
        converged[live] = r[live] < tol
    return x, converged, r
