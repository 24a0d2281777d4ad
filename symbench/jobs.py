"""Seeded job generator for the symflow benchmark.

Job `i` of a workload is a pure function of (workload, seed, i): it is drawn
from `random.Random("<workload>:<seed>:<i>")`, so the worker process can make
its inputs one by one and the answer checker can make the same job again
afterwards.  The parameters that set a job's size (dimension, degree, term
count, tower order, grid, points) come from a fixed cycle of size classes:
job `i` has class `CYCLES[workload][i % len(cycle)]`, so every seed runs the
same mix and costs about the same.  A workload's cycle joins the cycles of
its groups (GROUPS), and every job records its group, so results and traces
can be split by group.

Fields for `check` jobs are symmetric or reversible by construction.  With
sigma a signed-permutation involution R,

    F = G - R (G o R)   is reversible   (F(Rz) = -R F(z)),
    F = G + R (G o R)   is symmetric    (F(Rz) =  R F(z)),

for any G.  A negative adds the opposite part of a random K, which makes the
structural residual F(Rz) -/+ R F(z) a nonzero multiple of that part.  The
polynomial algebra below is the benchmark's own; nothing here imports
symflow.
"""

from __future__ import annotations

import random
from fractions import Fraction

# two workloads of two groups each: a small shared machine drifts in speed
# over minutes, and fewer, longer runs keep the figures steady; every group
# is still reported on its own
GROUPS = {
    "verify": ("verify_exact", "verify_sampled"),
    "numeric": ("synthesize", "flow_oracles"),
}
WORKLOADS = tuple(GROUPS)

# ---------------------------------------------------------------------------
# a small term algebra: {(exponents, factor): coefficient}
# factor is None or (func, var, Fraction a) standing for func(a * z_var)
# ---------------------------------------------------------------------------


def var_name(i: int, n: int) -> str:
    if n <= 3:
        return "xyz"[i]
    return f"z{i + 1}"


def _add_term(poly: dict, key, coeff: Fraction) -> None:
    c = poly.get(key, Fraction(0)) + coeff
    if c:
        poly[key] = c
    else:
        poly.pop(key, None)


def poly_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for key, c in q.items():
        _add_term(out, key, sign * c)
    return out


def substitute(p: dict, perm, sig) -> dict:
    """p(sigma(z)) with sigma(z)_k = sig[k] * z[perm[k]]."""
    out: dict = {}
    for (exps, factor), c in p.items():
        new_exps = [0] * len(exps)
        for k, e in enumerate(exps):
            new_exps[perm[k]] += e
            if e % 2 and sig[k] < 0:
                c = -c
        if factor is not None:
            func, k, a = factor
            a = a * sig[k]
            if a < 0 and func == "sin":
                c, a = -c, -a
            elif a < 0 and func == "cos":
                a = -a
            factor = (func, perm[k], a)
        _add_term(out, (tuple(new_exps), factor), c)
    return out


def apply_linear(vec, perm, sig):
    """R v with (R v)_i = sig[i] * v[perm[i]]."""
    return [{key: sig[i] * c for key, c in vec[perm[i]].items()} for i in range(len(vec))]


def split_parts(G, perm, sig, kind: str):
    """The part of G that obeys `kind` under sigma: G -/+ R (G o R)."""
    image = apply_linear([substitute(g, perm, sig) for g in G], perm, sig)
    sign = -1 if kind == "reversibility" else 1
    return [poly_add(g, h, sign) for g, h in zip(G, image)]


_DERIVATIVE = {"sin": (1, "cos"), "cos": (-1, "sin"), "exp": (1, "exp")}


def partial(p: dict, k: int) -> dict:
    """Partial derivative with respect to z_k."""
    out: dict = {}
    for (exps, factor), c in p.items():
        if exps[k]:
            lowered = list(exps)
            lowered[k] -= 1
            _add_term(out, (tuple(lowered), factor), c * exps[k])
        if factor is not None and factor[1] == k:
            sign, func = _DERIVATIVE[factor[0]]
            _add_term(out, (exps, (func, k, factor[2])), c * sign * factor[2])
    return out


def divergence(F) -> dict:
    out: dict = {}
    for k, f in enumerate(F):
        out = poly_add(out, partial(f, k))
    return out


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def term_text(key, c: Fraction, n: int) -> str:
    exps, factor = key
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(var_name(i, n))
        elif e > 1:
            parts.append(f"{var_name(i, n)}^{e}")
    if factor is not None:
        func, k, a = factor
        arg = var_name(k, n) if a == 1 else f"{_frac_text(a)}*{var_name(k, n)}"
        parts.append(f"{func}({arg})")
    mag = abs(c)
    if not parts:
        return _frac_text(mag)
    body = "*".join(parts)
    if mag == 1:
        return body
    if mag.denominator == 1:
        return f"{mag.numerator}*{body}"
    if mag.numerator == 1:
        return f"{body}/{mag.denominator}"
    return f"{mag.numerator}*{body}/{mag.denominator}"


def poly_text(p: dict, n: int) -> str:
    if not p:
        return "0"
    out = ""
    for key in sorted(p, key=repr):
        c = p[key]
        t = term_text(key, c, n)
        if not out:
            out = ("-" if c < 0 else "") + t
        else:
            out += (" - " if c < 0 else " + ") + t
    return out


def sigma_texts(perm, sig, n: int):
    return [("-" if sig[i] < 0 else "") + var_name(perm[i], n) for i in range(n)]


def random_involution(rng: random.Random, n: int):
    """A signed permutation sigma with sigma o sigma = id, not the identity."""
    while True:
        idx = list(range(n))
        rng.shuffle(idx)
        perm = list(range(n))
        pairs = rng.randint(0, n // 2)
        for t in range(pairs):
            a, b = idx[2 * t], idx[2 * t + 1]
            perm[a], perm[b] = b, a
        sig = [0] * n
        for i in range(n):
            if perm[i] >= i:
                sig[i] = sig[perm[i]] = rng.choice((-1, 1))
        if any(perm[i] != i or sig[i] < 0 for i in range(n)):
            return perm, sig


def random_poly(r, n, degree, terms, coeffs, funcs=(), min_degree=1):
    """`terms` random monomials of total degree min_degree..degree; with
    `funcs`, the first term carries one transcendental factor.  Monomials
    and factors come from the shape stream, coefficients from the seed."""
    p: dict = {}
    for t in range(terms):
        exps = [0] * n
        for _ in range(r.shape.randint(min_degree, degree)):
            exps[r.shape.randrange(n)] += 1
        factor = None
        if funcs and t == 0:
            a = Fraction(r.shape.choice((1, 1, 2))) / r.shape.choice((1, 2))
            factor = (r.shape.choice(funcs), r.shape.randrange(n), a)
        _add_term(p, (tuple(exps), factor), Fraction(r.value.choice(coeffs)))
    return p


def _size(F):
    """What sets a check job's cost: the divergence (the tower's first
    order) must not vanish, and must carry a transcendental term when the
    field does; then the more terms the better."""
    div = divergence(F)
    transcendental = any(factor is not None for f in F for (_, factor) in f)
    live = bool(div) and (not transcendental or any(factor is not None for (_, factor) in div))
    return (live, sum(map(len, F)))


def structured_field(r, n, degree, terms, kind, negative, funcs=(), coeffs=(-2, -1, 1, 2), tries=40):
    """(F, perm, sig): F obeys `kind` under sigma, or breaks it if `negative`.

    Symmetrizing cancels terms, and can cancel the whole divergence (its
    part that is even, for a reversibility, or odd, for a symmetry, under
    sigma).  Of `tries` draws the largest by `_size` is kept, which keeps
    job sizes close to the class's nominal size.
    """
    perm, sig = random_involution(r.shape, n)
    other = "symmetry" if kind == "reversibility" else "reversibility"
    best, best_size = None, None
    for _ in range(tries):
        G = [random_poly(r, n, degree, terms, coeffs, funcs if i == 0 else ()) for i in range(n)]
        F = split_parts(G, perm, sig, kind)
        size = _size(F)
        if best is None or size > best_size:
            best, best_size = F, size
        if size[0] and size[1] >= n * terms:
            break
    F = best
    if negative:
        while True:
            # constants and one degree more than G: a linear K cannot break
            # every sigma (odd maps send linear fields to their negatives)
            K = [random_poly(r, n, degree + 1, 1, coeffs, min_degree=0) for _ in range(n)]
            breaking = split_parts(K, perm, sig, other)
            if any(breaking):
                # the structural residual is twice `breaking`, hence nonzero
                F = [poly_add(f, b) for f, b in zip(F, breaking)]
                break
    return F, perm, sig


def spec_text(lines: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in lines.items())


def box_text(intervals) -> str:
    return ",".join(f"{lo},{hi}" for lo, hi in intervals)


# ---------------------------------------------------------------------------
# job classes
# ---------------------------------------------------------------------------


def _check_cli_job(F, perm, sig, kind, half, extra_argv, checks, size):
    """A `symflow check` job on field F with sigma (perm, sig) over the box
    [-half, half]^n.  Canonical forms decide every check of a polynomial
    field with certainty; the flow comparison is always sampled."""
    n = len(F)
    lines = {"dim": n}
    for i, f in enumerate(F):
        lines[f"F{i + 1}"] = poly_text(f, n)
    for i, s in enumerate(sigma_texts(perm, sig, n)):
        lines[f"S{i + 1}"] = s
    lines["box"] = box_text([(-half, half)] * n)
    exact = all(factor is None for f in F for (_, factor) in f)
    certainty = {name: "certain" if exact or name in ("involution", "measure_preserving") else "probabilistic"
                 for name in checks}
    if "flow_relation" in certainty:
        certainty["flow_relation"] = "probabilistic"
    return {
        "type": "cli",
        "argv": ["check", "{spec}", "--kind", kind] + extra_argv,
        "spec": spec_text(lines),
        "key": {"exit": 1 if "fails" in checks.values() else 0, "checks": checks, "certainty": certainty},
        "size": size,
    }


def check_job(r, n, degree, terms, order, kind, negative, funcs=()):
    """Every check holds on a field built to obey sigma; a field built to
    break it fails the structural check (the tower checks may go either way)."""
    F, perm, sig = structured_field(r, n, degree, terms, kind, negative, funcs)
    checks = {"structural": "fails" if negative else "holds", "involution": "holds", "measure_preserving": "holds"}
    if not negative:
        checks["tower_transform"] = "holds"
    size = {"dim": n, "degree": degree, "terms": terms, "order": order}
    return _check_cli_job(F, perm, sig, kind, 2, ["--orders", str(order)], checks, size)


def _small_rational(rng, choices=(1, 2, 3, 4, 5), dens=(1, 1, 2)):
    return Fraction(rng.choice(choices), rng.choice(dens))


def lv_classify_job(r, relation):
    rng = r.value
    a = _small_rational(rng)
    b, c = _small_rational(rng), _small_rational(rng)
    if relation == "a_eq_d":
        d = a
    elif relation == "a_plus_d_zero":
        d = -a
    elif relation == "bc_zero":
        d = _small_rational(rng)
        b = Fraction(0)
    else:
        d = a + _small_rational(rng)
        if rng.random() < 0.5:
            a, d = -a, d
    lines = {"family": "lotka_volterra", "a": a, "b": b, "c": c, "d": d, "box": "-1,4,-1,4"}
    return {
        "type": "cli",
        "argv": ["classify", "{spec}"],
        "spec": spec_text(lines),
        "key": {"classify": "lotka_volterra", "params": [str(a), str(b), str(c), str(d)]},
        "size": {"family": "lotka_volterra", "relation": relation},
    }


def lienard_classify_job(r, route):
    """Sign hypotheses hold by construction: positive odd coefficients for the
    monotone damping and the restoring force, x g(x) kept positive when an
    even term is mixed in (its square coefficient stays below 4 g1 g3)."""
    rng = r.value
    g1, g3 = _small_rational(rng), _small_rational(rng)
    g = {1: g1, 3: g3}
    parity = {"f": None, "g": "odd"}
    if route == "mirror":
        f = {1: _small_rational(rng), 3: _small_rational(rng)}
        parity["f"] = "odd_monotone"
    elif route == "point":
        f = {0: _small_rational(rng, (0, 1, 2)), 2: _small_rational(rng)}
        parity["f"] = "even_v"
    else:
        f = {1: _small_rational(rng), 3: _small_rational(rng)}
        parity["f"] = "odd_monotone"
        limit = 2 * (g1 * g3) ** 0.5
        g[2] = Fraction(rng.choice((-1, 1))) * Fraction(round(0.5 * limit, 3)).limit_denominator(1000)
        parity["g"] = "mixed"

    def text(coeffs):
        p = {((k,), None): c for k, c in coeffs.items() if c}
        return poly_text(p, 1)

    lines = {"family": "lienard", "f": text(f), "g": text(g), "box": "-1,1,-2,2"}
    return {
        "type": "cli",
        "argv": ["classify", "{spec}"],
        "spec": spec_text(lines),
        "key": {"classify": "lienard", "parity": parity},
        "size": {"family": "lienard", "route": route},
    }


def lv_candidates_job(r, a, grid):
    """Predator-prey with a = d on a box mapped onto itself by the swap map
    sigma = (b y / c, c x / b): box = [l, h] x [c l / b, c h / b]."""
    rng = r.value
    b, c = _small_rational(rng, (1, 2, 3, 4, 5), (1,)), _small_rational(rng, (1, 2, 3, 4, 5), (1,))
    a = Fraction(a)
    lo = Fraction(rng.choice((1, 2, 3)), 10)
    hi = lo + Fraction(rng.choice((15, 18, 20)), 10)
    box = [(lo, hi), (c * lo / b, c * hi / b)]
    lines = {"family": "lotka_volterra", "a": a, "b": b, "c": c, "d": a,
             "box": box_text([(float(p), float(q)) for p, q in box])}
    return {
        "type": "cli",
        "argv": ["candidates", "{spec}", "--kind", "reversibility", "--grid", f"{grid}x{grid}", "--csv", "{csv}"],
        "spec": spec_text(lines),
        "key": {"candidates": "swap", "a": str(a), "b": str(b), "c": str(c)},
        "size": {"a": int(a), "grid": grid},
    }


def quadratic_negative_job(r, grid):
    """Criterion 7's negative: F = (y + x^2, -x - x^2).  Its table fits the
    mirror map (-x, y), which is not a reversibility of F."""
    lines = {"dim": 2, "F1": "y + x^2", "F2": "-x - x^2", "box": "-2,2,-2,2"}
    return {
        "type": "cli",
        "argv": ["candidates", "{spec}", "--kind", "reversibility", "--grid", f"{grid}x{grid}", "--csv", "{csv}"],
        "spec": spec_text(lines),
        "key": {"candidates": "mirror_fails"},
        "size": {"grid": grid},
    }


def critical_points_job(r, seeds_per_axis):
    """Inventory of the equilibria of a predator-prey field, (0, 0) and
    (d / c, a / b), on a box that holds both."""
    rng = r.value
    a, b, c, d = (_small_rational(rng) for _ in range(4))
    hi = float(max(d / c, a / b)) + rng.choice((0.5, 1.0))
    box = [(-0.7, hi), (-0.9, hi + 0.3)]
    return {
        "type": "call",
        "call": "critical_points",
        "args": {"F": [f"x*({_frac_text(a)} - {_frac_text(b)}*y)", f"y*({_frac_text(c)}*x - {_frac_text(d)})"],
                 "box": box, "seeds_per_axis": seeds_per_axis},
        "key": {"roots": [[0.0, 0.0], [float(d / c), float(a / b)]]},
        "size": {"seeds_per_axis": seeds_per_axis},
    }


def _mild_field(r, n, degree, terms, funcs=(), coeffs=(-1, 1)):
    return [random_poly(r, n, degree, terms, coeffs, funcs) for _ in range(n)]


def liouville_job(r, n_points, t_max):
    n = 2
    F = _mild_field(r, n, 2, 3)
    while not any(F):
        F = _mild_field(r, n, 2, 3)
    rng = r.value
    cx, cy = rng.uniform(-0.5, 0.3), rng.uniform(-0.5, 0.3)
    w = rng.choice((0.2, 0.3, 0.4))
    return {
        "type": "call",
        "call": "liouville",
        "args": {"F": [poly_text(f, n) for f in F], "box": [(-2, 2), (-2, 2)],
                 "region": [(cx, cx + w), (cy, cy + w)], "t_max": t_max, "mc_points": n_points,
                 "seed": rng.randrange(1 << 30)},
        "key": {"status": "holds"},
        "size": {"points": n_points, "t_max": t_max},
    }


def flow_check_job(r, n, wrong):
    """`symflow check --flow` on a mild reversible or symmetric field, with
    the true sigma or with another involution that the field does not obey.
    Coefficients +-1/4 on [-1, 1]^n keep the flow inside symflow's guard box
    over the default horizon."""
    kind = r.shape.choice(("reversibility", "symmetry"))
    other = "symmetry" if kind == "reversibility" else "reversibility"
    F, perm, sig = structured_field(r, n, 2, 2, kind, False, coeffs=(Fraction(-1, 4), Fraction(1, 4)))
    if wrong:
        while True:
            perm2, sig2 = random_involution(r.shape, n)
            if (perm2, sig2) != (perm, sig) and any(split_parts(F, perm2, sig2, other)):
                break
        perm, sig = perm2, sig2
    checks = {"structural": "fails" if wrong else "holds", "involution": "holds",
              "measure_preserving": "holds", "flow_relation": "fails" if wrong else "holds"}
    if not wrong:
        checks["tower_transform"] = "holds"
    return _check_cli_job(F, perm, sig, kind, 1, ["--flow"], checks, {"dim": n, "wrong": wrong})


def fd_sweep_job(r, points, orders, funcs=()):
    """Finite-difference tower values at `points`, orders 0..orders-1.  The
    oracle's stencils are second order: at order 3 its error is about
    h^2/4 |D_5| with h = 1e-3, so the fields are kept mild (coefficients
    +-1/2, points in [-0.8, 0.8]^2) for criterion 8's tolerance to apply."""
    n = 2
    half = (Fraction(-1, 2), Fraction(1, 2))
    F = _mild_field(r, n, 2, 3, funcs, half)
    while not any(F):
        F = _mild_field(r, n, 2, 3, funcs, half)
    pts = [[round(r.value.uniform(-0.8, 0.8), 6) for _ in range(n)] for _ in range(points)]
    return {
        "type": "call",
        "call": "fd_sweep",
        "args": {"F": [poly_text(f, n) for f in F], "box": [(-2, 2), (-2, 2)], "points": pts, "orders": orders},
        "key": {"tower": [poly_text(f, n) for f in F]},
        "size": {"points": points, "orders": orders},
    }


TRANSCENDENTAL = ("sin", "cos", "exp")

# fixed cycles of size classes per group, one entry per job slot
GROUP_CYCLES = {
    "verify_exact": (
        lambda r: check_job(r, 2, 3, 3, 6, "reversibility", False),
        lambda r: lv_classify_job(r, "a_eq_d"),
        lambda r: check_job(r, 3, 2, 3, 4, "symmetry", False),
        lambda r: check_job(r, 2, 2, 4, 5, "symmetry", True),
        lambda r: lienard_classify_job(r, "mirror"),
        lambda r: check_job(r, 4, 2, 2, 3, "reversibility", False),
        lambda r: check_job(r, 3, 3, 2, 3, "reversibility", True),
        lambda r: lv_classify_job(r, "a_plus_d_zero"),
        lambda r: check_job(r, 2, 3, 3, 5, "symmetry", False),
        lambda r: check_job(r, 4, 2, 2, 3, "symmetry", True),
        lambda r: lienard_classify_job(r, "point"),
        lambda r: check_job(r, 3, 2, 3, 5, "reversibility", False),
        lambda r: check_job(r, 2, 3, 4, 4, "reversibility", True),
        lambda r: lv_classify_job(r, "generic"),
        lambda r: check_job(r, 3, 3, 3, 3, "symmetry", False),
        lambda r: check_job(r, 2, 2, 3, 6, "symmetry", False),
        lambda r: lienard_classify_job(r, "negative"),
        lambda r: check_job(r, 4, 2, 3, 3, "reversibility", True),
        lambda r: check_job(r, 2, 3, 2, 6, "symmetry", True),
        lambda r: lv_classify_job(r, "bc_zero"),
        lambda r: check_job(r, 3, 2, 2, 6, "reversibility", False),
    ),
    "verify_sampled": (
        lambda r: check_job(r, 2, 2, 2, 2, "reversibility", False, TRANSCENDENTAL),
        lambda r: check_job(r, 3, 1, 2, 2, "symmetry", False, TRANSCENDENTAL),
        lambda r: check_job(r, 2, 2, 2, 2, "symmetry", True, TRANSCENDENTAL),
        lambda r: check_job(r, 2, 1, 2, 3, "reversibility", False, TRANSCENDENTAL),
        lambda r: check_job(r, 3, 1, 2, 2, "reversibility", True, TRANSCENDENTAL),
        lambda r: check_job(r, 2, 2, 3, 2, "symmetry", False, TRANSCENDENTAL),
        lambda r: check_job(r, 2, 1, 3, 2, "symmetry", True, TRANSCENDENTAL),
        lambda r: check_job(r, 4, 1, 2, 2, "reversibility", False, TRANSCENDENTAL),
    ),
    "synthesize": (
        lambda r: lv_candidates_job(r, 1, 6),
        lambda r: critical_points_job(r, 8),
        lambda r: lv_candidates_job(r, 2, 5),
        lambda r: lv_candidates_job(r, 3, 6),
        lambda r: quadratic_negative_job(r, 6),
        lambda r: lv_candidates_job(r, 1, 5),
        lambda r: critical_points_job(r, 10),
        lambda r: lv_candidates_job(r, 2, 6),
        lambda r: lv_candidates_job(r, 3, 5),
    ),
    "flow_oracles": (
        lambda r: liouville_job(r, 100_000, 0.01),
        lambda r: flow_check_job(r, 2, False),
        lambda r: fd_sweep_job(r, 8, 4),
        lambda r: liouville_job(r, 100_000, 0.01),
        lambda r: flow_check_job(r, 2, True),
        lambda r: fd_sweep_job(r, 8, 4, ("sin",)),
        lambda r: liouville_job(r, 100_000, 0.01),
        lambda r: flow_check_job(r, 3, False),
        lambda r: fd_sweep_job(r, 8, 4),
        lambda r: flow_check_job(r, 3, True),
    ),
}


CYCLES = {
    w: tuple((group, make) for group in groups for make in GROUP_CYCLES[group])
    for w, groups in GROUPS.items()
}


class Draw:
    """The two random streams of one job.  `shape` draws what sets the job's
    size (monomials, transcendental factors, sigma's permutation): it cycles
    through SHAPES fixed draws per size class, the same for every seed, offset
    by the slot, so that every cycle holds about as many jobs of each shape
    and runs of a different number of cycles measure nearly the same mix.
    `value` draws everything else (coefficients, parameters, boxes, points)
    from the seed."""

    def __init__(self, workload: str, seed: int, index: int):
        slot = index % len(CYCLES[workload])
        shape = (index // len(CYCLES[workload]) + slot) % SHAPES
        self.shape = random.Random(f"{workload}:class{slot}:shape{shape}")
        self.value = random.Random(f"{workload}:{seed}:{index}")


# distinct shapes per size class; a run of a few cycles sees most of them
SHAPES = 4


def make_job(workload: str, seed: int, index: int) -> dict:
    """Job `index` of `workload` for `seed`; the same triple gives the same job."""
    cycle = CYCLES[workload]
    group, make = cycle[index % len(cycle)]
    job = make(Draw(workload, seed, index))
    job["id"] = index
    job["class"] = index % len(cycle)
    job["group"] = group
    return job
