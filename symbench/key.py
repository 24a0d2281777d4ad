"""Answer key for the symflow benchmark.

Expected results never come from symflow:

- `check` jobs: from the construction in jobs.py (a field built to obey sigma
  holds every check; one built to break it fails the structural check);
- `classify` jobs: from the closed-form conditions (predator-prey:
  b c != 0, a = d, a + d = 0; damped oscillator: parity of f and g, with the
  sign hypotheses true by construction);
- `candidates` jobs: from the exact swap map (b y / c, c x / b), with
  criterion 7's rule of at least 95% pointwise agreement, and the fitted
  map's printed form, compared with SymPy;
- equilibria: from the closed form (0, 0) and (d / c, a / b);
- finite-difference oracle sweeps: tower values computed with SymPy.

`check(job, record)` returns (right, reason).  `known_defect(job, record)`
names a documented symflow defect that explains a wrong answer, or None.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import sympy as sp

SYMBOLS = {name: sp.Symbol(name) for name in ("x", "y", "z", "z1", "z2", "z3", "z4")}
TABLE_AGREEMENT = 0.95  # criterion 7: share of non-singular grid points on the swap map
TABLE_TOL = 1e-6
ROOT_TOL = 1e-6
FD_TOL = 1e-4  # criterion 8: |fd - exact| < FD_TOL * (1 + |exact|)


def sym(text: str):
    return sp.sympify(text.replace("^", "**"), locals=SYMBOLS)


def same_map(texts, expected) -> bool:
    if texts is None or len(texts) != len(expected):
        return False
    return all(sp.expand(sym(t) - sym(e)) == 0 for t, e in zip(texts, expected))


def _checks_by_name(report: dict) -> dict:
    return {c["name"]: c for c in report["checks"]}


def _check_battery(key, rec, report):
    if rec["exit"] != key["exit"]:
        return False, f"exit {rec['exit']}, expected {key['exit']}"
    got = _checks_by_name(report)
    for name, status in key["checks"].items():
        if name not in got:
            return False, f"check {name} missing from the report"
        v = got[name]["verdict"]
        if v["status"] != status:
            return False, f"{name} {v['status']}, expected {status}"
        if v["certainty"] != key["certainty"][name]:
            return False, f"{name} {v['certainty']}, expected {key['certainty'][name]}"
    return True, ""


def _expected_lotka_volterra(params):
    a, b, c, d = (Fraction(p) for p in params)
    if b * c == 0:
        return {"reversibility": ("hypotheses_violated", None), "symmetry": ("hypotheses_violated", None)}, 3
    rev = ("exists", [f"({b / c})*y", f"({c / b})*x"]) if a == d else ("not_exists", None)
    sym_ = ("exists", [f"-({b / c})*y", f"-({c / b})*x"]) if a + d == 0 else ("not_exists", None)
    code = 0 if "exists" in (rev[0], sym_[0]) else 1
    return {"reversibility": rev, "symmetry": sym_}, code


def _expected_lienard(parity):
    if parity["f"] == "odd_monotone" and parity["g"] == "odd":
        return {"reversibility": ("exists", ["-x", "y"]), "symmetry": ("hypotheses_violated", None)}, 0
    if parity["f"] == "even_v" and parity["g"] == "odd":
        return {"reversibility": ("hypotheses_violated", None), "symmetry": ("exists", ["-x", "-y"])}, 0
    return {"reversibility": ("not_exists", None), "symmetry": ("hypotheses_violated", None)}, 1


def _check_classify(key, rec, report):
    if key["classify"] == "lotka_volterra":
        branches, code = _expected_lotka_volterra(key["params"])
    else:
        branches, code = _expected_lienard(key["parity"])
    if rec["exit"] != code:
        return False, f"exit {rec['exit']}, expected {code}"
    cl = report["checks"][0]["classification"]
    for kind, (verdict, sigma) in branches.items():
        got = cl[kind]
        if got["verdict"] != verdict:
            return False, f"{kind} {got['verdict']}, expected {verdict}"
        if sigma is not None and not same_map(got["sigma"], sigma):
            return False, f"{kind} map {got['sigma']}, expected {sigma}"
    return True, ""


def table_agreement(job, rec, report):
    """(matching points, non-singular grid points) of the candidate table
    against the exact swap map."""
    b, c = Fraction(job["key"]["b"]), Fraction(job["key"]["c"])
    stats = _checks_by_name(report)["candidate_table"]["table"]["stats"]
    usable = stats["grid_points"] - stats["singular_filtered"]
    rows = list(csv.reader(io.StringIO(rec.get("csv", ""))))[1:]
    good = 0
    for row in rows:
        zx, zy, wx, wy = (float(v) for v in row[:4])
        if math.hypot(wx - float(b / c) * zy, wy - float(c / b) * zx) < TABLE_TOL:
            good += 1
    return good, usable


def _check_candidates(job, rec, report):
    key = job["key"]
    checks = _checks_by_name(report)
    fit = checks.get("candidate_fit", {})
    if key["candidates"] == "mirror_fails":
        if rec["exit"] != 1:
            return False, f"exit {rec['exit']}, expected 1"
        if not same_map(fit.get("sigma"), ["-x", "y"]):
            return False, f"fitted map {fit.get('sigma')}, expected (-x, y)"
        if fit["structural"]["status"] != "fails":
            return False, f"fitted map structural {fit['structural']['status']}, expected fails"
        return True, ""
    if rec["exit"] != 0:
        return False, f"exit {rec['exit']}, expected 0"
    good, usable = table_agreement(job, rec, report)
    if good < TABLE_AGREEMENT * usable:
        return False, f"{good} of {usable} table points on the swap map"
    b, c = Fraction(key["b"]), Fraction(key["c"])
    if not same_map(fit.get("sigma"), [f"({b / c})*y", f"({c / b})*x"]):
        return False, f"fitted map {fit.get('sigma')} ({fit.get('note', '')}), expected the swap map"
    if fit["structural"]["status"] != "holds":
        return False, f"fitted map structural {fit['structural']['status']}, expected holds"
    return True, ""


def _check_roots(key, value):
    roots = [[float(v) for v in p] for p in value]
    expected = key["roots"]
    unmatched = [e for e in expected if not any(math.dist(e, r) < ROOT_TOL for r in roots)]
    extra = [r for r in roots if not any(math.dist(e, r) < ROOT_TOL for e in expected)]
    if unmatched or extra:
        return False, f"roots {roots}, expected {expected}"
    return True, ""


def exact_tower(field_texts, orders):
    """Callables for tower orders 0..orders-1 of a planar field, by SymPy."""
    x, y = SYMBOLS["x"], SYMBOLS["y"]
    F = [sym(t) for t in field_texts]
    D = [sp.diff(F[0], x) + sp.diff(F[1], y)]
    while len(D) < orders:
        # unexpanded: expanding products of sin terms costs more than it saves
        D.append(sp.diff(D[-1], x) * F[0] + sp.diff(D[-1], y) * F[1])
    return [sp.lambdify((x, y), d, "math") for d in D]


def _check_fd(job, value):
    args = job["args"]
    tower = exact_tower(job["key"]["tower"], args["orders"])
    for p, row in zip(args["points"], value):
        for j, got in enumerate(row):
            exact = tower[j](*p)
            if not abs(float(got) - exact) < FD_TOL * (1 + abs(exact)):
                return False, f"order {j} at {p}: oracle {got}, exact {exact!r}"
    if len(value) != len(args["points"]):
        return False, f"{len(value)} sweep rows, expected {len(args['points'])}"
    return True, ""


def check(job: dict, rec: dict):
    """(right, reason) for one job's record, which carries no error."""
    if job["type"] == "call":
        value = json.loads(rec["report"])
        if job["call"] == "liouville":
            ok = value["status"] == job["key"]["status"]
            return ok, "" if ok else f"{value['status']}: {value['notes']}"
        if job["call"] == "critical_points":
            return _check_roots(job["key"], value)
        return _check_fd(job, value)
    try:
        report = json.loads(rec["report"])
    except json.JSONDecodeError:
        return False, f"exit {rec['exit']} without a JSON report: {rec.get('stderr', '').strip()}"
    if "checks" in job["key"]:
        return _check_battery(job["key"], rec, report)
    if "classify" in job["key"]:
        return _check_classify(job["key"], rec, report)
    return _check_candidates(job, rec, report)


def _other_root(a, b, c, z, w) -> bool:
    """Whether w solves the order-0/1 Delta equations of the predator-prey
    field (x (a - b y), y (c x - a)) for reversibility at z:

        D0(w) = -D0(z),  D1(w) = D1(z),
        D0 = c x - b y,  D1 = a c x + a b y - 2 b c x y.

    For every z they have two roots, the swap map and one other."""
    def d0(p):
        return c * p[0] - b * p[1]

    def d1(p):
        return a * c * p[0] + a * b * p[1] - 2 * b * c * p[0] * p[1]

    return (abs(d0(w) + d0(z)) < TABLE_TOL * (1 + abs(d0(z)))
            and abs(d1(w) - d1(z)) < TABLE_TOL * (1 + abs(d1(z))))


def known_defect(job: dict, rec: dict):
    """The documented defect a wrong answer matches, or None.

    Spurious root branch: on predator-prey systems with a = d and a box that
    the swap map sends onto itself, candidate_map_table returns status "ok"
    while some grid points take the other root of the Delta equations
    (selection [0, 1]) instead of the swap map.  The affine fit then fails
    and the CLI exits 0 with "table is not affine".  The record matches only
    if the table has one row per usable grid point and every point off the
    swap map is that other root; a point that solves neither is a new
    failure.  This is the baseline wrong share of `synthesize`; the fix is
    left to a later change.
    """
    key = job["key"]
    if key.get("candidates") != "swap" or rec["exit"] != 0:
        return None
    report = json.loads(rec["report"])
    checks = _checks_by_name(report)
    table = checks["candidate_table"]["table"]
    if table["status"] != "ok" or table["selection"] != [0, 1]:
        return None
    if checks.get("candidate_fit", {}).get("note") != "table is not affine; see CSV":
        return None
    good, usable = table_agreement(job, rec, report)
    rows = list(csv.reader(io.StringIO(rec.get("csv", ""))))[1:]
    if good >= usable or len(rows) != usable:
        return None
    a, b, c = (float(Fraction(key[k])) for k in "abc")
    for row in rows:
        zx, zy, wx, wy = (float(v) for v in row[:4])
        on_swap = math.hypot(wx - b / c * zy, wy - c / b * zx) < TABLE_TOL
        if not on_swap and not _other_root(a, b, c, (zx, zy), (wx, wy)):
            return None
    return f"spurious root branch: {usable - good} of {usable} table points on the other Delta root"
