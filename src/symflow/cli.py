"""Command-line front end.

Systems are described by UTF-8 key=value files:

    dim=2
    F1=y+x^2
    F2=-x
    S1=-x
    S2=y
    box=-2,2,-2,2
    family=lienard      # optional: generic | lotka_volterra | lienard
    f=x^3               # lienard family parameters
    g=x
    a=1                 # lotka_volterra family parameters: a, b, c, d

Blank lines and lines starting with '#' are ignored.  For family systems the
field components are derived from the parameters when F1/F2 are absent.

Subcommands:
    check       run the structural battery against a supplied map
    classify    closed-form family classification
    candidates  recover a candidate map pointwise, write it as CSV

Exit codes: 0 all checks hold / a map exists, 1 a check fails / none exists,
2 usage, parse or expression errors (such as a division by an expression
that simplifies to zero), 3 inconclusive results / violated hypotheses /
a tower entry over the node budget / a classifier's map that fails its own
re-verification (an internal error) / a request too large for memory, such
as a huge candidates grid.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

import numpy as np

from .candidates import (
    EXISTS,
    HYPOTHESES_VIOLATED,
    NOT_EXISTS,
    VerificationError,
    candidate_map_table,
    candidate_table_to_csv,
    classify_lienard,
    classify_lotka_volterra,
    fit_affine_candidate,
    lienard_field,
    lotka_volterra_field,
)
from .checks import check_structural, check_tower_transform
from .expr import ExprError
from .fields import SmoothMap, VectorField, is_involution, is_measure_preserving
from .flow import ESCAPE_INFLATION, IntegratorConfig, check_flow_relation
from .geometry import DomainBox
from .parser import ParseError, parse
from .report import (
    build_report,
    classification_jsonable,
    dump_report,
    sigma_jsonable,
    table_jsonable,
    write_atomic,
)
from .tower import Selection, TowerBudgetError, default_selection
from .verdict import CheckKind, Status, Verdict

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class SpecError(Exception):
    pass


@dataclass
class SystemSpec:
    dimension: int
    field: VectorField
    sigma: Optional[SmoothMap]
    box: DomainBox
    family: str
    params: dict
    echo: dict = field(default_factory=dict)


def _parse_box(text: str, dimension: int) -> DomainBox:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 * dimension:
        raise SpecError(f"box needs {2 * dimension} numbers, got {len(parts)}")
    try:
        values = [float(Fraction(p)) for p in parts]
    except (ValueError, ArithmeticError) as exc:
        raise SpecError(f"bad box entry: {exc}") from exc
    box = DomainBox(list(zip(values[0::2], values[1::2])))
    # the flow checks march inside the inflated box: a box too wide for
    # that guard is a usage error for every command
    box.inflate(ESCAPE_INFLATION)
    return box


def load_system_spec(path: str) -> SystemSpec:
    """Parse a key=value system description file."""
    kv = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in kv:
            raise SpecError(f"{path}:{lineno}: duplicate key {key!r}")
        kv[key] = value

    family = kv.get("family", "generic")
    params: dict = {}
    dim = None
    if "dim" in kv:
        try:
            dim = int(kv["dim"])
        except ValueError as exc:
            raise SpecError(f"bad dim: {kv['dim']!r}") from exc

    if family == "lotka_volterra":
        dimension = 2
        try:
            params = {k: Fraction(kv[k]) for k in ("a", "b", "c", "d")}
        except KeyError as exc:
            raise SpecError(f"lotka_volterra family needs parameter {exc}") from exc
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"bad rational parameter: {exc}") from exc
    elif family == "lienard":
        dimension = 2
        for k in ("f", "g"):
            if k not in kv:
                raise SpecError(f"lienard family needs parameter {k!r}")
        try:
            params = {k: parse(kv[k], 1) for k in ("f", "g")}
        except ParseError as exc:
            raise SpecError(f"bad lienard parameter: {exc}") from exc
    elif family == "generic":
        if dim is None:
            raise SpecError("generic systems need dim=<n>")
        dimension = dim
        if dimension < 1:
            raise SpecError("dim must be >= 1")
    else:
        raise SpecError(f"unknown family {family!r}")

    if dim is not None and dim != dimension:
        raise SpecError(f"dim={kv['dim']} conflicts with family {family!r}")

    box = _parse_box(kv["box"], dimension) if "box" in kv else DomainBox.cube(-2.0, 2.0, dimension)

    field_keys = [f"F{i}" for i in range(1, dimension + 1)]
    if all(k in kv for k in field_keys):
        try:
            comps = [parse(kv[k], dimension) for k in field_keys]
        except ParseError as exc:
            raise SpecError(f"bad field component: {exc}") from exc
        F = VectorField(comps, box)
    elif family == "lotka_volterra":
        F = lotka_volterra_field(params["a"], params["b"], params["c"], params["d"], box)
    elif family == "lienard":
        F = lienard_field(params["f"], params["g"], box)
    else:
        missing = [k for k in field_keys if k not in kv]
        raise SpecError(f"missing field components: {', '.join(missing)}")

    sigma_keys = [f"S{i}" for i in range(1, dimension + 1)]
    present = [k for k in sigma_keys if k in kv]
    sigma = None
    if present:
        if len(present) != dimension:
            raise SpecError(f"sigma needs all of {', '.join(sigma_keys)}")
        try:
            sigma = SmoothMap([parse(kv[k], dimension) for k in sigma_keys], box)
        except ParseError as exc:
            raise SpecError(f"bad sigma component: {exc}") from exc

    return SystemSpec(dimension, F, sigma, box, family, params, echo=dict(kv))


def _resolve_seed(args) -> int:
    env = os.environ.get("SYMFLOW_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SpecError(f"SYMFLOW_SEED must be an integer, got {env!r}") from exc
    return args.seed


def _statuses_to_exit(statuses: List[Status]) -> int:
    if any(s is Status.FAILS for s in statuses):
        return EXIT_FAILS
    if any(s is Status.INCONCLUSIVE for s in statuses):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _emit(report: dict, out: Optional[str]) -> None:
    text = dump_report(report)
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    spec = load_system_spec(args.spec)
    if spec.sigma is None:
        raise SpecError("check requires sigma components (S1, S2, ...) in the spec file")
    seed = _resolve_seed(args)
    kind = CheckKind(args.kind)
    start = time.perf_counter()

    checks = []
    statuses = []

    def record(name: str, verdict: Verdict, params: dict):
        checks.append({"name": name, "params": params, "verdict": verdict.to_jsonable()})
        statuses.append(verdict.status)

    rng = lambda k: np.random.default_rng([seed, k])  # noqa: E731
    record(
        "structural",
        check_structural(spec.field, spec.sigma, kind, trials=args.trials, rng=rng(1)),
        {"kind": kind.value, "trials": args.trials},
    )
    record(
        "involution",
        is_involution(spec.sigma, trials=args.trials, rng=rng(2)),
        {"trials": args.trials},
    )
    record(
        "measure_preserving",
        is_measure_preserving(spec.sigma, trials=args.trials, rng=rng(3)),
        {"trials": args.trials},
    )
    record(
        "tower_transform",
        check_tower_transform(
            spec.field, spec.sigma, kind, args.orders, trials=args.trials, rng=rng(4)
        ),
        {"kind": kind.value, "orders": args.orders, "trials": args.trials},
    )
    if args.flow:
        cfg = IntegratorConfig(step=args.step, horizon=args.horizon, seed=seed)
        record(
            "flow_relation",
            check_flow_relation(
                spec.field, spec.sigma, kind, samples=args.samples, cfg=cfg, rng=rng(5)
            ),
            {
                "kind": kind.value,
                "samples": args.samples,
                "horizon": args.horizon,
                "step": args.step,
            },
        )

    exit_code = _statuses_to_exit(statuses)
    timing = (time.perf_counter() - start) * 1000 if args.timing else None
    report = build_report("check", spec.echo, seed, checks, exit_code, timing)
    _emit(report, args.out)
    return exit_code


def cmd_classify(args) -> int:
    spec = load_system_spec(args.spec)
    seed = _resolve_seed(args)
    start = time.perf_counter()
    if spec.family == "lotka_volterra":
        cl = classify_lotka_volterra(
            spec.params["a"], spec.params["b"], spec.params["c"], spec.params["d"], spec.box
        )
    elif spec.family == "lienard":
        interval = spec.box.intervals[0]
        y_range = spec.box.intervals[1]
        cl = classify_lienard(spec.params["f"], spec.params["g"], interval, y_range)
    else:
        raise SpecError("classify requires family=lotka_volterra or family=lienard")

    overall = cl.overall
    exit_code = {
        EXISTS: EXIT_OK,
        NOT_EXISTS: EXIT_FAILS,
        HYPOTHESES_VIOLATED: EXIT_INCONCLUSIVE,
    }[overall]
    checks = [{"name": "classification", "params": {}, "classification": classification_jsonable(cl)}]
    timing = (time.perf_counter() - start) * 1000 if args.timing else None
    report = build_report("classify", spec.echo, seed, checks, exit_code, timing)
    _emit(report, args.out)
    return exit_code


def cmd_candidates(args) -> int:
    spec = load_system_spec(args.spec)
    seed = _resolve_seed(args)
    kind = CheckKind(args.kind)
    start = time.perf_counter()

    if args.selection:
        try:
            selection = Selection([int(s) for s in args.selection.split(",")])
        except ValueError as exc:
            raise SpecError(f"bad selection: {exc}") from exc
    else:
        selection = default_selection(spec.dimension)

    try:
        grid = [int(s) for s in args.grid.lower().split("x")]
    except ValueError as exc:
        raise SpecError(f"bad grid spec {args.grid!r}") from exc
    if len(grid) == 1:
        grid = grid * spec.dimension
    if len(grid) != spec.dimension:
        raise SpecError(f"grid needs {spec.dimension} axis counts")

    anchor = None
    if args.anchor:
        try:
            anchor = [float(Fraction(s)) for s in args.anchor.split(",")]
        except ValueError as exc:
            raise SpecError(f"bad anchor: {exc}") from exc
        if len(anchor) != spec.dimension:
            raise SpecError(f"anchor needs {spec.dimension} coordinates")

    cmap = candidate_map_table(
        spec.field, selection, kind, grid=grid, anchor=anchor, multistart=args.multistart
    )
    csv_path = args.csv or str(Path(args.spec).with_suffix("")) + "_candidates.csv"
    candidate_table_to_csv(cmap, csv_path)

    checks = [{"name": "candidate_table", "params": {"grid": "x".join(map(str, grid))},
               "table": table_jsonable(cmap, csv_path)}]

    exit_code = EXIT_OK
    if cmap.status == "inconclusive" or (not cmap.entries and cmap.status != "trivial_only"):
        exit_code = EXIT_INCONCLUSIVE
    elif cmap.status == "trivial_only":
        checks.append(
            {
                "name": "candidate_fit",
                "params": {},
                "note": "only the trivial identity branch survives; the sole candidate is the identity map",
            }
        )
    else:
        fitted = fit_affine_candidate(cmap, spec.box)
        if fitted is None:
            checks.append(
                {"name": "candidate_fit", "params": {}, "note": "table is not affine; see CSV"}
            )
        else:
            sigma, fit_residual = fitted
            verdict = check_structural(
                spec.field, sigma, kind, rng=np.random.default_rng([seed, 7])
            )
            checks.append(
                {
                    "name": "candidate_fit",
                    "params": {"fit_residual": repr(float(fit_residual))},
                    "sigma": sigma_jsonable(sigma),
                    "structural": verdict.to_jsonable(),
                }
            )
            if not verdict.holds:
                exit_code = EXIT_FAILS

    timing = (time.perf_counter() - start) * 1000 if args.timing else None
    report = build_report("candidates", spec.echo, seed, checks, exit_code, timing)
    _emit(report, args.out)
    return exit_code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so in-process callers of main (tests, scripts, the
    benchmark worker) skip the argparse setup on every later call.  A
    one-shot command-line run builds it once either way."""
    parser = argparse.ArgumentParser(
        prog="symflow",
        description="Measure-preserving symmetry and reversibility analysis for smooth vector fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="system spec file (key=value lines)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (SYMFLOW_SEED overrides)")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--timing", action="store_true", help="include wall time in the report")

    p = sub.add_parser("check", help="verify a candidate map against a field")
    common(p)
    p.add_argument("--kind", choices=["symmetry", "reversibility"], required=True)
    p.add_argument("--orders", type=int, default=3, help="largest tower order to test")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--flow", action="store_true", help="also run the flow-level comparison")
    p.add_argument("--samples", type=int, default=50, help="flow comparison samples")
    p.add_argument("--horizon", type=float, default=0.5, help="flow comparison horizon T")
    p.add_argument("--step", type=float, default=1e-3, help="integrator step")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("classify", help="closed-form family classification")
    common(p)
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("candidates", help="recover a candidate map pointwise")
    common(p)
    p.add_argument("--kind", choices=["symmetry", "reversibility"], required=True)
    p.add_argument("--selection", help="comma-separated tower orders, default 0,..,n-1")
    p.add_argument("--grid", default="20x20", help="grid spec, e.g. 20x20")
    p.add_argument("--anchor", help="continuation anchor point, e.g. 1.0,1.0")
    p.add_argument("--multistart", type=int, default=5, help="Newton seeds per axis")
    p.add_argument("--csv", help="candidate table CSV path")
    p.set_defaults(run=cmd_candidates)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (SpecError, ParseError, ExprError, ValueError, OSError) as exc:
        print(f"symflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TowerBudgetError, VerificationError) as exc:
        print(f"symflow: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except MemoryError as exc:
        print(f"symflow: out of memory: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
