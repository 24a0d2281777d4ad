"""Span tracer that wraps symflow's layer functions from outside the library.

`Tracer.install` rebinds each target name in its defining module and in every
`symflow` module that imported it with `from ... import`, so calls made inside
the library go through the wrapper too.  Spans (id, name, start, end, parent,
job) are kept in memory and written out once, at the end of the run.  Self
time is a span's duration minus the time its child spans cover; it is also
summed per job group.  Counts are
taken from arguments and return values; the time spent taking them is
charged to no span.

A target that a later version of symflow no longer has reports 0 calls and a
note instead of stopping the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _count_converged(stat, args, kwargs, result):
    stat.extra["converged"] = stat.extra.get("converged", 0) + bool(result[1])


def _count_certain(stat, args, kwargs, result):
    stat.extra["certain"] = stat.extra.get("certain", 0) + (result.certainty.value == "certain")


def _count_rows(stat, args, kwargs, result):
    z = _arg(args, kwargs, 1, "z")
    stat.extra["rows"] = stat.extra.get("rows", 0) + (z.shape[0] if getattr(z, "ndim", 1) > 1 else 1)


def _count_rows_steps(stat, args, kwargs, result):
    z0 = _arg(args, kwargs, 2, "z0")
    steps = _arg(args, kwargs, 4, "steps")
    rows = z0.shape[0] if getattr(z0, "ndim", 1) > 1 else 1
    stat.extra["rows_steps"] = stat.extra.get("rows_steps", 0) + rows * int(steps)


def _count_nodes(stat, args, kwargs, result):
    from symflow.expr import node_count

    counts = [node_count(e) for e in result.orders]
    stat.extra["nodes_total"] = stat.extra.get("nodes_total", 0) + sum(counts)
    stat.extra["nodes_max"] = max(stat.extra.get("nodes_max", 0), max(counts))


# (module, function, layer, mode, counter); mode "span" records spans and
# self time, "count" only counts calls (per-point evaluators, too frequent
# for a span each; their time stays in the calling span's self time)
TARGETS = (
    ("cli", "main", "front_end", "span", None),
    ("cli", "load_system_spec", "front_end", "span", None),
    ("report", "dump_report", "front_end", "span", None),
    ("parser", "parse", "front_end", "span", None),
    ("expr", "simplify", "symbolic", "span", None),
    ("expr", "differentiate", "symbolic", "span", None),
    ("expr", "compose", "symbolic", "span", None),
    ("fields", "lie_derivative", "symbolic", "span", None),
    ("fields", "jacobian", "symbolic", "span", None),
    ("tower", "build_tower", "symbolic", "span", _count_nodes),
    ("expr", "identically_zero", "evaluation", "span", _count_certain),
    ("expr", "sampled_zero_verdict", "evaluation", "span", None),
    ("expr", "evaluate_scaled", "evaluation", "count", None),
    ("expr", "evaluate", "evaluation", "count", None),
    ("numeric", "compile_components", "evaluation", "span", None),
    ("numeric", "damped_newton", "solvers", "span", _count_converged),
    ("numeric", "rk4_step", "solvers", "span", _count_rows),
    ("numeric", "rk4_final", "solvers", "span", None),
    ("numeric", "rk4_variational", "solvers", "span", _count_rows_steps),
    ("checks", "check_structural", "drivers", "span", None),
    ("checks", "tower_order_verdicts", "drivers", "span", None),
    ("candidates", "candidate_map_table", "drivers", "span", None),
    ("flow", "check_flow_relation", "drivers", "span", None),
    ("flow", "check_liouville", "drivers", "span", None),
    ("tower", "tower_fd_oracle", "drivers", "span", None),
    ("fields", "find_critical_points", "drivers", "span", None),
)

LAYERS = ("front_end", "symbolic", "evaluation", "solvers", "drivers")


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = {}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {}
        self.notes = []
        self.spans = []
        self.job = None
        self.group = None
        self.group_self = {}  # group -> span name -> self seconds
        self._stack = []
        self._undo = []
        self._next_id = 0

    def install(self) -> None:
        for module, name, _layer, mode, counter in self.targets:
            key = f"{module}.{name}"
            stat = self.stats[key] = Stat()
            mod = sys.modules.get(f"symflow.{module}")
            original = getattr(mod, name, None)
            if original is None:
                self.notes.append(f"{key} not found in symflow; it reports 0 calls")
                continue
            if mode == "span":
                wrapper = self._span_wrapper(key, stat, original, counter)
            else:
                wrapper = self._count_wrapper(stat, original)
            for mod_name, m in list(sys.modules.items()):
                if m is None or not (mod_name == "symflow" or mod_name.startswith("symflow.")):
                    continue
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def _span_wrapper(self, key, stat, fn, counter):
        stack = self._stack
        spans = self.spans
        # processor time, like the job times it is compared with
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                own = (t1 - t0) - frame[1]
                stat.calls += 1
                stat.self_s += own
                by_group = self.group_self.setdefault(self.group, {})
                by_group[key] = by_group.get(key, 0.0) + own
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((sid, key, t0, t1, parent, self.job))
            if counter is not None:
                counter(stat, args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - t1
            return result

        return wrapper

    @staticmethod
    def _count_wrapper(stat, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        return {
            key: {"calls": s.calls, "self_ms": s.self_s * 1e3, **s.extra}
            for key, s in self.stats.items()
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
