"""Known-answer benchmark for symflow.

Run from the root of a checkout:

    python3 symbench/run.py --workload W --seed N --seconds T --trace 0|1

W is one of the workloads in symbench/jobs.py, or `all` to run every
workload in turn.  Each workload runs in its own fresh, single-threaded
worker process (symbench/worker.py) that makes its inputs from the seed.
Job times, and so every time metric, are the worker's processor time (see
worker.cpu_clock), scaled to a host of reference speed (see calibrated);
the unscaled and the wall-clock figures are printed beside them.
Every answer is checked against the key in symbench/key.py, which never
comes from symflow.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`:

- `--trace 0`: the end-to-end metrics of BENCHMARK.json;
- `--trace 1`: the per-layer metrics of BENCHMARK.json, from a traced run
  that wraps symflow's layer functions (symbench/tracer.py), plus the
  tracing overhead against an untraced run of the same jobs.

The benchmark exits with code 2, printing no result, when the symflow
sources or the answer checker cannot be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
from tracer import LAYERS, TARGETS  # noqa: E402

WORKDIR = ".bench_work"
WORKER_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# the layer whose self time each job group is predicted to be dominated by,
# and the spans that make up the named part of that layer
PREDICTED = {
    "verify_exact": ("symbolic", ("expr.simplify", "expr.differentiate", "expr.compose",
                                  "fields.lie_derivative", "fields.jacobian", "tower.build_tower")),
    "verify_sampled": ("evaluation", ("expr.sampled_zero_verdict",)),
    "synthesize": ("solvers", ("numeric.damped_newton",)),
    "flow_oracles": ("solvers", ("numeric.rk4_step", "numeric.rk4_final", "numeric.rk4_variational")),
}

# a per-layer metric is named <span>.<statistic>, except these, which read
# the statistic from another span
SPAN_OF = {"tower.nodes_max": "tower.build_tower", "tower.nodes_total": "tower.build_tower"}
# share statistics: the counter they divide by the span's calls
SHARE_OF = {"converged_share": "converged", "certain_share": "certain"}


# the host speed time metrics are scaled to: the reference work of
# worker.reference_ms takes this many processor milliseconds
REF_NOMINAL_MS = 5.0
# a job's host speed is read from the reference timings of the jobs within
# this many places of it
REF_WINDOW = 5


class BenchError(Exception):
    """The benchmark cannot run here; it prints no result."""


def load_key():
    try:
        import key
    except ImportError as exc:
        raise BenchError(f"the answer checker cannot run: {exc}") from exc
    return key


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, env, timeout):
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def run_worker(workload, seed, seconds, trace, env, deadline):
    workdir = os.path.join(WORKDIR, f"{workload}-s{seed}")
    os.makedirs(workdir, exist_ok=True)
    result = os.path.join(WORKDIR, f"{workload}-s{seed}-t{int(trace)}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), result, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--workdir", workdir]
    if trace:
        cmd += ["--trace", os.path.join(WORKDIR, f"{workload}-spans.jsonl")]
    _run(cmd, env, max(10.0, deadline - time.monotonic()))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def score(key, workload, seed, records):
    """Error, wrong, known-defect and unexplained-wrong lists for a run."""
    errors, wrong, known, unexplained = [], [], [], []
    for rec in records:
        if rec["error"] is not None:
            errors.append((rec["id"], rec["error"]))
            continue
        job = jobs.make_job(workload, seed, rec["id"])
        right, why = key.check(job, rec)
        if right:
            continue
        wrong.append((rec["id"], why))
        defect = key.known_defect(job, rec)
        (known if defect else unexplained).append((rec["id"], defect or why))
    return {"errors": errors, "wrong": wrong, "known": known, "unexplained": unexplained}


def speeds(records):
    """Per job, REF_NOMINAL_MS over the median reference time around it:
    how much faster than the reference host this process ran then."""
    refs = [r["ref_ms"] for r in records]
    return [REF_NOMINAL_MS / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i in range(len(refs))]


def calibrated(res):
    """Scale the run's job times (`cal_ms`) and import probes (by the
    reference timings of the probe's own process) to a host that runs the
    reference work in REF_NOMINAL_MS.  The processor time of one
    job still varies by up to 1.5x with the host's phase (frequency, other
    guests on shared cores and caches); a fixed piece of work timed beside
    it tracks that phase, and dividing it out leaves symflow's own cost."""
    fast = speeds(res["records"])
    for rec, f in zip(res["records"], fast):
        rec["cal_ms"] = rec["ms"] * f
    res["setup_cal"] = [s * REF_NOMINAL_MS / ref for s, ref in res["setup_probes"]]


def tail(times):
    """The highest percentile with ten samples beyond it: (value, percentile)."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        raise BenchError(f"{n} job times, too few for a percentile with ten samples beyond it")
    return s[n - 11], 100.0 * (n - 10) / n


def timed(records):
    """Per-job times of the jobs without error, or of every job when fewer
    than eleven ran without error (the worker runs at least twelve), so an
    all-error run still reports its times and lets error_share carry it."""
    ms = [r["cal_ms"] for r in records if r["error"] is None]
    return ms if len(ms) > 10 else [r["cal_ms"] for r in records]


def digest(records, count):
    h = hashlib.sha256()
    for rec in records[:count]:
        h.update((rec.get("digest") or "error").encode())
    return h.hexdigest()[:16]


def end_to_end(res, verdict):
    """Metric name -> (value, unit).  error_free_share and right_share are
    1 - error_share and 1 - wrong_share: the same counts, never zero."""
    records = res["records"]
    n = len(records)
    ms = timed(records)
    errors, wrong = len(verdict["errors"]), len(verdict["wrong"])
    return {
        "verdicts_per_s": ((n - errors) / (sum(r["cal_ms"] for r in records) / 1e3), "1/s"),
        "verdict_ms.p50": (statistics.median(ms), "ms"),
        "verdict_ms.tail": (tail(ms)[0], "ms"),
        # the median of the worker's import probes, each scaled by the
        # reference timings of its own process: the two processors of a
        # shared host can differ in speed by 1.5x, and a probe runs on either
        "setup_s": (statistics.median(res["setup_cal"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "error_share": (errors / n, "share"),
        "wrong_share": (wrong / n, "share"),
        "error_free_share": (1 - errors / n, "share"),
        "right_share": (1 - wrong / n, "share"),
    }


def per_layer(res, specs):
    """Metric name -> (value, unit) for the per_layer entries of BENCHMARK.json."""
    tr = res["trace"]
    stats = tr["stats"]
    n = len(res["records"])
    layer_of = {f"{m}.{f}": layer for m, f, layer, _, _ in TARGETS}
    values = {f"layer.{layer}.self_share": sum(s["self_ms"] for k, s in stats.items() if layer_of[k] == layer)
              / tr["traced_ms"] for layer in LAYERS}
    values["trace.overhead"] = tr["traced_ms"] / tr["untraced_ms"]
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in values:
            span, stat = name.rsplit(".", 1)
            s = stats.get(SPAN_OF.get(name, span), {"calls": 0})
            if stat in SHARE_OF:
                values[name] = s.get(SHARE_OF[stat], 0) / s["calls"] if s["calls"] else 0.0
            elif stat == "nodes_max":
                values[name] = s.get("nodes_max", 0)
            else:
                values[name] = s.get(stat, 0) / n
        out[name] = (values[name], spec["unit"])
    return out


def run_workload(workload, seed, seconds, trace, key, env, deadline, specs):
    res = run_worker(workload, seed, seconds, trace, env, deadline)
    verdict = score(key, workload, seed, res["records"])
    n = len(res["records"])
    print(f"== {workload}  seed {seed}  {n} jobs  {'traced' if trace else 'untraced'}")
    for rid, why in verdict["errors"]:
        print(f"   error  job {rid}: {why}")
    for rid, why in verdict["unexplained"]:
        print(f"   WRONG  job {rid}: {why}")
    for rid, why in verdict["known"]:
        print(f"   wrong  job {rid}: known defect: {why}")
    if trace:
        metrics = per_layer(res, specs)
        for note in res["trace"]["notes"]:
            print(f"   note: {note}")
        for name, (value, unit) in metrics.items():
            print(f"   {name:42s} {value:14.6g} {unit}")
        layer_of = {f"{m}.{f}": layer for m, f, layer, _, _ in TARGETS}
        for group in jobs.GROUPS[workload]:
            wall = sum(r["ms"] for r in res["records"] if r["group"] == group)
            own = res["trace"]["group_self_ms"].get(group, {})
            shares = {la: sum(v for k, v in own.items() if layer_of[k] == la) / wall for la in LAYERS}
            top = max(shares, key=shares.get)
            layer, spans = PREDICTED[group]
            named = sum(own.get(k, 0.0) for k in spans) / wall
            print(f"   {group}: dominant layer {top} ({shares[top]:.1%} of its job time); predicted {layer}: "
                  f"{'confirmed' if top == layer else 'NOT confirmed'}; {'+'.join(spans)} self time {named:.1%}")
        print(f"   tracing overhead {metrics['trace.overhead'][0]:.3f}x "
              f"({res['trace']['traced_ms'] / 1e3:.2f} s traced, {res['trace']['untraced_ms'] / 1e3:.2f} s untraced,"
              f" {res['trace']['spans']} spans)")
    else:
        calibrated(res)
        metrics = end_to_end(res, verdict)
        for name, (value, unit) in metrics.items():
            print(f"   {name:18s} {value:14.6g} {unit}")
        ms = timed(res["records"])
        fast = speeds(res["records"])
        print(f"   job times are processor time scaled to the reference host; this host ran at"
              f" {min(fast):.3g}-{max(fast):.3g} (median {statistics.median(fast):.3g}) times its speed")
        for what, field in (("unscaled processor time", "ms"), ("wall clock, host steal included", "wall_ms")):
            t = [r[field] for r in res["records"]]
            print(f"   by {what}: {len(t) / (sum(t) / 1e3):.6g} jobs/s, p50 {statistics.median(t):.6g} ms")
        print(f"   unscaled setup {statistics.median(p for p, _ in res['setup_probes']):.6g} s")
        print(f"   tail is p{tail(ms)[1]:.1f} of {len(ms)} samples, 10 beyond it;"
              f" setup_s is the median of {len(res['setup_probes'])} fresh imports taken through the run")
        for group in jobs.GROUPS[workload]:
            part = [r["cal_ms"] for r in res["records"] if r["group"] == group and r["error"] is None]
            wrong = sum(jobs.make_job(workload, seed, i)["group"] == group for i, _ in verdict["wrong"])
            errors = sum(jobs.make_job(workload, seed, i)["group"] == group for i, _ in verdict["errors"])
            speed = f"{len(part) / (sum(part) / 1e3):.6g} verdicts/s, p50 {statistics.median(part):.6g} ms" \
                if part else "0 verdicts/s"
            print(f"   {group}: {len(part)} jobs, {speed}, {errors} errors, {wrong} wrong")
        print(f"   report digest {digest(res['records'], res['digest_jobs'])} "
              f"(first {res['digest_jobs']} jobs, repeated byte-for-byte)")
    return metrics, n, verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Known-answer benchmark for symflow")
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    try:
        if not os.path.isfile(os.path.join("src", "symflow", "__init__.py")):
            raise BenchError("symflow sources not found at src/symflow; run from the repository root")
        key = load_key()
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        specs = bench["per_layer" if args.trace else "end_to_end"]
        env = worker_env()
        workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
        deadline = start + WORKER_TIMEOUT_S * len(workloads)
        metrics, attempted, failed, correct = {}, 0, 0, True
        for w in workloads:
            m, n, verdict = run_workload(w, args.seed, args.seconds, args.trace, key, env, deadline, specs)
            prefix = "" if len(workloads) == 1 else f"{w}/"
            metrics.update({prefix + k["name"]: {"value": m[k["name"]][0], "unit": m[k["name"]][1]} for k in specs})
            attempted += n
            failed += len(verdict["errors"])
            correct = correct and not verdict["errors"] and not verdict["unexplained"]
    except BenchError as exc:
        print(f"symbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
