"""One workload process of the symflow benchmark.

run.py starts this file in a fresh interpreter, with BLAS and OpenMP pinned
to one thread and `src` on PYTHONPATH.  It makes and runs jobs of one
workload until the time budget is spent, timing fresh imports of numpy and
symflow between jobs (setup_s), and writes one JSON result file.
Answers are not checked here; run.py checks them against jobs' keys.

    python3 symbench/worker.py RESULT --workload W --seed N --seconds T --workdir D [--trace SPANS]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import numpy
from symflow import cli, fields, flow, parser, tower
from symflow.geometry import DomainBox

import jobs

# the first DIGEST_JOBS jobs run again after the timed loop: their report
# bytes must repeat, and their digest identifies the reports of this seed
DIGEST_JOBS = 3
# enough jobs for a tail percentile with ten samples beyond it
MIN_JOBS = 12
EXIT_CODES = (0, 1, 2, 3)
# setup_s: a fresh interpreter imports numpy and symflow this often during an
# untraced run, so the probes span the host's speed phases
PROBE_EVERY_S = 4.0
# size of the reference work: about 5 ms on a 2-vCPU Xeon virtual machine
REF_LOOPS = 2500
# the probe times the import, then the reference work in the same process
PROBE = ("import sys, time\nt = time.process_time()\nimport numpy, symflow\nt = time.process_time() - t\n"
         "sys.path.insert(0, sys.argv[1])\nimport statistics, worker\n"
         "print(t, statistics.median(worker.reference_ms() for _ in range(5)))\n")


def _field(args):
    comps = [parser.parse(text, len(args["F"])) for text in args["F"]]
    return fields.VectorField(comps, DomainBox(args["box"]))


def _floats(values):
    return [repr(float(v)) for v in values]


def _call_liouville(args):
    F = _field(args)
    v = flow.check_liouville(F, DomainBox(args["region"]), t_max=args["t_max"],
                             mc_points=args["mc_points"], seed=args["seed"])
    return v.to_jsonable()


def _call_fd_sweep(args):
    F = _field(args)
    return [_floats(tower.tower_fd_oracle(F, p, j) for j in range(args["orders"])) for p in args["points"]]


def _call_critical_points(args):
    F = _field(args)
    return [_floats(p) for p in fields.find_critical_points(F, seeds_per_axis=args["seeds_per_axis"])]


CALLS = {"liouville": _call_liouville, "fd_sweep": _call_fd_sweep, "critical_points": _call_critical_points}


def cpu_clock():
    """Processor seconds of this process and of the children it has waited
    for.  Jobs are timed with it, not with the wall clock: the worker is
    single-threaded and never waits on input, so its time to a verdict is
    its processor time, while the wall clock of a shared virtual machine
    also counts the time the host gives its processor to other guests
    (steal), which made one job's wall time vary by up to 2x from run to
    run where its processor time varied by about 10%.  Threads and child
    processes a later symflow might start are counted, never hidden."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def reference_ms():
    """Processor milliseconds of a fixed piece of work that does not use
    symflow: dictionary, tuple and integer work in the interpreter, then
    small numpy calls, as symflow's jobs do.  Timed before every job, it
    measures how fast the host runs this process at that moment; run.py
    scales job times by it (see run.calibrated)."""
    t0 = cpu_clock()
    acc = {}
    for i in range(REF_LOOPS):
        k = (i * 7919) % 1009, i % 7
        acc[k] = acc.get(k, 0) + i % 13
    sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))
    x = numpy.linspace(-1.0, 1.0, 256)
    for _ in range(REF_LOOPS // 50):
        x = numpy.sin(x) * 0.5 + numpy.cos(x[::-1]) * 0.5
    return (cpu_clock() - t0) * 1e3


def import_time():
    """Processor seconds a fresh interpreter, with this process's
    environment, takes to import numpy and symflow, and the median of five
    reference timings (ms) it makes right after.  This process has already
    imported them, so the bytecode caches, which users do not pay for on
    every invocation, are written."""
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-c", PROBE, here], capture_output=True, text=True, check=True, timeout=60)
    seconds, ref_ms = map(float, proc.stdout.split())
    return seconds, ref_ms


def run_job(job, workdir):
    """Run one job; time only the symflow call, in processor time (`ms`,
    see cpu_clock) and in wall time (`wall_ms`, printed only).  Returns the record run.py
    checks: exit code or value, report text, digest, and any error."""
    rec = {"id": job["id"], "class": job["class"], "group": job["group"], "error": None}
    out, err = io.StringIO(), io.StringIO()
    csv_path = None
    if job["type"] == "cli":
        spec_path = os.path.join(workdir, f"job{job['id']}.spec")
        csv_path = os.path.join(workdir, f"job{job['id']}.csv")
        with open(spec_path, "w", encoding="utf-8") as fh:
            fh.write(job["spec"])
        argv = [a.replace("{spec}", spec_path).replace("{csv}", csv_path) for a in job["argv"]]
    t0, w0 = cpu_clock(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job["type"] == "cli":
                result = cli.main(argv)
            else:
                result = CALLS[job["call"]](job["args"])
    except Exception as exc:  # a job that raises is an error, never the end of the run
        rec["ms"] = (cpu_clock() - t0) * 1e3
        rec["wall_ms"] = (time.perf_counter() - w0) * 1e3
        rec["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return rec
    rec["ms"] = (cpu_clock() - t0) * 1e3
    rec["wall_ms"] = (time.perf_counter() - w0) * 1e3
    stderr = err.getvalue()
    if job["type"] == "cli":
        rec["exit"] = result
        report = out.getvalue()
        if result not in EXIT_CODES:
            rec["error"] = f"exit code {result!r}"
        if csv_path and os.path.exists(csv_path):
            with open(csv_path, encoding="utf-8") as fh:
                rec["csv"] = fh.read()
    else:
        report = json.dumps(result, sort_keys=True)
    if "Traceback" in stderr:
        rec["error"] = "traceback on stderr: " + stderr.strip().splitlines()[-1]
    rec["report"] = report
    rec["stderr"] = stderr[-500:]
    digest = hashlib.sha256(report.encode())
    digest.update(b"\0" + rec.get("csv", "").encode())
    rec["digest"] = digest.hexdigest()
    return rec


def run_loop(workload, seed, seconds, workdir, tracer=None, probes=None):
    """Jobs 0, 1, 2, ... until `seconds` of wall time have passed, at least
    MIN_JOBS jobs have run, and the last cycle of size classes is whole, so
    every run measures whole cycles of the same classes.  Before each job
    the reference work is timed (`ref_ms`).  With a `probes` list, an
    import probe runs between jobs every PROBE_EVERY_S.  Neither counts
    toward `seconds`."""
    records = []
    start = time.perf_counter()
    paused = 0.0
    next_probe = start
    index = 0
    cycle = len(jobs.CYCLES[workload])
    while index < MIN_JOBS or time.perf_counter() - start - paused < seconds or index % cycle:
        if probes is not None and time.perf_counter() >= next_probe:
            t0 = time.perf_counter()
            probes.append(import_time())
            paused += time.perf_counter() - t0
            next_probe = time.perf_counter() + PROBE_EVERY_S
        job = jobs.make_job(workload, seed, index)
        if tracer is not None:
            tracer.job, tracer.group = index, job["group"]
        t0 = time.perf_counter()
        ref = reference_ms()
        paused += time.perf_counter() - t0
        records.append(run_job(job, workdir))
        records[-1]["ref_ms"] = ref
        index += 1
    return records


def rerun(workload, seed, records, workdir, why):
    """Run the jobs of `records` again; differing report bytes are errors."""
    again = []
    for rec in records:
        second = run_job(jobs.make_job(workload, seed, rec["id"]), workdir)
        if rec["error"] is None and second["error"] is None and second["digest"] != rec["digest"]:
            rec["error"] = f"report bytes differ {why}"
        again.append(second)
    return again


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("result")
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", help="write spans here and report per-layer counts")
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    out = {}
    if args.trace:
        from tracer import Tracer

        # traced pass for half the budget, then the same jobs untraced: the
        # ratio of the two is the tracing overhead
        tr = Tracer()
        tr.install()
        try:
            traced = run_loop(args.workload, args.seed, args.seconds / 2, args.workdir, tr)
        finally:
            tr.uninstall()
        # spans go to disk before the untraced pass, so that pass does not
        # carry them on its heap
        tr.write_spans(args.trace)
        spans = len(tr.spans)
        tr.spans.clear()
        untraced = rerun(args.workload, args.seed, traced, args.workdir, "between the traced and untraced runs")
        out["records"] = traced
        out["trace"] = {
            "stats": tr.summary(),
            "group_self_ms": {g: {k: v * 1e3 for k, v in d.items()} for g, d in tr.group_self.items()},
            "notes": tr.notes,
            "traced_ms": sum(r["ms"] for r in traced),
            "untraced_ms": sum(r["ms"] for r in untraced),
            "spans": spans,
        }
    else:
        out["setup_probes"] = []
        records = run_loop(args.workload, args.seed, args.seconds, args.workdir, probes=out["setup_probes"])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rerun(args.workload, args.seed, records[:DIGEST_JOBS], args.workdir, "between two runs of the same job")
        out["records"] = records
    out["digest_jobs"] = DIGEST_JOBS
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
