"""Self-test of the benchmark at its smallest size (one or two job cycles).

    python3 symbench/selftest.py        # from the repository root

Checks that

- every end-to-end and per-layer metric of BENCHMARK.json is printed, with
  its unit, for every workload;
- a flipped answer-key entry counts toward wrong_share, and an exception
  injected into a job counts toward error_share;
- a candidate table point off both Delta roots is not taken for the known
  spurious-root defect;
- a workload whose jobs all raise is reported, with error_share 1, instead
  of stopping the run;
- the traced and the untraced run give identical verdicts (report bytes)
  for every job they share.

Exits 0 when every check passes and 1 otherwise.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import run  # noqa: E402

SEED = 3
failures = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def bench_run(trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def check_names(out, section):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)[section]
    result = json.loads(out.strip().splitlines()[-1])
    lines = out.splitlines()
    for w in jobs.WORKLOADS:
        for m in metrics:
            got = result["metrics"].get(f"{w}/{m['name']}")
            printed = any(line.split()[:1] == [m["name"]] for line in lines)
            expect(got is not None and got["unit"] == m["unit"] and printed,
                   f"{section} metric {m['name']} printed for {w} in {m['unit']}")
    if section == "end_to_end":
        for name in ("error_share", "wrong_share"):
            expect(sum(line.split()[:1] == [name] for line in lines) == len(jobs.WORKLOADS),
                   f"{name} printed for every workload")


def load(workload, trace):
    with open(os.path.join(run.WORKDIR, f"{workload}-s{SEED}-t{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)["records"]


def check_scoring():
    key = run.load_key()
    records = load("verify", 0)
    base = run.score(key, "verify", SEED, records)
    make_job = jobs.make_job

    def flipped(workload, seed, index):
        job = make_job(workload, seed, index)
        if index == 0:
            job["key"]["exit"] = 1 - job["key"]["exit"]
        return job

    jobs.make_job = flipped
    try:
        after = run.score(key, "verify", SEED, records)
    finally:
        jobs.make_job = make_job
    expect(len(after["wrong"]) == len(base["wrong"]) + 1 and len(after["unexplained"]) == len(base["unexplained"]) + 1,
           "a flipped answer-key entry counts toward wrong_share")

    sys.path.insert(0, os.path.abspath("src"))
    import worker

    def boom(args):
        raise RuntimeError("injected")

    records = load("numeric", 0)
    index = next(r["id"] for r in records if jobs.make_job("numeric", SEED, r["id"])["type"] == "call")
    job = jobs.make_job("numeric", SEED, index)
    saved = worker.CALLS[job["call"]]
    worker.CALLS[job["call"]] = boom
    try:
        rec = worker.run_job(job, os.path.join(run.WORKDIR, f"numeric-s{SEED}"))
    finally:
        worker.CALLS[job["call"]] = saved
    base = run.score(key, "numeric", SEED, records)
    after = run.score(key, "numeric", SEED, [rec if r["id"] == index else r for r in records])
    expect(len(after["errors"]) == len(base["errors"]) + 1, "an injected exception counts toward error_share")


def check_defect_signature():
    """Move one off-map point of a known-defect table off both Delta roots."""
    key = run.load_key()
    for rec in load("numeric", 0):
        job = jobs.make_job("numeric", SEED, rec["id"])
        if rec["error"] is None and key.known_defect(job, rec):
            break
    else:
        expect(False, "the numeric run has a table with the known spurious-root defect")
        return
    b, c = (float(Fraction(job["key"][k])) for k in "bc")
    lines = rec["csv"].splitlines()
    for i, line in enumerate(lines[1:], 1):
        zx, zy, wx, wy, *rest = line.split(",")
        if abs(float(wx) - b / c * float(zy)) > key.TABLE_TOL:
            lines[i] = ",".join([zx, zy, repr(float(wx) + 0.5), wy, *rest])
            break
    bad = dict(rec, csv="\n".join(lines) + "\n")
    verdict = run.score(key, "numeric", SEED, [bad])
    expect(not key.known_defect(job, bad) and len(verdict["unexplained"]) == 1,
           "a table point off both Delta roots is an unexplained wrong answer")


def check_all_errors():
    """A workload whose every job raised: reported, not a crash."""
    records = [dict(r, error="RuntimeError: injected") for r in load("numeric", 0)]
    saved = run.run_worker
    run.run_worker = lambda *args: {"records": records, "peak_rss_mb": 1.0, "setup_probes": [(0.1, 5.0)], "digest_jobs": 3}
    try:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            specs = json.load(fh)["end_to_end"]
        metrics, n, verdict = run.run_workload("numeric", SEED, 0, False, run.load_key(), {}, 0, specs)
    except Exception as exc:  # the check is that nothing is raised
        expect(False, f"a workload whose jobs all raise is reported ({type(exc).__name__}: {exc})")
        return
    finally:
        run.run_worker = saved
    expect(metrics["error_share"][0] == 1.0 and len(verdict["errors"]) == n,
           "a workload whose jobs all raise is reported with error_share 1")


def check_trace_identity():
    for w in jobs.WORKLOADS:
        traced = {r["id"]: r for r in load(w, 1)}
        untraced = {r["id"]: r for r in load(w, 0)}
        shared = sorted(set(traced) & set(untraced))
        same = all(traced[i]["digest"] == untraced[i]["digest"] for i in shared)
        differ = [r["error"] for r in traced.values() if r["error"] and "differ" in r["error"]]
        expect(shared and same and not differ,
               f"{w}: traced and untraced runs give identical reports for {len(shared)} jobs")


def main():
    check_names(bench_run(0), "end_to_end")
    check_names(bench_run(1), "per_layer")
    check_scoring()
    check_defect_signature()
    check_all_errors()
    check_trace_identity()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
