"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload solve --seed 1 --seconds 42 --trace 0

Run from anywhere inside a checkout that holds `src/equihilb`.  The run:

1. times a fixed pure-Python reference kernel (machine speed, reported
   beside the metrics, never used to scale them);
2. starts the workload process (bench/worker.py), which runs whole passes
   over the job list for about --seconds; before and after it, fresh
   processes that only import `equihilb.cli` and build the job list time
   set-up, so its samples span the run;
3. checks every job output here, apart from the timed process, against
   independent computations (bench/checks.py), requires every later pass
   to reproduce the checked outputs exactly, and runs one job through
   `equihilb.cli.main` in-process to show the command gives the same answer;
4. prints one line of detail and, last, the result object.

With --trace 1 the workload process alternates untraced and traced passes
and the metrics are the per-layer figures of the traced passes; the spans
are written to bench/out/.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5  # set-up-only processes before and again after the workload process

sys.path.insert(0, HERE)
import checks  # noqa: E402
import jobs as joblist  # noqa: E402


def reference_kernel_ms():
    """Median of five timings of a fixed integer loop, in ms."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def spawn(args, timeout):
    """Run bench/worker.py; return (report, seconds from spawn to ready)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("workload process failed with exit code %d" % proc.returncode)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - t0


def run_cli(argv):
    from equihilb.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main.main(args=argv, prog_name="equihilb", standalone_mode=False)
    return buf.getvalue()


def fidelity(job, out):
    """Problems found when the same job runs through the equihilb command."""
    text = run_cli(job["cli"])
    if job["op"] == "series":
        want = ["  series: %s" % out["series"]] + [
            "  %s (transfer): %s  [%s]" % (label, value, "agrees" if eq else "DIFFERS")
            for label, value, eq in out["forms"]
        ]
        missing = [line for line in want if line not in text.splitlines()]
        return ["command output lacks %r" % line[:80] for line in missing[:1]]
    if job["op"] == "expand":
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        got = {",".join(r[:-1]): int(r[-1]) for r in rows}
        return [] if got == out["table"] else ["command table differs from the benchmark's"]
    got = json.loads(text)["results"]
    return [] if got == out else ["command report differs from the benchmark's"]


def check_run(workload, seed, report):
    """All problems with the run's outputs; empty when every check passes."""
    jobs = joblist.make_jobs(workload, seed)
    problems = []
    first = report["passes"][0]["fingerprints"]
    for p in report["passes"][1:]:
        for job, a, b in zip(jobs, first, p["fingerprints"]):
            if a != b:
                problems.append("%s: output changed between passes" % job["id"])
    for job, text in zip(jobs, report["outputs"]):
        out = json.loads(text)
        if "error" in out:
            continue  # counted as failed, not checked
        problems += ["%s: %s" % (job["id"], p) for p in checks.check(job, out)]
        if "cli" in job:
            problems += ["%s: %s" % (job["id"], p) for p in fidelity(job, out)]
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(joblist.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "equihilb", "cli.py")):
        sys.exit("no equihilb sources under %s" % SRC)
    sys.path.insert(0, SRC)

    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setup, imports = [], []

    def setup_samples():
        for _ in range(SETUP_SAMPLES):
            rep, ready = spawn(base + ["--setup-only"], 60)
            setup.append(ready)
            imports.append(rep["import_s"])

    kernel_before = reference_kernel_ms()
    setup_samples()
    report, ready = spawn(base + ["--trace", str(args.trace)], 150)
    setup.append(ready)
    imports.append(report["import_s"])
    setup_samples()
    kernel_after = reference_kernel_ms()

    problems = check_run(args.workload, args.seed, report)
    passes = report["passes"]
    attempted = sum(len(p["job_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    # Means over passes, not medians: on a shared host each pass runs in a
    # fast or a slow phase, and the median of a few such passes jumps
    # between the two while the mean moves with the share of slow passes.
    pass_s = statistics.mean(p["wall_s"] for p in plain)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = {k: statistics.median(l[k] for l in report["layers"]) for k in report["layers"][0]}
        for ratio, useful, tried in (
            ("monoracle.useful_ratio", "monoracle.monomials", "monoracle.frozen"),
            ("toric.mingen_useful_ratio", "toric.mingen_images", "toric.mingen_multisets"),
        ):
            layers[ratio] = layers[useful] / layers[tried] if layers[tried] else 0.0
        layers["cli.import_s"] = statistics.median(imports)
        layers["trace.pass_s"] = statistics.mean(p["wall_s"] for p in traced)
        layers["trace.overhead_s"] = layers["trace.pass_s"] - pass_s
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "max_job_s": {"value": statistics.mean(max(p["job_s"]) for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    for p in problems[:20]:
        print("CHECK FAILED: %s" % p, file=sys.stderr)
    for e in report["errors"]:
        print("FAILED: %s" % e, file=sys.stderr)
    print(json.dumps({
        "detail": {
            "workload": args.workload,
            "seed": args.seed,
            "passes": len(passes),
            "traced": [p["traced"] for p in passes],
            "pass_s": [round(p["wall_s"], 4) for p in passes],
            "max_job_s": [round(max(p["job_s"]), 4) for p in passes],
            "setup_s": [round(s, 4) for s in setup],
            "reference_kernel_ms": [round(kernel_before, 3), round(kernel_after, 3)],
            "problems": len(problems),
        }
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    main()
