"""Steadiness mode: two sets of runs of one commit, compared metric by metric.

    python3 bench/steady.py

Each of the two sets makes ten runs of every workload of BENCHMARK.json,
each run_seconds long and with its own seed (set 1 uses seeds 1..10, set 2
seeds 11..20), workloads interleaved.  For every workload and end-to-end
metric it prints both sets' medians and quartiles, the spread (quartile
distance over median) of each set, and whether the second median is within
the metric's bound of the first and each spread below a third of the bound.  Each run's reference
kernel times (before and after) are printed beside its metrics so machine
drift can be told apart from program change; they never scale a metric.
The raw runs are written to bench/out/steady.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs of each workload in each set


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        sys.exit("run failed: %s" % " ".join(cmd))
    return {"seed": seed, "detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [[], []] for w in workloads}
    for s in range(2):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:
                r = one_run(w, seed, seconds)
                runs[w][s].append(r)
                res = r["result"]
                print("set %d %-8s seed %-3d correct=%s attempted=%d failed=%d kernel_ms=%s %s" % (
                    s + 1, w, seed, res["correct"], res["attempted"], res["failed"],
                    r["detail"]["reference_kernel_ms"],
                    " ".join("%s=%.4f" % (k, v["value"]) for k, v in res["metrics"].items())),
                    flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump(runs, fh, indent=1)

    ok = True
    print()
    print("%-8s %-12s %-6s %s" % ("workload", "metric", "bound", "per set: q1 / median / q3 (spread)"))
    for w in workloads:
        sets = runs[w]
        shares = {r["result"]["failed"] / r["result"]["attempted"] for s in sets for r in s}
        correct = all(r["result"]["correct"] for s in sets for r in s)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, medians = [], []
            for s in sets:
                q1, q2, q3, sp = spread([r["result"]["metrics"][name]["value"] for r in s])
                medians.append(q2)
                steady = sp < bound / 3
                ok = ok and steady
                cols.append("%.4f / %.4f / %.4f (%.1f%%%s)" % (q1, q2, q3, 100 * sp, "" if steady else " WIDE"))
            change = (medians[1] - medians[0]) / medians[0]
            agree = abs(change) <= bound
            ok = ok and agree
            verdict = "  2nd vs 1st %+.1f%% %s" % (100 * change, "agrees" if agree else "DIFFERS")
            print("%-8s %-12s %-6s %s%s" % (w, name, bound, "  |  ".join(cols), verdict))
        kern = [statistics.median(r["detail"]["reference_kernel_ms"]) for s in sets for r in s]
        print("%-8s correct=%s failed share=%s reference kernel ms: median %.2f, range %.2f..%.2f"
              % (w, correct, sorted(shares), statistics.median(kern), min(kern), max(kern)))
        ok = ok and correct and len(shares) == 1
    print("steady: %s" % ok)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
