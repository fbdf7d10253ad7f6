"""One workload process: import, build the job list, run whole passes.

Started by run.py, fresh and single-threaded, with the checkout's `src` on
PYTHONPATH.  It prints one JSON object on stdout: its set-up timestamp, the
wall time of every job, the first pass's outputs as JSON texts, a fingerprint of
every output of every pass, and with --trace 1 the per-layer figures of the
traced passes, whose spans it writes to bench/out/trace-<workload>-<seed>.json.
It checks nothing itself; run.py does that apart from the timed process.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import jobs as joblist


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(joblist.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


def main():
    args = parse_args()
    t0 = time.perf_counter()
    import equihilb.cli  # every command pays this import

    import_s = time.perf_counter() - t0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(equihilb.cli.__file__).startswith(src + os.sep):
        sys.exit("equihilb was imported from %s, not from %s" % (equihilb.cli.__file__, src))
    jobs = joblist.make_jobs(args.workload, args.seed)
    ready = time.perf_counter()
    report = {"ready": ready, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(report))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    min_passes = 4 if tracer else 3
    passes, layers, outputs, errors = [], [], None, []
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
            tracer.begin_pass(index)
        job_s, fingerprints, failed = [], [], 0
        first = outputs is None
        if first:
            outputs = []
        for job in jobs:
            j0 = time.perf_counter()
            try:
                if traced:
                    raw = tracer.run_job(job["id"], joblist.run_job, job)
                else:
                    raw = joblist.run_job(job)
            except Exception as exc:  # one failed operation; the pass goes on
                raw = exc
            job_s.append(time.perf_counter() - j0)
            # Each output becomes JSON text here, between the timed jobs, so
            # that no pass holds all its raw results and peak memory is the
            # program's own.
            if isinstance(raw, Exception):
                failed += 1
                errors.append("%s: %r" % (job["id"], raw))
                out = {"error": repr(raw)}
            else:
                out = joblist.to_json(job, raw)
            del raw
            text = json.dumps(out, sort_keys=True)
            fingerprints.append(hashlib.sha256(text.encode()).hexdigest())
            if first:
                outputs.append(text)
            del out, text
        wall = sum(job_s)
        if traced:
            tracer.uninstall()
            layers.append(tracer.end_pass())
        passes.append({
            "traced": traced,
            "wall_s": wall,
            "job_s": job_s,
            "failed": failed,
            "fingerprints": fingerprints,
        })
        elapsed = time.perf_counter() - start
        median = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + median > args.seconds:
            break

    report.update(
        passes=passes,
        outputs=outputs,
        errors=errors[:20],
        layers=layers,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "trace-%s-%d.json" % (args.workload, args.seed)), "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "pass", "job"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
