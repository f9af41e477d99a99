"""Seeded end-to-end benchmark of the symrank CLI.

    python3 bench/run.py --workload smr-gfp --seed 1 --seconds 30 --trace 0

Drives ``symrank.cli.main`` in-process on seeded instance files: one
process, one thread, a closed loop with one client. Each instance gets its
solve command, then ``symrank verify``; every answer is also checked
against the truth planted by the generator (see ``workloads.py``).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, untraced. The
set-up, a fresh import of symrank, is timed 21 times; generating the
instances and writing their files are the benchmark's own work and are not
timed. Every time is scaled to a fixed host speed by a reference kernel
timed between commands (see REF_SECONDS); the unscaled wall figures are
printed too.
--trace 1 runs the first two repeats of the workload's slot list untraced,
then traced (spans around the public functions of every symrank module),
then twice with field-operation counters, and reports the per-layer
metrics. Certificates must be byte-identical across the passes and the
counts identical across the two counting passes. Spans are written to
.bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a failed check makes `correct`
false. Exit code 1, with no result line, when the symrank sources are
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import exact
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUPS = 21     # the import is repeated and its median reported
CYCLES = {"smr-gfp": 12, "smr-ext-rational": 14, "structure": 24}  # slot-list repeats
TRACE_CYCLES = 2  # slot-list repeats in each pass of a traced run
MAX_UNATTRIBUTED = 0.10

# Host-speed reference: a fixed rank computation mod p, timed between
# commands. On a shared 2-core VM the same code ran up to 1.8 times slower
# in some minutes than in others, in CPU time as much as in wall time; every
# timing metric is scaled by REF_SECONDS / (measured reference time) to
# cancel that drift. REF_SECONDS only sets the scale: it is the kernel's
# time on that VM in a fast minute.
_ref_rng = random.Random(0)
REF_MATRIX = [[_ref_rng.randrange(workloads.P) for _ in range(32)] for _ in range(32)]
REF_REPEATS = 2
REF_SECONDS = 0.0035


class Job:
    """One instance: its files, its solve argv and its verify argv."""

    def __init__(self, inst, directory: Path, index: int):
        self.inst = inst
        path = directory / f"inst{index}.json"
        path.write_text(json.dumps(inst.data))
        extra = {}
        for flag, data in inst.extra.items():
            extra[flag] = str(directory / f"inst{index}{flag.strip('-')}.json")
            Path(extra[flag]).write_text(json.dumps(data))
        self.cert = directory / f"cert{index}.json"
        self.solve = inst.argv(str(path), extra, str(self.cert))
        self.verify = ["verify", str(path), "--cert", str(self.cert)]


def reference() -> float:
    """Seconds taken by a fixed pure-Python kernel that does not use symrank."""
    start = time.perf_counter()
    for _ in range(REF_REPEATS):
        exact.rank(REF_MATRIX, workloads.P)
    return time.perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor that maps a time measured between two reference samples to
    REF_SECONDS host speed."""
    return 2 * REF_SECONDS / (before + after)


def fresh_import():
    """Purge and re-import symrank; (wall s, host-scaled s, symrank.cli)."""
    before = reference()
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "symrank" or m.startswith("symrank.")]:
        del sys.modules[name]
    cli = importlib.import_module("symrank.cli")
    wall = time.perf_counter() - start
    return wall, wall * host_scale(before, reference()), cli


def run_job(cli, job: Job):
    """Solve then verify; (solve s, verify s, cert bytes, error or None)."""
    t0 = time.perf_counter()
    try:
        code = cli.main(job.solve)
    except Exception:
        return time.perf_counter() - t0, 0.0, b"", traceback.format_exc()
    t1 = time.perf_counter()
    if code != 0:
        return t1 - t0, 0.0, b"", f"solve exit code {code}"
    out = io.StringIO()
    t2 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(job.verify)
    except Exception:
        return t1 - t0, time.perf_counter() - t2, b"", traceback.format_exc()
    t3 = time.perf_counter()
    cert = job.cert.read_bytes()
    if code != 0 or out.getvalue().strip() != "PASS":
        return t1 - t0, t3 - t2, cert, f"verify: {out.getvalue().strip()} ({code})"
    return t1 - t0, t3 - t2, cert, None


class Checker:
    """Planted-truth check, cached by certificate bytes (the loop repeats jobs)."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.seen = {}   # job index -> first certificate bytes
        self.cache = {}

    def __call__(self, index: int, cert: bytes):
        first = self.seen.setdefault(index, cert)
        if cert != first:
            return "certificate differs from an earlier run of the same instance"
        if cert not in self.cache:
            self.cache[cert] = workloads.check(self.jobs[index].inst, json.loads(cert))
        return self.cache[cert]


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_instance(records, scales):
    """Median solve and verify time of each instance over its runs, each
    run's times multiplied by its scale."""
    runs = {}
    for (index, solve_s, verify_s, _, _), k in zip(records, scales):
        solves, verifies = runs.setdefault(index, ([], []))
        solves.append(solve_s * k)
        if verify_s > 0.0:
            verifies.append(verify_s * k)
    return ([statistics.median(s) for s, _ in runs.values()],
            [statistics.median(v) for _, v in runs.values() if v])


def timed_run(cli, jobs, seconds: float, slots: int):
    """Closed loop over the job list, with a reference sample between
    instances, until the time is up, every instance has run and the last
    slot list is complete.

    Latency percentiles are taken over the instances, each counted once at
    the median of its runs, so every run samples the same set of instances
    however fast the host is."""
    records = []  # (job index, solve s, verify s, cert, error)
    refs = [reference()]
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(jobs) or i % slots or time.perf_counter() < deadline:
        records.append((i % len(jobs),) + run_job(cli, jobs[i % len(jobs)]))
        refs.append(reference())
        i += 1
    elapsed = time.perf_counter() - start
    scales = [host_scale(a, b) for a, b in zip(refs, refs[1:])]
    check = Checker(jobs)
    failed, completed = 0, 0
    kind_time = Counter()
    for index, solve_s, verify_s, cert, error in records:
        kind_time[f"{jobs[index].inst.kind}/{jobs[index].inst.family}"] += solve_s
        if error is None:
            error = check(index, cert)
            if error is None:
                completed += 1
                continue
            failed += 1                    # wrong answer: the solve command failed
        else:
            failed += 2 if verify_s == 0.0 else 1  # an unrun verify fails too
        print(f"FAIL {jobs[index].solve[0]} job {index}: {error}", file=sys.stderr)
    solves, verifies = per_instance(records, scales)
    busy = sum((r[1] + r[2]) * k for r, k in zip(records, scales))
    metrics = {
        "throughput_cps": (completed / busy, "instances/s"),
        "latency_s.p50": (statistics.median(solves), "s"),
        "latency_s.p90": (quantile(solves, 90), "s"),
        "verify_s.p50": (statistics.median(verifies) if verifies else 0.0, "s"),
    }
    raw_solves, raw_verifies = per_instance(records, [1.0] * len(records))
    total = sum(kind_time.values())
    info = [f"solve commands: {len(records)}, latency samples: {len(solves)} instances, "
            f"verify samples: {len(verifies)}, loop {elapsed:.3f} s",
            f"fail_share: {failed / (2 * len(records)):.4f} ratio",
            f"host scale (REF_SECONDS / reference time): median "
            f"{statistics.median(scales):.3f}, min {min(scales):.3f}, max {max(scales):.3f}",
            f"unscaled wall: throughput_cps {completed / elapsed:.4f} instances/s, "
            f"latency_s.p50 {statistics.median(raw_solves):.5f} s, "
            f"latency_s.p90 {quantile(raw_solves, 90):.5f} s, verify_s.p50 "
            f"{statistics.median(raw_verifies) if raw_verifies else 0.0:.6f} s"]
    info += [f"solve time share {k}: {v / total:.3f}" for k, v in sorted(kind_time.items())]
    return metrics, 2 * len(records), failed, info


def one_pass(cli, jobs, command_hook=None):
    """Every job once; (wall s, certificates, {job index: error})."""
    certs, errors = [], {}
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if command_hook:
            command_hook(i)
        _, _, cert, error = run_job(cli, job)
        certs.append(cert)
        if error:
            errors[i] = error
    return time.perf_counter() - start, certs, errors


def traced_run(cli, jobs, span_file: Path):
    """Per-layer metrics from one untraced, one traced and two counting passes."""
    untraced_s, certs, failed_jobs = one_pass(cli, jobs)
    check = Checker(jobs)
    errors = [f"job {i}: {e}" for i, e in failed_jobs.items()]
    errors += [f"job {i}: {e}" for i, c in enumerate(certs)
               if i not in failed_jobs and (e := check(i, c))]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, traced_certs, more = one_pass(
            cli, jobs, lambda i: setattr(tracer, "command", i))
    finally:
        tracer.restore()
    errors += [f"job {i}: {e}" for i, e in more.items()]
    if traced_certs != certs:
        errors.append("certificates differ between the untraced and traced passes")

    field_counts = []
    for _ in range(2):
        counter = tracing.FieldCounter()
        counter.install()
        try:
            _, counted_certs, more = one_pass(cli, jobs)
        finally:
            counter.restore()
        errors += [f"job {i}: {e}" for i, e in more.items()]
        if counted_certs != certs:
            errors.append("certificates differ between passes")
        field_counts.append(counter.counts)
    if field_counts[0] != field_counts[1]:
        errors.append("field-operation counts differ between two passes of one seed")

    calls, self_s, attributed = tracer.aggregate()
    unattributed = (traced_s - attributed) / traced_s
    if unattributed > MAX_UNATTRIBUTED:
        errors.append(f"{unattributed:.1%} of traced wall time is in no span")

    stats = tracer.stats
    metrics = {k: (field_counts[0][k], "count") for k in tracing.FIELD_METRICS}
    for name in tracing.SPANS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (float(self_s[name]), "s")
    smr_calls, po_calls, primes = (calls["smr.smr"], calls["po.solve_po"],
                                   stats["sdit.primes_tried.sum"])
    metrics.update({
        "smr.iterations": (stats["smr.iterations"], "count"),
        "smr.max_rank_ratio": (stats["smr.certified"] / smr_calls if smr_calls else 0.0, "ratio"),
        "po.ell.sum": (stats["po.ell.sum"], "count"),
        "po.found_ratio": (stats["po.found"] / po_calls if po_calls else 0.0, "ratio"),
        "sdit.primes_tried.sum": (primes, "count"),
        "sdit.prime_success_ratio": (stats["sdit.prime_successes"] / primes if primes else 0.0,
                                     "ratio"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.unattributed_share": (unattributed, "ratio"),
    })

    span_file.parent.mkdir(parents=True, exist_ok=True)
    span_file.write_text(json.dumps({"fields": ["name", "parent", "command", "start", "end"],
                                     "commands": [j.solve[0] for j in jobs],
                                     "spans": tracer.spans}))
    digest = hashlib.sha256(b"".join(certs))
    digest.update(json.dumps({k: v for k, (v, u) in metrics.items() if u == "count"},
                             sort_keys=True).encode())
    info = [f"traced pass: {len(jobs)} instances, {len(tracer.spans)} spans -> "
            f"{span_file.relative_to(ROOT)}",
            f"tracing overhead: {traced_s - untraced_s:.3f} s "
            f"(traced {traced_s:.3f} s, untraced {untraced_s:.3f} s)",
            f"unattributed share of traced wall time: {unattributed:.4f}",
            f"repeat digest: {digest.hexdigest()}"]
    return metrics, 2 * len(jobs), len(errors), info + [f"FAIL {e}" for e in errors]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "symrank" / "cli.py").is_file():
        print(f"error: no symrank sources under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))

    insts = workloads.generate(args.workload, args.seed, CYCLES[args.workload])
    imports = [fresh_import() for _ in range(SETUPS)]
    cli = imports[-1][2]
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        start = time.perf_counter()
        work.mkdir(parents=True)
        jobs = [Job(inst, work, i) for i, inst in enumerate(insts)]
        written = f"instance files: {len(jobs)} written in {time.perf_counter() - start:.4f} s"
        if args.trace:
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            traced = len(jobs) * TRACE_CYCLES // CYCLES[args.workload]
            metrics, attempted, failed, info = traced_run(cli, jobs[:traced], span_file)
        else:
            metrics, attempted, failed, info = timed_run(
                cli, jobs, args.seconds, len(jobs) // CYCLES[args.workload])
            metrics["setup_s"] = (statistics.median(s[1] for s in imports), "s")
            info.append(f"unscaled wall: setup_s {statistics.median(s[0] for s in imports):.5f} s")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = (rss, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.insert(0, written)

    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
