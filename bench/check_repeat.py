"""Exact-repeat check: two processes, one seed, identical counts and certificates.

    python3 bench/check_repeat.py --seed 7

For each workload, runs ``run.py --trace 1`` twice on the same seed with
different hash seeds, and requires every count metric (span ``.calls``,
field operations, ``smr.iterations``, ``po.ell.sum``,
``sdit.primes_tried.sum``) and the certificate digest to be identical.
Then runs ``run.py --trace 1`` on the next seed, which solves two full
repeats of the slot list and checks every answer against its planted
truth, and requires zero failed commands. Exit code 0 only if every check
holds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload, seed, hash_seed):
    """One traced run: (result line, repeat digest)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        env=env, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    digest = next((ln.split(": ")[1] for ln in lines if ln.startswith("repeat digest")), None)
    return json.loads(lines[-1]), digest


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        (a, da), (b, db) = (run(workload, args.seed, h) for h in (1, 2))
        same = counts(a) == counts(b) and da == db and a["failed"] == b["failed"] == 0
        other, _ = run(workload, args.seed + 1, 0)
        print(f"{workload}: {len(counts(a))} counts and certificate digest "
              f"{'identical' if same else 'DIFFER'} across two runs of seed {args.seed}; "
              f"seed {args.seed + 1}: {other['failed']} of {other['attempted']} commands failed")
        if not same:
            for k in sorted(set(counts(a)) | set(counts(b))):
                if counts(a).get(k) != counts(b).get(k):
                    print(f"  {k}: {counts(a).get(k)} vs {counts(b).get(k)}")
        ok = ok and same and other["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
