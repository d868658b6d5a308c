"""Alternating parent/change pairs of the benchmark, summarized into one BENCH_*.json.

Usage, from the root of a git checkout:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_x.json

Each side is a fresh ``git archive`` of its revision.  Each of the ``PAIRS``
pairs runs ``perfbench/run.py --workload W --seed S+i --seconds 20 --trace 0``
once on each side, the parent first in even pairs and the change first in odd ones.
The two checkouts sit in two sibling directories of equal path length, and
the sides swap directories every pair, because ``mc_verify`` readings move
with the checkout directory.  The output holds every run's gated metrics
and failure summary, and per workload and side the median and quartiles of
each gated metric (``BENCHMARK.json``'s ``end_to_end``), the pairs the
change wins on each, the median over pairs of change / parent, the
one-sided sign-test p-value of the wins (see ``sign_test_p``), the seeds,
the environment block of the first run (less its seed, source hash and git
commit, which a ``git archive`` checkout does not have; the revisions block
names both commits) and the command line.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact_sweep", "cli_oneshot", "mc_verify")
PAIRS = 10
SECONDS = 20  # BENCHMARK.json's run_seconds


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def sign_test_p(lower: int, untied: int) -> float:
    """P(at least ``lower`` of ``untied`` pairs fall lower) when each is lower with probability 1/2.

    The exact one-sided sign test of "the change is lower": pairs that tie
    count for neither side.  It reads only which side of each pair is
    lower, so one outlying run moves it by at most one pair.
    """
    return sum(math.comb(untied, k) for k in range(lower, untied + 1)) / 2**untied


def extract(rev: str, into: Path) -> None:
    """A fresh copy of ``rev`` in ``into``."""
    shutil.rmtree(into, ignore_errors=True)
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result file of one benchmark run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    subprocess.run(argv, cwd=checkout, check=True, capture_output=True)
    result = json.loads((checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", required=True,
                        help="first seed of each workload, as name=seed pairs, e.g. "
                             "exact_sweep=3901,cli_oneshot=4001,mc_verify=4101; use seeds no earlier run used")
    args = parser.parse_args()
    first_seeds = dict((name, int(seed)) for name, seed in (item.split("=") for item in args.seeds.split(",")))
    gated = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    revs = {side: subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout.strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    dirs = [work / "ckA", work / "ckB"]
    report = {"command": " ".join(["python3", "scripts/bench_pairs.py", *sys.argv[1:]]),
              "revisions": revs, "pairs": PAIRS, "seconds": SECONDS, "gated": gated,
              "environment": None, "workloads": {}}
    try:
        for workload in WORKLOADS:
            runs = []
            for i in range(PAIRS):
                seed = first_seeds[workload] + i
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for checkout, side in zip(dirs, sides):
                    extract(revs[side], checkout)
                for checkout, side in zip(dirs, sides):
                    result = run_once(checkout, workload, seed)
                    report["environment"] = report["environment"] or {
                        k: v for k, v in result["environment"].items() if k not in ("seed", "source_sha256", "git_commit")
                    }
                    runs.append({
                        "pair": i, "seed": seed, "side": side, "dir": checkout.name,
                        "source_sha256": result["environment"]["source_sha256"],
                        "attempted": result["attempted"], "failed": result["failed"],
                        "failures": result["failures"],
                        "metrics": {name: result["metrics"][name]["value"] for name in gated},
                    })
                    print(workload, i, side, {k: round(v, 4) for k, v in runs[-1]["metrics"].items()},
                          "failed", result["failed"], flush=True)
            summary = {}
            for name in gated:
                by_side = {side: [r["metrics"][name] for r in runs if r["side"] == side]
                           for side in ("parent", "change")}
                pairs = list(zip(by_side["parent"], by_side["change"]))
                wins = sum(c < p for p, c in pairs)
                summary[name] = {**{side: quartiles(v) for side, v in by_side.items()},
                                 "change_lower_in_pairs": wins,
                                 "median_change_over_parent": statistics.median(c / p for p, c in pairs),
                                 "sign_test_p": sign_test_p(wins, sum(c != p for p, c in pairs))}
            report["workloads"][workload] = {
                "seeds": [first_seeds[workload] + i for i in range(PAIRS)],
                "summary": summary,
                "same_failures_in_every_pair": all(
                    a["failures"] == b["failures"] for a, b in zip(runs[0::2], runs[1::2])
                ),
                "runs": runs,
            }
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
