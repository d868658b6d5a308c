"""hsgeom benchmark: one seeded workload per call, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
plan untraced and traced and prints every per-layer metric plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A self-describing result file
goes to ``perfbench/out/``.  Failed operations of the program under test are
counted, not fatal; the exit code is non-zero only when the benchmark
itself cannot run.  Workloads, metrics and layers are explained in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import procs
from core import HostClock, NullClock, Outcome, error_text
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_oneshot", "exact_sweep", "mc_verify")
SETUP_RUNS = 3
MIX_EVERY_S = 0.25  # in-process runs time the host speed reference at most this often


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, as numpy's default."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def harrell_davis(values: list[float], q: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the q-quantile: every order statistic, weighted by Beta(q(n+1), (1-q)(n+1)).

    One order statistic jumps with the host's noise on the few operations
    next to it; the weighted mean spreads that over its neighbours.  The
    weight of the i-th smallest value is the Beta mass on ((i-1)/n, i/n),
    integrated by the midpoint rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    h = 1.0 / (n * steps)
    logs = [(a - 1) * math.log((k + 0.5) * h) + (b - 1) * math.log1p(-(k + 0.5) * h) for k in range(n * steps)]
    top = max(logs)
    mass = [math.exp(v - top) for v in logs]
    weights = [math.fsum(mass[i * steps:(i + 1) * steps]) for i in range(n)]
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def tail_quantile(count: int) -> float:
    """0.9, or the highest quantile with at least ten samples beyond it (never below the median)."""
    return max(0.5, min(0.9, 1.0 - 10.0 / count))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_caches": caches,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def failure_summary(ops) -> dict:
    """Failed operations grouped by message, with a count and one example each."""
    groups: dict[str, dict] = {}
    for op in ops:
        if op.error is None:
            continue
        entry = groups.setdefault(op.error[:200], {"count": 0, "wrong_answer": op.wrong, "example": op.label})
        entry["count"] += 1
    return groups


def run_workload(name: str, seed: int, seconds: float, tr, clock=NullClock()) -> Outcome:
    """Warm-up already done; runs the timed plan of an in-process workload."""
    import inproc

    runner = inproc.run_exact_sweep if name == "exact_sweep" else inproc.run_mc_verify
    return runner(seed, seconds, tr, clock)


def judge_cli(outcome: Outcome, answers: list, tr, scratch: Path) -> None:
    import inproc

    for op, (query, fmt, stdout) in zip(outcome.ops, answers):
        if op.error is not None:
            continue
        try:
            problem = inproc.judge_cli_answer(query, fmt, stdout, tr, scratch)
        except Exception as exc:  # the in-process side failed where the process did not
            problem = f"in-process answer failed: {error_text(exc)}"
        if problem:
            op.error, op.wrong = problem, True


def setup_times(workload: str) -> tuple[list[float], list[float]]:
    """Raw and normalized set-up seconds of fresh interpreters, each started right after a reference process."""
    clock = HostClock(procs.reference_process, procs.REFERENCE_S, every_s=0.0)
    raw, normalized = [], []
    for _ in range(SETUP_RUNS):
        host = clock.between_ops()
        raw.append(procs.setup_seconds(workload, ROOT))
        normalized.append(raw[-1] / host)
    return raw, normalized


def end_to_end(args, scratch: Path) -> tuple[Outcome, dict]:
    setups, setups_norm = setup_times(args.workload)
    tr = NullTracer()
    if args.workload == "cli_oneshot":
        clock = HostClock(procs.reference_process, procs.REFERENCE_S, every_s=0.0)
        outcome, answers = procs.run_cli_oneshot(args.seed, args.seconds, ROOT, scratch, tr, clock)
        rss = peak_rss_mb() + outcome.info["child_rss_mb"]
        judge_cli(outcome, answers, tr, scratch)
    else:
        import hostspeed
        import inproc

        clock = HostClock(hostspeed.reference_mix, hostspeed.MIX_NOMINAL_S, every_s=MIX_EVERY_S)
        inproc.warm_up(args.workload, tr)
        outcome = run_workload(args.workload, args.seed, args.seconds, tr, clock)
        rss = peak_rss_mb()
    latencies = [op.seconds * 1e3 for op in outcome.ops]
    normalized = [op.seconds * 1e3 / op.host for op in outcome.ops]
    q = tail_quantile(len(latencies))
    metrics = {
        "setup_s": (statistics.median(setups_norm), "s"),
        "setup_raw_s": (statistics.median(setups), "s"),
        "wall_s": (outcome.wall_s, "s"),
        "wall_norm_s": (outcome.wall_norm_s, "s"),
        "op_p50_ms": (harrell_davis(latencies, 0.5), "ms"),
        "op_p50_norm_ms": (harrell_davis(normalized, 0.5), "ms"),
        "op_p90_ms": (quantile(latencies, q), "ms"),
        "op_p90_norm_ms": (quantile(normalized, q), "ms"),
        "host_index": (clock.index(), "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "error_rate": (sum(op.error is not None for op in outcome.ops) / len(outcome.ops), "ratio"),
        **outcome.extra,
    }
    outcome.info.update(setup_samples_s=setups, setup_norm_samples_s=setups_norm, op_p90_quantile=q, op_count=len(latencies),
                        latencies_ms=latencies, host_index_per_op=[op.host for op in outcome.ops],
                        host_reference_samples_s=clock.samples)
    return outcome, metrics


def traced(args, scratch: Path) -> tuple[Outcome, dict]:
    import inproc
    import layers

    tr = Tracer()
    cdf_build = layers.spectral_cdf_build_s(args.seed, tr)
    if args.workload == "cli_oneshot":
        plain, _ = procs.run_cli_oneshot(args.seed, args.seconds, ROOT, scratch, NullTracer())
        outcome, answers = procs.run_cli_oneshot(args.seed, args.seconds, ROOT, scratch, tr)
        judge_cli(outcome, answers, tr, scratch)
    else:
        inproc.warm_up(args.workload, NullTracer())
        plain = run_workload(args.workload, args.seed, args.seconds, NullTracer())
        outcome = run_workload(args.workload, args.seed, args.seconds, tr)
    metrics, probe_ops = layers.per_layer(outcome, tr, args.seed, ROOT, scratch)
    metrics["verify.spectral_cdf_build_s"] = (cdf_build, "s")
    metrics["trace.overhead"] = (outcome.wall_s / plain.wall_s - 1.0, "ratio")
    outcome.info.update(untraced_wall_s=plain.wall_s, traced_wall_s=outcome.wall_s)
    outcome.ops += probe_ops
    return outcome, metrics


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "hsgeom" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / "perfbench" / "out"
    scratch = out_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        outcome, metrics = (traced if args.trace else end_to_end)(args, scratch)
    except procs.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = declared("per_layer" if args.trace else "end_to_end")
    missing = [name for name, unit in wanted.items() if metrics.get(name, (None, None))[1] != unit
               or metrics[name][0] is None]
    if missing:
        print(f"error: metrics not produced as declared in BENCHMARK.json: {missing}", file=sys.stderr)
        return 1
    attempted = len(outcome.ops)
    failed = sum(op.error is not None for op in outcome.ops)
    correct = not any(op.wrong for op in outcome.ops)

    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failure_summary(outcome.ops),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
        "plan": {k: v for k, v in outcome.info.items() if k not in ("answers", "reports", "commands")},
        "rationale": "perfbench/NOTES.md",
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, default=str) + "\n")

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:12s} {name:42s} {value:14.6g} {unit}")
    print(f"{args.workload:12s} attempted={attempted} failed={failed} correct={correct} result={path.relative_to(ROOT)}")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
