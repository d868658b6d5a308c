"""Work done in fresh interpreters: set-up time, the cli_oneshot workload and the import profile.

Standard library only.  Every child is started, waited for and reaped
before the next one starts, so at most one child process exists at a time.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from core import NullClock, Op, Outcome, cli_queries

# one CLI process, and one reference process, on a 2-core x86 box at the commit that introduced the benchmark
CLI_OP_S = 1.6
REFERENCE_S = 1.5
REFERENCE_IMPORTS = "import numpy, scipy.integrate, scipy.stats, mpmath"
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot go on (as opposed to a failed operation)."""


def child_env(root: Path) -> dict:
    """Environment in which ``import hsgeom`` finds the checkout's sources."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _warm_up_code(workload: str) -> str:
    if workload == "cli_oneshot":
        return "import hsgeom.cli; print('ready', flush=True)"
    return (
        "import sys; sys.path.insert(0, 'perfbench'); import inproc, tracing; "
        f"inproc.warm_up({workload!r}, tracing.NullTracer()); "
        "print('ready', flush=True)"
    )


def setup_seconds(workload: str, root: Path) -> float:
    """Time from starting a fresh interpreter to the end of the workload's warm-up."""
    cmd = [sys.executable, "-c", _warm_up_code(workload)]
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchmarkError(f"set-up of {workload} failed ({proc.returncode}): {err.strip()[-2000:]}")
    return elapsed


def run_cli(argv: list[str], root: Path, scratch: Path) -> tuple[float, int, str, str, float]:
    """One ``python -m hsgeom.cli`` process: seconds, exit code, stdout, stderr and its peak RSS in MB.

    The child is reaped with ``os.wait4`` for its own resource usage, so its
    peak memory is known apart from that of the reference processes.
    Output goes to files, which need no reader while the child runs.
    """
    out_path, err_path = scratch / "cli.stdout", scratch / "cli.stderr"
    with out_path.open("w") as out, err_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hsgeom.cli", *argv],
                                cwd=root, env=child_env(root), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss / 1024


def reference_process() -> None:
    """Host speed reference for CLI processes and set-up: a fresh interpreter importing the package's dependencies.

    The modules are those ``hsgeom`` imported when the benchmark was added,
    fixed here so the reference stays the same when the package changes.
    """
    done = subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchmarkError(f"host speed reference failed ({done.returncode}): {done.stderr.strip()[-2000:]}")


def run_cli_oneshot(seed: int, seconds: float, root: Path, scratch: Path, tr,
                    clock=NullClock()) -> tuple[Outcome, list]:
    """One fresh ``python -m hsgeom.cli`` per operation; returns the outcome and the raw answers.

    ``info["child_rss_mb"]`` is the peak RSS of the largest CLI process.
    """
    plan = cli_queries(seed, max(4, round(seconds / (CLI_OP_S + REFERENCE_S))))
    out = Outcome(info={"processes": len(plan), "child_rss_mb": 0.0})
    answers = []
    for query, fmt in plan:
        host = clock.between_ops()
        argv = query.argv() + ["--format", fmt]
        with tr.span(f"process.cli.{query.kind}"):
            elapsed, code, stdout, stderr, rss_mb = run_cli(argv, root, scratch)
        error = None if code == 0 else f"exit {code}: {stderr.strip()[-500:]}"
        out.ops.append(Op(" ".join(argv), elapsed, error, host=host))
        out.info["child_rss_mb"] = max(out.info["child_rss_mb"], rss_mb)
        answers.append((query, fmt, stdout))
    return out, answers


def _median_time(cmd: list[str], root: Path, runs: int) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=child_env(root), check=True, capture_output=True,
                       timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_importtime(stderr: str, modules: list[str], trees: list[str]) -> dict[str, float]:
    """Cumulative seconds from ``-X importtime`` output.

    A module in ``modules`` gets the cumulative time of its own entry.  A
    package in ``trees`` gets the sum over its outermost entries: imports of
    the package or its submodules not nested inside another import of the
    same package.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {name: seconds for _, name, seconds in entries if name in modules}
    totals.update(dict.fromkeys(trees, 0.0))

    def within(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    # the output is post-order; reversed it lists every parent before its children
    stack: list[str] = []
    depths: list[int] = []
    for depth, name, seconds in reversed(entries):
        while depths and depths[-1] >= depth:
            depths.pop()
            stack.pop()
        for pkg in trees:
            if within(name, pkg) and not any(within(a, pkg) for a in stack):
                totals[pkg] += seconds
        stack.append(name)
        depths.append(depth)
    return totals


def import_profile(root: Path, runs: int = 3) -> dict[str, float]:
    """Bare-interpreter floor and the import cost of the package and its dependencies."""
    metrics = {"start.python_s": _median_time([sys.executable, "-c", "pass"], root, 5)}
    names = {"hsgeom": "import.hsgeom_s", "hsgeom.cli": "import.cli_s", "scipy": "import.scipy_s",
             "numpy": "import.numpy_s", "mpmath": "import.mpmath_s"}
    samples: dict[str, list[float]] = {pkg: [] for pkg in names}
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hsgeom.cli"],
            cwd=root, env=child_env(root), check=True, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        found = parse_importtime(done.stderr, ["hsgeom", "hsgeom.cli"], ["scipy", "numpy", "mpmath"])
        for pkg, seconds in found.items():
            samples[pkg].append(seconds)
    for pkg, name in names.items():
        metrics[name] = statistics.median(samples[pkg])
    return metrics
