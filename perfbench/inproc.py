"""The in-process workloads, exact_sweep and mc_verify, and the probe of the sample path.

Each runner executes a fixed, seeded plan of operations sized from
``--seconds``, times every operation on its own, and judges every answer
outside the timed region.  A program error in one operation is recorded
with its message and the plan carries on.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from hsgeom import cli, constants, exactnum, groups, mixedstates, sampling, verify

import exact
from core import KINDS, NullClock, Op, Outcome, error_text, make_query, repeat_share, sweep_queries

# Plan sizes per second of --seconds, set so that a run takes about
# --seconds on a 2-core x86 box at the commit that introduced the benchmark.
SWEEP_STRATA_PER_S = 1.25
VERIFY_PLAN_S = 6.0
SAMPLE_SHAPES = ((3, "complex"), (3, "real"), (8, "complex"), (8, "real"))
VERIFY_WORKERS = 2


def main_argv(tr, argv: list[str]) -> int:
    """``cli.main`` in process, inside a span named after the subcommand."""
    return tr.call(cli.main, argv, name=f"cli.main.{argv[0]}")


# -- exact_sweep ------------------------------------------------------------------


def run_exact_sweep(seed: int, seconds: float, tr, clock=NullClock()) -> Outcome:
    strata = max(1, round(seconds * SWEEP_STRATA_PER_S))
    queries = sweep_queries(seed, strata)
    out = Outcome(info={
        "queries": len(queries),
        "strata_per_kind_and_field": strata,
        "queries_per_stratum": 2,
        "repeat_share": repeat_share(queries),
        "golden_checks": exact.golden_hits(queries),
    })
    done = []
    for query in queries:
        host = clock.between_ops()
        label = " ".join(query.argv())
        rendered = {}
        start = time.perf_counter()
        try:
            with tr.span("bench.exact_query"):
                answers = exact.evaluate(query, tr)
                for quantity, value in answers:
                    if isinstance(value, exactnum.ExactValue):
                        rendered[quantity] = exact.render(value, tr)
        except Exception as exc:  # counted against error_rate, with its message
            out.ops.append(Op(label, time.perf_counter() - start, error_text(exc), host=host))
            continue
        out.ops.append(Op(label, time.perf_counter() - start, host=host))
        done.append((out.ops[-1], query, answers, rendered))
    for op, query, answers, rendered in done:
        problems = exact.judge(query, answers, rendered, tr)
        if problems:
            op.error, op.wrong = problems[0], True
    # consumed by the traced run, dropped from the result file
    out.info["answers"] = [
        v for _, _, answers, _ in done for _, v in answers if isinstance(v, exactnum.ExactValue)
    ]
    return out


# -- mc_verify --------------------------------------------------------------------

# The plan of ``hsgeom verify --suite all`` at its default sample counts,
# plus hit-or-miss at n=4 and the n=3 spectral fit.  It is pinned here so the
# workload stays the same when the package's suite changes.
_NORM_PARAMS = ((1, 2), (3, 2), (1, 1), (2, 1))
_PURITY = ((2, "complex"), (2, "real"), (3, "complex"))


def verify_plan(seed: int) -> list[tuple[str, object, tuple, int]]:
    """(kind, check function, args, samples) for one pass of the plan."""
    w = VERIFY_WORKERS
    plan = []
    for n in (1, 2, 3, 4):
        for a, b in _NORM_PARAMS:
            plan.append(("norm", verify.check_norm_constant, (n, a, b, 1_000_000, seed, 10, w), 1_000_000))
    for n, fld in _PURITY:
        plan.append(("purity", verify.check_purity, (n, fld, 100_000, seed, 10, w), 100_000))
    for n, fld in ((2, "complex"), (2, "real"), (3, "complex")):
        plan.append(("spectral", verify.check_spectral, (n, fld, 100_000, seed), 100_000))
    for n, samples in ((2, 100_000), (3, 1_000_000), (4, 400_000)):
        plan.append(("hitmiss", verify.check_hit_or_miss, (n, samples, seed, 10, w), samples))
    return plan


def purity_closed_form(n: int, fld: str) -> float:
    """Mean HS purity: 2N/(N^2+1) complex; (2N+2)/(N^2+N+2) for the real N x (N+1) construction."""
    return 2 * n / (n * n + 1) if fld == "complex" else (2 * n + 2) / (n * n + n + 2)


def expected_estimate(kind: str, args: tuple, tr) -> tuple[float | None, bool]:
    """The benchmark's own expectation for an estimator check, and whether the case is degenerate.

    Degenerate cases have an exact estimator: n=1 norm weights are constant
    and the n=2 state space is the whole coherence ball.
    """
    if kind == "norm":
        n, a, b = args[:3]
        c = tr.call(constants.c_norm, constants.EnsembleParams(n, Fraction(a), b))
        return 1.0 / tr.call(c.to_float, name="exactnum.to_float"), n == 1
    if kind == "purity":
        return purity_closed_form(*args[:2]), False
    if kind == "hitmiss":
        n = args[0]
        space = mixedstates.StateSpace(n, "complex")
        ball = tr.call(groups.ball_volume, space.dim) * tr.call(
            exactnum.exact_sqrt, Fraction(n - 1, n)
        ).pow_int(space.dim)
        ratio = tr.call(mixedstates.vol_mixed, space) / ball
        return tr.call(ratio.to_float, name="exactnum.to_float"), n == 2
    return None, False


def judge_check(kind: str, report: dict, expected: float | None, degenerate: bool) -> str | None:
    """The first objection to a verify report, or None."""
    if kind == "spectral":
        p = report["estimate"]
        return None if 1e-6 < p <= 1.0 else f"spectral p-value {p!r} rejects the sampler at 1e-6"
    if not math.isclose(report["expected"], expected, rel_tol=1e-9):
        return f"reported expectation {report['expected']!r} != {expected!r} from the exact layer"
    est, err = report["estimate"], report["stderr"]
    if degenerate:
        if math.isclose(est, expected, rel_tol=1e-12):
            return None
        return f"degenerate case estimate {est!r} != exact {expected!r}"
    if expected == 0 or err == 0:
        return f"vacuous verdict: expected={expected!r} stderr={err!r} pass={report['pass']}"
    if abs(est - expected) > 5 * err:
        return f"estimate {est!r} is {abs(est - expected) / err:.1f} stderr from {expected!r}"
    return None


def run_mc_verify(seed: int, seconds: float, tr, clock=NullClock()) -> Outcome:
    passes = max(1, round(seconds / VERIFY_PLAN_S))
    out = Outcome(info={"plan_passes": passes, "workers": VERIFY_WORKERS, "gate_rejections": []})
    done = []
    for p in range(passes):
        for kind, fn, args, samples in verify_plan(seed * 1000 + p):
            host = clock.between_ops()
            label = f"{kind} {args[:-3] if kind != 'spectral' else args[:2]}"
            start = time.perf_counter()
            try:
                report = tr.call(fn, *args)
            except Exception as exc:  # counted against error_rate, with its message
                out.ops.append(Op(label, time.perf_counter() - start, error_text(exc), host=host))
                continue
            out.ops.append(Op(label, time.perf_counter() - start, host=host))
            done.append((p, out.ops[-1], kind, args, samples, report))
    rse_time, reports = [0.0] * passes, []
    for p, op, kind, args, samples, report in done:
        expected, degenerate = expected_estimate(kind, args, tr)
        problem = judge_check(kind, report, expected, degenerate)
        if problem:
            op.error, op.wrong = problem, True
        if not report["pass"]:
            out.info["gate_rejections"].append(report["check"])
        if kind != "spectral" and not degenerate and report["stderr"]:
            rse_time[p] += op.seconds * (report["stderr"] / expected / 0.01) ** 2
        reports.append((kind, args, op.seconds, report, expected, degenerate))
    out.extra["mc_draws_per_s"] = (sum(d[4] for d in done) / out.wall_s, "1/s")
    out.extra["rse_time_s"] = (statistics.median(rse_time), "s")
    out.info["reports"] = reports  # consumed by the traced run, dropped from the result file
    return out


# -- sample path probe -----------------------------------------------------------------


def judge_samples(path: Path, n: int, fld: str, samples: int) -> str | None:
    """Check the JSON lines by their properties, not their bytes."""
    count = 0
    with path.open() as fh:
        while True:
            lines = [ln for _, ln in zip(range(2000), fh)]
            if not lines:
                break
            count += len(lines)
            objs = [json.loads(ln) for ln in lines]
            if any(o["n"] != n or o["field"] != fld for o in objs):
                return "a line carries the wrong n or field"
            spectra = np.array([o["spectrum"] for o in objs])
            rho = np.array([o["matrix_re"] for o in objs]).reshape(-1, n, n)
            if fld == "complex":
                rho = rho + 1j * np.array([o["matrix_im"] for o in objs]).reshape(-1, n, n)
            elif any("matrix_im" in o for o in objs):
                return "a real sample carries an imaginary part"
            if np.abs(rho - np.conj(np.swapaxes(rho, 1, 2))).max() > sampling.HERMITICITY_TOL:
                return "a matrix is not Hermitian"
            if np.abs(np.trace(rho, axis1=1, axis2=2) - 1).max() > 1e-12:
                return "a matrix does not have unit trace"
            eigenvalues = np.linalg.eigvalsh(rho)[:, ::-1]
            if eigenvalues.min() < -sampling.POSITIVITY_TOL:
                return "a matrix is not positive semidefinite"
            if spectra.shape != (len(objs), n) or np.any(np.diff(spectra, axis=1) > 0):
                return "a spectrum is not a nonincreasing list of n values"
            if np.abs(spectra.sum(axis=1) - 1).max() > 1e-12:
                return "a spectrum does not sum to 1"
            if np.abs(eigenvalues - spectra).max() > 1e-12:
                return "a spectrum is not the spectrum of its matrix"
    if count != samples:
        return f"{count} lines written for --samples {samples}"
    return None


def run_sample_commands(seed: int, tr, scratch: Path, samples: int) -> Outcome:
    """One in-process ``cli.main(["sample", ...])`` per shape, each output judged line by line."""
    rng = random.Random(f"sample:{seed}")
    out = Outcome(info={"samples_per_op": samples, "commands": []})
    path = scratch / "samples.jsonl"
    for n, fld in SAMPLE_SHAPES:
        argv = ["sample", "--n", str(n), "--field", fld, "--samples", str(samples),
                "--seed", str(rng.randrange(2**32)), "--out", str(path)]
        start = time.perf_counter()
        try:
            code = main_argv(tr, argv)
        except Exception as exc:  # counted against error_rate, with its message
            out.ops.append(Op(" ".join(argv[:7]), time.perf_counter() - start, error_text(exc)))
            continue
        elapsed = time.perf_counter() - start
        if code:
            out.ops.append(Op(" ".join(argv[:7]), elapsed, f"exit code {code}"))
            continue
        problem = judge_samples(path, n, fld, samples)
        out.ops.append(Op(" ".join(argv[:7]), elapsed, problem, problem is not None))
        out.info["commands"].append((argv, elapsed, path.stat().st_size))
        path.unlink()
    return out


# -- cli_oneshot judge and warm-up ---------------------------------------------------


def in_process_output(query: exact.Query, fmt: str, tr, scratch: Path) -> str:
    path = scratch / "answer.txt"
    code = main_argv(tr, query.argv() + ["--format", fmt, "--out", str(path)])
    text = path.read_text()
    path.unlink()
    if code:
        raise RuntimeError(f"in-process cli.main exited {code}")
    return text


def judge_cli_answer(query: exact.Query, fmt: str, stdout: str, tr, scratch: Path) -> str | None:
    """A CLI answer must equal the in-process answer and pass the exact judge."""
    if stdout != in_process_output(query, fmt, tr, scratch):
        return "CLI output differs from the in-process answer"
    answers = exact.evaluate(query, tr)
    rendered = {q: exact.render(v, tr) for q, v in answers if isinstance(v, exactnum.ExactValue)}
    problems = exact.judge(query, answers, rendered, tr)
    missing = [text for text, _, _ in rendered.values() if text not in stdout]
    if missing:
        problems.append(f"exact strings {missing} missing from the CLI output")
    return problems[0] if problems else None


def warm_up(workload: str, tr) -> None:
    """Untimed work a fresh interpreter does before the timed plan."""
    if workload == "exact_sweep":
        for slot, kind in enumerate(KINDS):
            query = make_query(kind, 3, "complex", slot, 0.5)
            for _, value in exact.evaluate(query, tr):
                if isinstance(value, exactnum.ExactValue):
                    exact.render(value, tr)
    elif workload == "mc_verify":
        # builds the n=3 spectral CDF grid (dblquad) and starts the thread pool
        tr.call(verify.check_spectral, 3, "complex", 1000, 0)
        tr.call(verify.check_hit_or_miss, 3, 1000, 0, 10, VERIFY_WORKERS)
