"""Per-layer metrics of a traced run.

Most figures are aggregates of the spans the traced workload recorded.  A
layer the workload does not reach is driven by a small fixed probe, run
through the same tracer, so every traced run reports every layer.  Probes
whose figure is defined at fixed inputs (sampler throughput by n, the
import profile, worker scaling, the n=200 geometry ratio) always run.
"""

from __future__ import annotations

import math
import operator
import statistics
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from hsgeom import constants, groups, mixedstates, sampling, verify

import exact
import inproc
import procs
from core import Op, Outcome

SUBCOMMANDS = ("volume", "edge", "geometry", "reference", "group", "constants", "sample", "verify")
LAYER_FUNCTIONS = {
    "mixedstates": ("vol_mixed", "vol_edge", "geometry", "reference_body"),
    "groups": ("vol_group", "vol_coset"),
    "constants": ("c_norm", "laguerre_integral"),
}
# calls for layer functions a short probe sweep may happen not to draw
LAYER_FALLBACKS = {
    "groups.vol_group": (groups.vol_group, (groups.CosetSpec(groups.Family.UNITARY, 8),)),
    "groups.vol_coset": (groups.vol_coset, (groups.CosetSpec(groups.Family.COMPLEX_FLAG, 8),)),
    "constants.c_norm": (constants.c_norm, (constants.EnsembleParams(8, Fraction(1), 2),)),
    "constants.laguerre_integral": (
        constants.laguerre_integral, (constants.EnsembleParams(8, Fraction(1), 2),)),
    "mixedstates.vol_mixed": (mixedstates.vol_mixed, (mixedstates.StateSpace(8),)),
    "mixedstates.vol_edge": (mixedstates.vol_edge, (mixedstates.StateSpace(8), 1)),
    "mixedstates.reference_body": (mixedstates.reference_body, ("ball", 63)),
}
RENDER_CALLS = ("str", "to_float", "log10", "parse")
SAMPLER_SIZES = (2, 3, 4, 8)
SAMPLER_BATCH = 20_000
PROBE_SAMPLES = 5_000


def _timed(fn, *args, repeats: int = 3) -> float:
    """Median wall seconds of ``fn(*args)``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spectral_cdf_build_s(seed: int, tr) -> float:
    """First n=3 spectral check (builds the dblquad CDF grid) minus a warm one.

    Must run before anything else in the process builds the grid.
    """
    first, warm = (_timed(tr.call, verify.check_spectral, 3, "complex", 1000, seed, repeats=1)
                   for _ in range(2))
    return first - warm


def _cli_probes(tr, scratch: Path, names: set) -> None:
    """One small in-process ``cli.main`` call for each subcommand the workload did not run."""
    probes = {
        "volume": ["--n", "4"], "edge": ["--n", "4"], "geometry": ["--n", "4"],
        "reference": ["--body", "simplex", "--dim", "8"], "group": ["--family", "SU", "--n", "4"],
        "constants": ["--n", "4"], "sample": ["--n", "3", "--samples", "1000"],
        "verify": ["--suite", "purity", "--samples", "10000", "--workers", "2"],
    }
    path = scratch / "probe.out"
    for sub, args in probes.items():
        if f"cli.main.{sub}" not in names:
            inproc.main_argv(tr, [sub, *args, "--out", str(path)])
            path.unlink()


def _sampling_metrics(seed: int) -> dict:
    m = {}
    rng = sampling.make_rng(seed, 1)
    for n in SAMPLER_SIZES:
        for fld in ("complex", "real"):
            t = _timed(sampling.sample_hs_batch, n, fld, rng, SAMPLER_BATCH)
            m[f"sampling.hs_batch_mps.{fld}.n{n}"] = (SAMPLER_BATCH / t, "1/s")
        t = _timed(sampling.sample_pure_partial_trace_batch, n, rng, SAMPLER_BATCH)
        m[f"sampling.partial_trace_mps.n{n}"] = (SAMPLER_BATCH / t, "1/s")
    batch = sampling.sample_hs_batch(4, "complex", rng, SAMPLER_BATCH)
    for name, fn in (("eigvalsh", np.linalg.eigvalsh), ("eigvals_hermitian", sampling.eigvals_hermitian),
                     ("cholesky", np.linalg.cholesky)):
        m[f"sampling.{name}_mps.n4"] = (SAMPLER_BATCH / _timed(fn, batch), "1/s")
    return m


def _worker_scaling(seed: int) -> tuple[dict, list[Op]]:
    """Each estimator at workers=1 and workers=2 with the same chunks; estimates must be identical."""
    m, ops = {}, []
    estimators = {
        "norm": (verify.mc_norm_constant, (4, 1.0, 2.0, 1_000_000, seed, 10)),
        "purity": (verify.mc_purity, (3, "complex", 100_000, seed, 10)),
        "hitmiss": (verify.mc_hit_or_miss_fraction, (3, 400_000, seed, 10)),
    }
    for kind, (fn, args) in estimators.items():
        results, seconds = [], []
        for workers in (1, 2):
            start = time.perf_counter()
            results.append(fn(*args, workers=workers))
            seconds.append(time.perf_counter() - start)
        problem = None if results[0] == results[1] else f"estimates differ across workers: {results}"
        ops.append(Op(f"{kind} at workers=1 and 2", sum(seconds), problem, problem is not None))
        m[f"verify.workers_speedup.{kind}"] = (seconds[0] / seconds[1], "ratio")
    return m, ops


def rse_name(kind: str, args: tuple) -> str:
    if kind == "norm":
        return f"verify.rse.norm.n{args[0]}.a{args[1]}.b{args[2]}"
    if kind == "purity":
        return f"verify.rse.purity.n{args[0]}.{args[1]}"
    return f"verify.rse.hitmiss.n{args[0]}"


def _verify_metrics(outcome: Outcome) -> dict:
    reports, passes = outcome.info["reports"], outcome.info["plan_passes"]
    m = {}
    for kind in ("norm", "purity", "spectral", "hitmiss"):
        total = math.fsum(r[2] for r in reports if r[0] == kind)
        m[f"verify.{kind}_s"] = (total / passes, "s")
    ratios: dict[str, list[float]] = {}
    for kind, args, _, report, expected, degenerate in reports:
        if kind == "hitmiss":
            ratios.setdefault(f"verify.hitmiss.accept_ratio.n{args[0]}", []).append(report["estimate"])
        if kind == "norm" and args[1:3] == (1, 2) and args[0] > 1:
            mean, var = report["estimate"], args[3] * report["stderr"] ** 2
            ratios.setdefault(f"verify.norm.ess_ratio.n{args[0]}", []).append(mean * mean / (mean * mean + var))
        if kind != "spectral" and not degenerate:
            ratios.setdefault(rse_name(kind, args), []).append(report["stderr"] / expected)
    for name, values in ratios.items():
        m[name] = (statistics.fmean(values), "ratio")
    return m


def _sample_split(commands: list, tr) -> dict:
    """Split each sample command into draw, eigenvalue and write time (the remainder)."""
    draw, eig, write, size = [], [], [], []
    for argv, elapsed, nbytes in commands:
        opts = dict(zip(argv[1::2], argv[2::2]))
        n, fld, count = int(opts["--n"]), opts["--field"], int(opts["--samples"])
        rng = sampling.make_rng(int(opts["--seed"]))
        start = time.perf_counter()
        batch = tr.call(sampling.sample_hs_batch, n, fld, rng, count)
        mid = time.perf_counter()
        tr.call(sampling.eigvals_hermitian, batch)
        end = time.perf_counter()
        draw.append(mid - start)
        eig.append(end - mid)
        write.append(elapsed - (end - start))
        size.append(nbytes)
    mean = statistics.fmean
    return {"cli.sample.draw_s": (mean(draw), "s"), "cli.sample.eig_s": (mean(eig), "s"),
            "cli.sample.write_s": (mean(write), "s"), "cli.sample.bytes": (mean(size), "B")}


def per_layer(workload: Outcome, tr, seed: int, root: Path, scratch: Path) -> tuple[dict, list[Op]]:
    """Every per-layer metric as name -> (value, unit), and the operations the probes ran."""
    # the workload's own calls, or short probe runs for the layers it does not reach
    probes = {
        "answers": lambda: inproc.run_exact_sweep(seed, 1.0, tr),
        "commands": lambda: inproc.run_sample_commands(seed, tr, scratch, PROBE_SAMPLES),
        "reports": lambda: inproc.run_mc_verify(seed, 0.0, tr),
    }
    ran = {key: workload if key in workload.info else probe() for key, probe in probes.items()}
    answers, commands = ran["answers"].info["answers"], ran["commands"].info["commands"]
    probe_ops = [op for outcome in ran.values() if outcome is not workload for op in outcome.ops]
    names = tr.names()
    for name, (fn, args) in LAYER_FALLBACKS.items():
        if name not in names:
            tr.call(fn, *args)
    _cli_probes(tr, scratch, names)
    for pair in zip(answers[0::2], answers[1::2]):
        tr.call(operator.mul, *pair, name="exactnum.mul")

    m = {name: (value, "s") for name, value in procs.import_profile(root).items()}
    for sub in SUBCOMMANDS:
        m[f"cli.main_ms.{sub}"] = (tr.mean_ms(f"cli.main.{sub}"), "ms")
    m.update(_sample_split(commands, tr))
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            m[f"{layer}.{fn}_ms"] = (tr.mean_ms(f"{layer}.{fn}"), "ms")
            m[f"{layer}.{fn}_calls"] = (len(tr.durations(f"{layer}.{fn}")), "count")
    space = mixedstates.StateSpace(200)
    ratio = _timed(mixedstates.geometry, space, repeats=1) / _timed(mixedstates.vol_mixed, space, repeats=1)
    m["mixedstates.geometry_over_vol_mixed"] = (ratio, "ratio")
    for call in RENDER_CALLS:
        m[f"exactnum.{call}_ms"] = (tr.mean_ms(f"exactnum.{call}"), "ms")
    m["exactnum.mul_us"] = (1e3 * tr.mean_ms("exactnum.mul"), "us")
    m["exactnum.digits"] = (statistics.fmean(exact.digits(v) for v in answers), "count")
    m["exactnum.str_failed"] = (sum(s.failed for s in tr.spans if s.name == "exactnum.str"), "count")
    m.update(_sampling_metrics(seed))
    m.update(_verify_metrics(ran["reports"]))
    scaling, checks = _worker_scaling(seed)
    m.update(scaling)
    return m, probe_ops + checks
