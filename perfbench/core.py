"""Plan building blocks shared by every workload; standard library only.

Nothing here imports the package, so the process that launches the CLI
workload stays small and its own import does not count.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time
from dataclasses import dataclass


@dataclass
class Op:
    label: str
    seconds: float
    error: str | None = None  # program error, or the judge's first objection
    wrong: bool = False  # the judge rejected an answer the program gave
    host: float = 1.0  # host speed index just before the operation (HostClock)


@dataclass
class Outcome:
    ops: list[Op] = dataclasses.field(default_factory=list)
    extra: dict = dataclasses.field(default_factory=dict)  # workload-only end-to-end metrics: name -> (value, unit)
    info: dict = dataclasses.field(default_factory=dict)  # plan description for the result file

    @property
    def wall_s(self) -> float:
        return math.fsum(op.seconds for op in self.ops)

    @property
    def wall_norm_s(self) -> float:
        return math.fsum(op.seconds / op.host for op in self.ops)


class HostClock:
    """Times a fixed reference task between a run's operations, to measure how fast the host is.

    ``between_ops`` runs the task when at least ``every_s`` has passed since
    it last ran, and returns the host speed index: the latest task time over
    ``nominal_s``, 1.0 on the box the benchmark was built on and 1.2 on a
    host 20% slower.  The task's time never counts towards an operation.  An
    operation's time divided by the index read just before it is in seconds
    of that box; the host's drift cancels out of it.  On a shared VM the
    host's speed changes within seconds, so the latest sample tracks it
    better than any longer average.  ``index`` is the median over the run,
    for the record.
    """

    def __init__(self, task, nominal_s: float, every_s: float):
        self.task, self.nominal_s, self.every_s = task, nominal_s, every_s
        self.samples: list[float] = []
        self._last = -math.inf

    def between_ops(self) -> float:
        if time.perf_counter() - self._last >= self.every_s:
            start = time.perf_counter()
            self.task()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)
        return self.samples[-1] / self.nominal_s

    def index(self) -> float:
        return statistics.median(self.samples) / self.nominal_s


class NullClock:
    """No reference task; used where nothing is normalized (traced runs, probes)."""

    def between_ops(self) -> float:
        return 1.0


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def state_dim(n: int, field: str) -> int:
    """Dimension of the body of n x n density matrices over the field."""
    return n * n - 1 if field == "complex" else n * (n + 1) // 2 - 1


KINDS = ("volume", "edge", "geometry", "reference", "group", "constants")
FIELDS = ("complex", "real")
BODIES = ("ball", "cube", "simplex", "diamond", "sphere")
FAMILIES = {"complex": ("U", "SU", "CP", "FlC"), "real": ("O", "SO", "RP", "FlR")}
ALPHAS = ("1/2", "1", "3/2", "2", "5/2", "3")


@dataclass(frozen=True)
class Query:
    kind: str
    args: tuple  # sorted (option, value) pairs, values as CLI strings

    @property
    def opts(self) -> dict:
        return dict(self.args)

    def argv(self) -> list[str]:
        out = [self.kind]
        for key, value in self.args:
            out += [f"--{key}", str(value)]
        return out


def make_query(kind: str, n: int, field: str, slot: int, u: float) -> Query:
    """One query of ``kind`` at size n.

    ``slot`` picks the categorical arguments (body, family and convention,
    alpha) in turn, and ``u`` in [0, 1) places the rank deficiency of an
    edge query in 1..n-1.
    """
    if kind in ("volume", "geometry"):
        args = {"n": n, "field": field}
    elif kind == "edge":
        args = {"n": n, "field": field, "rank-deficiency": 1 + int(u * (n - 1))}
    elif kind == "reference":
        args = {"body": BODIES[slot % len(BODIES)], "dim": state_dim(n, field)}
    elif kind == "group":
        args = {"family": FAMILIES[field][slot % 4], "n": n, "convention": "ABC"[slot // 4 % 3]}
    else:
        # a half-integer alpha makes Gamma(alpha n + beta n(n-1)/2) a half-integer
        # Gamma, far dearer at large n, exactly when n is odd; tie it to odd n
        alphas = ALPHAS[0::2] if n % 2 else ALPHAS[1::2]
        args = {"n": n, "alpha": alphas[slot % len(alphas)], "beta": 2 if field == "complex" else 1}
    return Query(kind, tuple(sorted((k, str(v)) for k, v in args.items())))


def sweep_queries(seed: int, strata: int) -> list[Query]:
    """Seeded stream for ``exact_sweep``: every kind and field, n log-uniform on 2..200.

    n is stratified and antithetic: each (kind, field) pair splits
    [log 2, log 201) into ``strata`` equal slices and draws two n from each,
    at offsets u and 1 - u within the slice, one odd and one even where the
    slice allows.  Each n is still log-uniform.
    The categorical arguments follow the slice index, so every seed puts
    the same ones at the same sizes.  The total cost grows like n^4 and so
    rests on the few largest queries; with plain random draws it would
    depend mostly on the seed.
    """
    rng = random.Random(f"exact_sweep:{seed}")
    lo, hi = math.log(2), math.log(201)
    queries = []
    for kind in KINDS:
        for field in FIELDS:
            for k in range(strata):
                u = rng.random()
                offsets = sorted((u, 1 - u))
                pair = [min(200, int(math.exp(lo + (k + v) / strata * (hi - lo)))) for v in offsets]
                if pair[0] % 2 == pair[1] % 2 and pair[1] + 1 < math.exp(lo + (k + 1) / strata * (hi - lo)):
                    pair[1] += 1  # one odd and one even n per slice, when the slice allows
                for j, (n, offset) in enumerate(zip(pair, offsets)):
                    queries.append(make_query(kind, n, field, 2 * k + j, offset))
    rng.shuffle(queries)
    return queries


def repeat_share(queries: list[Query]) -> float:
    """Share of queries whose (kind, args) tuple already occurred earlier in the stream."""
    return (len(queries) - len(set(queries))) / len(queries)


def cli_queries(seed: int, count: int) -> list[tuple[Query, str]]:
    """Seeded mix for ``cli_oneshot``: each kind in turn, n <= 8, every field and format."""
    rng = random.Random(f"cli_oneshot:{seed}")
    kinds: list[str] = []
    while len(kinds) < count:
        kinds += rng.sample(KINDS, len(KINDS))
    plan = []
    for kind in kinds[:count]:
        query = make_query(kind, rng.randint(2, 8), rng.choice(FIELDS), rng.randrange(60), rng.random())
        plan.append((query, rng.choice(("text", "json", "csv"))))
    return plan
