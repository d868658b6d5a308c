"""In-process host speed reference: fixed work that does not touch the package.

The speed of a vCPU on a shared host drifts by 20-30% over minutes, as
other tenants come and go, and a fixed amount of work drifts with it.  An
in-process run therefore times ``reference_mix`` between its operations;
the median of those times, over ``MIX_NOMINAL_S``, is the run's host speed
index (see ``core.HostClock``).  The mix covers the kinds of work the
workloads do: interpreter loops, the JSON encoder, LAPACK on small
batches and big-integer arithmetic with decimal conversion.
"""

from __future__ import annotations

import json

import numpy as np

MIX_NOMINAL_S = 0.015  # median of reference_mix on a 2-core x86 box at the commit that introduced the benchmark

_ROWS = [[(i * 7919 + j * 104729) % 1000 / 997 for j in range(64)] for i in range(40)]
_BATCH = np.random.default_rng(0).standard_normal((1500, 4, 4))
_BATCH = _BATCH + _BATCH.transpose(0, 2, 1)
_BIG = 7**2000  # the square has 3381 digits, within the 4300-digit str limit


def reference_mix() -> None:
    total = 0
    for i in range(30_000):
        total += i * i % 7
    json.dumps(_ROWS)
    np.linalg.eigvalsh(_BATCH)
    for k in range(12):
        str(_BIG * (_BIG + k))
