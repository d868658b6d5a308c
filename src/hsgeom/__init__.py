"""Exact Hilbert-Schmidt geometry of quantum state spaces.

Closed-form volumes, boundary areas, edge volumes, radii and shape ratios
of the sets of complex and real density matrices, exact volumes of the
classical compact groups and their flag/projective quotients in three
metric conventions, and Monte Carlo machinery that verifies the underlying
measures by sampling random density matrices.

The exact layer is imported eagerly; the sampling and verification names
(and the ``sampling`` and ``verify`` submodules) load numpy on first use,
so exact queries never pay for it.
"""

import importlib

from . import constants, exactnum, groups, mixedstates
from .constants import *
from .exactnum import *
from .groups import *
from .mixedstates import *

__version__ = "0.1.0"

# name -> submodule that defines it, imported on first attribute access
_LAZY = {
    **dict.fromkeys(
        (
            "eigvals_hermitian",
            "gell_mann_basis",
            "make_rng",
            "sample_hs_batch",
        ),
        "sampling",
    ),
    **dict.fromkeys(
        (
            "MCEstimate",
            "SUITES",
            "check_hit_or_miss",
            "check_norm_constant",
            "check_purity",
            "check_spectral",
            "mc_hit_or_miss_fraction",
            "mc_norm_constant",
            "mc_purity",
            "purity_oracle",
            "run_suite",
            "spectral_fit_test",
        ),
        "verify",
    ),
}
_LAZY_MODULES = ("sampling", "verify")

__all__ = [
    *exactnum.__all__,
    *constants.__all__,
    *groups.__all__,
    *mixedstates.__all__,
    *_LAZY,
    "exactnum",
    "constants",
    "groups",
    "mixedstates",
    *_LAZY_MODULES,
]


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
