"""One sha256 over every printed answer of the benchmark's exact sweep, so "the same bytes" is defined once.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 scripts/answer_digest.py [--lines]

It renders every query of the ``exact_sweep`` plans of ``SEEDS``, each at
the plan size of a 20-second run, in plan order.  The queries come from
``perfbench``'s ``sweep_queries``; each is evaluated by ``exact.evaluate``
and each exact value rendered by ``exact.render``, as the benchmark does,
and none of them is changed here.  A query gives one line: its CLI
arguments, then each quantity with its canonical string, ``repr`` of its
float and of its log10, or ``repr`` of the float the CLI reports for it.
A query that raises gives one line instead: its arguments and the
exception's type and message, the refusal the CLI prints.  The digest is
the sha256 of the lines, each ended by a newline; ``--lines`` prints the
lines, and otherwise the digest.  ``tests/test_answer_digest.py`` pins it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import exact  # noqa: E402
from core import sweep_queries  # noqa: E402
from tracing import NullTracer  # noqa: E402

from hsgeom.exactnum import ExactValue  # noqa: E402

SEEDS = (3101, 3102, 3103)
STRATA = 25  # round(20 s * perfbench's 1.25 strata per second): 600 queries a seed


def answer_lines(seeds=SEEDS):
    """The rendered answer or refusal of every query of the plans, one line each, in plan order."""
    tr = NullTracer()
    for seed in seeds:
        for query in sweep_queries(seed, STRATA):
            fields = [" ".join(query.argv())]
            try:
                for quantity, value in exact.evaluate(query, tr):
                    if isinstance(value, ExactValue):
                        text, number, log10 = exact.render(value, tr)
                        fields.append(f"{quantity}={text}|{number!r}|{log10!r}")
                    else:
                        fields.append(f"{quantity}={value!r}")
            except Exception as exc:  # a refusal: the CLI prints its type's message and exits 2
                fields[1:] = [f"refused={type(exc).__name__}: {exc}"]
            yield "\t".join(fields)


def answer_digest(lines) -> str:
    """sha256 of the lines, each ended by a newline."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", action="store_true", help="print the lines instead of their digest")
    if parser.parse_args().lines:
        for line in answer_lines():
            print(line)
    else:
        print(answer_digest(answer_lines()))


if __name__ == "__main__":
    main()
