"""Command-line front end.

Every quantity is emitted as a record carrying the canonical exact string,
its float value, and its log10, so results stay readable at matrix sizes
where doubles overflow.  Output formats: an aligned text table, JSON, or
CSV with a fixed column order (documented in the README).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from fractions import Fraction

from . import constants, groups, mixedstates

COLUMNS = (
    "quantity",
    "n",
    "field",
    "convention",
    "family",
    "rank",
    "alpha",
    "beta",
    "body",
    "dim",
    "exact",
    "float",
    "log10",
)

_LN10 = math.log(10.0)


def _record(quantity, exact=None, value=None, log10=None, **params):
    rec = dict.fromkeys(COLUMNS)
    rec["quantity"] = quantity
    for key, val in params.items():
        rec[key] = val
    if exact is not None:
        rec["exact"] = str(exact)
        value = exact.to_float()
        log10 = exact.log10() if exact.sign > 0 else None
    # values outside the double range stay readable through exact/log10
    rec["float"] = value if value is None or math.isfinite(value) else None
    rec["log10"] = log10
    return rec


# -- subcommand handlers -------------------------------------------------------


def _cmd_volume(args):
    space = mixedstates.StateSpace(args.n, args.field)
    return [_record("volume", exact=mixedstates.vol_mixed(space), n=args.n, field=args.field)]


def _cmd_edge(args):
    space = mixedstates.StateSpace(args.n, args.field)
    value = mixedstates.vol_edge(space, args.rank_deficiency)
    return [_record("edge", exact=value, n=args.n, field=args.field, rank=args.rank_deficiency)]


def _cmd_geometry(args):
    space = mixedstates.StateSpace(args.n, args.field)
    g = mixedstates.geometry(space)
    base = {"n": args.n, "field": args.field}
    return [
        _record("radius_circumscribed", exact=g.circumradius, **base),
        _record("radius_inscribed", exact=g.inradius, **base),
        _record(
            "radius_effective",
            value=g.effective_radius,
            log10=math.log10(g.effective_radius),
            **base,
        ),
        _record("gamma", exact=g.gamma, **base),
        _record("chi1", value=g.chi1, log10=g.chi1_log10, **base),
        _record("chi2", value=g.chi2, log10=g.chi2_log10, **base),
        _record("chi", value=g.chi, log10=g.chi_log10, **base),
    ]


def _cmd_reference(args):
    body = mixedstates.reference_body(args.body, args.dim)
    records = [
        _record("reference_volume", exact=body.volume, body=args.body, dim=args.dim)
    ]
    if body.boundary_ratio is not None:
        records.append(
            _record("reference_gamma", exact=body.gamma, body=args.body, dim=args.dim)
        )
    return records


def _cmd_group(args):
    family = groups.Family(args.family)
    spec = groups.CosetSpec(family, args.n)
    conv = groups.Convention(args.convention)
    if family in groups._GROUP_FAMILIES:
        value = groups.vol_group(spec, conv)
    else:
        value = groups.vol_coset(spec, conv)
    return [
        _record(
            "group_volume",
            exact=value,
            n=args.n,
            family=args.family,
            convention=args.convention,
        )
    ]


def _exponent(option: str, text: str | None) -> Fraction | None:
    """The rational ``--alpha`` or ``--beta`` given as ``text`` (None if not given).

    Refused unless it is positive and a double can hold it: the float paths
    would round 1e-400 to 0.0 and overflow on (10^400 + 1)/3.
    """
    if text is None:
        return None
    try:
        value = Fraction(text)
        if float(value) > 0:  # float() raises OverflowError past the largest double
            return value
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"{option} must be a positive number that a double can hold, got {text!r}")


def _cmd_constants(args):
    alpha, beta = _exponent("--alpha", args.alpha), _exponent("--beta", args.beta)
    base = {"n": args.n, "alpha": str(alpha), "beta": str(beta)}
    exact_mode = (2 * alpha).denominator == 1 and beta in (1, 2)
    if exact_mode:
        params = constants.EnsembleParams(args.n, alpha, int(beta))
        # C_N first: where it is too long to print, it is refused from its
        # blocks before the integral is built
        c_norm = _record("c_norm", exact=constants.c_norm(params), **base)
        return [_record("laguerre_integral", exact=constants.laguerre_integral(params), **base), c_norm]
    log_c = constants.log_c_norm(args.n, float(alpha), float(beta))
    try:
        value = math.exp(log_c)
    except OverflowError:
        value = None  # past the double range; log10 still carries the value
    return [_record("c_norm", value=value, log10=log_c / _LN10, **base)]


def _cmd_sample(args):
    """The JSON lines of ``--samples`` draws, one line per piece; chunk i draws from stream i."""
    import json

    from . import sampling  # numpy loads only for the sampling subcommands

    rows = sampling.block_rows(args.n)
    # --samples 0 (or less) still draws one chunk, so the sampler checks every argument
    for stream, start in enumerate(range(0, max(args.samples, 1), rows)):
        rng = sampling.make_rng(args.seed, stream)
        batch = sampling.sample_hs_batch(args.n, args.field, rng, min(rows, args.samples - start))
        for rho, spectrum in zip(batch, sampling.eigvals_hermitian(batch)):
            obj = {"n": args.n, "field": args.field, "spectrum": [float(x) for x in spectrum]}
            if not args.spectra_only:
                obj["matrix_re"] = [float(x) for x in rho.real.reshape(-1)]
                if args.field == "complex":
                    obj["matrix_im"] = [float(x) for x in rho.imag.reshape(-1)]
            # a piece per line: unbuffered stdout can drop a big write's tail in a closed pipe
            yield json.dumps(obj) + "\n"


def _cmd_verify(args) -> tuple[list[str], int]:
    alpha, beta = _exponent("--alpha", args.alpha), _exponent("--beta", args.beta)
    from . import verify

    checks = verify.run_suite(
        args.suite,
        n=args.n,
        field=args.field,
        alpha=alpha,
        beta=beta,
        n_samples=args.samples,
        seed=args.seed,
        chunks=args.chunks,
        workers=args.workers,
    )
    return [_format_records(checks, "json")], 0 if all(c["pass"] for c in checks) else 1


# -- output formatting ---------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_records(records, fmt: str) -> str:
    if fmt == "json":
        import json  # only JSON output pays for the module

        return json.dumps(records, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(COLUMNS)]
        for rec in records:
            lines.append(",".join(_cell(rec[col]) for col in COLUMNS))
        return "\n".join(lines) + "\n"
    # text: aligned table, dropping columns that are empty everywhere
    cols = [c for c in COLUMNS if any(rec[c] is not None for rec in records)]
    rows = [[_cell(rec[c]) for c in cols] for rec in records]
    widths = [max(len(c), *(len(row[i]) for row in rows)) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsgeom",
        description="Exact Hilbert-Schmidt geometry of quantum state spaces, "
        "group volumes, and Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler, field=True):
        # an exact subcommand's runner: its records in --format, exit code 0
        p.set_defaults(run=lambda args: ([_format_records(handler(args), args.format)], 0))
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", metavar="PATH", default=None)
        if field:
            p.add_argument("--field", choices=("complex", "real"), default="complex")

    p = sub.add_parser("volume", help="HS volume of the state space")
    p.add_argument("--n", type=int, required=True)
    add_common(p, _cmd_volume)

    p = sub.add_parser("edge", help="volume of the rank-deficient edges")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank-deficiency", type=int, default=1, metavar="K")
    add_common(p, _cmd_edge)

    p = sub.add_parser("geometry", help="radii and shape coefficients")
    p.add_argument("--n", type=int, required=True)
    add_common(p, _cmd_geometry)

    p = sub.add_parser("reference", help="volume/gamma of reference bodies (unit size)")
    p.add_argument("--body", choices=[k.value for k in mixedstates.ReferenceKind], required=True)
    p.add_argument("--dim", type=int, required=True)
    add_common(p, _cmd_reference, field=False)

    p = sub.add_parser("group", help="group and coset volumes")
    p.add_argument("--family", choices=[f.value for f in groups.Family], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--convention", choices=("A", "B", "C"), default="A")
    add_common(p, _cmd_group, field=False)

    p = sub.add_parser("constants", help="eigenvalue-density normalization constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--beta", default="2")
    add_common(p, _cmd_constants, field=False)

    p = sub.add_parser("sample", help="emit HS-distributed density matrices as JSON lines")
    p.set_defaults(run=lambda args: (_cmd_sample(args), 0))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=("complex", "real"), default="complex")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spectra-only", action="store_true")
    p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("verify", help="Monte Carlo checks against the exact formulas")
    p.set_defaults(run=_cmd_verify)
    # checked by run_suite, so that parsing needs no numpy
    p.add_argument("--suite", required=True, help="norm, purity, spectral, hitmiss or all")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--field", choices=("complex", "real"), default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunks", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", metavar="PATH", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        pieces, code = args.run(args)
        pieces = iter(pieces)
        # computed before --out is opened, so a refused call leaves the file intact
        first = next(pieces, "")
        try:
            target = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
        except OSError as exc:  # only the open: a closed pipe below is an OSError too
            raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
        with target as out:
            out.write(first)
            out.writelines(pieces)  # one write per piece
            out.flush()
        return code
    except (ValueError, ZeroDivisionError, MemoryError) as exc:
        # MemoryError: a single matrix (one block) at an --n too large to
        # allocate; one without a message is named by the call
        message = str(exc)
        if not message:
            sizes = [f"--{name} {getattr(args, name)}" for name in ("n", "dim") if getattr(args, name, None) is not None]
            message = " ".join(["out of memory:", args.command, *sizes])
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Stdout now points
        # at devnull, so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
