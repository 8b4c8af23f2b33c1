"""Command-line interface.

Subcommands: sample, sample-joint, bench, verify, tabulate-envelope,
tabulate-squeeze, oracle.  CSV goes to stdout (or --out) with a header
row; verification reports are JSON.  Exit codes: 0 success, 1 failed
verification, and otherwise the ``exit_code`` of the package error raised
(see ``errors``): 1 parameter or usage error, 2 exhausted budget or
failed numerical convergence.

Each flag that two or more subcommands take is declared once, in
``_FLAGS``, and ``_SUBCOMMANDS`` names the ones each subcommand takes;
``build_parser`` declares ``--out``, which all take, and the flags of
one subcommand.  ``sample``, ``sample-joint`` and ``oracle`` write
their tables through ``_write_table``, the one place that decides their
CSV and JSON layout.
"""

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import dominator, hermite, joint, oracle, samplers, vanveen, verify
from .errors import GuegenError, ParameterError, whole
from .rng import RandomStream


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the
    # package's parameter-error path (exit 1) instead
    def error(self, message):
        raise ParameterError(message)


def _seed(text):
    try:
        return int(text, 0)  # accepts decimal and 0x-prefixed hex
    except ValueError:
        raise ParameterError(f"seed must be a decimal or hex integer, got {text!r}")


def _emit(lines, out_path):
    """Write ``lines``, each ending in a newline, to ``out_path`` or stdout."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise ParameterError(f"cannot write --out {out_path!r}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(lines)


_CSV_ROWS = 4096  # rows formatted in one operation


def _csv(header, rows):
    """CSV text of a nonempty table: the header line, then the row tuples
    in chunks of up to ``_CSV_ROWS`` rows, each chunk in one repeated
    %-format built from the types of the first row."""
    rows = iter(rows)
    first = next(rows)
    fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
    yield ",".join(header) + "\n"
    chunk = [first, *itertools.islice(rows, _CSV_ROWS - 1)]
    while chunk:
        yield (fmt * len(chunk)) % tuple(itertools.chain.from_iterable(chunk))
        chunk = list(itertools.islice(rows, _CSV_ROWS))


# keyword arguments of each flag that two or more subcommands take
_FLAGS = {
    "--n": dict(type=int, required=True),
    "--count": dict(type=int, required=True),
    "--mode": dict(choices=["plain", "squeeze"], default="squeeze"),
    "--seed": dict(type=_seed, default=0),
    "--format": dict(choices=["csv", "json"], default="csv"),
    "--convention": dict(choices=["unscaled", "intro"], default="unscaled"),
    "--points": dict(type=int, default=2001),
}

# each subcommand's help, and the flags of _FLAGS it takes
_SUBCOMMANDS = {
    "sample": (
        "draw single eigenvalues or fixed-degree variates",
        "--count --mode --seed --format --convention",
    ),
    "sample-joint": ("draw full ordered spectra", "--n --count --seed --format"),
    "bench": ("measure sampler cost scaling", "--mode --seed"),
    "verify": ("run verification suites, print a JSON report", ""),
    "tabulate-envelope": ("CSV of envelope vs density on a grid", "--n --points"),
    "tabulate-squeeze": ("CSV of the squeeze sandwich on a grid", "--n --points"),
    "oracle": ("CSV spectra from entrywise matrices", "--n --count --seed --convention"),
}


@functools.cache
def build_parser():
    """The argument parser, built once: parsing leaves it unchanged."""
    # --help leaves out the docstring's last paragraph, which is about the code
    p = _Parser(prog="guegen", description=__doc__.rsplit("\n\n", 1)[0])
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (text, flags) in _SUBCOMMANDS.items():
        parsers[name] = sub.add_parser(name, help=text)
        for flag in flags.split():
            parsers[name].add_argument(flag, **_FLAGS[flag])

    sp = parsers["sample"]
    sp.add_argument("--n", type=int, help="ensemble size for mixture sampling")
    sp.add_argument("--k", type=int, help="fixed degree instead of the mixture")
    sp.add_argument(
        "--max-proposals",
        type=int,
        default=samplers.DEFAULT_MAX_PROPOSALS,
        help="budget: each degree may spend this many proposals per draw of"
        " that degree, pooled over its draws (exit 2 when exhausted)",
    )

    jp = parsers["sample-joint"]
    jp.add_argument("--beta", type=float, default=2.0)
    jp.add_argument(
        "--max-attempts",
        type=int,
        default=joint.DEFAULT_MAX_ATTEMPTS,
        help="budget: attempts allowed for each spectrum (exit 2 when exhausted)",
    )

    bp = parsers["bench"]
    bp.add_argument("--n-list", required=True, help="comma-separated degrees")
    bp.add_argument("--samples-per-n", type=int, default=1000)

    vp = parsers["verify"]
    vp.add_argument("--suite", default="all", help="comma-separated suite names or 'all'")
    vp.add_argument("--quick", action="store_true", help="reduced sample counts")

    for parser in parsers.values():  # every subcommand writes to --out, or else stdout
        parser.add_argument("--out")
    return p


def _write_table(args, header, columns, **meta):
    """Write the table ``columns`` (JSON key -> array with one entry per
    row) to ``--out`` or stdout.  Under ``--format json``: one object of
    ``meta`` and then each column as a list.  Otherwise CSV: an index
    column, then one column per name of ``header``, a 2-D array giving one
    CSV column per entry of its rows."""
    if getattr(args, "format", "csv") == "json":  # oracle takes no --format
        doc = {**meta, **{key: a.tolist() for key, a in columns.items()}}
        _emit([json.dumps(doc) + "\n"], args.out)
    else:
        cols = [c for a in columns.values() for c in a.reshape(len(a), -1).T.tolist()]
        _emit(_csv(["index", *header], zip(range(len(cols[0])), *cols)), args.out)


def _in_convention(args, values):
    """``values`` in the ``--convention`` asked for: intro divides by sqrt(n)."""
    return values / math.sqrt(args.n) if args.convention == "intro" else values


def _cmd_sample(args):
    if args.k is None and args.n is None:
        raise ParameterError("sample needs --n (mixture) or --k (fixed degree)")
    whole("--count", args.count, 1)
    if args.k is not None and args.convention == "intro":
        raise ParameterError("--convention intro applies to eigenvalue sampling, not --k")
    if args.k is not None and args.n is not None and args.k >= args.n:
        raise ParameterError(f"--k must be below --n, got k={args.k}, n={args.n}")
    stream = RandomStream(args.seed)
    stats = samplers.SamplerStats()
    if args.k is None:
        draw, degree = samplers.sample_gue_eigenvalues, args.n
    else:
        draw, degree = samplers.sample_phi_sq_many, args.k
    values = draw(degree, args.count, stream, args.mode, stats, args.max_proposals)
    _write_table(
        args,
        ["value"],
        {"values": _in_convention(args, values)},
        n=args.n,
        k=args.k,
        mode=args.mode,
        seed=args.seed,
        convention=args.convention,
        count=len(values),
        proposals=stats.proposals,
        exact_evals=stats.exact_evals,
    )
    return 0


def _cmd_sample_joint(args):
    whole("--count", args.count, 1)
    stream = RandomStream(args.seed)
    progress = lambda a: print(f"attempts so far: {a}", file=sys.stderr)
    values, attempts = joint.sample_joint_many(
        args.n, args.count, args.beta, stream, args.max_attempts, progress=progress
    )
    header = ["attempts"] + [f"x{i + 1}" for i in range(args.n)]
    columns = {"attempts": attempts, "values": values}
    _write_table(args, header, columns, n=args.n, beta=args.beta, seed=args.seed)
    return 0


def _cmd_bench(args):
    try:
        n_list = [int(s) for s in args.n_list.split(",") if s]
    except ValueError:
        raise ParameterError(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    records = samplers.benchmark(args.mode, n_list, args.samples_per_n, seed=args.seed)
    header = (
        "n", "mode", "accepted", "proposals", "exact_evals", "exact_in_window",
        "exact_out_of_window", "proposals_per_accept", "exact_share", "cost_proxy", "ns_per_sample",
    )
    rows = [
        (n, args.mode, r.accepted, r.proposals, r.exact_evals, r.exact_in_window,
         r.exact_out_of_window, r.proposals_per_accept, r.exact_share, r.cost_proxy(n),
         r.ns_per_sample)
        for n, r in zip(n_list, records)
    ]
    _emit(_csv(header, rows), args.out)
    return 0


def _cmd_verify(args):
    report = verify.run_suites([s for s in args.suite.split(",") if s], quick=args.quick)
    _emit([json.dumps(report, indent=2) + "\n"], args.out)
    return 0 if report["pass"] else 1


def _cmd_tabulate_envelope(args):
    whole("--points", args.points, 2)
    spec = dominator.make_spec(args.n)
    span = spec.edge + 4.0 / spec.rate  # the turning point plus four tail lengths
    grid = np.linspace(-span, span, args.points)
    h = dominator.envelope_many(spec, grid)
    phi = hermite.phi_squared_many(args.n, grid)
    _emit(
        _csv(
            ["x", "h", "phi_sq"],
            zip(grid.tolist(), h.tolist(), phi.tolist()),
        ),
        args.out,
    )
    return 0


def _cmd_tabulate_squeeze(args):
    whole("--points", args.points, 2)
    spec = dominator.make_spec(args.n)
    grid = np.linspace(-spec.x1, spec.x1, args.points)
    f = vanveen.terms_many(args.n, grid)[0]
    h = dominator.envelope_many(spec, grid)
    lower, upper = vanveen.squeeze_bounds_many(args.n, grid)
    upper = np.minimum(upper, h)
    phi = hermite.phi_squared_many(args.n, grid)
    _emit(
        _csv(
            ["x", "phi_sq", "f", "lower", "upper", "h"],
            zip(*(a.tolist() for a in (grid, phi, f, lower, upper, h))),
        ),
        args.out,
    )
    return 0


def _cmd_oracle(args):
    whole("--count", args.count, 1)
    stream = RandomStream(args.seed)
    spectra = oracle.spectra_many(oracle.sample_gue_matrices(args.n, args.count, stream))
    header = [f"x{i + 1}" for i in range(args.n)]
    _write_table(args, header, {"values": _in_convention(args, spectra)})
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "sample-joint": _cmd_sample_joint,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
    "tabulate-envelope": _cmd_tabulate_envelope,
    "tabulate-squeeze": _cmd_tabulate_squeeze,
    "oracle": _cmd_oracle,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except GuegenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
