"""Command-line interface over the constructions, loci, and figures.

Exit codes: 0 on success, 1 for usage or domain errors, 2 when a
``verify`` run finds residuals above tolerance. Every JSON result is a
single document on standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .constructions import ApplicationKind, ApplicationSpec, _run_application, solve_height_for_area
from .figures import standard_figure, render_svg, scene_from_application
from .locus import (
    ConicKind,
    SampleRange,
    _family,
    _sample_locus_floats,
    conic_params,
    max_applicable_area,
    read_locus_csv,
    sample_locus,
    verify_residuals,
    write_locus_csv,
)

__all__ = ["main", "run"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_VERIFY_FAILED = 2

# Fraction of the natural height scale used when no --y-min/--y-max is given.
_DEFAULT_SPAN = (0.05, 0.95)

# The most heights ``locus`` sweeps over floats; above it, ``sample_locus``
# sweeps over numpy arrays, to the same points. Importing numpy costs a cold
# process 140-200 ms, and the float sweep ~18 µs per height more than the
# batched one, so a cold call costs the same either way at 8,000-9,000
# heights (Python 3.11, numpy 2.4, shared 2-vCPU VM; BENCH_18.json). The
# cutoff sits below that, where the float sweep still wins at the import's
# lowest cost.
_FLOAT_SWEEP_MAX = 6000


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with status 1 on usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_USAGE)


def _add_base(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--base", required=True, type=float, help="length L of the segment AB")


def _add_lambda(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="aspect ratio of the deficiency/excess rectangle (not valid for exact/parabola)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="areaconics",
        description="Apply rectangles to a segment, square them, and trace the conic loci.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    construct = sub.add_parser("construct", help="run one application and print its summary")
    construct.add_argument(
        "--kind", required=True, choices=[k.value for k in ApplicationKind]
    )
    _add_base(construct)
    _add_lambda(construct)
    construct.add_argument("--height", required=True, type=float, help="rectangle height y")
    construct.add_argument("--trace", default=None, help="write the construction trace JSON here")
    construct.add_argument("--svg", default=None, help="write the construction diagram SVG here")

    solve = sub.add_parser("solve", help="invert an area to the heights that hold it")
    solve.add_argument("--kind", required=True, choices=[k.value for k in ApplicationKind])
    _add_base(solve)
    _add_lambda(solve)
    solve.add_argument("--area", required=True, type=float, help="target applied area")

    locus = sub.add_parser("locus", help="sample a conic locus to CSV")
    locus.add_argument("--kind", required=True, choices=[k.value for k in ConicKind])
    _add_base(locus)
    _add_lambda(locus)
    locus.add_argument("--y-min", dest="y_min", type=float, default=None)
    locus.add_argument("--y-max", dest="y_max", type=float, default=None)
    locus.add_argument("--samples", required=True, type=int, help="number of heights to sample")
    locus.add_argument("--out", required=True, help="output CSV path")

    params = sub.add_parser("params", help="print the closed-form conic parameters as JSON")
    params.add_argument("--kind", required=True, choices=[k.value for k in ConicKind])
    _add_base(params)
    _add_lambda(params)

    maxarea = sub.add_parser("maxarea", help="largest deficient-application area and its base")
    _add_base(maxarea)
    maxarea.add_argument("--lambda", dest="lam", required=True, type=float)

    verify = sub.add_parser("verify", help="check a locus CSV against the conic equations")
    verify.add_argument("--points", required=True, help="CSV produced by the locus verb")
    verify.add_argument("--kind", required=True, choices=[k.value for k in ConicKind])
    _add_base(verify)
    _add_lambda(verify)
    verify.add_argument("--tol", required=True, type=float)

    figure = sub.add_parser("figure", help="emit one of the standard figures as SVG")
    figure.add_argument("--which", required=True, type=int, help="figure number, 1-9")
    figure.add_argument("--out", required=True, help="output SVG path")

    return parser


def _check_lambda(kind_value: str, lam: float | None) -> None:
    takes_lambda = kind_value not in ("exact", "parabola")
    if takes_lambda and lam is None:
        raise ValueError(f"--lambda is required with --kind {kind_value}")
    if not takes_lambda and lam is not None:
        raise ValueError(f"--lambda is not accepted with --kind {kind_value}")


def _emit(document: dict) -> None:
    print(json.dumps(document))


def _cmd_construct(args: argparse.Namespace) -> int:
    _check_lambda(args.kind, args.lam)
    result = _run_application(ApplicationSpec(ApplicationKind(args.kind), args.base, args.height, args.lam))
    if args.trace is not None:
        Path(args.trace).write_text(result.trace.to_json(indent=2) + "\n", encoding="utf-8")
    if args.svg is not None:
        Path(args.svg).write_text(render_svg(scene_from_application(result)), encoding="utf-8")
    _emit(result.summary())
    return _EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    _check_lambda(args.kind, args.lam)
    heights = solve_height_for_area(ApplicationKind(args.kind), args.base, args.area, args.lam)
    _emit({"heights": heights})
    return _EXIT_OK


def _cmd_locus(args: argparse.Namespace) -> int:
    _check_lambda(args.kind, args.lam)
    kind = ConicKind(args.kind)
    family = _family(kind, args.base, args.lam)
    if (args.y_min is None) != (args.y_max is None):
        raise ValueError("--y-min and --y-max must be given together")
    if args.y_min is None:
        if kind is ConicKind.ELLIPSE:
            # the ellipse only exists for heights below L/lambda
            top = family.base_L / family.lam
            y_min, y_max = _DEFAULT_SPAN[0] * top, _DEFAULT_SPAN[1] * top
        else:
            y_min, y_max = _DEFAULT_SPAN[0] * family.base_L, 2.0 * family.base_L
        # y_max is the larger end, and overflows first.
        if not math.isfinite(y_max):
            raise ValueError(
                f"the default height range [{y_min}, {y_max}] overflows for this family; "
                "pass --y-min and --y-max"
            )
    else:
        y_min, y_max = args.y_min, args.y_max
    sample_range = SampleRange(y_min, y_max, args.samples)
    sweep = _sample_locus_floats if sample_range.n <= _FLOAT_SWEEP_MAX else sample_locus
    write_locus_csv(sweep(kind, args.base, sample_range, args.lam), args.out)
    return _EXIT_OK


def _cmd_params(args: argparse.Namespace) -> int:
    _check_lambda(args.kind, args.lam)
    _emit(conic_params(ConicKind(args.kind), args.base, args.lam).to_json_dict())
    return _EXIT_OK


def _cmd_maxarea(args: argparse.Namespace) -> int:
    area, at_base = max_applicable_area(args.base, args.lam)
    _emit({"area": area, "at_base": at_base})
    return _EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_lambda(args.kind, args.lam)
    points = read_locus_csv(args.points)
    report = verify_residuals(points, ConicKind(args.kind), args.base, args.lam, args.tol)
    _emit(report.to_json_dict())
    return _EXIT_OK if report.passed else _EXIT_VERIFY_FAILED


def _cmd_figure(args: argparse.Namespace) -> int:
    Path(args.out).write_text(standard_figure(args.which), encoding="utf-8")
    return _EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "solve": _cmd_solve,
    "locus": _cmd_locus,
    "params": _cmd_params,
    "maxarea": _cmd_maxarea,
    "verify": _cmd_verify,
    "figure": _cmd_figure,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and return the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        return _COMMANDS[args.verb](args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
