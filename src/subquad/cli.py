"""Command-line surface: stable text output for scripting and goldens.

Machine-readable lines are prefixed RESULT.  Exit codes: 0 success or
representable, 1 usage, parse or unreadable-input error, 2 not
representable / not submodular / verification failed, 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import sys


from .maxflow import minimize_quadratic
from .mbf import MBF_ENUMERATION_CAP, MbfTable, enumerate_mbfs, parse_tables, prune_mbf_set
from .oracle import format_report, verify_reduction
from .pbf import (
    InvariantError,
    MultilinearPoly,
    PolyParseError,
    QuadraticPoly,
    format_polynomial,
    format_rational,
    indices_of,
    is_submodular,
    mask_of,
    parse_polynomial,
)
from .reduce_general import ReductionProblem, nearest_quadratic, overestimate
from .reduce_quartic import (
    NotRepresentable,
    QuarticFunction,
    generator_catalog,
    nearest_quartic,
    reduce_quartic,
)

USAGE_ERROR, FAILURE, INTERNAL_ERROR = 1, 2, 3


def _read_poly(path: str, n_vars: int | None = None) -> MultilinearPoly:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_polynomial(fh.read(), n_vars)


def _label(mask: int) -> str:
    return ",".join(map(str, indices_of(mask))) or "-"


def _mbf_choice(spec: str, k: int) -> tuple[MbfTable, ...]:
    if spec == "all":
        return tuple(enumerate_mbfs(k))
    if spec == "pruned":
        return tuple(prune_mbf_set(enumerate_mbfs(k)))
    if spec == "generators":
        rs = range(2, k) if k >= 3 else (2,)
        return tuple(MbfTable.threshold(k, r) for r in rs)
    with open(spec, "r", encoding="utf-8-sig") as fh:
        return tuple(parse_tables(fh.read(), k))


def _default_mbfs(k: int) -> str:
    return "pruned" if k <= 3 else "generators"


def _print_reduction(result, k):
    print(f"QUADRATIC vars={k} avs={result.quadratic.n_z}")
    sys.stdout.write(format_polynomial(result.quadratic.poly))
    print("GAPS")
    for row in result.report.rows:
        print(f"{_label(row.x)} {format_rational(row.gap)}")
    print(f"RESULT distance={format_rational(result.l1_distance)}")
    print(f"RESULT avs={result.quadratic.n_z}")


def _cmd_check(args) -> int:
    f = _read_poly(args.file)
    ok = is_submodular(f)
    print(f"RESULT submodular={'true' if ok else 'false'}")
    return 0 if ok else FAILURE


def _cmd_minimize(args) -> int:
    poly = _read_poly(args.file)
    h = QuadraticPoly(poly, poly.n_vars, 0)
    value, argmin = minimize_quadratic(h)
    print(f"RESULT min={format_rational(value)}")
    print(f"RESULT argmin={_label(argmin)}")
    return 0


def _problem_from_args(args) -> ReductionProblem:
    target = _read_poly(args.file, args.k)
    spec = args.mbfs or _default_mbfs(args.k)
    return ReductionProblem(target, _mbf_choice(spec, args.k))


def _cmd_reduce(args) -> int:
    problem = _problem_from_args(args)
    result = nearest_quadratic(problem)
    _print_reduction(result, args.k)
    return 0 if result.l1_distance == 0 else FAILURE


def _cmd_nearest(args) -> int:
    problem = _problem_from_args(args)
    result = nearest_quadratic(problem)
    _print_reduction(result, args.k)
    return 0


def _count(spec: str) -> int:
    """A variable, auxiliary or arity count: an integer >= 0."""
    try:
        n = int(spec)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {spec!r}")
    return n


def _anchor(spec: str) -> int:
    """The --anchor labeling: comma-separated 1-based indices, empty for
    the all-zeros labeling."""
    if not spec.strip():
        return 0
    try:
        return mask_of(int(tok) for tok in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated indices >= 1, got {spec!r}") from None


class _Permutation(argparse.Action):
    """gen-table's pattern: the indices 1 2 3 4 in some order."""

    def __call__(self, parser, namespace, values, option_string=None):
        if sorted(values) != [1, 2, 3, 4]:
            raise argparse.ArgumentError(self, f"expected a permutation of 1 2 3 4, got {' '.join(map(str, values))}")
        setattr(namespace, self.dest, values)


def _cmd_overestimate(args) -> int:
    problem = _problem_from_args(args)
    result = overestimate(problem, args.anchor)
    _print_reduction(result, args.k)
    return 0


def _cmd_reduce4(args) -> int:
    f = QuarticFunction(_read_poly(args.file, 4))
    if args.nearest:
        result = nearest_quartic(f)
        print(f"RESULT representable={'true' if result.report.passed else 'false'}")
        print(f"RESULT distance={format_rational(result.l1_distance)}")
    else:
        try:
            result = reduce_quartic(f)
        except NotRepresentable:
            print("RESULT representable=false")
            return FAILURE
        print("RESULT representable=true")
    print(f"QUADRATIC vars=4 avs={result.quadratic.n_z}")
    sys.stdout.write(format_polynomial(result.quadratic.poly))
    sys.stdout.write(format_report(result.report))
    return 0


def _cmd_verify(args) -> int:
    f = _read_poly(args.f_file)
    h_poly = _read_poly(args.h_file, f.n_vars + args.avs)
    h = QuadraticPoly(h_poly, f.n_vars, args.avs)
    report = verify_reduction(f, h)
    sys.stdout.write(format_report(report))
    print(f"RESULT pass={'true' if report.passed else 'false'}")
    return 0 if report.passed else FAILURE


def _cmd_mbf_count(args) -> int:
    print(f"RESULT count={len(enumerate_mbfs(args.k))}")
    return 0


def _cmd_mbf_dump(args) -> int:
    for t in enumerate_mbfs(args.k):
        print(t.as_bitstring())
    return 0


def _cmd_gen_table(args) -> int:
    f, h = generator_catalog(args.group, tuple(args.pattern))
    print(f"GROUP {args.group} PATTERN {' '.join(map(str, args.pattern))}")
    print("QUARTIC")
    sys.stdout.write(format_polynomial(f.poly))
    if h is None:
        print("QUADRATIC none")
    else:
        print(f"QUADRATIC avs={h.n_z}")
        sys.stdout.write(format_polynomial(h.poly))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subquad",
        description="exact quadratization and max-flow minimization of submodular functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a polynomial for submodularity")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("minimize", help="minimize a submodular quadratic by max-flow")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_minimize)

    for name, fn in (("reduce", _cmd_reduce), ("nearest", _cmd_nearest)):
        p = sub.add_parser(name, help=f"{name} a function against a monotone-table set")
        p.add_argument("file")
        p.add_argument("--k", type=_count, required=True)
        p.add_argument("--mbfs", default=None, help="all|pruned|generators|<table file>")
        p.set_defaults(fn=fn)

    p = sub.add_parser("overestimate", help="tightest dominating quadratic, exact at the anchor")
    p.add_argument("file")
    p.add_argument("--k", type=_count, required=True)
    p.add_argument("--mbfs", default=None)
    p.add_argument("--anchor", type=_anchor, required=True, help="comma-separated 1-based indices, empty for the all-zeros labeling")
    p.set_defaults(fn=_cmd_overestimate)

    p = sub.add_parser("reduce4", help="two-auxiliary reduction of a quartic")
    p.add_argument("file")
    p.add_argument("--nearest", action="store_true")
    p.set_defaults(fn=_cmd_reduce4)

    p = sub.add_parser("verify", help="brute-force check of a reduction")
    p.add_argument("f_file")
    p.add_argument("h_file")
    p.add_argument("--avs", type=_count, required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("mbf-count", help="number of monotone tables")
    p.add_argument("k", type=_count, choices=range(MBF_ENUMERATION_CAP + 1), metavar="k")
    p.set_defaults(fn=_cmd_mbf_count)

    p = sub.add_parser("mbf-dump", help="list monotone tables as bit-strings")
    p.add_argument("k", type=_count, choices=range(MBF_ENUMERATION_CAP + 1), metavar="k")
    p.set_defaults(fn=_cmd_mbf_dump)

    p = sub.add_parser("gen-table", help="print one generator catalog row")
    p.add_argument("group", type=int, choices=range(1, 11), metavar="group")
    p.add_argument("pattern", type=int, nargs=4, action=_Permutation)
    p.set_defaults(fn=_cmd_gen_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.fn(args)
    except (PolyParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, NotRepresentable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
