"""Command-line front end.

Exit codes: 0 on success; 1 when a solve reports NOT_FOUND or a
membership check queried with --expect-in is not IN; 2 on usage errors
(a solve too large to allocate among them), on an enumeration
whose arrangement count exceeds ENUMERATE_CAP, on a count with more
than COUNT_DIGITS_CAP decimal digits and when a figure's --out file
cannot be written; 3 on malformed input files, parameter strings or
measures, including measures too large for float64 arithmetic;
EXIT_BROKEN_PIPE when stdout closes before all output is written
(``| head``).  Output for a fixed argv is byte-identical across runs,
whatever the environment: solve's seed comes from --seed alone (default 0).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import _lazy_names

# the library names the commands call, by home module.  They load on first
# use (PEP 562), so each command imports only its own layers and only
# solve loads numpy.  Commands call them as attributes of this module
# (``this``), where a wrapper set from outside (perfbench/tracer.py, which
# also wraps surviving_monomials and enumerate_bisections here, names no
# command calls any more) replaces them.
__getattr__, __dir__ = _lazy_names(globals(), {
    "parity": ("_count_digits", "anchored_blocks_parity", "check_shape",
               "count_bisections", "equal_blocks_parity"),
    "gf2poly": ("count_surviving_monomials", "ideal_member",
                "surviving_monomials"),
    "verdicts": ("Status", "_frontier_stream", "frontier_table", "verdict"),
    "figures": ("frontier_svg",),
    "momentcurve": ("IntervalFamily", "_bisection_table",
                    "enumerate_bisections", "hyperplane_to_jsonable"),
    "testmap": ("MeasureOverflowError", "SolverConfig",
                "measures_from_jsonable", "solve_bisection"),
})
this = sys.modules[__name__]

# enumerate refuses families with more arrangements than this, and count
# counts with more decimal digits (Python's default int-to-str limit)
ENUMERATE_CAP, COUNT_DIGITS_CAP = 100_000, 4300

# 128 + SIGPIPE: what a shell reports for a command killed by a closed pipe
EXIT_BROKEN_PIPE = 141


class _InputFormatError(Exception):
    """Maps to exit code 3."""


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(data) -> None:
    import json

    _emit(json.dumps(data, indent=2))


def _emit_format(args, data, text: str) -> None:
    """data as JSON under --format json, text otherwise."""
    if args.format == "json":
        _emit_json(data)
    else:
        _emit(text)


def _cmd_lambda_check(args) -> int:
    v = this.verdict(args.d, args.j, args.k)
    _emit_format(args, v.to_jsonable(),
                 f"(d={v.d}, j={v.j}, k={v.k}): {v.status}\n"
                 f"certificate: {v.certificate}")
    if args.expect_in and v.status is not this.Status.IN:
        return 1
    return 0


def _cmd_lambda_table(args) -> int:
    # rows are written as they are built, so memory stays flat in --jmax
    sys.stdout.writelines(this._frontier_stream(args.k, args.jmax,
                                                args.format))
    return 0


def _cmd_lambda_figure(args) -> int:
    table = this.frontier_table(args.k, args.jmax)
    svg = this.frontier_svg(table)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        # a usage error, not the exit code 1 of NOT_FOUND
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_ideal_member(args) -> int:
    member = this.ideal_member(args.j, args.k, args.d)
    count = this.count_surviving_monomials(args.j, args.k, args.d)
    if member != (count == 0):  # raised, so python -O keeps the cross-check
        raise RuntimeError(f"ideal_member says {member} but "
                           f"{count} monomials survive")
    _emit_format(args, {"d": args.d, "j": args.j, "k": args.k,
                        "member": member, "surviving_monomials": count},
                 f"member={'true' if member else 'false'} "
                 f"surviving_monomials={count}")
    return 0


def _cmd_parity_lemma1(args) -> int:
    p = this.equal_blocks_parity(args.d, args.k)
    _emit_format(args, {"d": args.d, "k": args.k, "parity": str(p)}, str(p))
    return 0


def _cmd_parity_lemma2(args) -> int:
    p = this.anchored_blocks_parity(args.d, args.k, args.ell)
    _emit_format(args, {"d": args.d, "k": args.k, "ell": args.ell,
                        "parity": str(p)}, str(p))
    return 0


def _cmd_count(args) -> int:
    # _count_digits checks the shape; a count past the cap is refused
    # before it is computed, whatever Python's own digit limit is
    digits = this._count_digits(args.d, args.k, args.ell)
    if digits > COUNT_DIGITS_CAP:
        size = f"about {digits}" if digits < math.inf else "too many"
        raise ValueError(f"the count has {size} decimal digits, more than "
                         f"the {COUNT_DIGITS_CAP} count prints")
    n = this.count_bisections(args.d, args.k, args.ell)
    _emit_format(args, {"d": args.d, "k": args.k, "ell": args.ell,
                        "count": n}, str(n))
    return 0


def _parse_params(text: str) -> tuple[Fraction, ...]:
    from fractions import Fraction
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tokens):
        raise _InputFormatError(f"bad parameter list {text!r}: empty entry")
    try:
        return tuple(map(Fraction, tokens))
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputFormatError(f"bad parameter list {text!r}: {exc}") from exc


def _table_json(planes, rows) -> str:
    """json.dumps([[hyperplane_to_jsonable(planes[r]) for r in row] for
    row in rows], indent=2) for nonempty rows, with each plane rendered
    once and its block looked up by rank."""
    import json

    blocks = ["    " + json.dumps(this.hyperplane_to_jsonable(h), indent=2)
              .replace("\n", "\n    ") for h in planes]
    return "[\n" + ",\n".join("  [\n" + ",\n".join(map(blocks.__getitem__, r))
                              + "\n  ]" for r in rows) + "\n]"


def _cmd_enumerate(args) -> int:
    d, k, ell = args.d, args.k, args.ell
    # a bad (d, k, ell) is a usage error, like count's
    *_, j = this.check_shape(d, k, ell)
    params = _parse_params(args.params)
    try:
        family = this.IntervalFamily(d=d, parameters=params, anchor_count=ell)
        # a family of the size (d, k, ell) asks for has exactly
        # count_bisections(d, k, ell) arrangements; others fail below
        if family.j == j:
            count = this.count_bisections(d, k, ell)
            if count > ENUMERATE_CAP:
                print(f"error: {count} arrangements exceed the enumeration "
                      f"cap of {ENUMERATE_CAP}", file=sys.stderr)
                return 2
        planes, rows = this._bisection_table(family, k)
    except ValueError as exc:
        raise _InputFormatError(str(exc)) from exc
    _emit(_table_json(planes, rows))
    return 0


def _cmd_solve(args) -> int:
    import json

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _InputFormatError(f"cannot read {args.input}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, an integer literal past
        # Python's digit limit, or nesting past the recursion limit
        raise _InputFormatError(f"invalid JSON in {args.input}: {exc}") from exc
    try:
        d, measures = this.measures_from_jsonable(data)
    except ValueError as exc:
        raise _InputFormatError(str(exc)) from exc
    config = this.SolverConfig(tolerance=args.tol,
                               seed=args.seed,
                               max_restarts=args.restarts)
    try:
        result = this.solve_bisection(measures, args.k, config)
    except this.MeasureOverflowError as exc:
        raise _InputFormatError(str(exc)) from exc
    except MemoryError as exc:  # such as a k whose arrays cannot exist
        raise ValueError(f"out of memory at --k {args.k}: {exc}") from exc
    _emit_json(result.to_jsonable())
    return 0 if result.success else 1


def _add_format(parser, default: str, choices=("text", "json")) -> None:
    parser.add_argument("--format", choices=choices, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbisect",
        description="Bisecting measures with affine hyperplane arrangements: "
                    "membership verdicts, exact constructions, numerical "
                    "solving.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lambda = sub.add_parser("lambda", help="membership verdicts")
    lam_sub = p_lambda.add_subparsers(dest="subcommand", required=True)

    p_check = lam_sub.add_parser("check", help="decide one triple")
    p_check.add_argument("d", type=int)
    p_check.add_argument("j", type=int)
    p_check.add_argument("k", type=int)
    p_check.add_argument("--expect-in", action="store_true",
                         help="exit 1 unless the verdict is IN")
    _add_format(p_check, "text")
    p_check.set_defaults(func=_cmd_lambda_check)

    p_table = lam_sub.add_parser("table", help="per-criterion frontier")
    p_table.add_argument("--k", type=int, required=True)
    p_table.add_argument("--jmax", type=int, required=True)
    _add_format(p_table, "csv", choices=("csv", "json"))
    p_table.set_defaults(func=_cmd_lambda_table)

    p_fig = lam_sub.add_parser("figure", help="frontier scatter plot")
    p_fig.add_argument("--k", type=int, required=True)
    p_fig.add_argument("--jmax", type=int, required=True)
    p_fig.add_argument("--out", required=True, help="output .svg path")
    p_fig.set_defaults(func=_cmd_lambda_figure)

    p_ideal = sub.add_parser("ideal", help="truncated power membership")
    ideal_sub = p_ideal.add_subparsers(dest="subcommand", required=True)
    p_member = ideal_sub.add_parser("member")
    p_member.add_argument("d", type=int)
    p_member.add_argument("j", type=int)
    p_member.add_argument("k", type=int)
    _add_format(p_member, "text")
    p_member.set_defaults(func=_cmd_ideal_member)

    p_parity = sub.add_parser("parity", help="block-count parities")
    parity_sub = p_parity.add_subparsers(dest="subcommand", required=True)
    p_l1 = parity_sub.add_parser("lemma1", help="equal blocks")
    p_l1.add_argument("d", type=int)
    p_l1.add_argument("k", type=int)
    _add_format(p_l1, "text")
    p_l1.set_defaults(func=_cmd_parity_lemma1)
    p_l2 = parity_sub.add_parser("lemma2", help="anchored blocks")
    p_l2.add_argument("d", type=int)
    p_l2.add_argument("k", type=int)
    p_l2.add_argument("ell", type=int)
    _add_format(p_l2, "text")
    p_l2.set_defaults(func=_cmd_parity_lemma2)

    p_count = sub.add_parser("count", help="closed-form arrangement count")
    p_count.add_argument("d", type=int)
    p_count.add_argument("k", type=int)
    p_count.add_argument("--ell", type=int, default=0)
    _add_format(p_count, "text")
    p_count.set_defaults(func=_cmd_count)

    p_enum = sub.add_parser("enumerate",
                            help="exact bisecting arrangements for intervals")
    p_enum.add_argument("d", type=int)
    p_enum.add_argument("k", type=int)
    p_enum.add_argument("--ell", type=int, default=0)
    p_enum.add_argument("--params", required=True,
                        help="comma-separated rational endpoints, e.g. "
                             "\"1,2,3,4,11/2,6,7,8\"")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_solve = sub.add_parser("solve", help="numerical bisection search")
    p_solve.add_argument("--input", required=True,
                         help="measure collection JSON file")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--tol", type=float, default=1e-2,
                         help="largest relative imbalance per measure; "
                              "a batch of restarts stops within it")
    p_solve.add_argument("--seed", type=int, default=0,
                         help="nonnegative integer seeding every restart")
    p_solve.add_argument("--restarts", type=int, default=20,
                         help="restarts to try; batches race, the first "
                              "within --tol wins")
    p_solve.set_defaults(func=_cmd_solve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader left early; send what is still buffered to devnull so
        # that the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
