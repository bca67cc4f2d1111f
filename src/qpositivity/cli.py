"""Command-line front end: compute objects, verify identities, scan grids.

Exit codes: 0 pass, 1 verification failure, 2 invalid input, 3 internal
divisibility failure.

Scans stream: each report row is written as soon as it is computed.  The
grid, the check names and the output file are validated before the first
row.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from itertools import product
from typing import Any, Callable, Iterable, Iterator, TextIO

from . import altsum, catalan
from .altsum import CyclicParams
from .qcombinat import IdentityCheckResult, InvalidRange, NegativeIndex
from .qpoly import IntPoly, NotDivisible

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_NOT_DIVISIBLE = 3

# family -> (evaluator, independent integer evaluator at q = 1, parameter names)
_PAIRS = {
    "A": (catalan.super_catalan_A, catalan.super_catalan_A_value_at_one, ("m", "n")),
    "B": (catalan.ratio_B, catalan.ratio_B_value_at_one, ("n", "m")),
    "C": (catalan.odd_super_catalan_direct, catalan.odd_super_catalan_value_at_one, ("m", "n")),
}


def _q1_specialization(family: str, params: Any, poly: IntPoly | None) -> bool:
    if family == "F":
        reference = altsum.value_at_one_reference(params)
    else:
        reference = _PAIRS[family][1](*params)
    return poly is not None and reference == poly.eval_at_one()


def _degree_bound(family: str, params: CyclicParams, poly: IntPoly | None) -> bool:
    return poly is not None and (poly.degree is None or poly.degree <= altsum.delta(params.m, params.n))


def _reciprocity(family: str, params: CyclicParams, poly: IntPoly | None) -> bool:
    try:
        return altsum.reciprocity_check(params).passed
    except (NotDivisible, InvalidRange):
        return False


def _deletion(family: str, params: CyclicParams, poly: IntPoly | None) -> bool | None:
    if params.r < 3 or params.b < 2:
        return None  # the recurrence is undefined here
    try:
        return altsum.deletion_check(params).passed
    except NotDivisible:
        return False


# check -> (families it applies to, verdict on (family, instance, poly)).
# The instance is an (x, y) pair, or CyclicParams for F; poly is its value,
# None when F is not a polynomial there.  A verdict of None means the check
# was skipped, not failed.
_CHECKS: dict[str, tuple[str, Callable[..., bool | None]]] = {
    "positivity": ("ABCF", lambda family, params, poly: poly is not None and poly.is_nonneg()),
    "oracle-equivalence": ("C", lambda family, pair, poly: catalan.odd_super_catalan_recursive(*pair) == poly),
    "q1-specialization": ("ABCF", _q1_specialization),
    "reciprocity": ("F", _reciprocity),
    "degree-bound": ("F", _degree_bound),
    "deletion": ("F", _deletion),
}


def _cyclic(args: argparse.Namespace) -> CyclicParams:
    return CyclicParams(args.m, args.n, args.a, args.b, args.unsafe_params)


# identity -> (flags it needs, its check)
_IDENTITIES: dict[str, tuple[tuple[str, ...], Callable[[argparse.Namespace], IdentityCheckResult]]] = {
    "double-expansion": (("N", "h"), lambda args: catalan.double_expansion_check(args.N, args.h)),
    "reciprocity": (("m", "n", "a", "b"), lambda args: altsum.reciprocity_check(_cyclic(args))),
    "product": (("m1", "m2", "k"), lambda args: altsum.product_identity_check(args.m1, args.m2, args.k)),
    "deletion": (("m", "n", "a", "b"), lambda args: altsum.deletion_check(_cyclic(args))),
    "deletion-kernel": (
        ("m1", "m2", "m3", "mr", "k"),
        lambda args: altsum.deletion_kernel_check(args.m1, args.m2, args.m3, args.mr, args.k),
    ),
    "recombine": (("m", "n", "ell", "k"), lambda args: altsum.recombine_check(args.m, args.n, args.ell, args.k)),
}


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpos",
        description="Exact computation and verification of q-combinatorial positivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = [*_PAIRS, "F"]

    p_compute = sub.add_parser("compute", help="compute one object and print it")
    p_compute.set_defaults(run=cmd_compute)
    p_compute.add_argument("family", choices=families)
    p_compute.add_argument("params", nargs="*", type=int, help="positional integer parameters (A m n; B n m; C m n)")
    p_compute.add_argument("--m", type=_int_list, help="comma-separated m-vector (family F)")
    p_compute.add_argument("--n", type=_int_list, help="comma-separated n-vector (family F)")
    p_compute.add_argument("--a", type=int)
    p_compute.add_argument("--b", type=int)
    p_compute.add_argument("--unsafe-params", action="store_true")

    p_verify = sub.add_parser("verify", help="verify a named identity at one point")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("identity", choices=list(_IDENTITIES))
    for flag in dict.fromkeys(flag for flags, _ in _IDENTITIES.values() for flag in flags):
        p_verify.add_argument("--" + flag, type=_int_list if flag in ("m", "n") else int)
    p_verify.add_argument("--unsafe-params", action="store_true")

    p_scan = sub.add_parser("scan", help="scan a parameter grid and emit reports")
    p_scan.set_defaults(run=cmd_scan)
    p_scan.add_argument("family", choices=families)
    p_scan.add_argument("--max-sum", type=int, help="bound on m+n (A, C) or on n (B)")
    p_scan.add_argument("--r", type=int, help="length of the m-vector (family F)")
    p_scan.add_argument("--s", type=int, help="length of the n-vector (family F)")
    p_scan.add_argument("--param-max", type=int, help="upper bound for every vector entry (family F)")
    p_scan.add_argument("--m-min", type=int, default=1, help="lower bound for m entries (family F)")
    p_scan.add_argument("--a", type=_int_list, help="restrict to these a values (family F)")
    p_scan.add_argument("--b", type=_int_list, help="restrict to these b values (family F)")
    p_scan.add_argument("--checks", type=str, default="positivity", help="comma-separated check names")
    p_scan.add_argument("--format", choices=["json", "jsonl", "csv", "text"], default="jsonl")
    p_scan.add_argument("--out", type=str, help="write the report to this file instead of stdout")
    p_scan.add_argument("--unsafe-params", action="store_true")
    return parser


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise InvalidRange(f"missing flags: {', '.join('--' + n for n in missing)}")


def cmd_compute(args: argparse.Namespace) -> int:
    if args.family == "F":
        _require(args, "m", "n", "a", "b")
        poly = altsum.F(_cyclic(args))
    elif len(args.params) != 2:
        raise InvalidRange(f"family {args.family} takes exactly two integer parameters")
    else:
        poly = _PAIRS[args.family][0](*args.params)
    print(poly)
    print(json.dumps(poly.to_coeff_strings()))
    return EXIT_PASS


def cmd_verify(args: argparse.Namespace) -> int:
    flags, check = _IDENTITIES[args.identity]
    _require(args, *flags)
    result = check(args)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{verdict} {result.identity} {json.dumps(result.params, sort_keys=True, default=list)}")
    if result.passed:
        return EXIT_PASS
    print(f"difference: {result.difference}")
    return EXIT_FAIL


def _pair_grid(family: str, args: argparse.Namespace) -> list[tuple[int, int]]:
    """The (x, y) instances of an A/B/C scan, in report order."""
    if args.max_sum is None or args.max_sum < 0:
        raise InvalidRange("scan of A/B/C needs --max-sum >= 0")
    bound = args.max_sum
    if family == "B":
        return [(n, m) for n in range(bound + 1) for m in range(n + 1)]
    return [(m, n) for m in range(bound + 1) for n in range(bound - m + 1)]


def _f_grid(args: argparse.Namespace) -> Iterator[CyclicParams]:
    """The instances of an F scan, in report order.  The grid is validated at
    once, so its instances are built without a second validation."""
    if args.r is None or args.s is None or args.param_max is None:
        raise InvalidRange("scan of F needs --r, --s and --param-max")
    if args.r < 2 or args.s < 2 or args.param_max < 1 or args.m_min < 0:
        raise InvalidRange("scan of F needs r, s >= 2 and param-max >= 1 and m-min >= 0")
    a_values = dict.fromkeys(args.a) if args.a is not None else range(args.s + 1)
    b_values = dict.fromkeys(args.b) if args.b is not None else range(1, args.r + 1)
    for a, b in product(a_values, b_values):  # whether (a, b) is valid depends only on a, b, r and s
        CyclicParams((args.m_min,) * args.r, (args.param_max,) * args.s, a, b, args.unsafe_params)
    grid = product(
        product(range(args.m_min, args.param_max + 1), repeat=args.r),
        product(range(1, args.param_max + 1), repeat=args.s),
        a_values,
        b_values,
        (args.unsafe_params,),
    )
    return map(CyclicParams._make, grid)


def _rows(family: str, instances: Iterable[Any], checks: list[str]) -> Iterator[dict[str, Any]]:
    for params in instances:
        poly: IntPoly | None
        if family == "F":
            try:
                poly = altsum.F(params)
            except NotDivisible:
                poly = None
            fields = {
                "params": {"m": list(params.m), "n": list(params.n), "a": params.a, "b": params.b},
                "out_of_theorem": not params.in_theorem(),
            }
        else:
            evaluate, _, names = _PAIRS[family]
            poly = evaluate(*params)
            fields = {"params": dict(zip(names, params))}
        verdicts = [(check, _CHECKS[check][1](family, params, poly)) for check in checks]
        yield {
            "family": family,
            **fields,
            "is_polynomial": poly is not None,
            "coeffs": poly.to_coeff_strings() if poly is not None else None,
            "degree": poly.degree if poly is not None else None,
            "nonneg": poly is not None and poly.is_nonneg(),
            # only F can fail to be a polynomial; its q = 1 value is then an exact fraction
            "value_at_one": str(altsum.value_at_one_reference(params) if poly is None else poly.eval_at_one()),
            "checks_passed": [check for check, ok in verdicts if ok],
            "checks_failed": [check for check, ok in verdicts if ok is False],
        }


def _params_text(params: dict[str, Any]) -> str:
    return ";".join(
        f"{key}={','.join(map(str, value)) if isinstance(value, list) else value}"
        for key, value in params.items()
    )


_json = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _write(rows: Iterator[dict[str, Any]], fmt: str, stream: TextIO) -> tuple[int, int]:
    """Write each row as it comes; return the numbers of rows and of failing rows."""
    count = failures = 0
    writer = csv.writer(stream, lineterminator="\n")
    if fmt == "csv":
        writer.writerow(["family", "params", "degree", "nonneg", "value_at_one", "checks_passed", "checks_failed"])
    elif fmt == "json":
        stream.write("[")
    for row in rows:
        if fmt == "csv":
            writer.writerow([
                row["family"],
                _params_text(row["params"]),
                "" if row["degree"] is None else row["degree"],
                int(row["nonneg"]),
                row["value_at_one"],
                ";".join(row["checks_passed"]),
                ";".join(row["checks_failed"]),
            ])
        elif fmt == "text":
            verdict = "ok" if not row["checks_failed"] else "FAIL " + ";".join(row["checks_failed"])
            stream.write(
                f"{row['family']} {_params_text(row['params'])} degree={row['degree']} "
                f"nonneg={int(row['nonneg'])} value_at_one={row['value_at_one']} {verdict}\n"
            )
        elif fmt == "jsonl":
            stream.write(_json(row) + "\n")
        else:  # json: the bytes json.dumps writes for the list of rows
            stream.write(("," if count else "") + _json(row))
        count += 1
        failures += bool(row["checks_failed"])
    if fmt == "json":
        stream.write("]\n")
    return count, failures


def cmd_scan(args: argparse.Namespace) -> int:
    checks = list(dict.fromkeys(c for c in args.checks.split(",") if c))
    if not checks:
        raise InvalidRange("no checks requested")
    unknown = [c for c in checks if c not in _CHECKS or args.family not in _CHECKS[c][0]]
    if unknown:
        raise InvalidRange(f"checks not applicable to family {args.family}: {', '.join(unknown)}")
    instances = _f_grid(args) if args.family == "F" else _pair_grid(args.family, args)
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise InvalidRange(f"cannot write {args.out}: {exc.strerror}") from exc
    with out as stream:
        count, failures = _write(_rows(args.family, instances, checks), args.format, stream)
    print(f"scanned {count} instances, {failures} failures", file=sys.stderr)
    return EXIT_PASS if failures == 0 else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        return args.run(args)
    except (InvalidRange, NegativeIndex) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotDivisible as exc:
        print(f"divisibility failure: {exc}", file=sys.stderr)
        return EXIT_NOT_DIVISIBLE


if __name__ == "__main__":
    sys.exit(main())
