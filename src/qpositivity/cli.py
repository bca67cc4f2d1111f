"""Command-line front end: compute objects, verify identities, scan grids.

Exit codes: 0 pass, 1 verification failure, 2 invalid input, 3 internal
divisibility failure.

Scans stream: each report row is written as soon as it is computed.  The
grid, the check names and the output file are validated before the first
row.  An F grid is walked one (m, n) block at a time (altsum.Block): F at
each requested (a, b) is evaluated first, then the block's rows are decided
from those values and written, so a block holds at most |a|·|b|
polynomials and is dropped after its rows are written.  The reciprocity
and deletion checks are the block's methods, which verify calls on a block
of one instance, so each check has one implementation.  A C grid is walked
one m-row at a time (catalan.odd_super_catalan_walk), so it holds one
value, and each step certifies the next.  A row is one small
record (_Row): the instance, its value, its q = 1 value, its passed and
failed checks and, for F, whether it lies outside the theorem and its
block.  One line function per format writes it; jsonl and json share one
encoder that writes the sorted keys directly, the bytes json.dumps would.

A scan forks one worker per CPU in its affinity mask (`taskset -c 0` gives
one), at most one per unit of its grid, after the grid, the checks and the
output file are validated.  Worker w formats units w, w + N, ... and sends
each on its own pipe; the scan writes them in report order, so the bytes,
the exit code and the stderr summary are those of one process.  If a
worker raises or dies, every worker is killed and reaped, and that unit and
the later ones run in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from . import altsum, catalan
from .altsum import CyclicParams
from .qcombinat import InvalidRange, NegativeIndex
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


class _Row:
    """One scanned instance and its verdicts.  params is an (x, y) pair, or
    CyclicParams for F; poly is None when F is not a polynomial there, and a
    falsy poly has no degree; nonneg says whether poly is in N[q]; value is
    the q = 1 value, an exact fraction when poly is None; out_of_theorem and
    block, the altsum.Block of the row's (m, n), are None for A, B and C.
    The checks' names go to passed or failed as they run."""

    __slots__ = ("params", "poly", "nonneg", "value", "out_of_theorem", "block", "passed", "failed")

    def __init__(self, params: Any, poly: IntPoly | None, value: int | Fraction, out_of_theorem: bool | None,
                 block: altsum.Block | None) -> None:
        self.params, self.poly, self.value, self.out_of_theorem = params, poly, value, out_of_theorem
        self.block = block
        self.nonneg = poly is not None and poly.is_nonneg()
        self.passed: list[str] = []
        self.failed: list[str] = []


def _q1_specialization(family: str, row: _Row) -> bool:
    if family == "F":
        return row.poly is not None and row.block.at_one == row.value
    return _PAIRS[family][1](*row.params) == row.value


def _degree_bound(family: str, row: _Row) -> bool:
    poly = row.poly
    return poly is not None and (poly.degree is None or poly.degree <= row.block.delta)


def _block_check(check: Callable[[altsum.Block, CyclicParams], IntPoly | None]
                 ) -> Callable[[str, _Row], bool | None]:
    """The verdict of an F check that the row's block decides, one of its
    methods: it passes when the difference it returns is zero, a
    NotDivisible or InvalidRange fails it, and None skips it."""
    def verdict(family: str, row: _Row) -> bool | None:
        try:
            difference = check(row.block, row.params)
        except (NotDivisible, InvalidRange):
            return False
        return None if difference is None else not difference

    return verdict


# check -> (families it applies to, verdict on (family, row)).  A verdict
# reads the row's params, poly, nonneg, value and block, never its check
# lists; None means the check was skipped, not failed.
_CHECKS: dict[str, tuple[str, Callable[[str, _Row], bool | None]]] = {
    "positivity": ("ABCF", lambda family, row: row.nonneg),
    "oracle-equivalence": ("C", lambda family, row: catalan.odd_super_catalan_recursive(*row.params) == row.poly),
    "q1-specialization": ("ABCF", _q1_specialization),
    "reciprocity": ("F", _block_check(altsum.Block.reciprocity)),
    "degree-bound": ("F", _degree_bound),
    "deletion": ("F", _block_check(altsum.Block.deletion)),
}


def _cyclic(args: argparse.Namespace) -> CyclicParams:
    return CyclicParams(args.m, args.n, args.a, args.b, args.unsafe_params)


# identity -> (flags it needs, its check, which returns LHS - RHS)
_IDENTITIES: dict[str, tuple[tuple[str, ...], Callable[[argparse.Namespace], IntPoly]]] = {
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
    p_scan.add_argument("--format", choices=list(_FORMATS), default="jsonl")
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
    difference = check(args)
    params = {flag: getattr(args, flag) for flag in flags}
    print(f"{'FAIL' if difference else 'PASS'} {args.identity} {json.dumps(params, sort_keys=True)}")
    if not difference:
        return EXIT_PASS
    print(f"difference: {difference}")
    return EXIT_FAIL


def _pair_grid(family: str, args: argparse.Namespace) -> list[Iterator[tuple[tuple[int, int], IntPoly, None, None]]]:
    """The units of an A/B/C scan, in report order: one m-row each (one n
    for B) of (x, y) instances with their values, no out_of_theorem flag
    and no block, evaluated as the unit is iterated.  C is walked one m-row
    at a time (catalan.odd_super_catalan_walk), so a C unit holds one value."""
    if args.max_sum is None or args.max_sum < 0:
        raise InvalidRange("scan of A/B/C needs --max-sum >= 0")
    bound, evaluate = args.max_sum, _PAIRS[family][0]

    def unit(x: int) -> Iterator[tuple[tuple[int, int], IntPoly, None, None]]:
        ys = range(x + 1) if family == "B" else range(bound - x + 1)
        values = catalan.odd_super_catalan_walk(x, bound - x) if family == "C" else (evaluate(x, y) for y in ys)
        return (((x, y), value, None, None) for y, value in zip(ys, values))

    return [unit(x) for x in range(bound + 1)]


def _f_grid(args: argparse.Namespace) -> list[Iterator[tuple[CyclicParams, IntPoly | None, bool, altsum.Block]]]:
    """The units of an F scan, in report order: one m-vector each, with the
    instances of all its (m, n) blocks, their values (None where F is not a
    polynomial), their out_of_theorem flags and the block of their (m, n).
    The grid and that flag are decided once per (a, b), so instances are
    built without a second validation; only --m-min 0 tests each m.  A unit
    makes each block when its first row is asked for and drops it after its
    last."""
    if args.r is None or args.s is None or args.param_max is None:
        raise InvalidRange("scan of F needs --r, --s and --param-max")
    if args.r < 2 or args.s < 2 or args.param_max < 1 or args.m_min < 0:
        raise InvalidRange("scan of F needs r, s >= 2 and param-max >= 1 and m-min >= 0")
    a_values = dict.fromkeys(args.a) if args.a is not None else range(args.s + 1)
    b_values = dict.fromkeys(args.b) if args.b is not None else range(1, args.r + 1)
    outside = {}
    for a, b in product(a_values, b_values):  # whether (a, b) is valid depends only on a, b, r and s
        CyclicParams((args.m_min,) * args.r, (args.param_max,) * args.s, a, b, args.unsafe_params)
        outside[a, b] = not (0 <= a <= args.s and 1 <= b <= args.r)
    unsafe = args.unsafe_params
    n_values = list(product(range(1, args.param_max + 1), repeat=args.s))

    def unit(m: tuple[int, ...]) -> Iterator[tuple[CyclicParams, IntPoly | None, bool, altsum.Block]]:
        zero_m = args.m_min == 0 and 0 in m
        for n in n_values:
            block = altsum.Block(m, n, outside)
            for (a, b), out in outside.items():
                yield CyclicParams._make((m, n, a, b, unsafe)), block.values[a, b], out or zero_m, block

    return [unit(m) for m in product(range(args.m_min, args.param_max + 1), repeat=args.r)]


def _rows(family: str, instances: Iterable[tuple[Any, IntPoly | None, bool | None, altsum.Block | None]],
          checks: list[str]) -> Iterator[_Row]:
    verdicts = [(check, _CHECKS[check][1]) for check in checks]
    for params, poly, out_of_theorem, block in instances:
        # only F can fail to be a polynomial; its q = 1 value is then an exact fraction
        value = block.at_one if poly is None else poly.eval_at_one()
        row = _Row(params, poly, value, out_of_theorem, block)
        for check, verdict in verdicts:
            ok = verdict(family, row)
            if ok is not None:
                (row.passed if ok else row.failed).append(check)
        yield row


@functools.lru_cache(maxsize=2)
def _commas(vector: tuple[int, ...]) -> str:
    """The entries comma-joined: an F row's m and n, the same for every row of
    a block, are joined once per block."""
    return ",".join(map(str, vector))


def _params_text(family: str, params: Any) -> str:
    """The row's params as `key=value` pairs in report order, vectors comma-joined."""
    if family == "F":
        return f"m={_commas(params.m)};n={_commas(params.n)};a={params.a};b={params.b}"
    return ";".join(f"{name}={value}" for name, value in zip(_PAIRS[family][2], params))


def _json_list(items: Sequence[Any]) -> str:
    return '["' + '","'.join(map(str, items)) + '"]' if items else "[]"


def _json_object(family: str, row: _Row) -> str:
    """The row as json.dumps(..., sort_keys=True, separators=(",", ":")) writes it; its
    strings (check names, the family, decimal integers and fractions) need no escapes."""
    p, poly = row.params, row.poly
    if family == "F":
        params = (f'"out_of_theorem":{"true" if row.out_of_theorem else "false"},"params":{{"a":{p.a},"b":{p.b},'
                  f'"m":[{_commas(p.m)}],"n":[{_commas(p.n)}]}}')
    else:
        params = '"params":{' + ",".join(f'"{k}":{v}' for k, v in sorted(zip(_PAIRS[family][2], p))) + "}"
    return (f'{{"checks_failed":{_json_list(row.failed)},"checks_passed":{_json_list(row.passed)},"coeffs":'
            f'{"null" if poly is None else _json_list(poly.coeffs)},"degree":{poly.degree if poly else "null"},'
            f'"family":"{family}","is_polynomial":{"false" if poly is None else "true"},'
            f'"nonneg":{"true" if row.nonneg else "false"},{params},"value_at_one":"{row.value!s}"}}')


_CSV = csv.writer(SimpleNamespace(write=str), lineterminator="\n")  # its writerow returns the line


def _csv_line(family: str, row: _Row) -> str:
    return _CSV.writerow([family, _params_text(family, row.params), row.poly.degree if row.poly else "",
                          int(row.nonneg), row.value, ";".join(row.passed), ";".join(row.failed)])


def _text_line(family: str, row: _Row) -> str:
    verdict = "FAIL " + ";".join(row.failed) if row.failed else "ok"
    return (f"{family} {_params_text(family, row.params)} degree={row.poly.degree if row.poly else None} "
            f"nonneg={int(row.nonneg)} value_at_one={row.value!s} {verdict}\n")


# format -> (report head, (family, row) -> the row's text, row separator, report tail)
_FORMATS: dict[str, tuple[str, Callable[[str, _Row], str], str, str]] = {
    "json": ("[", _json_object, ",", "]\n"),  # the bytes json.dumps writes for the list of rows
    "jsonl": ("", lambda family, row: _json_object(family, row) + "\n", "", ""),
    "csv": ("family,params,degree,nonneg,value_at_one,checks_passed,checks_failed\n", _csv_line, "", ""),
    "text": ("", _text_line, "", ""),
}


def _write(family: str, rows: Iterable[_Row], fmt: str, stream: TextIO,
           records: Iterable[tuple[str, int, int]] = ()) -> tuple[int, int]:
    """Write the records, each the text of some rows with every row after the
    row separator, and their numbers of rows and of failing rows; then write
    each row as it comes.  Return the numbers of rows and of failing rows."""
    head, line, separator, tail = _FORMATS[fmt]
    stream.write(head)
    count = failures = 0
    for text, rows_in_text, failed in records:
        stream.write(text if count else text[len(separator):])
        count += rows_in_text
        failures += failed
    for row in rows:
        stream.write(separator + line(family, row) if count else line(family, row))
        count += 1
        failures += bool(row.failed)
    stream.write(tail)
    return count, failures


def _worker_count() -> int:
    """One scan worker per CPU in this process's affinity mask (`taskset`
    gives fewer), or one where os.fork or os.sched_getaffinity is missing or
    a second thread runs, since a fork copies only the calling thread."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


def _work(family: str, units: Iterable[Iterator[Any]], checks: list[str], fmt: str, pipe: BinaryIO) -> None:
    """In a worker: send each unit's rows to pipe as one record, a line with
    the numbers of its bytes, rows and failing rows, then its UTF-8 text,
    every row after the row separator."""
    _, line, separator, _ = _FORMATS[fmt]
    for unit in units:
        texts, failures = [], 0
        for row in _rows(family, unit, checks):
            texts.append(separator + line(family, row))
            failures += bool(row.failed)
        text = "".join(texts).encode()
        pipe.write(b"%d %d %d\n" % (len(text), len(texts), failures) + text)
        pipe.flush()


def _forked(family: str, units: list[Iterator[Any]], checks: list[str], fmt: str, workers: int,
            pending: Iterator[Iterator[Any]]) -> Iterator[tuple[str, int, int]]:
    """The records of units from forked workers, in report order, each
    taking pending past its unit.  Worker w formats units w, w + workers,
    ... and sends them on pipe w; the pipe's buffer bounds how far it runs
    ahead.  The records stop at the first unit that its worker did not
    send whole, because it raised or died, so that the caller runs that unit
    and the later ones in-process.  Every worker is killed and reaped
    before the records stop, and on every exception."""
    import fcntl
    import signal

    pids, pipes = [], []
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            with contextlib.suppress(OSError):  # 1 MiB, not 64 KiB, so that a worker waits less for a slow one
                fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 1 << 20)
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: the caller runs every unit in-process
                os.close(write_end)
                return
            if pid == 0:  # the worker never returns, prints, or flushes what it inherited
                try:
                    for pipe in pipes:  # so that only the parent reads, and sees each worker's end
                        os.close(pipe.fileno())
                    _work(family, units[w::workers], checks, fmt, open(write_end, "wb"))
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(write_end)
        for i in range(len(units)):
            pipe = pipes[i % workers]
            header = pipe.readline()
            if not header.endswith(b"\n"):
                return
            size, count, failures = map(int, header.split())
            text = pipe.read(size)
            if len(text) < size:
                return
            next(pending)
            yield text.decode(), count, failures
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _scan(family: str, units: list[Iterator[Any]], checks: list[str], fmt: str, stream: TextIO) -> tuple[int, int]:
    """Write the report of units to stream and return its numbers of rows
    and of failing rows.  With one worker the rows stream in-process; with
    more, the workers' records come first, and the rows of any unit they did
    not send are computed here."""
    pending = iter(units)
    rows = _rows(family, (instance for unit in pending for instance in unit), checks)
    workers = min(_worker_count(), len(units))
    if workers < 2:
        return _write(family, rows, fmt, stream)
    with contextlib.closing(_forked(family, units, checks, fmt, workers, pending)) as records:
        return _write(family, rows, fmt, stream, records)


def cmd_scan(args: argparse.Namespace) -> int:
    checks = list(dict.fromkeys(c for c in args.checks.split(",") if c))
    if not checks:
        raise InvalidRange("no checks requested")
    unknown = [c for c in checks if c not in _CHECKS or args.family not in _CHECKS[c][0]]
    if unknown:
        raise InvalidRange(f"checks not applicable to family {args.family}: {', '.join(unknown)}")
    units = _f_grid(args) if args.family == "F" else _pair_grid(args.family, args)
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as stream:
            count, failures = _scan(args.family, units, checks, args.format, stream)
            stream.flush()  # so that a closed pipe fails here, not when stdout is flushed at exit
    except OSError as exc:
        if not args.out:  # what is left in stdout's buffer goes to devnull, not to the exit's flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise InvalidRange(f"cannot write {args.out or 'stdout'}: {exc.strerror}") from exc
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
