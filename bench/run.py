"""The qpositivity benchmark.

    python3 bench/run.py                       # every workload, timed then traced
    python3 bench/run.py --workload scan-C --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --self-test           # the checker must reject altered reports

A run issues whole rounds of its workload for about `--seconds` seconds.
Each round is a fresh single-threaded process (bench/worker.py) that imports
the program from `src/` and calls `qpositivity.cli.main`, so every round
starts with cold caches, as a user's `qpos` invocation does.  The first
round's output is checked by bench/check.py, which shares no code with the
program; the other rounds must produce a byte-identical report (same
sha256), and so must every earlier run of the same workload and seed on
the same code, as recorded in bench/out/digests.json.

With `--trace 0` the last line of standard output holds the end-to-end
metrics, each the median over the run's rounds.  With `--trace 1` untraced
and traced rounds alternate, and the last line holds the per-layer metrics
named in BENCHMARK.json, medians over the traced rounds; trace.overhead_s
is the traced minus the untraced median wall time.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Import-only processes per run; with one import per round, setup_s is a
# median over at least ten imports.
SETUP_SAMPLES = 9
ROUND_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


def _worker(*args: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: round did not end in {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(args)}: worker exited {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _code_digest() -> str:
    """Digest of the program and of the benchmark that drives it."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "qpositivity").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _check_digest(workload: str, seed: int, digest: str) -> list[str]:
    """The report must match every earlier run of this workload and seed on the same code."""
    seeded = seed if workload == "verify-mix" else "-"
    key = f"{workload} seed={seeded} code={_code_digest()[:16]}"
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if known.setdefault(key, digest) != digest:
        return [f"report sha256 {digest} differs from an earlier run's {known[key]} ({key})"]
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return []


def _check_round(workload: str, result: dict, report: Path, expectations) -> tuple[list[str], int, int]:
    """Problems with one round's output, its operation count and its failures."""
    if workload == "verify-mix":
        problems, failed = [], 0
        lines = report.read_text(encoding="utf-8").splitlines()
        if len(lines) != len(expectations):
            return [f"{len(lines)} outcomes for {len(expectations)} requests"], len(expectations), len(expectations)
        for (argv, expect), line in zip(expectations, lines):
            rc, stdout = json.loads(line)
            found = check.check_verify_outcome(expect, rc, stdout)
            if found:
                failed += 1
                if expect[0] != "invalid":  # only the known fault may fail
                    problems += [f"{' '.join(argv)}: {p}" for p in found]
        return problems, len(expectations), failed
    rc = result["exit_code"]
    if rc != 0:
        return [f"{workload}: exit {rc}"], 1, 1
    rows = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
    if workload == "scan-C":
        return check.check_c_report(rows, workloads.C_MAX_SUM), 1, 0
    return check.check_f_report(rows, workloads.F_R, workloads.F_S, workloads.F_PARAM_MAX), 1, 0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        expectations = None
        if workload == "verify-mix":
            expectations = workloads.verify_mix(seed)
            (work / "requests.json").write_text(json.dumps([argv for argv, _ in expectations]))

        # the build: bytecode is written even where PYTHONDONTWRITEBYTECODE is
        # set, so setup_s always measures an import from compiled modules
        compileall.compile_dir(str(SRC / "qpositivity"), quiet=1)
        setup = [_worker("import-only")["setup_s"] for _ in range(SETUP_SAMPLES)]

        rounds, traced, digests, durations = [], [], [], []
        problems: list[str] = []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            # a traced run alternates untraced and traced rounds
            tracing = trace and len(rounds) > len(traced)
            began = time.perf_counter()
            result = _worker(workload, str(work), *(["--trace"] if tracing else []))
            durations.append(time.perf_counter() - began)
            (traced if tracing else rounds).append(result)
            setup.append(result["setup_s"])
            report = work / "report.jsonl"
            digests.append(_sha256(report))
            result["report_bytes"] = report.stat().st_size
            if len(digests) == 1:
                # later rounds must repeat this round's report, so its
                # operation and failure counts hold for them too
                problems, ops, fails = _check_round(workload, result, report, expectations)
                problems += _check_digest(workload, seed, digests[0])
            elif digests[-1] != digests[0]:
                problems.append(f"round {len(digests)} report sha256 {digests[-1]} != {digests[0]}")
            attempted += ops
            failed += fails
            report.unlink()
            # start no round that would likely end after `seconds`
            elapsed = time.perf_counter() - start
            if (traced or not trace) and elapsed + statistics.mean(durations) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def med(key: str, results: list[dict]) -> float:
        return statistics.median(r[key] for r in results)

    summary = {
        "rounds": len(rounds) + len(traced),
        "round_walls": [r["wall_s"] for r in rounds],
        "report_sha256": digests[0],
        "problems": problems,
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "wall_s": med("wall_s", rounds),
            "cpu_s": med("cpu_s", rounds),
            "peak_rss_mib": med("peak_rss_mib", rounds),
        },
        "attempted": attempted,
        "failed": failed,
    }
    if traced:
        names = sorted({k for r in traced for k in r["layers"]})
        # counts repeat exactly from round to round; times are medians
        layers = {
            k: (statistics.median if k.endswith("_s") else statistics.median_low)(
                r["layers"].get(k, 0) for r in traced)
            for k in names
        }
        layers["cli.report_bytes"] = traced[0]["report_bytes"]
        layers["trace.overhead_s"] = med("wall_s", traced) - med("wall_s", rounds)
        summary["per_layer"] = layers
    return summary


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "MiB" if name.endswith("_mib") else "count"


def _print_run(workload: str, seed: int, trace: bool, summary: dict) -> None:
    print(f"== {workload} seed={seed} trace={int(trace)}: {summary['rounds']} rounds, "
          f"{summary['attempted']} operations attempted, {summary['failed']} failed")
    print(f"   report sha256 of the first round: {summary['report_sha256']}")
    groups = [("end_to_end", summary["end_to_end"])]
    if "per_layer" in summary:
        groups.append(("per_layer", summary["per_layer"]))
    for label, metrics in groups:
        for name, value in metrics.items():
            print(f"   {label:10} {name:45} {value:>14.6g} {_unit(name)}")
    print("   wall_s per round: " + " ".join(f"{w:.3f}" for w in summary["round_walls"]))
    for problem in summary["problems"][:20]:
        print(f"   PROBLEM {problem}")


def _result_line(summary: dict, trace: bool) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    source = summary["per_layer"] if trace else summary["end_to_end"]
    metrics = {m["name"]: {"value": source.get(m["name"], 0), "unit": m["unit"]} for m in chosen}
    return json.dumps({
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="seed of the verify-mix requests (the scans are fixed grids)")
    parser.add_argument("--seconds", type=float, default=35, help="length of the run; rounds are whole, at least one")
    parser.add_argument("--trace", type=int, choices=[0, 1], help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--self-test", action="store_true", help="check that the checker rejects altered reports")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "qpositivity" / "__init__.py").is_file():
            raise BenchError(f"no program source under {SRC}")
        if args.self_test or args.workload == "all":
            import selftest

            selftest_failed = selftest.main() != 0
            if args.self_test or selftest_failed:
                return int(selftest_failed)
        names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
        traces = [False, True] if args.trace is None else [bool(args.trace)]
        line = ""
        for trace in traces:
            for name in names:
                summary = run(name, args.seed, args.seconds, trace)
                _print_run(name, args.seed, trace, summary)
                line = _result_line(summary, trace)
                if args.workload == "all":
                    print(f"   {line}")
        if args.workload != "all":
            print(line)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
