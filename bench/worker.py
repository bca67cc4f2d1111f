"""One round of one workload, in the fresh process this script starts in.

    python3 bench/worker.py WORKLOAD ROUND_DIR [--trace]
    python3 bench/worker.py import-only

Times the import of `qpositivity` and `qpositivity.cli` from the checkout's
`src/`, then issues the workload's requests to `cli.main` and writes what
they produced to ROUND_DIR/report.jsonl.  The last line of standard output
is a JSON object with the round's measurements.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qpositivity
    import qpositivity.cli
    setup_s = time.perf_counter() - start
    if not Path(qpositivity.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported qpositivity from {qpositivity.__file__}, not from {SRC}")
    return qpositivity, setup_s


def _peak_rss_mib() -> float:
    """Peak resident set of this process image.  ru_maxrss would carry over
    the parent's peak across fork and exec, so VmHWM is read where Linux
    provides it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _call(main, argv: list[str], stdout: io.StringIO) -> int | str:
    """main's exit code, or the name of the exception that escaped it."""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except Exception as exc:  # the round goes on; the checker counts the failure
            return type(exc).__name__


def _run_requests(main, requests: list[list[str]], report: Path) -> None:
    with report.open("w", encoding="utf-8") as out:
        for argv in requests:
            buf = io.StringIO()
            rc = _call(main, argv, buf)
            out.write(json.dumps([rc, buf.getvalue()]) + "\n")


def main() -> None:
    if sys.argv[1:] == ["import-only"]:
        _, setup_s = _import_program()
        print(json.dumps({"setup_s": setup_s}))
        return
    workload, round_dir, *flags = sys.argv[1:]
    qpositivity, setup_s = _import_program()
    import workloads

    tracer = None
    if flags == ["--trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(qpositivity)
    cli_main = qpositivity.cli.main
    report = Path(round_dir) / "report.jsonl"
    if workload == "verify-mix":
        requests = json.loads((Path(round_dir) / "requests.json").read_text())
    argv = {"scan-C": workloads.scan_c_argv, "scan-F": workloads.scan_f_argv}.get(workload)

    cpu0, wall0 = time.process_time(), time.perf_counter()
    if argv is not None:
        exit_code = _call(cli_main, argv(str(report)), io.StringIO())
    else:
        _run_requests(cli_main, requests, report)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mib": _peak_rss_mib()}
    if argv is not None:
        result["exit_code"] = exit_code
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
