"""Self-test of the checker: it must pass real reports and reject altered ones.

Small C and F scans are produced by the program in a fresh process; each is
checked unaltered, then with one coefficient altered, one degree altered
and, for F, one row dropped so that its reciprocity dual is missing.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import check
from workloads import C_CHECKS, F_CHECKS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
C_MAX_SUM = 7
F_GRID = (3, 2, 2)  # r, s, param_max


def _scan(out: Path, *argv: str) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-m", "qpositivity", "scan", *argv, "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    out.unlink()
    return rows


def _altered_coefficient(rows: list[dict]) -> list[dict]:
    rows = copy.deepcopy(rows)
    row = rows[len(rows) // 2]
    row["coeffs"][1] = str(int(row["coeffs"][1]) + 1)
    return rows


def _altered_degree(rows: list[dict]) -> list[dict]:
    rows = copy.deepcopy(rows)
    rows[len(rows) // 2]["degree"] += 1
    return rows


def _dropped_row(rows: list[dict]) -> list[dict]:
    return rows[: len(rows) // 2] + rows[len(rows) // 2 + 1 :]


def main() -> int:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    c_rows = _scan(out / "selftest-C.jsonl", "C", "--max-sum", str(C_MAX_SUM),
                   "--checks", ",".join(C_CHECKS))
    r, s, pmax = F_GRID
    f_rows = _scan(out / "selftest-F.jsonl", "F", "--r", str(r), "--s", str(s), "--param-max", str(pmax),
                   "--checks", ",".join(F_CHECKS))
    check_c = functools.partial(check.check_c_report, max_sum=C_MAX_SUM)
    check_f = functools.partial(check.check_f_report, r=r, s=s, param_max=pmax)
    cases = [
        # (what, checker, rows, a problem the checker must report; None: must pass)
        ("C report as produced", check_c, c_rows, None),
        ("C report, one coefficient altered", check_c, _altered_coefficient(c_rows), "value at q="),
        ("C report, one degree altered", check_c, _altered_degree(c_rows), "degree"),
        ("F report as produced", check_f, f_rows, None),
        ("F report, one coefficient altered", check_f, _altered_coefficient(f_rows), "value at q="),
        ("F report, one degree altered", check_f, _altered_degree(f_rows), "degree"),
        ("F report, one dual row dropped", check_f, _dropped_row(f_rows), "dual row missing"),
    ]
    ok = True
    for what, checker, rows, expected in cases:
        problems = checker(rows)
        good = not problems if expected is None else any(expected in p for p in problems)
        ok &= good
        verdict = "ok" if good else "WRONG"
        print(f"{verdict:5} {what}: {len(problems)} problems" + (f", first: {problems[0]}" if problems else ""))
    return 0 if ok else 1
