import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qpositivity import altsum, catalan, cli
from qpositivity.altsum import CyclicParams
from qpositivity.cli import main
from qpositivity.qcombinat import InvalidRange
from qpositivity.qpoly import IntPoly, NotDivisible

from oracles import f_scan_rows, scan_report_json


class TestCompute:
    def test_compute_c_initial(self, capsys):
        assert main(["compute", "C", "0", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1"
        assert json.loads(out[1]) == ["1"]

    def test_compute_c_example(self, capsys):
        assert main(["compute", "C", "1", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1 + q + q^2"
        assert json.loads(out[1]) == ["1", "1", "1"]

    def test_compute_f(self, capsys):
        assert main(["compute", "F", "--m", "1,1", "--n", "1,1", "--a", "1", "--b", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert json.loads(out[1]) == ["1", "2", "4", "3", "2", "1"]

    def test_invalid_arity(self, capsys):
        assert main(["compute", "C", "1"]) == 2

    def test_invalid_range(self, capsys):
        assert main(["compute", "B", "1", "2"]) == 2

    def test_invalid_f_params(self, capsys):
        assert main(["compute", "F", "--m", "1,1", "--n", "0,1", "--a", "0", "--b", "1"]) == 2

    def test_unknown_family(self, capsys):
        assert main(["compute", "Z", "1", "1"]) == 2


class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "double-expansion", "--N", "3", "--h", "4"],
            ["verify", "reciprocity", "--m", "1,1", "--n", "1,1", "--a", "1", "--b", "2"],
            ["verify", "deletion", "--m", "1,1,1", "--n", "1,1", "--a", "1", "--b", "2"],
            ["verify", "product", "--m1", "2", "--m2", "1", "--k", "-1"],
            ["verify", "recombine", "--m", "1,1,1", "--n", "1,1", "--ell", "1", "--k", "0"],
            ["verify", "deletion-kernel", "--m1", "1", "--m2", "2", "--m3", "0", "--mr", "3", "--k", "1"],
        ],
    )
    def test_passing(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_deletion_kernel(self, capsys):
        assert main(["verify", "deletion-kernel", "--m1", "2", "--m2", "1", "--m3", "1", "--mr", "2", "--k=-1"]) == 0
        assert capsys.readouterr().out == 'PASS deletion-kernel {"k": -1, "m1": 2, "m2": 1, "m3": 1, "mr": 2}\n'
        for flag in ("--m1", "--m2", "--m3", "--mr"):
            argv = ["verify", "deletion-kernel", "--m1", "1", "--m2", "1", "--m3", "1", "--mr", "1", "--k", "0"]
            argv[argv.index(flag) + 1] = "-1"
            assert main(argv) == 2
            assert "deletion_kernel_check needs m1, m2, m3, mr >= 0" in capsys.readouterr().err
        assert main(["verify", "deletion-kernel", "--m1", "1", "--m2", "1", "--m3", "1", "--k", "0"]) == 2
        assert "missing flags: --mr" in capsys.readouterr().err

    def test_readme_verify_lines_pass(self, capsys):
        lines = [line.split() for line in (ROOT / "README.md").read_text().splitlines()
                 if line.startswith("qpos verify ")]
        assert {argv[2] for argv in lines} == set(cli._IDENTITIES)
        for argv in lines:
            assert main(argv[1:]) == 0, argv
            assert capsys.readouterr().out.startswith("PASS " + argv[2])

    def test_failing_prints_difference(self, capsys):
        # The recombination relation genuinely fails at k = -1, ell = 0:
        # the reindexed side vanishes by the zero convention, the other
        # side does not.
        code = main(["verify", "recombine", "--m", "1,1,1", "--n", "1,1", "--ell", "0", "--k", "-1"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL")
        assert "difference:" in out

    def test_missing_flags(self, capsys):
        assert main(["verify", "double-expansion", "--N", "3"]) == 2

    def test_invalid_identity_params(self, capsys):
        assert main(["verify", "double-expansion", "--N", "3", "--h", "0"]) == 2

    def test_out_of_range_reciprocity_dual_is_named(self, capsys):
        # a = 9 > s = 2 is allowed with --unsafe-params, but the dual's a is
        # s - a = -7; the message names the dual, not values never passed
        argv = ["verify", "reciprocity", "--m", "1,1", "--n", "1,1", "--a", "9", "--b", "1", "--unsafe-params"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "invalid input: the reciprocity dual (s-a, r-b+1) = (-7, 2) of a=9, b=1 is out of range\n"


class TestScan:
    def test_scan_a_trivial(self, capsys):
        assert main(["scan", "A", "--max-sum", "0"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["family"] == "A"
        assert row["params"] == {"m": 0, "n": 0}
        assert row["coeffs"] == ["1"]
        assert row["nonneg"] is True
        assert "scanned 1 instances, 0 failures" in captured.err

    def test_scan_c_with_checks(self, capsys):
        code = main(["scan", "C", "--max-sum", "4", "--checks", "positivity,oracle-equivalence"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 15
        for line in lines:
            row = json.loads(line)
            assert row["checks_failed"] == []
            assert set(row["checks_passed"]) == {"positivity", "oracle-equivalence"}

    def test_scan_f(self, capsys):
        code = main(
            ["scan", "F", "--r", "2", "--s", "2", "--param-max", "1",
             "--checks", "positivity,reciprocity,degree-bound"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # one m-vector, one n-vector, a in 0..2, b in 1..2
        assert len(lines) == 6

    def test_jsonl_round_trip(self, capsys):
        assert main(["scan", "C", "--max-sum", "3", "--checks", "positivity"]) == 0
        from qpositivity.catalan import odd_super_catalan_direct

        for line in capsys.readouterr().out.splitlines():
            row = json.loads(line)
            poly = IntPoly.from_coeff_strings(row["coeffs"])
            assert poly == odd_super_catalan_direct(row["params"]["m"], row["params"]["n"])
            assert row["degree"] == poly.degree
            assert int(row["value_at_one"]) == poly.eval_at_one()

    def test_csv_format(self, capsys):
        assert main(["scan", "C", "--max-sum", "1", "--format", "csv"]) == 0
        reader = csv.reader(io.StringIO(capsys.readouterr().out))
        rows = list(reader)
        assert rows[0] == [
            "family", "params", "degree", "nonneg", "value_at_one", "checks_passed", "checks_failed",
        ]
        assert len(rows) == 4
        assert rows[1] == ["C", "m=0;n=0", "0", "1", "1", "positivity", ""]

    def test_deterministic_reports(self, tmp_path):
        out1 = tmp_path / "scan1.jsonl"
        out2 = tmp_path / "scan2.jsonl"
        argv = ["scan", "F", "--r", "2", "--s", "2", "--param-max", "1",
                "--checks", "positivity", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_repeated_values_and_checks_scanned_once(self, capsys):
        argv = ["scan", "F", "--r", "2", "--s", "2", "--param-max", "2", "--b", "1", "--checks", "positivity"]
        assert main(argv + ["--a", "0"]) == 0
        once = capsys.readouterr().out
        assert len(once.splitlines()) == 16
        assert main(argv + ["--a", "0,0", "--b", "1,1"]) == 0
        assert capsys.readouterr().out == once
        assert main(["scan", "C", "--max-sum", "2", "--checks", "positivity,q1-specialization,positivity"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 6
        assert all(row["checks_passed"] == ["positivity", "q1-specialization"] for row in rows)

    def test_inapplicable_check_rejected(self, capsys):
        assert main(["scan", "A", "--max-sum", "2", "--checks", "oracle-equivalence"]) == 2

    def test_missing_grid_flags(self, capsys):
        assert main(["scan", "F", "--param-max", "2"]) == 2
        assert main(["scan", "C"]) == 2

    def test_unsafe_scan_marks_out_of_theorem(self, capsys):
        code = main(
            ["scan", "F", "--r", "2", "--s", "2", "--param-max", "1",
             "--a", "3", "--checks", "positivity", "--unsafe-params"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code in (0, 1)
        assert all(json.loads(line)["out_of_theorem"] for line in lines)

    @pytest.mark.parametrize("m_min", [0, 1])
    def test_out_of_theorem_flags(self, m_min, capsys):
        # decided once per (a, b), and per row only when an m entry can be 0
        argv = ["scan", "F", "--r", "3", "--s", "2", "--param-max", "1", "--m-min", str(m_min),
                "--a", "0,2,3", "--b", "1,3,4", "--checks", "positivity", "--unsafe-params"]
        assert main(argv) in (0, 1)
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == (2 - m_min) ** 3 * 9
        for row in rows:
            p = row["params"]
            inside = p["a"] <= 2 and p["b"] <= 3 and min(p["m"]) >= 1
            assert row["out_of_theorem"] is not inside, p

    def test_out_not_created_on_invalid_grid(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        assert main(["scan", "F", "--param-max", "2", "--out", str(out)]) == 2
        assert main(["scan", "C", "--max-sum", "2", "--checks", "reciprocity", "--out", str(out)]) == 2
        # a = 0, b = 0 makes the k = -1 exponent negative; the first (a, b) is valid
        assert main(["scan", "F", "--r", "2", "--s", "2", "--param-max", "1", "--a", "0", "--b", "1,0",
                     "--unsafe-params", "--out", str(out)]) == 2
        assert "negative q-exponent" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_is_validated_once_per_a_b(self, monkeypatch, capsys):
        # _f_grid validates one instance per (a, b) and builds the grid's
        # instances without a second validation; in-window duals and
        # deletion sub-instances are not validated either
        validated = []
        new = CyclicParams.__new__

        def counted(cls, *args, **kwargs):
            validated.append(args[2:4])
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(CyclicParams, "__new__", counted)
        argv = ["scan", "F", "--r", "3", "--s", "2", "--param-max", "2",
                "--checks", "positivity,reciprocity,degree-bound,deletion,q1-specialization"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2**3 * 2**2 * 3 * 3
        assert validated == [(a, b) for a in range(3) for b in range(1, 4)]

    def test_unwritable_out_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "report.jsonl"
        assert main(["scan", "C", "--max-sum", "1", "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err
        # a report that opens but cannot be written: the full device fails
        # when the file is closed, and a pipe with no reader on every write,
        # the small report's at exit unless it is flushed first; stdout is
        # left buffered, as it is for users
        if os.path.exists("/dev/full"):
            assert main(["scan", "C", "--max-sum", "3", "--out", "/dev/full"]) == 2
            assert "cannot write /dev/full" in capsys.readouterr().err
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(ROOT / "src")
        for max_sum in ("3", "25"):
            reader, writer = os.pipe()
            os.close(reader)
            try:
                # in a session of its own, whose process group outlives no worker
                proc = subprocess.Popen([sys.executable, "-m", "qpositivity", "scan", "C", "--max-sum", max_sum,
                                         "--format", "text"], stdout=writer, stderr=subprocess.PIPE, text=True,
                                        env=env, start_new_session=True)
            finally:
                os.close(writer)
            _, stderr = proc.communicate(timeout=60)
            assert (proc.returncode, "Traceback" in stderr) == (2, False), stderr
            assert "cannot write stdout" in stderr
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)

    # Bad grids are rejected before the first row, so the third evaluation is
    # made to fail; the two rows already streamed stay written.  A scan
    # evaluates a whole (m, n) block before its rows, so each block here
    # holds one (a, b).
    def test_rows_before_a_rejected_instance_are_kept(self, monkeypatch, capsys):
        argv = ["scan", "F", "--r", "2", "--s", "2", "--param-max", "2", "--a", "1", "--b", "2",
                "--checks", "positivity"]
        assert main(argv) == 0
        expected = capsys.readouterr().out.splitlines()[:2]
        evaluate, seen = altsum._TermTable.evaluate, []

        def evaluation_rejecting_the_third(table, a, b):
            seen.append((a, b))
            if len(seen) == 3:
                raise InvalidRange("negative q-exponent")
            return evaluate(table, a, b)

        monkeypatch.setattr(altsum._TermTable, "evaluate", evaluation_rejecting_the_third)
        # one worker: "the third evaluation" counts this process's
        # evaluations, and each forked worker would count its own
        monkeypatch.setattr(cli, "_worker_count", lambda: 1)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines() == expected
        assert "negative q-exponent" in captured.err

    # No F instance is known to be non-polynomial, so F is made to fail at one
    # instance.  The second case also gives it a q = 1 value that is not an
    # integer; that value belongs to (m, n), and only an (m, n) with no
    # polynomial value can have it, so that case scans the one (a, b).
    @pytest.mark.parametrize("reference", [None, Fraction(7, 2)])
    def test_non_polynomial_row(self, reference, monkeypatch, capsys):
        bad = CyclicParams((1, 1), (1, 1), 1, 2)
        value_at_one = altsum._value_at_one
        _fail_evaluation_at(monkeypatch, bad)
        grid = ["--param-max", "1"]
        if reference is not None:
            grid = ["--param-max", "2", "--a", "1", "--b", "2"]
            monkeypatch.setattr(altsum, "_value_at_one",
                                lambda m, n: reference if (m, n) == bad[:2] else value_at_one(m, n))
        code = main(["scan", "F", "--r", "2", "--s", "2", *grid,
                     "--checks", "positivity,q1-specialization,degree-bound"])
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        [row] = [row for row in rows if row["params"] == {"m": [1, 1], "n": [1, 1], "a": 1, "b": 2}]
        assert row["is_polynomial"] is False and row["nonneg"] is False
        assert row["coeffs"] is None and row["degree"] is None
        assert row["value_at_one"] == str(altsum.value_at_one_reference(bad))
        assert row["checks_failed"] == ["positivity", "q1-specialization", "degree-bound"]
        assert all(not r["checks_failed"] for r in rows if r is not row)
        assert len(rows) == (6 if reference is None else 16)

    def test_non_polynomial_instance_fails_its_reciprocity_and_deletion(self, monkeypatch, capsys):
        # F is made to fail at (a, b) = (0, 2) of one block; that row fails
        # both checks, the row of its dual (2, 2) fails reciprocity only
        _fail_evaluation_at(monkeypatch, CyclicParams((1, 1, 1), (1, 1), 0, 2))
        assert main(["scan", "F", "--r", "3", "--s", "2", "--param-max", "1", "--checks", "reciprocity,deletion"]) == 1
        failed = {(row["params"]["a"], row["params"]["b"]): row["checks_failed"]
                  for row in map(json.loads, capsys.readouterr().out.splitlines()) if row["checks_failed"]}
        assert failed == {(0, 2): ["reciprocity", "deletion"], (2, 2): ["reciprocity"]}


F_ALL = "positivity,reciprocity,degree-bound,deletion,q1-specialization"
# Scans whose reports must not depend on the number of workers: A, B and C
# with --max-sum <= 8, and F with r, s <= 3 and --param-max <= 2, in and out
# of the window, restricted and with m entries of 0.
WORKER_SCANS = [
    ["scan", "A", "--max-sum", "8", "--checks", "positivity,q1-specialization"],
    ["scan", "B", "--max-sum", "8", "--checks", "q1-specialization,positivity"],
    ["scan", "C", "--max-sum", "8", "--checks", "positivity,oracle-equivalence,q1-specialization"],
    ["scan", "F", "--r", "3", "--s", "2", "--param-max", "2", "--checks", F_ALL],
    ["scan", "F", "--r", "3", "--s", "3", "--param-max", "2", "--a", "1", "--b", "2,3", "--checks", F_ALL],
    ["scan", "F", "--r", "2", "--s", "3", "--param-max", "2", "--m-min", "0", "--a", "0,1,4", "--b", "1,3",
     "--unsafe-params", "--checks", F_ALL],
]


def _scan_with(monkeypatch, workers, argv):
    """main(argv) with the given number of workers: its exit code, stdout,
    stderr and the number of processes it forked."""
    forks, fork = [], os.fork
    monkeypatch.setattr(cli, "_worker_count", lambda: workers)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), len(forks)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    @pytest.mark.parametrize("fmt", ["jsonl", "json", "csv", "text"])
    @pytest.mark.parametrize("argv", WORKER_SCANS, ids=[" ".join(argv[1:4]) for argv in WORKER_SCANS])
    def test_one_and_two_workers_give_the_same_scan(self, argv, fmt, monkeypatch, tmp_path):
        argv = argv + ["--format", fmt]
        *one, forks = _scan_with(monkeypatch, 1, argv)
        assert forks == 0 and one[0] in (0, 1)
        *two, forks = _scan_with(monkeypatch, 2, argv)
        assert forks == 2
        assert two == one
        _no_child_left()
        out = tmp_path / f"report.{fmt}"
        assert _scan_with(monkeypatch, 2, argv + ["--out", str(out)]) == (one[0], "", one[2], 2)
        assert out.read_text() == one[1]
        _no_child_left()

    @pytest.mark.parametrize("argv", [
        ["scan", "C", "--max-sum", "-1"],
        ["scan", "C", "--max-sum", "4", "--checks", "reciprocity"],
        # a = 0, b = 0 makes the k = -1 exponent negative; the first (a, b) is valid
        ["scan", "F", "--r", "2", "--s", "2", "--param-max", "1", "--a", "0", "--b", "1,0", "--unsafe-params"],
    ])
    def test_rejected_grid_forks_no_worker(self, argv, monkeypatch, tmp_path):
        out = tmp_path / "report.jsonl"
        code, stdout, err, forks = _scan_with(monkeypatch, 2, argv + ["--out", str(out)])
        assert (code, stdout, forks) == (2, "", 0)
        assert "invalid input" in err
        assert not out.exists()

    def test_non_polynomial_instance_from_a_worker(self, monkeypatch):
        # the forked workers inherit the patch
        _fail_evaluation_at(monkeypatch, CyclicParams((2, 1, 1), (1, 1), 1, 2))
        argv = ["scan", "F", "--r", "3", "--s", "2", "--param-max", "2", "--checks", F_ALL]
        *one, _ = _scan_with(monkeypatch, 1, argv)
        assert one[0] == 1
        assert _scan_with(monkeypatch, 2, argv) == (*one, 2)
        _no_child_left()

    def test_failing_c_walk_exits_3_as_one_worker_does(self, monkeypatch):
        # the m = 3 row, the second worker's, fails at n = 2; the rows before
        # it are written by both runs
        walk = catalan.odd_super_catalan_walk

        def failing_walk(m, top):
            for n, poly in enumerate(walk(m, top)):
                if (m, n) == (3, 2):
                    raise NotDivisible(IntPoly((1,)))
                yield poly

        monkeypatch.setattr(catalan, "odd_super_catalan_walk", failing_walk)
        argv = ["scan", "C", "--max-sum", "6", "--format", "text"]
        *one, _ = _scan_with(monkeypatch, 1, argv)
        assert one[0] == 3 and "divisibility failure" in one[2]
        assert len(one[1].splitlines()) == 7 + 6 + 5 + 2
        assert _scan_with(monkeypatch, 2, argv) == (*one, 2)
        _no_child_left()

    def test_worker_that_dies_mid_unit(self, monkeypatch):
        # the worker that walks the m = 3 row ends in the middle of it; the
        # scan runs that row and the later ones in this process
        walk, parent = catalan.odd_super_catalan_walk, os.getpid()

        def dying_walk(m, top):
            for n, poly in enumerate(walk(m, top)):
                if (m, n) == (3, 2) and os.getpid() != parent:
                    os._exit(1)
                yield poly

        argv = ["scan", "C", "--max-sum", "6", "--checks", "positivity,q1-specialization"]
        *one, _ = _scan_with(monkeypatch, 1, argv)
        monkeypatch.setattr(catalan, "odd_super_catalan_walk", dying_walk)
        assert _scan_with(monkeypatch, 2, argv) == (*one, 2)
        _no_child_left()

    def test_failed_fork_scans_in_process(self, monkeypatch):
        # the second fork fails: the first worker is killed and every unit
        # runs in this process
        argv = ["scan", "F", "--r", "2", "--s", "2", "--param-max", "2", "--checks", F_ALL]
        *one, _ = _scan_with(monkeypatch, 1, argv)
        fork, forks = os.fork, []

        def second_fork_fails():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(cli, "_worker_count", lambda: 2)
        monkeypatch.setattr(os, "fork", second_fork_fails)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue(), err.getvalue(), len(forks)) == (*one, 2)
        _no_child_left()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_report_leaves_no_worker(self, monkeypatch):
        code, _, err, forks = _scan_with(monkeypatch, 2, ["scan", "C", "--max-sum", "8", "--out", "/dev/full"])
        assert (code, forks) == (2, 2)
        assert "cannot write /dev/full" in err
        _no_child_left()


def _fail_evaluation_at(monkeypatch, bad):
    """Make the term table of bad's (m, n) raise NotDivisible at bad's (a, b)."""
    term_table = altsum._term_table

    class FailingAtBad:
        def __init__(self, m, n):
            self.table, self.bad = term_table(m, n), (m, n) == bad[:2]

        def evaluate(self, a, b):
            if self.bad and (a, b) == bad[2:4]:
                raise NotDivisible(IntPoly((1,)))
            return self.table.evaluate(a, b)

    monkeypatch.setattr(altsum, "_term_table", FailingAtBad)


@st.composite
def _report_rows(draw):
    """A family and up to three rows of it, each as the writer's record and as
    the oracle's tuple.  Coefficients are small or wider than 64 bits, of
    either sign, and may cancel to the zero polynomial; an F row may be no
    polynomial, with a fractional q = 1 value; the checks all pass, all fail
    or mix passed, failed and skipped."""
    family = draw(st.sampled_from("ABCF"))
    names = draw(st.permutations(list(cli._CHECKS)))
    records, tuples = [], []
    for _ in range(draw(st.integers(0, 3))):
        if family == "F":
            vector = st.lists(st.integers(0, 12), min_size=2, max_size=4).map(tuple)
            raw = (draw(vector), draw(vector), draw(st.integers(0, 9)), draw(st.integers(0, 9)))
            params = CyclicParams._make((*raw, True))
        else:
            params = raw = (draw(st.integers(0, 40)), draw(st.integers(0, 40)))
        coeff = st.one_of(st.integers(-3, 3), st.integers(-2**200, 2**200))
        if family == "F" and draw(st.booleans()):
            poly, value = None, draw(st.fractions())
        else:
            poly = IntPoly(draw(st.lists(coeff, max_size=6)))
            value = poly.eval_at_one()
        verdicts = draw(st.one_of(st.just([True] * len(names)), st.just([False] * len(names)),
                                  st.lists(st.sampled_from([True, False, None]), min_size=len(names),
                                           max_size=len(names))))
        out = draw(st.booleans()) if family == "F" else None
        record = cli._Row(params, poly, value, out, None)
        record.passed.extend(name for name, ok in zip(names, verdicts) if ok)
        record.failed.extend(name for name, ok in zip(names, verdicts) if ok is False)
        records.append(record)
        tuples.append((raw, None if poly is None else poly.coeffs, value, record.passed, record.failed, out))
    return family, records, tuples


@settings(max_examples=300, deadline=None)
@given(_report_rows())
def test_json_writer_against_dumps_oracle(drawn):
    family, records, tuples = drawn
    for fmt in ("jsonl", "json"):
        stream = io.StringIO()
        assert cli._write(family, records, fmt, stream) == (len(records), sum(bool(r.failed) for r in records))
        assert stream.getvalue() == scan_report_json(family, tuples, fmt)


F_CHECKS = ["positivity", "reciprocity", "degree-bound", "deletion", "q1-specialization"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_block_scan_against_one_instance_oracle(data):
    # the block scan's jsonl bytes and exit code against rows decided one
    # instance at a time; unsafe draws reach past the window and may give an
    # (a, b) with a negative exponent, which rejects the grid; a failing
    # kernel sends every deletion check to the summed route
    r, s = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 3))
    param_max, m_min = data.draw(st.integers(1, 2)), data.draw(st.sampled_from([0, 1]))
    unsafe = data.draw(st.booleans())
    a_values = data.draw(st.none() | st.lists(st.integers(0, s + 2 if unsafe else s), min_size=1, max_size=3))
    b_values = data.draw(st.none() | st.lists(st.integers(0, r + 2) if unsafe else st.integers(1, r), min_size=1,
                                              max_size=3))
    checks = data.draw(st.lists(st.sampled_from(F_CHECKS), min_size=1, max_size=5, unique=True))
    argv = ["scan", "F", "--r", str(r), "--s", str(s), "--param-max", str(param_max), "--m-min", str(m_min),
            "--checks", ",".join(checks)]
    for flag, values in (("--a", a_values), ("--b", b_values)):
        if values is not None:
            argv += [flag, ",".join(map(str, values))]
    argv += ["--unsafe-params"] if unsafe else []
    kernels_fail = data.draw(st.booleans())
    summed = []
    with pytest.MonkeyPatch.context() as patch:
        # one worker: summed counts this process's calls, and a forked worker
        # would append to its own copy
        patch.setattr(cli, "_worker_count", lambda: 1)
        if kernels_fail:
            patch.setattr(altsum, "_kernels_hold", lambda *key: False)
        try:
            rows = f_scan_rows(r, s, param_max, m_min, a_values, b_values, unsafe, checks)
        except InvalidRange:
            rows = None
        deletion_check = altsum._deletion_check
        patch.setattr(altsum, "_deletion_check", lambda params: summed.append(params) or deletion_check(params))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    if rows is None:
        assert (code, out.getvalue()) == (2, "")
    else:
        assert out.getvalue() == scan_report_json("F", rows, "jsonl")
        assert code == int(any(failed for *_, failed, _ in rows))
        decided = [row for row in rows if "deletion" in row[3] + row[4]]
        assert len(summed) == (len(decided) if kernels_fail else 0)


ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
FORMATS = ("jsonl", "json", "csv", "text")
# Reports written by the implementation that held every row in memory; the
# streaming writer must reproduce them byte for byte.  name -> (argv, exit code)
GOLDEN = {
    "scan_A_max-sum3": (["scan", "A", "--max-sum", "3", "--checks", "positivity,q1-specialization"], 0),
    "scan_B_max-sum3": (["scan", "B", "--max-sum", "3", "--checks", "q1-specialization,positivity"], 0),
    "scan_C_max-sum4": (
        ["scan", "C", "--max-sum", "4", "--checks", "positivity,oracle-equivalence,q1-specialization"],
        0,
    ),
    "scan_F_r2_s2_param-max2": (
        ["scan", "F", "--r", "2", "--s", "2", "--param-max", "2",
         "--checks", "positivity,reciprocity,degree-bound,deletion,q1-specialization"],
        0,
    ),
    "scan_F_unsafe": (
        ["scan", "F", "--r", "2", "--s", "2", "--param-max", "1", "--m-min", "0", "--a", "0,1,2,3",
         "--b", "1,2,3", "--unsafe-params", "--checks", "positivity,degree-bound,q1-specialization"],
        1,
    ),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", GOLDEN)
def test_golden_report(name, fmt, tmp_path, capsys):
    argv, code = GOLDEN[name]
    out = tmp_path / f"{name}.{fmt}"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()


def test_golden_report_on_stdout(capsys):
    argv, code = GOLDEN["scan_C_max-sum4"]
    assert main(argv + ["--format", "json"]) == code
    assert capsys.readouterr().out == (GOLDEN_DIR / "scan_C_max-sum4.json").read_text()


def test_scan_c_digest(tmp_path):
    # large enough for the packed-integer products, which the golden reports
    # are too small to reach
    out = tmp_path / "c.jsonl"
    argv = ["scan", "C", "--max-sum", "22", "--checks", "positivity,oracle-equivalence,q1-specialization"]
    assert main(argv + ["--format", "jsonl", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f0cd48c169b201b4af8c0bddacda10b90a7481975545dd7856c218dc8d7b9dcc"
    )


def test_scan_f_digest(tmp_path):
    # the benchmark's F grid: packed term tables, quotients and deletion
    # differences over 8748 instances, with all five checks
    out = tmp_path / "f.jsonl"
    argv = ["scan", "F", "--r", "3", "--s", "3", "--param-max", "3",
            "--checks", "positivity,reciprocity,degree-bound,deletion,q1-specialization"]
    assert main(argv + ["--format", "jsonl", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8ebae2b3c3f4329144086455b7495d35890c8352f8f75ddcd1aab91ebd748d83"
    )


RESTRICTED_DIGESTS = {
    "jsonl": "5b0a2ad464e3ffe4b087410932386618b3cb56ee7368f4f7416c40e137b59b70",
    "text": "b0f7d8dbe46a03d2ff784ab6183fd6c7ea212f7fdc34b66eb84f18991e15e43f",
}


@pytest.mark.parametrize("fmt", RESTRICTED_DIGESTS)
def test_scan_f_restricted_digest(fmt, tmp_path):
    # --a 1 --b 2,3 leaves out every reciprocity dual (2, 2) and (2, 1), so
    # each row's dual is evaluated outside the scanned points: 128 rows
    out = tmp_path / f"f.{fmt}"
    argv = ["scan", "F", "--r", "3", "--s", "3", "--param-max", "2", "--a", "1", "--b", "2,3",
            "--checks", "positivity,reciprocity,degree-bound,deletion,q1-specialization"]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    assert len(out.read_bytes().splitlines()) == 128
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RESTRICTED_DIGESTS[fmt]


OUT_OF_WINDOW_DIGESTS = {
    "jsonl": "c7fc7bceba4d7b591334d623777c72a1ce2f7a05599b2174d3696ab659452de1",
    "json": "6dbeb85d6eb2993d7ae5a3c12b47f390e6d7bed310b93067d2ddc54c89ddf5e4",
    "csv": "d0611a3ad5a25a4028cd5b0b3c38ab369b786b9ab2072ab4d59070f7ef157075",
    "text": "ff1d802572aeecb0c4abb7c01d4d6efdbd7a8f2829633d651f28c519be165507",
}


@pytest.mark.parametrize("fmt", OUT_OF_WINDOW_DIGESTS)
def test_scan_f_out_of_window_digest(fmt, tmp_path):
    # m_i = 0, a > s, b > r and the validated unsafe dual, which the golden
    # reports and the in-window digest do not reach: 3888 rows, many failing,
    # in every format
    out = tmp_path / f"f.{fmt}"
    argv = ["scan", "F", "--r", "3", "--s", "2", "--param-max", "2", "--m-min", "0",
            "--a", "0,1,2,3,4,5", "--b", "1,2,3,4,5,6", "--unsafe-params",
            "--checks", "positivity,reciprocity,degree-bound,deletion,q1-specialization"]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUT_OF_WINDOW_DIGESTS[fmt]


# -- the exit-code contract on arbitrary argv ----------------------------------

SMALL = st.integers(-2, 4)
# Mostly valid vector entries, so that draws get past shape validation.
ENTRY = st.one_of(st.integers(1, 3), st.integers(-1, 3))
CHECK_NAMES = ["positivity", "oracle-equivalence", "q1-specialization",
               "reciprocity", "degree-bound", "deletion", "no-such-check"]


@st.composite
def _flags(draw, names, vectors=("m", "n")):
    """--name=value for a random subset of names; vectors get comma-separated lists."""
    argv = []
    for name in names:
        if draw(st.integers(0, 9)) == 0:
            continue
        if name in vectors:
            value = ",".join(map(str, draw(st.lists(ENTRY, min_size=1, max_size=3))))
        else:
            value = str(draw(SMALL))
        argv.append(f"--{name}={value}")
    return argv


@st.composite
def _argv(draw, command):
    unsafe = ["--unsafe-params"] if draw(st.booleans()) else []
    # F has the largest input space, so it gets half of the draws.
    family = draw(st.one_of(st.just("F"), st.sampled_from("ABC")))
    if command == "compute":
        params = [str(v) for v in draw(st.lists(SMALL, max_size=3))]
        return ["compute", family, *params, *draw(_flags(("m", "n", "a", "b"))), *unsafe]
    if command == "verify":
        identity = draw(st.sampled_from(["double-expansion", "reciprocity", "product", "deletion", "recombine",
                                         "deletion-kernel"]))
        flags = draw(_flags(("N", "h", "m", "n", "a", "b", "m1", "m2", "m3", "mr", "k", "ell")))
        return ["verify", identity, *flags, *unsafe]
    checks = ",".join(draw(st.lists(st.sampled_from(CHECK_NAMES), min_size=1, max_size=3)))
    if family == "F":
        grid = [f"--r={draw(st.integers(1, 3))}", f"--s={draw(st.integers(1, 3))}",
                f"--param-max={draw(st.integers(0, 2))}", *draw(_flags(("m-min", "a", "b"), ("a", "b")))]
    else:
        grid = draw(_flags(("max-sum",)))
    return ["scan", family, *grid, f"--checks={checks}", *unsafe]


@pytest.mark.parametrize("command", ["compute", "verify", "scan"])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_maps_every_argv_to_an_exit_code(command, data):
    argv = data.draw(_argv(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if command == "scan" and code in (0, 1):
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert code == int(any(row["checks_failed"] for row in rows))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Requests whose input check must not be an assert, which python -O strips:
# (argv, exit code).  The compute requests are verify-mix's known faults.
_OPTIMIZED_CASES = [
    *((argv, 2) for argv, expect in _load_workloads().verify_mix(1) if expect == ("invalid",)),
    (["scan", "F", "--r", "2", "--s", "2", "--param-max", "1", "--a", "3",
      "--unsafe-params", "--checks", "positivity,reciprocity"], 1),
    # both sides vanish at an m entry below 0, outside F's domain
    (["verify", "recombine", "--m", "1,1,-1", "--n", "1,1", "--ell", "1", "--k=0"], 2),
]


@pytest.mark.parametrize("argv,code", _OPTIMIZED_CASES, ids=[" ".join(argv) for argv, _ in _OPTIMIZED_CASES])
def test_exit_code_does_not_depend_on_optimize(argv, code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "qpositivity", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
        assert (proc.returncode, "Traceback" in proc.stderr) == (code, False), (flags, proc.stderr)


def test_import_leaves_out_dataclasses_and_inspect():
    # importing dataclasses pulls in inspect, which costs start-up time and
    # about a MiB of memory in every qpos process; -S keeps site's imports out
    code = "import sys, qpositivity.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr
