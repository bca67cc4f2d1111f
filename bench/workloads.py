"""Workload definitions: the argv lists each round passes to `qpositivity.cli.main`.

Every workload is a fixed list of requests, rebuilt identically for a given
seed.  A round issues the whole list once in a fresh process, so every run
attempts whole rounds of the same operations.

This module imports nothing from `qpositivity`; the checker shares it.
"""

from __future__ import annotations

import random
from itertools import product

# scan-C: the (m, n) triangle m + n <= C_MAX_SUM.  Most of its time is
# schoolbook `exact_div` of large factorial products and Kronecker `mul`
# in the recursive oracle; altsum is idle.
C_MAX_SUM = 22
C_CHECKS = ("positivity", "oracle-equivalence", "q1-specialization")

# scan-F: the criterion-4 grid r = s = 3, entries 1..3, every (a, b) in the
# proven window.  Thousands of small instances; schoolbook `mul` inside
# `cyclic_product` dominates and catalan is idle.
F_R, F_S, F_PARAM_MAX = 3, 3, 3
F_CHECKS = ("positivity", "reciprocity", "degree-bound", "deletion", "q1-specialization")

# verify-mix: VERIFY_MIX_SIZE requests per round, KNOWN_FAULTS among them at
# fixed positions and with fixed parameters, the rest drawn from the seed.
VERIFY_MIX_SIZE = 2000
DEFAULT_SEED = 1

# `compute F --unsafe-params` with a negative exponent a*k^2 + (2b-1)*k(k-1)/2
# for some k.  By the exit-code contract these are invalid input (exit 2);
# today an `assert` in `altsum.F` raises AssertionError out of `main`.
KNOWN_FAULTS = (
    ("1,1", "1,1", 0, 0),
    ("2,1", "1,2", -1, 1),
    ("1,2,1", "2,1", 0, 0),
    ("1,1,1", "1,1,1", -1, 2),
    ("2,2", "1,1", 0, 0),
    ("1,3", "2,2", -1, 1),
    ("3,1,2", "1,1", 0, 0),
    ("1,1", "3,1", -2, 1),
)

WORKLOADS = ("scan-C", "scan-F", "verify-mix")


def scan_c_argv(out: str) -> list[str]:
    return ["scan", "C", "--max-sum", str(C_MAX_SUM), "--checks", ",".join(C_CHECKS),
            "--format", "jsonl", "--out", out]


def scan_f_argv(out: str) -> list[str]:
    return ["scan", "F", "--r", str(F_R), "--s", str(F_S), "--param-max", str(F_PARAM_MAX),
            "--checks", ",".join(F_CHECKS), "--format", "jsonl", "--out", out]


def c_grid(max_sum: int = C_MAX_SUM) -> list[tuple[int, int]]:
    """The (m, n) pairs of a C scan, in report order."""
    return [(m, n) for m in range(max_sum + 1) for n in range(max_sum - m + 1)]


def f_grid(r: int = F_R, s: int = F_S, param_max: int = F_PARAM_MAX) -> list[tuple]:
    """The (m, n, a, b) instances of an F scan, in report order."""
    entries = range(1, param_max + 1)
    return [
        (m, n, a, b)
        for m in product(entries, repeat=r)
        for n in product(entries, repeat=s)
        for a in range(s + 1)
        for b in range(1, r + 1)
    ]


def _csv(v: tuple[int, ...]) -> str:
    return ",".join(map(str, v))


def _vec(rng: random.Random, length: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for _ in range(length))


def _draw(rng: random.Random, kind: str) -> tuple[list[str], tuple]:
    """One in-domain request of `kind` and what it must print."""
    if kind == "compute-C":
        m, n = rng.randint(0, 10), rng.randint(0, 10)
        return ["compute", "C", str(m), str(n)], ("compute-C", m, n)
    if kind == "double-expansion":
        N, h = rng.randint(0, 6), rng.randint(1, 6)
        return (["verify", "double-expansion", "--N", str(N), "--h", str(h)],
                ("pass", "double-expansion", {"N": N, "h": h}))
    if kind == "product":
        m1, m2, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(-3, 7)
        return (["verify", "product", "--m1", str(m1), "--m2", str(m2), f"--k={k}"],
                ("pass", "product", {"m1": m1, "m2": m2, "k": k}))
    if kind == "reciprocity":
        m = _vec(rng, rng.randint(2, 3), 1, 3)
        n = _vec(rng, rng.randint(2, 3), 1, 3)
        a, b = rng.randint(0, len(n)), rng.randint(1, len(m))
        return (["verify", "reciprocity", "--m", _csv(m), "--n", _csv(n), "--a", str(a), "--b", str(b)],
                ("pass", "reciprocity", {"m": list(m), "n": list(n), "a": a, "b": b}))
    if kind == "deletion":
        m = _vec(rng, rng.randint(3, 4), 0, 2)
        n = _vec(rng, 2, 1, 2)
        a, b = rng.randint(0, 2), rng.randint(2, len(m))
        return (["verify", "deletion", "--m", _csv(m), "--n", _csv(n), "--a", str(a), "--b", str(b)],
                ("pass", "deletion", {"m": list(m), "n": list(n), "a": a, "b": b}))
    # recombine, only inside its proven range -ell <= k <= ell + 1
    m = _vec(rng, rng.randint(3, 4), 1, 3)
    n = _vec(rng, rng.randint(2, 3), 1, 3)
    ell = rng.randint(0, 3)
    k = rng.randint(-ell, ell + 1)
    return (["verify", "recombine", "--m", _csv(m), "--n", _csv(n), "--ell", str(ell), f"--k={k}"],
            ("pass", "recombine", {"m": list(m), "n": list(n), "ell": ell, "k": k}))


VERIFY_KINDS = ("compute-C", "double-expansion", "product", "reciprocity", "deletion", "recombine")


def verify_mix(seed: int) -> list[tuple[list[str], tuple]]:
    """The verify-mix requests for `seed`, each as (argv, expectation).

    The seeded requests cycle through VERIFY_KINDS, so every seed issues the
    same number of each kind; the known faults sit at fixed positions.
    """
    rng = random.Random(seed)
    drawn = VERIFY_MIX_SIZE - len(KNOWN_FAULTS)
    requests = [_draw(rng, VERIFY_KINDS[i % len(VERIFY_KINDS)]) for i in range(drawn)]
    stride = VERIFY_MIX_SIZE // len(KNOWN_FAULTS)
    for i, (m, n, a, b) in enumerate(KNOWN_FAULTS):
        argv = ["compute", "F", "--m", m, "--n", n, f"--a={a}", f"--b={b}", "--unsafe-params"]
        requests.insert(i * stride, (argv, ("invalid",)))
    return requests
