"""Layer tracing from outside the program.

`install()` wraps the public functions of each layer, and the `IntPoly`
ring methods, in spans.  A function is replaced in every `qpositivity`
module that bound it by name (`catalan` and `altsum` import `gauss_binom`
and `q_factorial` directly), so internal calls are traced too.  Nothing
under `src/` is edited.

Each span knows its name, start, end and parent (the span below it on the
stack).  Spans are folded into per-name totals as they close, because the
F scan opens millions of them: self time is a span's duration minus the
time its child spans cover, and the tracer's own bookkeeping after a call
is charged to no span.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs wrapped in spans; a name a module no longer has is skipped.
SPANNED = (
    ("qcombinat", "gauss_binom"),
    ("qcombinat", "q_factorial"),
    ("qcombinat", "q_poch"),
    ("catalan", "odd_super_catalan_direct"),
    ("catalan", "odd_super_catalan_recursive"),
    ("catalan", "double_expansion_check"),
    ("altsum", "F"),
    ("altsum", "cyclic_product"),
    ("altsum", "positivity_report"),
    ("altsum", "reciprocity_check"),
    ("altsum", "deletion_check"),
    ("altsum", "value_at_one_reference"),
    ("altsum", "product_identity_check"),
    ("altsum", "recombine_check"),
    ("cli", "main"),
)
INT_POLY_METHODS = (("__mul__", "mul"), ("__add__", "add"), ("__sub__", "sub"), ("exact_div", "exact_div"))


class Tracer:
    """Spans and counts of one traced process; `install` it once, read `metrics` at the end."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # one [child_seconds] cell per open span
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.lru: dict[str, object] = {}  # span name -> the lru_cache it wraps
        self.qcombinat = None
        self.cache_objects: list = []  # every lru_cache in qcombinat

    def wrap(self, name: str, fn, after=None):
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def span(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self_s[name] += end - start - cell[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += end - start
            if after is not None:
                after(args, result)
                if stack:
                    stack[-1][0] += perf_counter() - end
            return result

        return span

    # -- counts taken at the span boundaries ---------------------------------

    def _poly_size(self, result) -> None:
        coeffs = result.coeffs
        if coeffs:
            self.maxima["qpoly.max_degree"] = max(self.maxima["qpoly.max_degree"], len(coeffs) - 1)
            bits = max(max(coeffs), -min(coeffs)).bit_length()
            self.maxima["qpoly.max_coeff_bits"] = max(self.maxima["qpoly.max_coeff_bits"], bits)

    def _after_mul(self, args, result) -> None:
        a, b = args
        if hasattr(b, "coeffs"):
            self.counts["qpoly.mul.coeff_products"] += len(a.coeffs) * len(b.coeffs)
            self._poly_size(result)

    def _after_exact_div(self, args, result) -> None:
        num, den = args
        self.counts["qpoly.exact_div.coeff_ops"] += len(result.coeffs) * len(den.coeffs)
        self._poly_size(num)
        self._poly_size(result)

    def _distinct(self, name: str):
        def after(args, result) -> None:
            self.distinct[name].add(args)
        return after

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        qpoly = sys.modules[package.__name__ + ".qpoly"]
        self.qcombinat = sys.modules[package.__name__ + ".qcombinat"]
        self.cache_objects = [v for v in vars(self.qcombinat).values() if hasattr(v, "cache_info")]
        afters = {name: self._distinct(name) for name in ("altsum.F", "altsum.cyclic_product")}
        for module_name, attr in SPANNED:
            home = sys.modules.get(f"{package.__name__}.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            name = f"{module_name}.{attr}"
            if hasattr(original, "cache_info"):
                self.lru[name] = original
            wrapper = self.wrap(name, original, afters.get(name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
        poly_cls = qpoly.IntPoly
        afters = {"mul": self._after_mul, "exact_div": self._after_exact_div}
        for method, short in INT_POLY_METHODS:
            original = getattr(poly_cls, method, None)
            if original is not None:
                setattr(poly_cls, method, self.wrap(f"qpoly.{short}", original, afters.get(short)))
        kronecker = getattr(qpoly, "_kronecker_mul", None)
        if kronecker is not None:
            def counted(*args, _inner=kronecker):
                self.counts["qpoly.mul.kronecker_calls"] += 1
                return _inner(*args)
            qpoly._kronecker_mul = counted

    def metrics(self) -> dict[str, float]:
        """Every traced figure by metric name."""
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            # main's self time is the cli layer's: argument parsing and report writing
            out["cli.self_s" if name == "cli.main" else f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        out.update(self.maxima)
        for name, keys in self.distinct.items():
            suffix = "distinct_params" if name == "altsum.F" else "distinct_args"
            out[f"{name}.{suffix}"] = len(keys)
        for name, fn in self.lru.items():
            out[f"{name}.misses"] = fn.cache_info().misses
        entries = sum(fn.cache_info().currsize for fn in self.cache_objects)
        for attr in ("_factorials", "_pochhammers"):
            entries += len(getattr(self.qcombinat, attr, ()))
        out["qcombinat.cache_entries"] = entries
        return out
