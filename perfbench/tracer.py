"""Spans around the calls into each k3hilb layer, for the traced run.

install() replaces the layer entry points below by timing wrappers in every
k3hilb module namespace that holds them, so calls made inside the package are
seen too.  A wrapper records the call's duration and, through a stack of open
spans, the layer's self time (duration minus the spans opened inside it).
Work done by the tracer itself (hooks that count matrix entries or terms) is
kept out of every span and reported as overhead.
"""

import sys
import time
from statistics import median

# (module, function, layer)
ENTRY_POINTS = (
    ("zlinalg", "smith_normal_form", "zlinalg.snf"),
    ("zlinalg", "dedup_columns", "zlinalg.dedup"),
    ("zlinalg", "signature", "zlinalg.signature"),
    ("analysis", "sym_power_matrix", "analysis.matrix"),
    ("analysis", "mixed_matrix", "analysis.matrix"),
    ("analysis", "middle_gram_matrix", "analysis.matrix"),
    ("analysis", "cokernel_report", "analysis.report"),
    ("lehn_sorger", "mult_an", "lehn_sorger.mult_an"),
    ("lehn_sorger", "to_sn", "lehn_sorger.to_sn"),
    ("qin_wang", "cup_int", "qin_wang.cup"),
    ("qin_wang", "cup_int_list", "qin_wang.cup"),
    ("symfunc", "psi", "symfunc.psi"),
    ("symfunc", "psi_inv", "symfunc.psi"),
    ("hilb_basis", "hilb_base", "hilb_basis.hilb_base"),
)


class Tracer:
    def __init__(self):
        self.total = {}
        self.self_time = {}
        self.calls = {}
        self.counts = {"snf_rows": 0, "snf_cols": 0, "matrix_nnz": 0, "matrix_cells": 0, "sn_terms": 0}
        self.cup_latencies = []
        self.root_time = 0.0
        self.hook_time = 0.0
        self.stack = []
        self._hooks = {
            "zlinalg.snf": self._snf_shape,
            "analysis.matrix": self._matrix_size,
            "lehn_sorger.to_sn": self._sn_terms,
        }

    # hooks run outside every span; their cost is overhead
    def _snf_shape(self, args, result):
        mat = args[0]
        rows, cols = len(mat), len(mat[0]) if mat else 0
        if rows * cols > self.counts["snf_rows"] * self.counts["snf_cols"]:
            self.counts["snf_rows"], self.counts["snf_cols"] = rows, cols

    def _matrix_size(self, args, result):
        self.counts["matrix_cells"] += len(result) * (len(result[0]) if result else 0)
        self.counts["matrix_nnz"] += sum(len(row) - row.count(0) for row in result)

    def _sn_terms(self, args, result):
        self.counts["sn_terms"] += len(result[0])

    def wrap(self, layer, fn):
        hook = self._hooks.get(layer)
        stack = self.stack
        clock = time.perf_counter
        for d in (self.total, self.self_time, self.calls):
            d.setdefault(layer, 0)
        is_cup = layer == "qin_wang.cup"

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.total[layer] += dt
                self.self_time[layer] += dt - frame[0]
                self.calls[layer] += 1
            if hook is not None:
                h0 = clock()
                hook(args, result)
                dh = clock() - h0
                self.hook_time += dh
                dt += dh
            if stack:
                stack[-1][0] += dt
            else:
                self.root_time += dt
            if is_cup:
                self.cup_latencies.append(dt)
            return result

        return traced

    def install(self):
        """Wrap the entry points of every k3hilb module the process has imported."""
        modules = [m for name, m in sys.modules.items() if name == "k3hilb" or name.startswith("k3hilb.")]
        for mod_name, fn_name, layer in ENTRY_POINTS:
            module = sys.modules.get(f"k3hilb.{mod_name}")
            if module is None:
                continue
            original = getattr(module, fn_name)
            wrapper = self.wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def start_computation(self):
        """Spans closed before this call (input generation) count in no root time."""
        self.root_time = 0.0

    def per_call_cost(self, calls=20000):
        """Seconds a wrapper adds to one call, measured on a no-op."""

        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap("probe", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(0.0, (time.perf_counter() - t0 - bare) / calls)

    def report(self, compute_s, mult_sn_info):
        """Per-layer figures of one traced process."""
        def t(layer):
            return self.total.get(layer, 0.0)

        def s(layer):
            return self.self_time.get(layer, 0.0)

        def c(layer):
            return self.calls.get(layer, 0)

        lat = sorted(self.cup_latencies)
        wrapped_calls = sum(self.calls.values())
        mult_an = c("lehn_sorger.mult_an")
        return {
            "zlinalg.snf_s": t("zlinalg.snf"),
            "zlinalg.snf_rows": self.counts["snf_rows"],
            "zlinalg.snf_cols": self.counts["snf_cols"],
            "zlinalg.dedup_s": t("zlinalg.dedup"),
            "zlinalg.signature_s": t("zlinalg.signature"),
            "analysis.matrix_s": t("analysis.matrix"),
            "analysis.matrix_self_s": s("analysis.matrix"),
            "analysis.matrix_nnz": self.counts["matrix_nnz"],
            "analysis.matrix_cells": self.counts["matrix_cells"],
            "analysis.generators_s": s("analysis.report"),
            "lehn_sorger.mult_an_calls": mult_an,
            "lehn_sorger.mult_an_s": t("lehn_sorger.mult_an"),
            "lehn_sorger.sn_terms": self.counts["sn_terms"],
            "lehn_sorger.mult_an_reuse": (1 - c("lehn_sorger.to_sn") / mult_an) if mult_an else 0.0,
            "lehn_sorger.mult_sn_calls": mult_sn_info.hits + mult_sn_info.misses,
            "lehn_sorger.mult_sn_hits": mult_sn_info.hits,
            "qin_wang.cup_calls": c("qin_wang.cup"),
            "qin_wang.cup_s": t("qin_wang.cup"),
            "qin_wang.base_change_self_s": s("qin_wang.cup"),
            "qin_wang.cup_p50_ms": 1e3 * median(lat) if lat else 0.0,
            "qin_wang.cup_p99_ms": 1e3 * _quantile(lat, 0.99),
            "symfunc.psi_calls": c("symfunc.psi"),
            "symfunc.psi_s": t("symfunc.psi"),
            "hilb_basis.hilb_base_s": t("hilb_basis.hilb_base"),
            "trace.overhead_s": wrapped_calls * self.per_call_cost() + self.hook_time,
            "trace.unattributed_s": max(0.0, compute_s - self.root_time),
        }


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
