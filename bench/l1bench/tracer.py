"""Layer tracer: spans and counters recorded around l1lab's module functions.

Nothing inside the library is edited.  Each target function is rebound, in
every loaded l1lab namespace that holds it, to a wrapper that records

* a span (name, parent span, start, end) at layer boundaries that are
  called a bounded number of times per round: threshold_bisect, the margin
  functions, minimize_lifted_total, cli.main, the parity audit, the
  weak-curve solves, and on the empirical side weak_recovery_rate,
  solve_basis_pursuit, the null-space oracles and linprog;
* an aggregate call counter and timer for the hot leaves
  (gaussian_quadratic_integral, the exponential moments, i_sph, the direct
  minima, the quadrature oracle), which run millions of times per lifted
  solve and would not fit in memory as spans.

A target that no longer exists is reported as an absent layer; its metrics
read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (layer, module, attribute, how it is recorded)
TARGETS = (
    ("lift_core.threshold_bisect", "lift_core", "threshold_bisect", "span"),
    ("lift_core.margin", "thresholds_general", "sectional_margin_direct", "margin"),
    ("lift_core.margin", "thresholds_general", "sectional_margin_lifted", "margin"),
    ("lift_core.margin", "thresholds_general", "strong_margin_direct", "margin"),
    ("lift_core.margin", "thresholds_general", "strong_margin_lifted", "margin"),
    ("lift_core.margin", "thresholds_nonneg", "strong_nonneg_margin_direct", "margin"),
    ("lift_core.margin", "thresholds_nonneg", "strong_nonneg_margin_lifted", "margin"),
    ("lift_core.minimize_lifted_total", "lift_core", "minimize_lifted_total", "span"),
    ("lift_core.i_sph", "lift_core", "i_sph", "count"),
    ("lift_core.exp_set_term_oracle", "lift_core", "exp_set_term_oracle", "leaf"),
    ("numerics.gaussian_quadratic_integral", "numerics", "gaussian_quadratic_integral", "leaf"),
    ("numerics.gauss_expectation", "numerics", "gauss_expectation", "leaf"),
    ("numerics.find_root", "numerics", "find_root", "count"),
    ("thresholds_general.sectional_exp_moments", "thresholds_general",
     "sectional_exp_moments", "leaf"),
    ("thresholds_general.strong_exp_moment", "thresholds_general", "strong_exp_moment", "leaf"),
    ("thresholds_nonneg.nonneg_exp_moment", "thresholds_nonneg", "nonneg_exp_moment", "leaf"),
    ("thresholds_general.direct_minimum", "thresholds_general", "sectional_direct_minimum", "leaf"),
    ("thresholds_general.direct_minimum", "thresholds_general", "strong_direct_minimum", "leaf"),
    ("thresholds_nonneg.strong_nonneg_direct_minimum", "thresholds_nonneg",
     "strong_nonneg_direct_minimum", "leaf"),
    ("thresholds_general.weak_alpha_of_beta", "thresholds_general", "weak_alpha_of_beta", "span"),
    ("thresholds_nonneg.weak_nonneg_alpha_of_beta", "thresholds_nonneg",
     "weak_nonneg_alpha_of_beta", "span"),
    ("parity.run_parity_audit", "parity", "run_parity_audit", "span"),
    ("cli.main", "cli", "main", "span"),
    ("empirical.weak_recovery_rate", "empirical", "weak_recovery_rate", "span"),
    ("empirical.solve_basis_pursuit", "empirical", "solve_basis_pursuit", "span"),
    ("empirical.generate_instance", "empirical", "generate_instance", "leaf"),
    ("empirical.strong_nullspace_holds", "empirical", "strong_nullspace_holds", "span"),
    ("empirical.sectional_nullspace_holds", "empirical", "sectional_nullspace_holds", "span"),
    ("empirical.linprog", "empirical", "linprog", "span"),
)

# Every per-layer metric the traced run prints: (name, unit, better).
PER_LAYER = (
    ("lift_core.threshold_bisect.calls", "count", "lower"),
    ("lift_core.threshold_bisect.self_s", "s", "lower"),
    ("lift_core.margin.calls", "count", "lower"),
    ("lift_core.margin.thorough_calls", "count", "lower"),
    ("lift_core.margin.s", "s", "lower"),
    ("lift_core.minimize_lifted_total.calls", "count", "lower"),
    ("lift_core.minimize_lifted_total.s", "s", "lower"),
    ("lift_core.escalations", "count", "lower"),
    ("lift_core.i_sph.calls", "count", "lower"),
    ("numerics.gaussian_quadratic_integral.calls", "count", "lower"),
    ("numerics.gaussian_quadratic_integral.s", "s", "lower"),
    ("thresholds_general.sectional_exp_moments.calls", "count", "lower"),
    ("thresholds_general.sectional_exp_moments.us_per_call", "us", "lower"),
    ("thresholds_general.strong_exp_moment.calls", "count", "lower"),
    ("thresholds_general.strong_exp_moment.us_per_call", "us", "lower"),
    ("thresholds_nonneg.nonneg_exp_moment.calls", "count", "lower"),
    ("thresholds_nonneg.nonneg_exp_moment.us_per_call", "us", "lower"),
    ("thresholds_general.direct_minimum.calls", "count", "lower"),
    ("thresholds_general.direct_minimum.s", "s", "lower"),
    ("thresholds_nonneg.strong_nonneg_direct_minimum.calls", "count", "lower"),
    ("thresholds_nonneg.strong_nonneg_direct_minimum.s", "s", "lower"),
    ("thresholds_general.weak_alpha_of_beta.s", "s", "lower"),
    ("thresholds_nonneg.weak_nonneg_alpha_of_beta.s", "s", "lower"),
    ("numerics.find_root.calls", "count", "lower"),
    ("lift_core.exp_set_term_oracle.calls", "count", "lower"),
    ("lift_core.exp_set_term_oracle.s", "s", "lower"),
    ("numerics.gauss_expectation.calls", "count", "lower"),
    ("numerics.gauss_expectation.s", "s", "lower"),
    ("parity.records", "count", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("empirical.solve_basis_pursuit.calls", "count", "lower"),
    ("empirical.solve_basis_pursuit.s", "s", "lower"),
    ("empirical.solve_basis_pursuit.iters", "count", "lower"),
    ("empirical.solve_basis_pursuit.stalls", "count", "lower"),
    ("empirical.generate_instance.s", "s", "lower"),
    ("empirical.weak_recovery_rate.s", "s", "lower"),
    ("empirical.strong_nullspace_holds.calls", "count", "lower"),
    ("empirical.strong_nullspace_holds.s", "s", "lower"),
    ("empirical.sectional_nullspace_holds.calls", "count", "lower"),
    ("empirical.sectional_nullspace_holds.s", "s", "lower"),
    ("empirical.linprog.calls", "count", "lower"),
    ("empirical.linprog.s", "s", "lower"),
    ("empirical.nsp.lps_per_call", "count", "lower"),
    ("empirical.nsp.holds_frac", "ratio", "higher"),
)


def _l1lab_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "l1lab" or name.startswith("l1lab."))]


def rebind(module_name, attr, wrap):
    """Rebind l1lab.<module_name>.<attr> to wrap(original) wherever it is bound.

    Every loaded l1lab namespace holding the same function object is
    patched, so callers that imported the name directly see the wrapper
    too.  Returns a callable that undoes the rebinding, or None when the
    module or attribute does not exist.
    """
    try:
        module = importlib.import_module(f"l1lab.{module_name}")
    except ImportError:
        return None
    target = getattr(module, attr, None)
    if not callable(target):
        return None
    wrapped = wrap(target)
    sites = [(mod, name) for mod in _l1lab_modules()
             for name, value in vars(mod).items() if value is target]
    for mod, name in sites:
        setattr(mod, name, wrapped)

    def restore():
        for mod, name in sites:
            setattr(mod, name, target)

    return restore


class Tracer:
    """Spans and aggregate counters for one traced section of a run."""

    def __init__(self):
        self.spans = []            # [name, parent index, start, end]
        self._stack = [-1]
        self.leaves = defaultdict(lambda: [0, 0.0])   # layer -> [calls, seconds]
        self.counts = defaultdict(int)
        self.present = set()
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        for layer, module_name, attr, how in TARGETS:
            if how == "span":
                wrap = self._span(layer, _HOOKS.get(layer))
            elif how == "margin":
                wrap = self._span(layer, _margin_hook(attr.endswith("_lifted")))
            else:
                wrap = self._leaf(layer, timed=(how == "leaf"))
            restore = rebind(module_name, attr, wrap)
            if restore is not None:
                self._restore.append(restore)
                self.present.add(layer)

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    @property
    def absent(self):
        return sorted({layer for layer, *_ in TARGETS} - self.present)

    def _span(self, name, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = len(spans)
                rec = [name, stack[-1], perf(), 0.0]
                spans.append(rec)
                stack.append(sid)
                try:
                    out = fn(*args, **kwargs)
                except BaseException as exc:
                    if hook is not None:
                        hook(counts, args, kwargs, None, exc)
                    raise
                finally:
                    rec[3] = perf()
                    stack.pop()
                if hook is not None:
                    hook(counts, args, kwargs, out, None)
                return out
            return traced
        return wrap

    def _leaf(self, name, timed):
        cell = self.leaves[name]

        def wrap(fn):
            if not timed:
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    cell[0] += 1
                    return fn(*args, **kwargs)
                return counted

            @functools.wraps(fn)
            def timed_call(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell[0] += 1
                    cell[1] += perf() - t0
            return timed_call
        return wrap

    # -- results ----------------------------------------------------------

    def span_totals(self):
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - child[i]
        return out

    def metrics(self) -> dict:
        """Every PER_LAYER metric except those the harness adds."""
        spans = self.span_totals()
        leaves, counts = self.leaves, self.counts

        def calls(layer):
            return spans[layer][0] if layer in spans else leaves[layer][0]

        def secs(layer):
            return spans[layer][1] if layer in spans else leaves[layer][1]

        def us_per_call(layer):
            n = leaves[layer][0]
            return leaves[layer][1] / n * 1e6 if n else 0.0

        # weak kinds probe the weak curve straight from threshold_bisect
        weak_probes = [0, 0.0]
        for name, parent, t0, t1 in self.spans:
            if (name.endswith("alpha_of_beta") and parent >= 0
                    and self.spans[parent][0] == "lift_core.threshold_bisect"):
                weak_probes[0] += 1
                weak_probes[1] += t1 - t0

        oracle_calls = (calls("empirical.strong_nullspace_holds")
                        + calls("empirical.sectional_nullspace_holds"))
        m = {
            "lift_core.threshold_bisect.calls": calls("lift_core.threshold_bisect"),
            "lift_core.threshold_bisect.self_s": spans["lift_core.threshold_bisect"][2],
            "lift_core.margin.calls": calls("lift_core.margin") + weak_probes[0],
            "lift_core.margin.thorough_calls": counts["margin.thorough"],
            "lift_core.margin.s": secs("lift_core.margin") + weak_probes[1],
            "lift_core.minimize_lifted_total.calls": calls("lift_core.minimize_lifted_total"),
            "lift_core.minimize_lifted_total.s": secs("lift_core.minimize_lifted_total"),
            "lift_core.escalations": max(
                calls("lift_core.minimize_lifted_total") - counts["margin.lifted"], 0),
            "lift_core.i_sph.calls": calls("lift_core.i_sph"),
            "parity.records": counts["parity.records"],
            "cli.main.self_s": spans["cli.main"][2],
            "empirical.solve_basis_pursuit.iters": counts["bp.iters"],
            "empirical.solve_basis_pursuit.stalls": counts["bp.stalls"],
            "empirical.nsp.lps_per_call": (
                calls("empirical.linprog") / oracle_calls if oracle_calls else 0.0),
            "empirical.nsp.holds_frac": (
                counts["nsp.holds"] / oracle_calls if oracle_calls else 0.0),
        }
        for name, _unit, _better in PER_LAYER:
            if name in m:
                continue
            layer, _, stat = name.rpartition(".")
            if stat == "calls":
                m[name] = calls(layer)
            elif stat == "s":
                m[name] = secs(layer)
            elif stat == "us_per_call":
                m[name] = us_per_call(layer)
        return m

    def write_spans(self, path):
        """Spans as JSON lines, times in seconds from the first span."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": t0 - base, "end": t1 - base}) + "\n")
            fh.write(json.dumps({"leaves": {k: {"calls": v[0], "s": v[1]}
                                            for k, v in self.leaves.items()}}) + "\n")


def _margin_hook(lifted):
    def hook(counts, args, kwargs, out, exc):
        if lifted:
            counts["margin.lifted"] += 1
        if (args[3] if len(args) > 3 else kwargs.get("thorough", False)):
            counts["margin.thorough"] += 1
    return hook


def _bp_hook(counts, args, kwargs, out, exc):
    if exc is not None:
        counts["bp.stalls"] += type(exc).__name__ == "SolverStalledError"
    else:
        counts["bp.iters"] += getattr(out, "solver_iterations", 0)


def _oracle_hook(counts, args, kwargs, out, exc):
    counts["nsp.holds"] += bool(out)


def _parity_hook(counts, args, kwargs, out, exc):
    counts["parity.records"] += len(getattr(out, "records", ()))


_HOOKS = {
    "empirical.solve_basis_pursuit": _bp_hook,
    "empirical.strong_nullspace_holds": _oracle_hook,
    "empirical.sectional_nullspace_holds": _oracle_hook,
    "parity.run_parity_audit": _parity_hook,
}
