"""Spans around the calls into each package module, for the traced run.

The tracer replaces public functions where their callers look them up
(module globals), records one span per call with its name, start, end,
parent span and verification id, and keeps counts at the same boundaries.
Spans stay in memory until ``write_spans``; self time is a span's duration
minus the durations of its child spans.  A wrapped name that a later
version of the package no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict

import gkzperiods
from gkzperiods import (
    analytic_paths,
    gkz_system,
    period_functions,
    quadrature,
    verifier,
)

import workloads

# differentiate() refuses derivatives above this total order.
ORDER_CAP = 6


class Tracer:
    """Span recorder; the wrappers are in place inside ``with tracer:``."""

    def __init__(self):
        # span k is (names[k], starts[k], ends[k], parents[k], verifications[k]);
        # parallel lists of atoms keep the garbage collector out of the way
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.verifications: list[int] = []
        self.stack: list[int] = []
        self.verification = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.caches: list = []
        self._patches: list = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             root: bool = False) -> None:
        """Record a span named ``name`` around every call of owner.attr.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(result)`` sees the return value.  A root span starts a new
        verification id.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        names, starts, ends = self.names, self.starts, self.ends
        parents, verifications = self.parents, self.verifications
        stack, counts = self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if root:
                self.verification += 1
            if before is not None:
                args, kwargs = before(args, kwargs)
            k = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            verifications.append(self.verification)
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                ends[k] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        c = self.counts
        w = self.wrap

        w(gkzperiods, "load_scenario", "scenario_io.load_scenario")
        w(gkzperiods, "loads_scenario", "scenario_io.loads_scenario")
        w(workloads, "verify_scenario", "verification", root=True)
        w(workloads, "build_support", "verification", root=True)

        def system_built(system):
            c["gkz_system.operators"] += len(system.eulers) + len(system.boxes)

        w(gkzperiods, "build_system", "gkz_system.build_system", after=system_built)
        w(gkz_system, "build_exponent_matrix", "support_lattice.build_exponent_matrix")
        w(gkz_system, "integer_kernel_basis", "support_lattice.integer_kernel_basis")

        def boxes_enumerated(enum):
            orders = [max(sum(b.u_plus), sum(b.u_minus)) for b in enum.vectors]
            c["support_lattice.boxes"] += len(orders)
            c["support_lattice.boxes_over_order_cap"] += sum(o > ORDER_CAP for o in orders)
            c["support_lattice.max_box_order"] = max(
                [c["support_lattice.max_box_order"], *orders])

        w(gkz_system, "enumerate_box_vectors", "support_lattice.enumerate_box_vectors",
          after=boxes_enumerated)

        def verified(report):
            c["verifier.cells"] += len(report.cells)
            c["verifier.error_cells"] += sum(x.error is not None for x in report.cells)
            for cache in self.caches:
                c["verifier.cache_hits"] += getattr(cache, "hits", 0)
                c["verifier.cache_misses"] += getattr(cache, "misses", 0)
            self.caches.clear()

        w(gkzperiods, "verify", "verifier.verify", after=verified)
        w(verifier, "differentiate", "verifier.differentiate")
        cache_cls = getattr(verifier, "DerivativeCache", None)
        if cache_cls is not None:
            caches = self.caches

            class CountedCache(cache_cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    caches.append(self)

            self._patches.append((verifier, "DerivativeCache", cache_cls))
            verifier.DerivativeCache = CountedCache

        w(period_functions.PeriodFunction, "__call__", "period_functions.phi")
        w(period_functions, "eval_period", "period_functions.eval_period")
        w(period_functions, "eval_root", "period_functions.eval_root")
        w(period_functions, "eval_gl_residue", "period_functions.eval_gl_residue")
        w(period_functions, "integrate_cycle", "quadrature.integrate_cycle")

        def term_integrated(res):
            c["quadrature.levels"] += len(res.diagnostics.get("levels", ()))
            c["quadrature.nodes"] += res.nodes_used
            c["quadrature.unconverged"] += not res.converged

        w(quadrature, "integrate_term", "quadrature.integrate_term", after=term_integrated)

        def count_eval_at(eval_at):
            def counted(t):
                c["analytic_paths.eval_at_calls"] += 1
                return eval_at(t)
            return counted

        def logs_called(args, kwargs):
            c["analytic_paths.continued_logs_nodes"] += len(args[0])
            if "eval_at" in kwargs:
                kwargs["eval_at"] = count_eval_at(kwargs["eval_at"])
            elif len(args) > 2:
                args = (*args[:2], count_eval_at(args[2]), *args[3:])
            return args, kwargs

        w(quadrature, "continued_logs", "analytic_paths.continued_logs", before=logs_called)
        w(quadrature, "resolve_path", "analytic_paths.resolve_path")
        w(period_functions, "univariate_roots", "roots.univariate_roots")
        w(analytic_paths, "univariate_roots", "roots.univariate_roots")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ----------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """A point to measure from: span index and a copy of the counts."""
        return len(self.names), dict(self.counts)

    def totals(self, since: tuple[int, dict] = (0, {})) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        first, counts0 = since
        n = len(self.names)
        child = defaultdict(float)
        for k in range(first, n):
            if self.parents[k] >= first:
                child[self.parents[k]] += self.ends[k] - self.starts[k]
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k in range(first, n):
            agg = out[self.names[k]]
            dur = self.ends[k] - self.starts[k]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[k]
        counts = {
            k: v if k == "support_lattice.max_box_order" else v - counts0.get(k, 0)
            for k, v in self.counts.items()
        }
        return {"spans": out, "counts": counts}

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "verification"])
            for k, row in enumerate(zip(self.names, self.starts, self.ends,
                                        self.parents, self.verifications)):
                name, start, end, parent, vid = row
                out.writerow([k, name, f"{start:.9f}", f"{end:.9f}", parent, vid])
