"""Verification benchmark for gkzperiods.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` of the
checkout.  One process, one thread, closed loop: each pass starts when the
previous one has ended, and passes repeat while another one is expected to
end within S seconds (there is always at least one).  The seed replaces every scenario's
verification-point seed and generates the system_build supports.

Pass and set-up times are scaled to the host speed: a fixed reference
computation (``reference.py``) is timed before and after each of them, and
the end-to-end ``pass_norm_s`` and ``setup_s`` are the times on a host where
it takes ``reference.NOMINAL_S``.  Wall times are printed beside them.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics come from
the traced ones (spans are written to ``perfbench/out/``).  Every run ends
with the correctness gate.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means the
gate passed, 1 that it failed, 2 that the package could not be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

WORKLOADS = ("period_quadrature", "root_residue", "system_build")

SETUP_SAMPLES = 9

# A fresh interpreter doing only the set-up; it says "ready" when done.
_SETUP_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.prepare(workloads.make_workload(sys.argv[3]), int(sys.argv[4]))
print("ready", flush=True)
"""


def import_package():
    """Import gkzperiods from this checkout's src/, nowhere else."""
    if not (SRC_DIR / "gkzperiods" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gkzperiods package under {SRC_DIR}")
    sys.path[:0] = [str(BENCH_DIR), str(SRC_DIR)]
    import gkzperiods

    if Path(gkzperiods.__file__).resolve().parent != SRC_DIR / "gkzperiods":
        raise ImportError(f"gkzperiods imported from {gkzperiods.__file__}")


def setup_seconds(workload: str, seed: int, samples: int) -> tuple[list[float], list[float]]:
    """Process start to inputs ready, in fresh interpreters.

    Returns the probe times and the reference times taken around them.
    """
    import reference

    cmd = [sys.executable, "-c", _SETUP_PROBE, str(BENCH_DIR), str(SRC_DIR),
           workload, str(seed)]
    out, refs = [], [reference.reference_seconds()]
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        out.append(t1 - t0)
        refs.append(reference.reference_seconds())
    return out, refs


def declared_units(key: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them under key."""
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[key]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_pass(workloads, workload):
    gc.collect()
    t0 = time.perf_counter()
    outcomes = workloads.run_pass(workload)
    return time.perf_counter() - t0, outcomes


def layer_metrics(tot: dict, passes: int, phi_evals: int, setup: dict) -> dict:
    spans, counts = tot["spans"], tot["counts"]

    def s(name):
        return spans[name]["s"] / passes if name in spans else 0.0

    def calls(name):
        return spans[name]["calls"] / passes if name in spans else 0.0

    def count(name):
        return counts.get(name, 0.0) / passes

    hits, misses = count("verifier.cache_hits"), count("verifier.cache_misses")
    cells = count("verifier.cells")
    terms = calls("quadrature.integrate_term")
    quad_self = sum(spans[n]["self_s"] for n in
                    ("quadrature.integrate_cycle", "quadrature.integrate_term")
                    if n in spans) / passes
    load_s = sum(v["s"] for k, v in setup["spans"].items() if k.startswith("scenario_io."))
    return {
        "support_lattice.kernel_s": s("support_lattice.integer_kernel_basis"),
        "support_lattice.boxes_s": s("support_lattice.enumerate_box_vectors"),
        "support_lattice.boxes": count("support_lattice.boxes"),
        "support_lattice.max_box_order": counts.get("support_lattice.max_box_order", 0),
        "support_lattice.boxes_over_order_cap": count("support_lattice.boxes_over_order_cap"),
        "gkz_system.build_s": s("gkz_system.build_system"),
        "gkz_system.operators": count("gkz_system.operators"),
        "verifier.verify_s": s("verifier.verify"),
        "verifier.self_s": s("verifier.verify") - s("period_functions.phi"),
        "verifier.differentiate_calls": calls("verifier.differentiate"),
        "verifier.cells": cells,
        "verifier.error_cells": count("verifier.error_cells"),
        "verifier.cache_hits": hits,
        "verifier.cache_misses": misses,
        "verifier.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "verifier.evals_per_cell": phi_evals / cells if cells else 0.0,
        "period_functions.phi_s": s("period_functions.phi"),
        "period_functions.phi_us_per_eval":
            1e6 * s("period_functions.phi") / phi_evals if phi_evals else 0.0,
        "period_functions.period_s": s("period_functions.eval_period"),
        "period_functions.root_s": s("period_functions.eval_root"),
        "period_functions.gl_residue_s": s("period_functions.eval_gl_residue"),
        "period_functions.errors": count("period_functions.phi.errors"),
        "quadrature.integrate_term_calls": terms,
        "quadrature.self_s": quad_self,
        "quadrature.levels": count("quadrature.levels"),
        "quadrature.nodes": count("quadrature.nodes"),
        "quadrature.levels_per_term": count("quadrature.levels") / terms if terms else 0.0,
        "quadrature.unconverged": count("quadrature.unconverged"),
        "analytic_paths.continued_logs_s": s("analytic_paths.continued_logs"),
        "analytic_paths.continued_logs_calls": calls("analytic_paths.continued_logs"),
        "analytic_paths.continued_logs_nodes": count("analytic_paths.continued_logs_nodes"),
        "analytic_paths.eval_at_calls": count("analytic_paths.eval_at_calls"),
        "analytic_paths.resolve_path_s": s("analytic_paths.resolve_path"),
        "analytic_paths.resolve_path_calls": calls("analytic_paths.resolve_path"),
        "roots.univariate_roots_s": s("roots.univariate_roots"),
        "roots.univariate_roots_calls": calls("roots.univariate_roots"),
        "scenario_io.load_s": load_s,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workload=None, setup_samples: int = SETUP_SAMPLES, out_dir: Path | None = None):
    """One benchmark run; returns (result dict, summary lines).

    ``workload`` may be a reduced Workload (the smoke test passes one);
    by default the named full workload is used.
    """
    import reference
    import workloads

    if workload is None:
        workload = workloads.make_workload(workload_name)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        with tracer:
            workloads.prepare(workload, seed)
        setup_totals = tracer.totals()
        window = tracer.mark()
    else:
        workloads.prepare(workload, seed)

    untraced_s, traced_s, all_outcomes = [], [], []
    traced_evals = 0
    begin = time.perf_counter()
    refs = [reference.reference_seconds()]
    while True:
        dt, outcomes = timed_pass(workloads, workload)
        untraced_s.append(dt)
        refs.append(reference.reference_seconds())
        all_outcomes.extend(outcomes)
        if tracer is not None:
            with tracer:
                dt, outcomes = timed_pass(workloads, workload)
            traced_s.append(dt)
            traced_evals += sum(o.phi_points for o in outcomes)
            all_outcomes.extend(outcomes)
        elapsed = time.perf_counter() - begin
        # stop unless another round, as long as the average one, fits in
        if elapsed * (len(untraced_s) + 1) / len(untraced_s) > seconds:
            break
    passes = len(untraced_s)

    problems = workloads.check_outcomes(workload, all_outcomes)
    if workload.kind == "verify":
        problems += workloads.check_base_values(workload)
        problems += workloads.check_corruption_caught(workload)

    attempted = sum(o.attempted for o in all_outcomes)
    failed = sum(o.failed_cells + (o.error is not None) for o in all_outcomes)
    phi_evals = sum(o.phi_points for o in all_outcomes) / (passes + len(traced_s))
    margin = workloads.residual_margin(all_outcomes)
    error_types = sorted({t for o in all_outcomes for t in o.error_types})

    q1, med, q3 = quartiles(untraced_s)
    nq1, nmed, nq3 = quartiles(reference.scaled(untraced_s, refs))
    lines = [
        f"workload {workload.name} seed {seed}: {passes} untraced"
        + (f" + {len(traced_s)} traced" if trace else "") + " passes",
        f"  pass_norm_s median {nmed:.4f} s (q1 {nq1:.4f}, q3 {nq3:.4f}, n={passes})",
        f"  pass_s median {med:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}), "
        f"reference median {statistics.median(refs):.4f} s",
        f"  phi_evals {phi_evals:g} per pass, residual_margin_dec {margin:.4f}",
        f"  error_frac {failed / max(attempted, 1):g} "
        f"({failed} failed / {attempted} attempted)"
        + (f", errors: {', '.join(error_types)}" if error_types else ""),
    ]
    if trace:
        tot = tracer.totals(window)
        metrics = layer_metrics(tot, len(traced_s), traced_evals / len(traced_s),
                                setup_totals)
        metrics["pass_s"] = med
        metrics["reference_s"] = statistics.median(refs)
        metrics["phi_evals"] = phi_evals
        metrics["residual_margin_dec"] = margin
        metrics["error_frac"] = failed / max(attempted, 1)
        metrics["trace.overhead_s"] = statistics.median(traced_s) - med
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"spans-{workload.name}-seed{seed}.csv"
            tracer.write_spans(path)
            lines.append(f"  {len(tracer.names)} spans written to {path}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups, setup_refs = setup_seconds(workload_name, seed, setup_samples)
        metrics = {
            "pass_norm_s": nmed,
            "setup_s": statistics.median(reference.scaled(setups, setup_refs)),
            "peak_rss_mb": rss_mb,
        }
        lines.append(f"  setup_s median {metrics['setup_s']:.4f} s "
                     f"(wall {statistics.median(setups):.4f} s, n={len(setups)}), "
                     f"peak_rss_mb {rss_mb:.1f}")
    lines.append("  gate: " + ("PASS" if not problems else "FAIL"))
    lines.extend(f"    {p}" for p in problems)
    units = declared_units("per_layer" if trace else "end_to_end")
    if units.keys() != metrics.keys():
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(units.keys() ^ metrics.keys())}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        out_dir=BENCH_DIR / "out")
    print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
