"""Smoke test of the benchmark at reduced size: gate, failure counting, output.

Runs each workload on its cheapest inputs, so it takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

import gkzperiods  # noqa: E402
import workloads  # noqa: E402


def reduced(name: str) -> workloads.Workload:
    w = workloads.make_workload(name)
    if name == "period_quadrature":
        w.scenarios = w.oracle_names = ("beta", "residue_circle")
    elif name == "root_residue":
        w.scenarios = w.oracle_names = ("gl_quadratic",)
    else:
        w.ranks = (2, 3, 4)
    return w


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_declared_metric_is_printed(name, trace):
    result, lines = run.run(name, 7, 0.0, trace, workload=reduced(name), setup_samples=1)
    want = run.declared_units("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    json.dumps(result, allow_nan=False)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_system_fails_the_gate(monkeypatch):
    w = workloads.prepare(reduced("root_residue"), 3)
    assert workloads.check_corruption_caught(w) == []
    honest = gkzperiods.build_system
    monkeypatch.setattr(gkzperiods, "build_system",
                        lambda spec: gkzperiods.corrupt_eigenvalue(honest(spec), 0))
    problems = workloads.check_outcomes(w, workloads.run_pass(w))
    assert len(problems) == 1 and "FAIL" in problems[0]


def test_base_values_match_closed_forms():
    names = ("gauss", "beta", "residue_circle", "quadratic_root", "gl_quadratic")
    w = workloads.Workload("oracles", "verify", scenarios=names, oracle_names=names)
    assert workloads.check_base_values(workloads.prepare(w, 1)) == []


def test_failures_are_counted_and_the_pass_goes_on(monkeypatch):
    w = workloads.prepare(reduced("period_quadrature"), 3)
    real_verify = gkzperiods.verify

    def verify(system, phi):
        if system.scenario.name == "beta":
            raise ValueError("derivative order 7 exceeds cap 6")
        return real_verify(system, phi)

    monkeypatch.setattr(gkzperiods, "verify", verify)
    beta, circle = workloads.run_pass(w)
    assert beta.error_types == ("ValueError",) and beta.attempted == 6
    assert circle.error is None and circle.report.passed
    assert len(workloads.check_outcomes(w, [beta, circle])) == 1


def test_box_set_must_span_the_kernel_lattice():
    w = workloads.prepare(reduced("system_build"), 5)
    name, spec, exponents = w.inputs[-1]
    system = gkzperiods.build_system(spec)
    assert workloads.check_support_system(system, exponents) == []
    doubled = tuple(replace(op, u_plus=tuple(2 * x for x in op.u_plus),
                            u_minus=tuple(2 * x for x in op.u_minus))
                    for op in system.boxes)
    problems = workloads.check_support_system(replace(system, boxes=doubled), exponents)
    assert problems == ["boxes do not span the kernel lattice"]
    skewed = (replace(system.boxes[0], u_minus=(0,) * len(exponents)),)
    assert any("not in the kernel" in p for p in
               workloads.check_support_system(replace(system, boxes=skewed), exponents))


def test_hermite_form_depends_only_on_the_lattice():
    assert workloads.hermite_rows([(2, 4, 6), (1, 1, 1)]) == \
        workloads.hermite_rows([(1, 1, 1), (0, 2, 4), (3, 5, 7)])
    assert workloads.hermite_rows([(2, 0)]) != workloads.hermite_rows([(1, 0)])


def test_times_are_scaled_by_the_reference_around_them():
    import reference

    # a pass that took 2 s while the reference slowed from 0.05 s to 0.15 s
    assert reference.scaled([2.0, 1.0], [0.05, 0.15, 0.05]) == \
        pytest.approx([1.0, 0.5])


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "system_build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
