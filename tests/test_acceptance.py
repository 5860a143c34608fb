"""End-to-end acceptance checks, one per shipped guarantee.

Every test exercises a full pipeline (scenario -> system -> evaluation ->
verification) against an independent oracle and prints a single PASS/FAIL
line on the real stdout so the outcome is visible even under capture.
Tolerances and runtime budgets are asserted, not just reported.
"""

import cmath
import dataclasses
import math
import time

import numpy as np

from gkzperiods import (
    CycleSpec,
    CycleTerm,
    LineSegment,
    Path1D,
    PeriodFunction,
    build_exponent_matrix,
    build_system,
    integer_kernel_basis,
)
from gkzperiods.gkz_system import corrupt_eigenvalue
from gkzperiods.verifier import (
    DerivativeCache,
    differentiate,
    verification_points,
    verify,
)

from oracles import (
    airy_ai,
    airy_ai0,
    brute_force_kernel,
    fraction_rank,
    hesse_cubic_period,
    in_integer_span,
    quadratic_formula_root,
    quadratic_root_derivative,
    quadratic_root_second_mixed,
    random_scenario_structure,
    torus_coefficient_period,
)

from test_scenario import BUILTINS, builtin
from test_support_lattice import structure_spec
from test_period_functions import gl_spec
from test_analytic_paths import full_circle, transport


TORUS_PERIOD_ORACLES = {
    "hesse_cubic": hesse_cubic_period,
    "torus_coefficient": torus_coefficient_period,
}


def _report(capsys, num, label, failures, detail, elapsed, budget=None):
    status = "FAIL" if failures else "PASS"
    timing = f"{elapsed:.1f}s" if budget is None else f"{elapsed:.1f}s/{budget:.0f}s"
    with capsys.disabled():
        print(f"\nacceptance {num}/8 {label}: {status} ({detail}; {timing})")
    assert not failures, "; ".join(failures)


def _over_budget(failures, elapsed, budget):
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s budget")


def _scenario_points(spec, n=None):
    return verification_points(
        spec.coefficient_vector(),
        spec.settings.points if n is None else n,
        spec.settings.seed,
        spec.settings.point_rel,
    )


def test_criterion_1_quadratic_root_operators_and_formula_oracle(capsys):
    t0 = time.perf_counter()
    failures = []
    spec = builtin("quadratic_root")
    system = build_system(spec)
    phi = PeriodFunction(spec)
    points = _scenario_points(spec)
    cache = DerivativeCache()
    rep = verify(system, phi, points=points, cache=cache)
    if not rep.passed or rep.has_errors:
        failures.append(f"verify failed, max relative {rep.max_relative:.2e}")
    if rep.max_relative >= 1e-6:
        failures.append(f"max relative {rep.max_relative:.2e} >= 1e-6")

    # same cache as verify: the oracle comparison reuses its circle samples
    worst = 0.0
    for pt in points:
        x_pkg = complex(phi(pt))
        x_orc = quadratic_formula_root(pt, near=x_pkg)
        if abs(x_pkg - x_orc) > 1e-10 * max(1.0, abs(x_orc)):
            failures.append(f"root value mismatch at {pt}")
        for j in range(3):
            multi = tuple(1 if i == j else 0 for i in range(3))
            num = differentiate(phi, pt, multi, spec.settings, cache).value
            ref = quadratic_root_derivative(pt, x_orc, j)
            worst = max(worst, abs(num - ref) / abs(ref))
        ref2 = quadratic_root_second_mixed(pt, x_orc)
        for multi in ((1, 0, 1), (0, 2, 0)):
            num = differentiate(phi, pt, multi, spec.settings, cache).value
            worst = max(worst, abs(num - ref2) / abs(ref2))
    if worst >= 1e-6:
        failures.append(f"formula-oracle derivative rel {worst:.2e} >= 1e-6")

    elapsed = time.perf_counter() - t0
    _over_budget(failures, elapsed, 5.0)
    _report(
        capsys,
        1,
        "quadratic root annihilated, derivatives match the formula",
        failures,
        f"max rel {rep.max_relative:.1e}, oracle rel {worst:.1e}",
        elapsed,
        5.0,
    )


def test_criterion_2_gauss_verifies_and_mixed_pair_agrees(capsys):
    # the gauss segment, and the torus periods of the Hesse cubic pencil and
    # of a bilinear f^(1/3) (the m = 2 branch comb) against their oracles
    t0 = time.perf_counter()
    failures = []
    max_rel = pair_max = oracle_max = 0.0
    for name in ("gauss", "hesse_cubic", "torus_coefficient"):
        spec = builtin(name)
        system = build_system(spec)
        phi = PeriodFunction(spec)
        cache = DerivativeCache()
        points = _scenario_points(spec)
        rep = verify(system, phi, points=points, cache=cache)
        if not rep.passed or rep.has_errors:
            failures.append(f"{name}: verify failed, max relative {rep.max_relative:.2e}")
        if rep.max_relative >= 1e-6:
            failures.append(f"{name}: max relative {rep.max_relative:.2e} >= 1e-6")
        max_rel = max(max_rel, rep.max_relative)

        box = system.boxes[0]
        a0 = spec.coefficient_vector()
        d_plus = differentiate(phi, a0, box.u_plus, spec.settings, cache).value
        d_minus = differentiate(phi, a0, box.u_minus, spec.settings, cache).value
        pair_rel = abs(d_plus - d_minus) / max(abs(d_plus), abs(d_minus))
        if pair_rel >= 1e-6:
            failures.append(f"{name}: mixed-pair rel {pair_rel:.2e} >= 1e-6")
        pair_max = max(pair_max, pair_rel)

        oracle = TORUS_PERIOD_ORACLES.get(name)
        for point in [a0] + points if oracle else []:
            expect = oracle(point)
            rel = abs(cache.value(phi, point) - expect) / abs(expect)
            if rel >= 1e-10:
                failures.append(f"{name}: phi off its oracle by {rel:.2e}")
            oracle_max = max(oracle_max, rel)

    elapsed = time.perf_counter() - t0
    _over_budget(failures, elapsed, 30.0)
    _report(
        capsys,
        2,
        "gauss segment and torus periods annihilated, mixed partials agree",
        failures,
        f"max rel {max_rel:.1e}, pair rel {pair_max:.1e}, "
        f"torus oracles {oracle_max:.1e}",
        elapsed,
        30.0,
    )


def test_criterion_3_airy_verifies_and_matches_series_value(capsys):
    t0 = time.perf_counter()
    failures = []
    spec = builtin("airy")
    rep = verify(build_system(spec), PeriodFunction(spec))
    if not rep.passed or rep.has_errors:
        failures.append(f"verify failed, max relative {rep.max_relative:.2e}")
    if rep.max_relative >= 1e-6:
        failures.append(f"max relative {rep.max_relative:.2e} >= 1e-6")

    # Ai(0) from the Maclaurin series, cross-checked against the gamma form
    series = airy_ai(0.0)
    if abs(series - airy_ai0()) > 1e-14:
        failures.append("series oracle disagrees with its closed form")
    val = PeriodFunction(spec)(spec.coefficient_vector())
    value_err = abs(abs(val) - 2.0 * math.pi * series)
    if value_err >= 1e-8:
        failures.append(f"|value| vs 2*pi*Ai(0): {value_err:.2e} >= 1e-8")

    elapsed = time.perf_counter() - t0
    _over_budget(failures, elapsed, 30.0)
    _report(
        capsys,
        3,
        "airy contour annihilated, value matches the series",
        failures,
        f"max rel {rep.max_relative:.1e}, value err {value_err:.1e}",
        elapsed,
        30.0,
    )


def test_criterion_4_residue_closed_forms_and_power_sums(capsys):
    t0 = time.perf_counter()
    failures = []

    rng = np.random.default_rng(4321)
    worst_quad = 0.0
    for _ in range(10):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        val = PeriodFunction(gl_spec(a, 2.0))(np.asarray(a, dtype=complex))
        worst_quad = max(worst_quad, abs(val - 1.0 / a[2]))
    if worst_quad >= 1e-12:
        failures.append(f"quadratic closed form err {worst_quad:.2e} >= 1e-12")

    # power sums below the top degree vanish identically
    rng = np.random.default_rng(20260816)
    worst_sum = 0.0
    for _ in range(25):
        deg = int(rng.choice([3, 4]))
        a = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        for k in range(deg - 1):
            val = PeriodFunction(gl_spec(a, k + 1.0))(np.asarray(a, dtype=complex))
            worst_sum = max(worst_sum, abs(val))
    if worst_sum >= 1e-12:
        failures.append(f"vanishing power sum err {worst_sum:.2e} >= 1e-12")

    spec = builtin("gl_cubic")
    rep = verify(build_system(spec), PeriodFunction(spec))
    if not rep.passed or rep.has_errors:
        failures.append(f"verify failed, max relative {rep.max_relative:.2e}")
    if rep.max_relative >= 1e-6:
        failures.append(f"max relative {rep.max_relative:.2e} >= 1e-6")

    elapsed = time.perf_counter() - t0
    _over_budget(failures, elapsed, 10.0)
    _report(
        capsys,
        4,
        "residue sums match closed forms and are annihilated",
        failures,
        f"closed form {worst_quad:.1e}, power sums {worst_sum:.1e}, "
        f"max rel {rep.max_relative:.1e}",
        elapsed,
        10.0,
    )


def test_criterion_5_parametric_cubic_verifies(capsys):
    t0 = time.perf_counter()
    failures = []
    spec = builtin("cubic_root_parametric")
    rep = verify(build_system(spec), PeriodFunction(spec))
    if not rep.passed or rep.has_errors:
        failures.append(f"verify failed, max relative {rep.max_relative:.2e}")
    if rep.max_relative >= 1e-6:
        failures.append(f"max relative {rep.max_relative:.2e} >= 1e-6")

    elapsed = time.perf_counter() - t0
    _over_budget(failures, elapsed, 10.0)
    _report(
        capsys,
        5,
        "parametric cubic root annihilated with frozen parameter",
        failures,
        f"max rel {rep.max_relative:.1e}",
        elapsed,
        10.0,
    )


def test_criterion_6_random_support_lattices(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    n_span = 0
    for case in range(100):
        m, factors = random_scenario_structure(rng)
        mat = build_exponent_matrix(structure_spec(m, factors))
        basis = integer_kernel_basis(mat).vectors
        for u in basis:
            if any(sum(r * c for r, c in zip(row, u)) != 0 for row in mat.rows):
                failures.append(f"case {case}: basis vector {u} not in kernel")
        if len(basis) != mat.shape[1] - fraction_rank(mat.rows):
            failures.append(f"case {case}: rank identity violated")
        if mat.shape[1] <= 5:
            for u in brute_force_kernel(mat.rows, bound=2):
                if not in_integer_span(basis, u):
                    failures.append(f"case {case}: {u} outside integer span")
                n_span += 1
    if n_span < 50:
        failures.append(f"only {n_span} saturation spot-checks ran")

    elapsed = time.perf_counter() - t0
    _over_budget(failures, elapsed, 5.0)
    _report(
        capsys,
        6,
        "random support lattices have exact saturated kernels",
        failures,
        f"100 structures, {n_span} membership spot-checks",
        elapsed,
        5.0,
    )


def test_criterion_7_contour_and_branch_invariants(capsys):
    t0 = time.perf_counter()
    failures = []

    spec = builtin("residue_circle")
    residue_err = abs(PeriodFunction(spec)(np.array([1.0 + 0j])) - 2j * math.pi)
    if residue_err >= 1e-12:
        failures.append(f"unit residue err {residue_err:.2e} >= 1e-12")

    # full loop around a factor root multiplies the branch by exp(2*pi*i*lam)
    gauss = builtin("gauss")
    _, _, factor_logs, _ = transport(
        gauss, full_circle(center=2.0, radius=0.3), factors=(1,), coords=()
    )
    drift = factor_logs[1][-1] - factor_logs[1][0]
    lam = complex(gauss.factors[0].lam)
    mono_err = abs(cmath.exp(lam * drift) - cmath.exp(2j * math.pi * lam))
    if mono_err >= 1e-8:
        failures.append(f"monodromy factor err {mono_err:.2e} >= 1e-8")

    beta = builtin("beta")
    single = PeriodFunction(beta)(beta.coefficient_vector())
    split_path = Path1D(
        segments=(LineSegment(0.0, 0.3), LineSegment(0.3, 1.0)), anchor_t=1.0
    )
    split = dataclasses.replace(
        beta, cycle=CycleSpec((CycleTerm(1.0, (split_path,)),))
    )
    reparam_err = abs(PeriodFunction(split)(split.coefficient_vector()) - single)
    if reparam_err >= 1e-10:
        failures.append(f"reparameterization err {reparam_err:.2e} >= 1e-10")

    back_path = Path1D(segments=(LineSegment(1.0, 0.0),), anchor_t=0.5)
    back = dataclasses.replace(
        beta, cycle=CycleSpec((CycleTerm(1.0, (back_path,)),))
    )
    reverse_err = abs(PeriodFunction(back)(back.coefficient_vector()) + single)
    if reverse_err >= 1e-12:
        failures.append(f"orientation reversal err {reverse_err:.2e} >= 1e-12")

    elapsed = time.perf_counter() - t0
    _over_budget(failures, elapsed, 10.0)
    _report(
        capsys,
        7,
        "contour residue, monodromy, and path invariances hold",
        failures,
        f"residue {residue_err:.1e}, monodromy {mono_err:.1e}, "
        f"reparam {reparam_err:.1e}, reversal {reverse_err:.1e}",
        elapsed,
        10.0,
    )


def test_criterion_8_corrupted_eigenvalues_always_flagged(capsys):
    t0 = time.perf_counter()
    failures = []
    n_corruptions = 0
    min_flagged = float("inf")
    for name in BUILTINS:
        spec = builtin(name)
        system = build_system(spec)
        phi = PeriodFunction(spec)
        points = _scenario_points(spec, n=1)
        cache = DerivativeCache()
        base = verify(system, phi, points=points, cache=cache)
        if not base.passed or base.has_errors:
            failures.append(f"{name}: clean system failed to verify")
            continue
        # corrupted reruns reuse every cached derivative; only the
        # eigenvalue term changes
        for row in range(len(system.eulers)):
            bad = verify(
                corrupt_eigenvalue(system, row), phi, points=points, cache=cache
            )
            n_corruptions += 1
            if bad.passed or bad.max_relative <= 1e-2:
                failures.append(
                    f"{name}: euler row {row} shifted by 1 not flagged "
                    f"(max relative {bad.max_relative:.2e})"
                )
            min_flagged = min(min_flagged, bad.max_relative)

    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        8,
        "every single-eigenvalue corruption is flagged",
        failures,
        f"{len(BUILTINS)} scenarios, {n_corruptions} corruptions, "
        f"min flagged residual {min_flagged:.3f}",
        elapsed,
    )
