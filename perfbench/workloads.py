"""Workloads of the verification benchmark: inputs, one pass, and the gate.

A workload is a named list of inputs plus the pass that consumes them.
Inputs are made once per run from the workload seed (set-up); a pass is the
timed unit and touches only the stable public surface of ``gkzperiods``:
``load_scenario``/``loads_scenario``, ``build_system``, ``PeriodFunction``
and ``verify(system, phi)``.  Everything that checks results runs outside
the timed pass.

Functions the tracer wraps (``verify_scenario``, ``build_support``) are
looked up through this module at call time, so a traced run sees them.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import gkzperiods

# Scenarios verified by each verifying workload, at their own settings.
# pochhammer (about 25 s) and cubic_root_parametric (about 10 s) are left
# out: a single verification of either fills most of a run, so a run would
# time one or two passes and its median would be as noisy as one pass.
PERIOD_SCENARIOS = ("gauss", "airy", "beta", "residue_circle")
ROOT_SCENARIOS = ("quadratic_root", "gl_cubic", "gl_quadratic")
# Kernel ranks of the generated univariate supports; the box search costs
# (2d+1)^rank, so rank 8 dominates a pass.
SUPPORT_RANKS = (4, 5, 6, 7, 8)
SUPPORT_DEGREE_BOUND = 2
# Largest extra degree of a generated support over the dense one (gaps).
SUPPORT_MAX_GAPS = 3

# Independent values of phi at the base coefficients (gate tolerance 1e-10).
GAUSS_REFERENCE = 1.0672908935636424
BASE_VALUE_TOL = 1e-10
# A verification with one Euler eigenvalue shifted by 1 must fail by this much.
CORRUPT_FLOOR = 0.01


class CountingPhi:
    """phi with a count of the coefficient points it was evaluated at.

    Points, not calls, are counted, so a batched entry point (``batch`` on
    an (N, n) array) counts N.  Other attributes pass through to phi.
    """

    def __init__(self, phi):
        self.phi = phi
        self.points = 0

    def __call__(self, a):
        self.points += 1
        return self.phi(a)

    def __getattr__(self, name):
        attr = getattr(self.phi, name)
        if name != "batch":
            return attr

        def batch(rows, *args, **kwargs):
            self.points += len(rows)
            return attr(rows, *args, **kwargs)

        return batch


@dataclass
class Outcome:
    """What one verification (or one system build) produced, unchecked."""

    name: str
    attempted: int
    failed_cells: int = 0
    error: str | None = None
    error_types: tuple = ()
    phi_points: int = 0
    report: object = None
    system: object = None


@dataclass
class Workload:
    name: str
    kind: str  # "verify" or "build"
    scenarios: tuple = ()
    ranks: tuple = ()
    oracle_names: tuple = ()
    corrupt_name: str | None = None
    inputs: list = field(default_factory=list)


def make_workload(name: str) -> Workload:
    if name == "period_quadrature":
        return Workload(name, "verify", scenarios=PERIOD_SCENARIOS,
                        oracle_names=("gauss", "beta", "residue_circle"),
                        corrupt_name="residue_circle")
    if name == "root_residue":
        return Workload(name, "verify", scenarios=ROOT_SCENARIOS,
                        oracle_names=("quadratic_root", "gl_quadratic"),
                        corrupt_name="gl_quadratic")
    if name == "system_build":
        return Workload(name, "build", ranks=SUPPORT_RANKS)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# set-up: inputs from the seed


def seeded_scenario(name: str, seed: int):
    """A shipped scenario whose verification-point seed is replaced."""
    spec = gkzperiods.load_scenario(name)
    return replace(spec, settings=replace(spec.settings, seed=seed))


def support_document(rank: int, rng: np.random.Generator) -> tuple[dict, tuple]:
    """A univariate residue scenario on rank + 2 random exponents.

    The exponent matrix has an all-ones row and the exponent row, so the
    kernel rank is the number of monomials minus 2.
    """
    n = rank + 2
    degree = int(rng.integers(n - 1, n + SUPPORT_MAX_GAPS))
    inner = sorted(int(e) for e in rng.choice(np.arange(1, degree), n - 2, replace=False))
    exponents = (0, *inner, degree)
    coeffs = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    doc = {
        "schema": "gkz-scenario@1",
        "name": f"support_rank{rank}",
        "m": 1,
        "factors": [{
            "kind": "power",
            "monomials": [[e] for e in exponents],
            "coefficients": [[float(c.real), float(c.imag)] for c in coeffs],
        }],
        "twist_beta": [[0.5, 0.0]],
        "function": {"kind": "gl_residue"},
        "settings": {"degree_bound": SUPPORT_DEGREE_BOUND},
    }
    return doc, exponents


def prepare(workload: Workload, seed: int) -> Workload:
    """Load, validate and generate the workload's inputs for this seed."""
    if workload.kind == "verify":
        workload.inputs = [(n, seeded_scenario(n, seed)) for n in workload.scenarios]
    else:
        rng = np.random.default_rng(seed)
        inputs = []
        for rank in workload.ranks:
            doc, exponents = support_document(rank, rng)
            spec = gkzperiods.loads_scenario(json.dumps(doc), name=doc["name"])
            inputs.append((doc["name"], spec, exponents))
        workload.inputs = inputs
    return workload


# ---------------------------------------------------------------------------
# the timed pass


def _failure(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def verify_scenario(name: str, spec) -> Outcome:
    """Build and verify one scenario; failures are recorded, not raised."""
    phi = CountingPhi(gkzperiods.PeriodFunction(spec))
    system = None
    try:
        system = gkzperiods.build_system(spec)
        report = gkzperiods.verify(system, phi)
    except Exception as exc:  # a failed verification is counted, the pass goes on
        ops = len(system.eulers) + len(system.boxes) if system is not None else 0
        return Outcome(name, attempted=max(1, ops * spec.settings.points),
                       error=_failure(exc), error_types=(type(exc).__name__,),
                       phi_points=phi.points)
    bad = [c for c in report.cells if c.error is not None]
    return Outcome(
        name,
        attempted=len(report.cells),
        failed_cells=len(bad),
        error_types=tuple(c.error.split(":", 1)[0] for c in bad),
        phi_points=phi.points,
        report=report,
    )


def build_support(name: str, spec) -> Outcome:
    """Build the system of one generated support."""
    try:
        system = gkzperiods.build_system(spec)
    except Exception as exc:  # a failed build is counted, the pass goes on
        return Outcome(name, attempted=1, error=_failure(exc),
                       error_types=(type(exc).__name__,))
    return Outcome(name, attempted=1, system=system)


def run_pass(workload: Workload) -> list[Outcome]:
    module = sys.modules[__name__]
    if workload.kind == "verify":
        return [module.verify_scenario(n, spec) for n, spec in workload.inputs]
    return [module.build_support(n, spec) for n, spec, _ in workload.inputs]


# ---------------------------------------------------------------------------
# the correctness gate


def hermite_rows(rows) -> list[list[int]]:
    """Row Hermite normal form of the integer lattice spanned by rows."""
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    out = []
    for col in range(ncols):
        live = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in range(col, ncols):
                    r[j] -= q * pivot[j]
            rest.extend(r for r in live[1:] if r[col] == 0 and any(r))
            live = [pivot] + [r for r in live[1:] if r[col] != 0]
        if live:
            pivot = live[0]
            if pivot[col] < 0:
                pivot = [-x for x in pivot]
            for r in out:
                q = r[col] // pivot[col]
                for j in range(col, ncols):
                    r[j] -= q * pivot[j]
            out.append(pivot)
        work = rest
    return out


def box_vector(op) -> tuple[int, ...]:
    return tuple(p - m for p, m in zip(op.u_plus, op.u_minus))


def check_support_system(system, exponents) -> list[str]:
    """Boxes lie in ker A exactly and span the same lattice as the kernel."""
    n = len(exponents)
    rows = ([1] * n, list(exponents))
    problems = []
    boxes = [box_vector(op) for op in system.boxes]
    for u in boxes:
        if any(sum(a * x for a, x in zip(row, u)) for row in rows):
            problems.append(f"box {u} is not in the kernel of A")
    kernel = gkzperiods.integer_kernel_basis(system.matrix).vectors
    for v in kernel:
        if any(sum(a * x for a, x in zip(row, v)) for row in rows):
            problems.append(f"kernel vector {v} is not in the kernel of A")
    if len(kernel) != n - 2:
        problems.append(f"kernel rank {len(kernel)} != {n - 2}")
    if hermite_rows(boxes) != hermite_rows(kernel):
        problems.append("boxes do not span the kernel lattice")
    return problems


def base_reference(name: str, spec) -> complex:
    """phi at the base coefficients from a closed form or a frozen value."""
    a = spec.coefficient_vector()
    if name == "gauss":
        return GAUSS_REFERENCE
    if name == "beta":
        # int_0^r x^(b-1) (a0 + a1 x)^lam dx = r^b a0^lam B(b, lam + 1), r = -a0/a1
        lam = complex(spec.factors[0].lam).real
        b = complex(spec.twist_beta[0]).real
        a0, a1 = a[0].real, a[1].real
        r = -a0 / a1
        beta_fn = math.gamma(b) * math.gamma(lam + 1) / math.gamma(b + lam + 1)
        return r**b * a0**lam * beta_fn
    if name == "residue_circle":
        return 2j * math.pi / a[0]
    if name == "quadratic_root":
        a0, a1, a2 = a
        disc = cmath.sqrt(a1 * a1 - 4 * a0 * a2)
        roots = ((-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2))
        return min(roots, key=lambda x: abs(x - spec.base_root))
    if name == "gl_quadratic":
        # sum over roots of r / f'(r) is minus the residue at infinity of x/f
        if complex(spec.twist_beta[0]) != 2:
            raise ValueError("the gl_quadratic closed form needs beta = 2")
        return 1.0 / a[2]
    raise ValueError(f"no reference value for {name!r}")


def check_base_values(workload: Workload) -> list[str]:
    problems = []
    specs = dict(workload.inputs)
    for name in workload.oracle_names:
        spec = specs[name]
        try:
            got = complex(gkzperiods.PeriodFunction(spec)(spec.coefficient_vector()))
        except Exception as exc:  # reported by the gate
            problems.append(f"{name}: phi(base) raised {_failure(exc)}")
            continue
        want = complex(base_reference(name, spec))
        if abs(got - want) > BASE_VALUE_TOL * max(1.0, abs(want)):
            problems.append(f"{name}: phi(base) = {got!r}, expected {want!r}")
    return problems


def check_corruption_caught(workload: Workload) -> list[str]:
    """One Euler eigenvalue shifted by 1 must make the verification FAIL."""
    spec = dict(workload.inputs)[workload.corrupt_name]
    try:
        system = gkzperiods.corrupt_eigenvalue(gkzperiods.build_system(spec), 0)
        report = gkzperiods.verify(system, gkzperiods.PeriodFunction(spec))
    except Exception as exc:  # reported by the gate
        return [f"{workload.corrupt_name}: corrupted verification raised {_failure(exc)}"]
    if report.passed or not report.max_relative > CORRUPT_FLOOR:
        return [f"{workload.corrupt_name}: corrupted system not flagged "
                f"(max residual {report.max_relative:.3e})"]
    return []


def check_outcomes(workload: Workload, outcomes: list[Outcome]) -> list[str]:
    """Every verification PASSes with no error cell; every build is sound."""
    problems = []
    exponents = {n: e for n, _, e in workload.inputs} if workload.kind == "build" else {}
    for o in outcomes:
        if o.error is not None:
            problems.append(f"{o.name}: {o.error}")
        elif workload.kind == "verify":
            if o.failed_cells:
                problems.append(f"{o.name}: {o.failed_cells} error cells")
            if not o.report.passed:
                problems.append(f"{o.name}: FAIL, max residual "
                                f"{o.report.max_relative:.3e}")
        else:
            problems.extend(f"{o.name}: {p}"
                            for p in check_support_system(o.system, exponents[o.name]))
    return problems


def residual_margin(outcomes: list[Outcome]) -> float:
    """min over verifications of log10(threshold / max relative residual).

    0 when nothing was verified (the system_build workload).
    """
    margins = [
        math.log10(o.report.threshold / max(o.report.max_relative, 1e-300))
        for o in outcomes if o.report is not None
    ]
    return min(margins) if margins else 0.0
