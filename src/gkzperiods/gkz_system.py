"""A-hypergeometric annihilator systems: Euler and box operators.

Given a scenario, assemble its exponent matrix, pick the eigenvalue for
each Euler operator from the function kind, and enumerate box operators
from the integer kernel lattice.  Also provides a plain-text rendering of
the system, which the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .scenario import ScenarioError, ScenarioSpec
from .support_lattice import (
    BoxOperator,
    ExponentMatrix,
    LatticeBasis,
    RowLabel,
    build_exponent_matrix,
    enumerate_box_vectors,
    integer_kernel_basis,
)

__all__ = [
    "EulerOperator",
    "BoxOperator",
    "GkzSystem",
    "build_system",
    "render_system",
    "corrupt_eigenvalue",
]


@dataclass(frozen=True)
class EulerOperator:
    """First-order operator sum_v w_v a_v d/da_v - kappa."""

    weights: tuple[int, ...]
    eigenvalue: complex
    label: RowLabel


@dataclass(frozen=True)
class GkzSystem:
    """Exponent matrix plus the operators it generates for one scenario."""

    scenario: ScenarioSpec
    matrix: ExponentMatrix
    kernel: LatticeBasis
    parameters: tuple[complex, ...]
    eulers: tuple[EulerOperator, ...]
    boxes: tuple[BoxOperator, ...]
    warnings: tuple[str, ...]


def _euler_eigenvalue(spec: ScenarioSpec, label: RowLabel) -> complex:
    kind_label, idx = label
    if spec.function_kind == "period":
        if kind_label == "indicator":
            lam = spec.factors[idx - 1].lam
            assert lam is not None
            return complex(lam)
        return -complex(spec.twist_beta[idx - 1])
    if spec.function_kind == "root":
        if kind_label == "indicator":
            return 0.0 + 0.0j
        return -1.0 + 0.0j
    # gl_residue: integrand x^(beta-1) / f, so the factor carries weight -1.
    if kind_label == "indicator":
        return -1.0 + 0.0j
    return -complex(spec.twist_beta[idx - 1])


def build_system(spec: ScenarioSpec) -> GkzSystem:
    """Build the full annihilator system for a scenario.

    Every matrix row gets an eigenvalue slot in ``parameters``.  For the
    parametric root kind, exponent rows of frozen variables stay in the
    matrix (they shape the kernel) but contribute no Euler operator, since
    the frozen coordinate ties otherwise-independent coefficients together.
    """
    matrix = build_exponent_matrix(spec)
    kernel = integer_kernel_basis(matrix)
    enumeration = enumerate_box_vectors(kernel, spec.settings.degree_bound)

    frozen_vars = {idx for idx, _ in spec.frozen}
    parameters: list[complex] = []
    eulers: list[EulerOperator] = []
    for row, label in zip(matrix.rows, matrix.row_labels):
        kappa = _euler_eigenvalue(spec, label)
        parameters.append(kappa)
        if label[0] == "exponent" and label[1] in frozen_vars:
            continue
        eulers.append(EulerOperator(weights=row, eigenvalue=kappa, label=label))

    return GkzSystem(
        scenario=spec,
        matrix=matrix,
        kernel=kernel,
        parameters=tuple(parameters),
        eulers=tuple(eulers),
        boxes=enumeration.vectors,
        warnings=enumeration.warnings,
    )


def _fmt_param(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-14:
        if z.real == int(z.real):
            return str(int(z.real))
        return repr(z.real)
    return f"{z.real!r}{z.imag:+}j"


def _monomial_text(mono: tuple[int, ...]) -> str:
    return "(" + ",".join(str(e) for e in mono) + ")"


def _diff_text(column_labels, multi: tuple[int, ...]) -> str:
    parts = []
    for (fac, mono), q in zip(column_labels, multi):
        if q == 0:
            continue
        base = f"d[{fac}]{_monomial_text(mono)}"
        parts.append(base if q == 1 else f"{base}^{q}")
    return "*".join(parts) if parts else "1"


def render_system(system: GkzSystem) -> str:
    """Human-readable listing: columns, matrix, parameters, operators."""
    lines: list[str] = []
    cols = system.matrix.column_labels
    lines.append(
        "columns: "
        + "  ".join(f"a[{fac}]{_monomial_text(mono)}" for fac, mono in cols)
    )
    lines.append("exponent matrix:")
    width = max(
        (len(str(x)) for row in system.matrix.rows for x in row), default=1
    )
    for row, label in zip(system.matrix.rows, system.matrix.row_labels):
        tag = f"{label[0]}({label[1]})"
        body = " ".join(f"{x:>{width}}" for x in row)
        lines.append(f"  {tag:<14}| {body}")
    if not any(lbl[0] == "indicator" for lbl in system.matrix.row_labels):
        lines.append("indicator rows: none (exp factor)")
    lines.append(
        "parameters: ("
        + ", ".join(_fmt_param(p) for p in system.parameters)
        + ")"
    )
    for op in system.eulers:
        terms = " + ".join(
            f"{w}*theta[{k}]" for k, w in enumerate(op.weights) if w != 0
        )
        lines.append(
            f"euler {op.label[0]}({op.label[1]}): {terms} = {_fmt_param(op.eigenvalue)}"
        )
    if system.kernel.vectors:
        for v in system.kernel.vectors:
            lines.append("kernel basis: (" + ", ".join(str(x) for x in v) + ")")
    else:
        lines.append("kernel basis: none")
    if system.boxes:
        for op in system.boxes:
            lines.append(
                "box: "
                + _diff_text(cols, op.u_plus)
                + " - "
                + _diff_text(cols, op.u_minus)
            )
    else:
        lines.append("boxes: none")
    for w in system.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def corrupt_eigenvalue(system: GkzSystem, row: int, delta: complex = 1.0) -> GkzSystem:
    """Return a copy with one Euler eigenvalue shifted by delta.

    ``row`` indexes the Euler operator list (0-based).  Used to confirm the
    verifier actually rejects wrong parameters.
    """
    if not 0 <= row < len(system.eulers):
        raise ScenarioError(
            "corrupt", f"euler row {row} out of range 0..{len(system.eulers) - 1}"
        )
    target = system.eulers[row]
    bumped = replace(target, eigenvalue=target.eigenvalue + delta)
    eulers = tuple(
        bumped if k == row else op for k, op in enumerate(system.eulers)
    )
    params = list(system.parameters)
    row_pos = system.matrix.row_labels.index(target.label)
    params[row_pos] = bumped.eigenvalue
    return replace(system, eulers=eulers, parameters=tuple(params))
