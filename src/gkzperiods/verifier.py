"""Numerical verification that every operator annihilates the function.

Derivatives of the holomorphic coefficient function come from Cauchy
quadrature on one-dimensional circles (trapezoid rule) along directions
whose coordinates carry root-of-unity phases; a discrete Fourier average
over the directions isolates each mixed partial.  A halved-radius rerun
is the built-in diagnostic.  Residuals are normalized by the sum of the
operator's term magnitudes so they stay meaningful where the function is
small.

verify builds one sample table per point (``_stencils.SampleTable``)
before it evaluates anything: every stencil its operators need there,
each derivative at both radii, with the centre, in one array whose rows
not cached yet go to ``phi.batch`` in one call.  The operator loop then
reads its derivatives from that table; every residual and every hit and
miss count is that of summing the circles sample by sample.  If the
centre fails, the stencil samples evaluated with it are discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stencils import DerivativeCache, SampleTable
from .analytic_paths import EvaluationError
from .gkz_system import BoxOperator, EulerOperator, GkzSystem
from .scenario import EvalSettings

__all__ = [
    "DerivativeOrderError",
    "DerivativeCache",
    "DerivResult",
    "differentiate",
    "OperatorApplication",
    "apply_operator",
    "ResidualCell",
    "ResidualReport",
    "verification_points",
    "verify",
]

_MAX_ORDER = 6
# below this fraction of |phi| the operator's own scale is numerically zero
_DEGENERATE_FRACTION = 1e-8
# full- and half-radius derivatives disagreeing by more than this warn
_AGREEMENT_TOL = 1e-4


class DerivativeOrderError(EvaluationError, ValueError):
    """A derivative above the supported total order was requested."""


@dataclass(frozen=True)
class DerivResult:
    value: complex
    diagnostic: float
    warnings: tuple = ()


def differentiate(
    phi,
    a: np.ndarray,
    multi,
    settings: EvalSettings,
    cache: DerivativeCache | None = None,
) -> DerivResult:
    """Mixed partial derivative of phi at a for the given multi-index.

    One-dimensional Cauchy circles along root-of-unity directions give
    the derivative (see _stencils._directions): one coordinate circle for a
    single-coordinate derivative, prod m_i direction circles for a mixed
    one.  It is exact for polynomials of total degree below the node
    count; the same derivative recomputed at half radius is returned as an
    agreement diagnostic, with a warning when it exceeds _AGREEMENT_TOL.
    Coordinate v of a direction has modulus settings.radius_factor *
    max(1, |a_v|), the only setting read here, and each circle has 16
    nodes.  Both radii's samples come from the cache's sample table when
    it holds this derivative, else from a table of their own, sent to
    ``phi.batch`` in one call.  Orders above _MAX_ORDER raise
    DerivativeOrderError, which verify() reports as an error cell.
    """
    if cache is None:
        cache = DerivativeCache()
    a = np.asarray(a, dtype=complex)
    multi = tuple(int(q) for q in multi)
    if len(multi) != a.size:
        raise ValueError(f"multi-index length {len(multi)} != dimension {a.size}")
    if any(q < 0 for q in multi):
        raise ValueError("multi-index entries must be nonnegative")
    order = sum(multi)
    if order > _MAX_ORDER:
        raise DerivativeOrderError(
            f"derivative order {order} exceeds cap {_MAX_ORDER}"
        )
    if order == 0:
        v = cache.value(phi, a)
        return DerivResult(value=v, diagnostic=0.0)

    key = (a.tobytes(), multi, settings.radius_factor)
    if key in cache.derivs:
        return cache.derivs[key]

    warnings: list[str] = []
    table = cache.table
    if (table is None or table.point != (key[0], settings.radius_factor)
            or multi not in table.slots):
        table = SampleTable(phi, a, [multi], settings, cache)
    val, half = table.circle_sums(phi, multi, cache)
    # rounding noise scale at the smaller radius: prod q!/rho^q * eps * |phi|
    # (the direction average is unitary and adds no amplification)
    amp = 1.0
    for v, q in enumerate(multi):
        if q > 0:
            amp *= math.factorial(q) / (table.radii[v] / 2.0) ** q
    # a derivative whose both estimates sit at the noise floor is zero, not
    # disagreeing; measure agreement against value, halved value, and floor
    # (floor = 1e-10 * amplified rounding scale, >= 1e4 x the eps-level noise
    # so vanishing derivatives stay comfortably below _AGREEMENT_TOL)
    floor = amp * max(abs(cache.value(phi, a)), 1e-300) * 1e-10
    diag = float(abs(val - half) / max(abs(val), abs(half), floor))
    if diag > _AGREEMENT_TOL:
        warnings.append(
            f"derivative d^{multi} agreement {diag:.2e} above "
            f"{_AGREEMENT_TOL:g}; value may be unreliable"
        )
    result = DerivResult(value=val, diagnostic=diag, warnings=tuple(warnings))
    cache.derivs[key] = result
    return result


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class OperatorApplication:
    raw: complex
    normalization: float
    relative: float
    diagnostic: float
    degenerate: bool
    warnings: tuple = ()


def apply_operator(
    op,
    phi,
    a: np.ndarray,
    settings: EvalSettings,
    cache: DerivativeCache | None = None,
) -> OperatorApplication:
    """Apply one annihilator to phi at a and normalize the residual.

    Euler: sum_v w_v a_v d_v(phi) - kappa phi, normalized by the sum of the
    term magnitudes.  Box: d^(u+) phi - d^(u-) phi, normalized by the two
    magnitudes.  If the normalization is numerically zero relative to |phi|
    the cell is flagged degenerate instead of dividing by noise.
    """
    if cache is None:
        cache = DerivativeCache()
    a = np.asarray(a, dtype=complex)
    n = a.size
    phi0 = cache.value(phi, a)
    warnings: list[str] = []
    diag = 0.0
    if isinstance(op, EulerOperator):
        raw = -complex(op.eigenvalue) * phi0
        norm = abs(complex(op.eigenvalue) * phi0)
        for v, w in enumerate(op.weights):
            if w == 0:
                continue
            multi = tuple(1 if u == v else 0 for u in range(n))
            d = differentiate(phi, a, multi, settings, cache)
            term = w * a[v] * d.value
            raw += term
            norm += abs(term)
            diag = max(diag, d.diagnostic)
            warnings.extend(d.warnings)
    elif isinstance(op, BoxOperator):
        dplus = differentiate(phi, a, op.u_plus, settings, cache)
        dminus = differentiate(phi, a, op.u_minus, settings, cache)
        raw = dplus.value - dminus.value
        norm = abs(dplus.value) + abs(dminus.value)
        diag = max(dplus.diagnostic, dminus.diagnostic)
        warnings.extend(dplus.warnings)
        warnings.extend(dminus.warnings)
    else:
        raise TypeError(f"not an operator: {type(op).__name__}")
    raw = complex(raw)
    norm = float(norm)
    diag = float(diag)
    scale = abs(phi0) if phi0 != 0 else 1.0
    degenerate = bool(norm < _DEGENERATE_FRACTION * scale)
    relative = 0.0 if degenerate else abs(raw) / norm
    return OperatorApplication(
        raw=raw,
        normalization=norm,
        relative=relative,
        diagnostic=diag,
        degenerate=degenerate,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class ResidualCell:
    operator: str
    point_index: int
    raw: complex = 0.0
    normalization: float = 0.0
    relative: float = 0.0
    diagnostic: float = 0.0
    degenerate: bool = False
    error: str | None = None
    warnings: tuple = ()


@dataclass(frozen=True)
class ResidualReport:
    cells: tuple
    points: tuple
    phi_values: tuple
    threshold: float
    max_relative: float
    passed: bool
    has_errors: bool


def verification_points(
    base: np.ndarray, n: int, seed: int, rel: float = 0.2
) -> list[np.ndarray]:
    """Seeded random perturbations of the base coefficients.

    Per coordinate the offset magnitude is uniform in [rel/2, rel] times
    the coordinate scale (|a_v|, falling back to 1 for zero coordinates),
    with uniform phase.
    """
    base = np.asarray(base, dtype=complex)
    rng = np.random.default_rng(seed)
    scale = np.where(np.abs(base) > 1e-12, np.abs(base), 1.0)
    points = []
    for _ in range(n):
        r = rng.uniform(rel / 2.0, rel, size=base.size)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=base.size)
        points.append(base + scale * r * np.exp(1j * phase))
    return points


def _point_multis(a: np.ndarray, operators, settings, cache) -> list:
    """The derivatives verify's sample table at a holds, in operator order.

    They are the first-order ones of the Euler rows and u+ and u- of every
    box, less those already finished, of order 0 (the centre) or above
    _MAX_ORDER.
    """
    n = a.size
    multis: dict = {}
    for op in operators:
        if isinstance(op, EulerOperator):
            for v, w in enumerate(op.weights):
                if w != 0:
                    multis[tuple(1 if u == v else 0 for u in range(n))] = None
        elif isinstance(op, BoxOperator):
            multis[tuple(op.u_plus)] = None
            multis[tuple(op.u_minus)] = None
    return [
        multi for multi in multis
        if len(multi) == n
        and min(multi) >= 0
        and 0 < sum(multi) <= _MAX_ORDER
        and (a.tobytes(), multi, settings.radius_factor) not in cache.derivs
    ]


def _operator_label(op) -> str:
    if isinstance(op, EulerOperator):
        return f"euler {op.label[0]}({op.label[1]})"
    return f"box {tuple(p - m for p, m in zip(op.u_plus, op.u_minus))}"


def verify(
    system: GkzSystem,
    phi,
    points=None,
    cache: DerivativeCache | None = None,
) -> ResidualReport:
    """Residuals of every operator at every point, assembled deterministically.

    Settings come from the system's scenario.  Evaluation errors mark
    their (operator, point) cell and the run keeps going; the report fails
    if any non-degenerate relative residual crosses the threshold, and
    flags errors separately.
    """
    spec = system.scenario
    settings = spec.settings
    if points is None:
        points = verification_points(
            spec.coefficient_vector(),
            settings.points,
            settings.seed,
            settings.point_rel,
        )
    points = [np.asarray(p, dtype=complex) for p in points]
    if not points:
        raise ValueError("verify needs at least one point")
    operators = list(system.eulers) + list(system.boxes)
    if cache is None:
        cache = DerivativeCache()

    cells: list[ResidualCell] = []
    phi_values: list = []
    for k, pt in enumerate(points):
        # the centre and every stencil the point needs, in one phi.batch
        multis = _point_multis(pt, operators, settings, cache)
        if multis:
            cache.table = SampleTable(phi, pt, multis, settings, cache, centre=True)
        else:
            cache.prefetch(phi, [pt])
        try:
            phi_values.append(cache.value(phi, pt))
            phi_err = None
        except EvaluationError as exc:
            phi_values.append(None)
            phi_err = f"{type(exc).__name__}: {exc}"
        for op in operators:
            label = _operator_label(op)
            if phi_err is not None:
                cells.append(
                    ResidualCell(operator=label, point_index=k, error=phi_err)
                )
                continue
            try:
                app = apply_operator(op, phi, pt, settings, cache)
            except EvaluationError as exc:
                cells.append(
                    ResidualCell(
                        operator=label,
                        point_index=k,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            cells.append(
                ResidualCell(
                    operator=label,
                    point_index=k,
                    raw=app.raw,
                    normalization=app.normalization,
                    relative=app.relative,
                    diagnostic=app.diagnostic,
                    degenerate=app.degenerate,
                    warnings=app.warnings,
                )
            )
        cache.table = None

    usable = [
        c.relative for c in cells if c.error is None and not c.degenerate
    ]
    max_rel = max(usable) if usable else 0.0
    has_errors = any(c.error is not None for c in cells)
    passed = (not has_errors) and max_rel < settings.threshold
    return ResidualReport(
        cells=tuple(cells),
        points=tuple(tuple(map(complex, p)) for p in points),
        phi_values=tuple(phi_values),
        threshold=settings.threshold,
        max_relative=max_rel,
        passed=passed,
        has_errors=has_errors,
    )
