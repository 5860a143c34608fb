"""Numerical verification that every operator annihilates the function.

Derivatives of the holomorphic coefficient function come from Cauchy
quadrature on one-dimensional circles (trapezoid rule) along directions
whose coordinates carry root-of-unity phases; a discrete Fourier average
over the directions isolates each mixed partial.  A halved-radius rerun
is the built-in diagnostic.  Residuals are normalized by the sum of the
operator's term magnitudes so they stay meaningful where the function is
small.

Every derivative is made by ``_derive``: the points that still need
the same derivatives form a group, one stacked sample table
(``_stencils.SampleTable``) per group holds its points and both radii's
stencils of those derivatives at each, the rows of every table (less
each point at which phi is already known) go to phi in one batch call,
and each derivative, or the error of a sample it needs, is stored in the
cache with phi at its point.  Which samples a derivative reads depends
on the derivatives asked for with it: a first derivative reads the
circles of a mixed one of the same call where one isolates it, so its
value moves by rounding with the operator set, though never with the
points or with what the cache already holds.  A derivative whose circle
sums are not finite is stored as a NonFiniteDerivativeError, and one
whose stencil samples no circle, as a radius below a coordinate's ulp
makes it, as a FrozenStencilError.  ``_derivatives`` names the
derivatives an operator applies; verify asks for all of them at all its
points at once, so it sends one batch per run, and the residuals then
read them straight from the cache.
"""

from __future__ import annotations

import cmath
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
    "FrozenStencilError",
    "NonFiniteDerivativeError",
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


class NonFiniteDerivativeError(EvaluationError, ArithmeticError):
    """A derivative's full- or half-radius circle sum is not finite, or a
    radius power overflows: the radii are too small or too large for
    floating point."""


class FrozenStencilError(EvaluationError, ArithmeticError):
    """A derivative's full- or half-radius stencil leaves the real or
    imaginary part of a coordinate it samples at the point in every row:
    the radius is below that part's ulp, so the stencil samples no circle
    and its sum is rounding noise."""


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
    one.  (Inside verify, a first derivative may read a mixed one's
    circles instead, see _stencils._direction_sets; a derivative cached
    there keeps that value.)  It is exact for polynomials of total degree below the node
    count; the same derivative recomputed at half radius is returned as an
    agreement diagnostic, with a warning when it exceeds _AGREEMENT_TOL.
    Coordinate v of a direction has modulus settings.radius_factor *
    max(1, |a_v|), the only setting read here, and each circle has 16
    nodes.  A derivative not in the cache is made by ``_derive`` at the
    one point a, whose batch holds both radii's samples and a, unless
    phi(a) is cached; a failing sample's error is cached and raised again,
    and so is a NonFiniteDerivativeError for circle sums that are not
    finite.  Orders above _MAX_ORDER raise DerivativeOrderError, which
    verify() reports as an error cell.
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
        cache.hits += 1
    else:
        _derive(phi, [a], [multi], settings, cache)
    result = cache.derivs[key]
    if isinstance(result, EvaluationError):
        raise result.with_traceback(None)
    return result


def _derive(phi, points: list, multis: list, settings: EvalSettings,
            cache: DerivativeCache) -> None:
    """Store d^multi phi at each point for every multi in cache.derivs, and
    phi at each point in cache.values, from one cache.evaluate call.

    The distinct points are grouped by the multis they still need (those
    of order 0 or above _MAX_ORDER, repeated or already finished are
    skipped), and each group gets one stacked sample table, on which
    every derivative reads the direction set that all of multis give it,
    whatever its group still needs.  The rows of all tables, less each
    point whose phi is cached, go to phi in one batch, and each table
    finishes on its share of the values.  A derivative whose samples and
    point all have values gets its DerivResult, or a
    NonFiniteDerivativeError if a circle sum is not finite, or a
    FrozenStencilError if a stencil samples no circle; else its entry is
    the error of its first failing sample in summation order (full radius
    first), or else the error at its point.
    """
    radius = settings.radius_factor
    multis = [m for m in dict.fromkeys(multis) if 0 < sum(m) <= _MAX_ORDER]
    groups: dict = {}
    for point, a in {p.tobytes(): p for p in points}.items():
        todo = tuple(m for m in multis if (point, m, radius) not in cache.derivs)
        if todo or point not in cache.values:
            groups.setdefault(todo, []).append((point, a))
    if not groups:
        return
    jobs, batch = [], []
    for todo, members in groups.items():
        keys = [point for point, _ in members]
        stacked = np.array([a for _, a in members])
        table = SampleTable(stacked, todo, settings, multis) if todo else None
        rows = stacked[:, None] if table is None else table.rows
        send = np.ones(rows.shape[:2], dtype=bool)
        send[:, 0] = [point not in cache.values for point in keys]
        jobs.append((todo, keys, table, send))
        batch.append(rows[send])
    got = cache.evaluate(phi, np.concatenate(batch))
    try:
        flat, failed = np.array(got, dtype=complex), {}
    except TypeError:  # an entry is an error: its value is 0
        failed = {u: v for u, v in enumerate(got) if isinstance(v, EvaluationError)}
        flat = np.array([0j if u in failed else v for u, v in enumerate(got)],
                        dtype=complex)
    end = 0
    for todo, keys, table, send in jobs:
        start, end = end, end + np.count_nonzero(send)
        values = np.zeros(send.shape, dtype=complex)
        values[send] = flat[start:end]
        errors = [{} for _ in keys]
        slots = np.flatnonzero(send)
        for u, exc in failed.items():
            if start <= u < end:
                p, r = divmod(int(slots[u - start]), send.shape[1])
                errors[p][r] = exc
        for p, point in enumerate(keys):
            if not send[p, 0]:
                known = cache.values[point]
                if isinstance(known, EvaluationError):
                    errors[p][0] = known
                else:
                    values[p, 0] = known
            cache.values[point] = errors[p].get(0, complex(values[p, 0]))
        if table is None:
            continue
        sums = table.circle_sums(values).tolist()
        for point, bad, phi0, row_sums, amps, frozen in zip(
                keys, errors, values[:, 0].tolist(), sums, table.amps.tolist(),
                table.frozen().tolist()):
            for j, multi in enumerate(todo):
                cache.derivs[point, multi, radius] = _finish(
                    multi, table, j, bad, phi0, row_sums, amps[j], frozen[j])


def _finish(multi, table, j: int, errors: dict, phi0: complex, sums: list,
            amp: float, frozen: bool):
    """Derivative j of a table at one point from its circle sums, or the
    error that stands for it."""
    if errors:
        order = table.index[2 * j:2 * j + 2, :table.lengths[2 * j]]
        first = [u for u in order.ravel().tolist() + [0] if u in errors]
        if first:
            return errors[first[0]]
    val, half = sums[2 * j:2 * j + 2]
    if not (cmath.isfinite(val) and cmath.isfinite(half) and 0.0 < amp < math.inf):
        return NonFiniteDerivativeError(
            f"derivative d^{multi} is {val} at full radius and {half} at "
            f"half, with prod q!/rho^q = {amp:g} at half radius")
    if frozen:
        return FrozenStencilError(
            f"derivative d^{multi} has a stencil that leaves a part of a "
            f"coordinate at the point in every row: the radius is below "
            f"its ulp")
    # rounding noise scale at the smaller radius: amp * eps * |phi|, amp =
    # prod q!/rho^q (the direction average is unitary and adds no
    # amplification); a derivative whose both estimates sit at the noise
    # floor is zero, not disagreeing; measure agreement against value,
    # halved value, and floor (floor = 1e-10 * amplified rounding scale,
    # >= 1e4 x the eps-level noise so vanishing derivatives stay
    # comfortably below _AGREEMENT_TOL)
    floor = amp * max(abs(phi0), 1e-300) * 1e-10
    scale = max(abs(val), abs(half), floor)
    # a floor that underflows leaves two exact zeros, which agree
    diag = float(abs(val - half) / scale) if scale else 0.0
    warnings = ()
    if diag > _AGREEMENT_TOL:
        warnings = (
            f"derivative d^{multi} agreement {diag:.2e} above "
            f"{_AGREEMENT_TOL:g}; value may be unreliable",
        )
    return DerivResult(value=val, diagnostic=diag, warnings=warnings)


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


def _derivatives(op, n: int) -> list:
    """The derivatives an operator applies to phi, in the order it sums
    them: the first-order one of each nonzero Euler weight, or u+ and u-
    of a box."""
    if isinstance(op, EulerOperator):
        return [
            tuple(int(u == v) for u in range(n))
            for v, w in enumerate(op.weights) if w != 0
        ]
    if isinstance(op, BoxOperator):
        return [tuple(op.u_plus), tuple(op.u_minus)]
    raise TypeError(f"not an operator: {type(op).__name__}")


def _operator_label(op) -> str:
    if isinstance(op, EulerOperator):
        return f"euler {op.label[0]}({op.label[1]})"
    return f"box {tuple(p - m for p, m in zip(op.u_plus, op.u_minus))}"


def _residual(
    op, phi, a: np.ndarray, phi0: complex, settings: EvalSettings,
    cache: DerivativeCache, k: int,
) -> ResidualCell:
    """The cell of one operator at point k, where phi(a) is phi0.

    Euler: sum_v w_v a_v d_v(phi) - kappa phi, normalized by the sum of the
    term magnitudes.  Box: d^(u+) phi - d^(u-) phi, normalized by the two
    magnitudes.  If the normalization is numerically zero relative to |phi|
    the cell is flagged degenerate instead of dividing by noise; a failing
    derivative makes it an error cell.
    """
    label = _operator_label(op)
    multis = _derivatives(op, a.size)
    point, ds = a.tobytes(), []
    for multi in multis:
        # a finished derivative is read straight off the cache, as a hit
        d = cache.derivs.get((point, multi, settings.radius_factor))
        if d is None:
            try:
                d = differentiate(phi, a, multi, settings, cache)
            except EvaluationError as exc:
                d = exc
        else:
            cache.hits += 1
        if isinstance(d, EvaluationError):
            return ResidualCell(
                operator=label, point_index=k, error=f"{type(d).__name__}: {d}"
            )
        ds.append(d)
    if isinstance(op, EulerOperator):
        raw = -complex(op.eigenvalue) * phi0
        norm = abs(complex(op.eigenvalue) * phi0)
        for multi, d in zip(multis, ds):
            v = multi.index(1)
            term = op.weights[v] * a[v] * d.value
            raw += term
            norm += abs(term)
    else:
        plus, minus = ds
        raw = plus.value - minus.value
        norm = abs(plus.value) + abs(minus.value)
    raw = complex(raw)
    norm = float(norm)
    scale = abs(phi0) if phi0 != 0 else 1.0
    degenerate = bool(norm < _DEGENERATE_FRACTION * scale)
    return ResidualCell(
        operator=label,
        point_index=k,
        raw=raw,
        normalization=norm,
        relative=0.0 if degenerate else abs(raw) / norm,
        diagnostic=float(max([d.diagnostic for d in ds], default=0.0)),
        degenerate=degenerate,
        warnings=tuple(w for d in ds for w in d.warnings),
    )


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

    # every point and every stencil its operators need, in one batch
    multis = [m for op in operators for m in _derivatives(op, points[0].size)]
    _derive(phi, points, multis, settings, cache)
    cells: list[ResidualCell] = []
    phi_values: list = []
    for k, pt in enumerate(points):
        try:
            phi0 = cache.value(phi, pt)
            phi_err = None
        except EvaluationError as exc:
            phi0 = None
            phi_err = f"{type(exc).__name__}: {exc}"
        phi_values.append(phi0)
        for op in operators:
            if phi_err is None:
                cells.append(_residual(op, phi, pt, phi0, settings, cache, k))
            else:
                cells.append(ResidualCell(
                    operator=_operator_label(op), point_index=k, error=phi_err
                ))

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
