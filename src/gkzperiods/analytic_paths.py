"""Paths, cycles, and branch-continuous evaluation of multivalued integrands.

A cycle is a complex-weighted chain of products of planar paths.  Along a
path, each power factor f_i(x)^lam and each coordinate twist x_p^(beta-1)
with a non-integer exponent needs a continuous choice of logarithm; this
module maintains those logs by adaptive argument tracking (per step the
imaginary part moves by less than pi/2, refining by bisection otherwise).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Callable, Sequence, Union

import numpy as np

from ._roots import univariate_roots
from .scenario import ScenarioError, ScenarioSpec, is_real_integer

__all__ = [
    "EvaluationError",
    "PathSingularityError",
    "NonResolvableBranchError",
    "IntegrandOverflowError",
    "RootAnchor",
    "LineSegment",
    "ArcSegment",
    "RaySegment",
    "PathSegment",
    "Path1D",
    "CycleTerm",
    "CycleSpec",
    "ResolvedPath",
    "resolve_path",
    "tracked_requirements",
    "continued_logs",
    "integrand_values",
]

# Overflow guard for exp() of the accumulated log-integrand.
_EXP_CAP = 700.0
# Bisection depth continued_logs allows between two samples.
_MAX_BISECT_DEPTH = 40


class EvaluationError(Exception):
    """Base class for failures while evaluating a coefficient function."""


class PathSingularityError(EvaluationError):
    """A factor or coordinate vanishes on (or too close to) the path."""


class NonResolvableBranchError(EvaluationError):
    """Branch tracking could not settle within the bisection depth limit."""


class IntegrandOverflowError(EvaluationError):
    """The integrand magnitude exceeded floating-point range."""


# ---------------------------------------------------------------------------
# path geometry


@dataclass(frozen=True)
class RootAnchor:
    """Path endpoint pinned to the root of a factor nearest a reference.

    The endpoint is recomputed for every coefficient vector, so cycles whose
    boundary sits on a moving zero locus stay attached to it.
    """

    factor: int
    near: complex


# point(s) and derivative(s) of a segment take local parameters s in
# [0, 1] and return complex values, also between real endpoints


@dataclass(frozen=True)
class LineSegment:
    """From start to end; resolve_path makes a RootAnchor end each row's
    root, a (rows, 1) column."""

    start: Union[complex, RootAnchor, np.ndarray]
    end: Union[complex, RootAnchor, np.ndarray]

    def point(self, s):
        return self.start + np.multiply(s, self.end - self.start, dtype=complex)

    def derivative(self, s):
        return np.subtract(self.end, self.start, dtype=complex)


@dataclass(frozen=True)
class ArcSegment:
    center: complex
    radius: float
    angle_start: float
    angle_end: float

    def point(self, s):
        ang = self.angle_start + s * (self.angle_end - self.angle_start)
        return self.center + self.radius * np.exp(1j * np.asarray(ang))

    def derivative(self, s):
        span = self.angle_end - self.angle_start
        ang = self.angle_start + s * span
        return 1j * self.radius * span * np.exp(1j * np.asarray(ang))


@dataclass(frozen=True)
class RaySegment:
    """From start along direction, of unit length once resolved."""

    start: complex
    direction: complex
    length: float

    def point(self, s):
        return self.start + np.multiply(s, self.length * self.direction, dtype=complex)

    def derivative(self, s):
        return complex(self.length * self.direction)


PathSegment = Union[LineSegment, ArcSegment, RaySegment]


@dataclass(frozen=True)
class Path1D:
    """Chain of segments with a branch anchor at global parameter anchor_t.

    The global parameter runs over [0, nsegments], one unit per segment.
    The anchor is where the principal branch is taken; it must avoid zeros
    of every tracked factor.
    """

    segments: tuple
    closed: bool = False
    anchor_t: float = 0.0


@dataclass(frozen=True)
class CycleTerm:
    multiplicity: complex
    paths: tuple


@dataclass(frozen=True)
class CycleSpec:
    terms: tuple


# ---------------------------------------------------------------------------
# resolution: geometry with RootAnchors replaced by concrete points


@dataclass(frozen=True)
class ResolvedPath:
    """A Path1D resolved at each of ``rows`` coefficient vectors.

    ``segments`` are the path's own, but for the ones resolution changes:
    a line with a RootAnchor end holds each row's root there, a (rows, 1)
    column, and a ray's direction has unit length.  An anchored end keeps
    no mark of its anchor: it is a root at Horner's rounding floor, and
    the quadrature's endpoint test finds it on its factor's zero by value.
    point() and derivative() take a scalar t or a sorted 1-D array of
    nodes and return one row per coefficient vector, or a single row that
    broadcasts against them when the path is row-shared: no segment holds
    a per-row array (no RootAnchor), so every row has the same geometry.
    The derivative of a path of one line or ray is one (rows, 1) column.
    """

    segments: tuple
    closed: bool
    anchor_t: float
    rows: int

    @property
    def nsegments(self) -> int:
        return len(self.segments)

    @cached_property
    def shared(self) -> bool:
        # the segments are frozen, so one look serves every later call
        return not any(
            isinstance(z, np.ndarray) for seg in self.segments for z in vars(seg).values()
        )

    def point(self, t):
        return self._piecewise(t, "point")

    def derivative(self, t):
        return self._piecewise(t, "derivative")

    def _piecewise(self, t, method: str) -> np.ndarray:
        # t is a scalar or sorted nodes, so segment k's nodes, k <= t < k + 1
        # (the first and last segments also take all below and above), are a run
        t = np.asarray(t, dtype=float)
        ts = t.reshape(-1)
        cuts = [0, *np.searchsorted(ts, np.arange(1, self.nsegments)), ts.size]
        parts = [
            np.atleast_2d(getattr(seg, method)(ts[lo:hi] - k))
            for k, (seg, lo, hi) in enumerate(zip(self.segments, cuts, cuts[1:]))
        ]
        rows = 1 if self.shared else self.rows
        out = parts[0] if len(parts) == 1 else np.hstack([
            np.broadcast_to(p, (rows, hi - lo)) for p, lo, hi in zip(parts, cuts, cuts[1:])
        ])
        # one row per coefficient vector, also from an arc of a per-row path
        out = np.broadcast_to(out, (rows, out.shape[1]))
        return out if t.ndim else out[:, 0]

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Each segment's start and end point, shaped (segments, 2, rows), and
        each row's scale: its largest endpoint magnitude, at least 1."""
        # rows whose anchors failed hold nan or inf and are never read
        with np.errstate(invalid="ignore", over="ignore"):
            ends = np.array([
                [np.broadcast_to(seg.point(s), (self.rows, 1))[:, 0] for s in (0.0, 1.0)]
                for seg in self.segments
            ], dtype=complex)
        return ends, np.maximum(1.0, _abs(ends).max(axis=(0, 1)))

    def take(self, rows: np.ndarray) -> "ResolvedPath":
        """The path at the given rows of its batch; a row-shared path keeps
        its segments as they are."""
        if self.shared:
            return replace(self, rows=len(rows))

        def pick(seg):
            columns = {
                k: z[rows] for k, z in vars(seg).items() if isinstance(z, np.ndarray)
            }
            return replace(seg, **columns) if columns else seg
        segments = tuple(map(pick, self.segments))
        return replace(self, segments=segments, rows=len(rows))


def _abs(z: np.ndarray) -> np.ndarray:
    # |z| as scalar abs() rounds it; np.abs of complex arrays may differ
    return np.hypot(z.real, z.imag)


def _anchor_points(
    anchor: RootAnchor, spec: ScenarioSpec, a: np.ndarray, roots: dict,
) -> tuple[np.ndarray, dict]:
    """Each row's root of the anchor's factor nearest ``anchor.near``.

    ``roots`` caches univariate_roots per factor, so anchors on one factor
    share one call; its Aberth steps stop each root at Horner's rounding
    floor, so a start that is already there costs one Horner pass.
    Returns the points and a dict mapping each row whose factor has no
    finite root to its PathSingularityError.
    """
    if anchor.factor not in roots:
        roots[anchor.factor] = univariate_roots(spec.dense_univariate(a, anchor.factor))
    found, deg = roots[anchor.factor]
    if found.shape[1]:
        dist = np.abs(found - complex(anchor.near))
        # nan pads the roots a row lacks; they never win
        dist[np.isnan(dist)] = np.inf
        points = found[np.arange(len(a)), np.argmin(dist, axis=1)]
    else:
        points = np.full(len(a), np.nan, dtype=complex)
    errors: dict = {}
    for r in np.nonzero(~np.isfinite(points))[0]:
        how = "vanishes identically and has" if deg[r] < 0 else "has"
        errors[int(r)] = PathSingularityError(
            f"factor {anchor.factor} {how} no roots to anchor a path endpoint"
        )
    return points, errors


def resolve_path(path: Path1D, spec: ScenarioSpec, a: np.ndarray) -> tuple:
    """Replace RootAnchor endpoints by concrete roots and validate chaining.

    ``a`` is an (N, n) array of coefficient vectors.  The anchors of all
    rows are found together, one root finding per anchored factor.
    Returns one ResolvedPath for the batch and a dict mapping each row
    whose anchor has no root to its PathSingularityError; that row's
    anchored endpoints are nan.  A path that does not chain or close at
    another row raises ScenarioError.
    """
    rows = spec.coefficient_rows(a)
    errors: dict = {}
    anchors: dict = {}
    roots: dict = {}

    def endpoint(pt):
        if not isinstance(pt, RootAnchor):
            return pt
        if pt not in anchors:
            anchors[pt], errs = _anchor_points(pt, spec, rows, roots)
            for r, exc in errs.items():
                errors.setdefault(r, exc)
        return anchors[pt][:, None]

    segs = []
    for seg in path.segments:
        line = isinstance(seg, LineSegment)
        if line and (isinstance(seg.start, RootAnchor) or isinstance(seg.end, RootAnchor)):
            seg = LineSegment(endpoint(seg.start), endpoint(seg.end))
        elif isinstance(seg, RaySegment) and abs(abs(seg.direction) - 1.0) > 1e-9:
            d = complex(seg.direction)
            seg = replace(seg, direction=d / abs(d))
        segs.append(seg)
    anchor_t = float(path.anchor_t)
    rpath = ResolvedPath(
        segments=tuple(segs), closed=path.closed, anchor_t=anchor_t, rows=len(rows)
    )
    ends, scale = rpath.endpoints()
    with np.errstate(invalid="ignore"):
        broken = _abs(ends[:-1, 1] - ends[1:, 0]) > 1e-9 * scale
        unclosed = path.closed & (_abs(ends[-1, 1] - ends[0, 0]) > 1e-9 * scale)
    bad = broken.any(axis=0) | unclosed
    bad[list(errors)] = False
    if bad.any():
        # the first such row's first failing check, as it would fail alone
        r = int(np.argmax(bad))
        if broken[:, r].any():
            k = int(np.argmax(broken[:, r]))
            raise ScenarioError(
                "cycle",
                f"consecutive segments do not chain: {complex(ends[k, 1, r])} vs "
                f"{complex(ends[k + 1, 0, r])}",
            )
        raise ScenarioError("cycle", "closed path does not return to its start")
    return rpath, errors


def tracked_requirements(spec: ScenarioSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Factor and coordinate indices whose exponents force log tracking.

    Integer exponents give single-valued powers and are evaluated directly;
    everything else needs a continuous branch.
    """
    factors = tuple(
        fac.index
        for fac in spec.factors
        if fac.kind == "power"
        and fac.lam is not None
        and not is_real_integer(complex(fac.lam))
    )
    coords = tuple(
        p + 1
        for p, beta in enumerate(spec.twist_beta)
        if not is_real_integer(complex(beta))
    )
    return factors, coords


# ---------------------------------------------------------------------------
# branch transport


def _arg_increment(
    eval_at: Callable[[float], complex],
    t0: float,
    v0: complex,
    t1: float,
    v1: complex,
    depth: int,
    zero_floor: float,
) -> float:
    d = cmath.phase(v1 / v0)
    if abs(d) < 0.5 * math.pi:
        return d
    if depth <= 0:
        raise NonResolvableBranchError(
            f"branch not resolvable between parameters {t0} and {t1}"
        )
    tm = 0.5 * (t0 + t1)
    vm = complex(eval_at(tm))
    if not (math.isfinite(vm.real) and math.isfinite(vm.imag)):
        raise PathSingularityError(f"non-finite value at path parameter {tm}")
    if vm == 0 or abs(vm) < zero_floor:
        raise PathSingularityError(
            f"value {abs(vm):.3e} below safety floor at path parameter {tm}"
        )
    left = _arg_increment(eval_at, t0, v0, tm, vm, depth - 1, zero_floor)
    right = _arg_increment(eval_at, tm, vm, t1, v1, depth - 1, zero_floor)
    return left + right


def continued_logs(
    ts: np.ndarray,
    values: np.ndarray,
    eval_at: Callable[[float], np.ndarray],
    anchor_t: float,
    anchor_log: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Continuous logs of sampled nonzero values along parameterized curves.

    Row r of ``values`` samples one curve at the shared sorted parameters
    ``ts``; ``eval_at(t)`` returns every row's value at parameter t.  Each
    row's branch is principal at the anchor parameter (or continues its
    entry of ``anchor_log``); between consecutive samples the argument may
    move by less than pi/2, refined by bisection via eval_at for the
    (row, interval) pairs where it does not.  The anchor is inserted as a
    virtual node if it is not already sampled, so results do not depend on
    the sampling resolution.  Rows do not interact: a row's logs are the
    same in any batch.

    Returns the (rows, len(ts)) logs and a dict mapping each row that
    cannot be transported to its EvaluationError; such rows hold nan.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=complex)
    errors: dict = {}
    if ts.size == 0:
        return np.zeros(values.shape, dtype=complex), errors
    for r in np.nonzero(~np.all(np.isfinite(values), axis=1))[0]:
        errors[int(r)] = PathSingularityError("non-finite factor value on the path")
    zero = values == 0
    for r in np.nonzero(np.any(zero, axis=1))[0]:
        k = int(np.argmax(zero[r]))
        errors.setdefault(
            int(r),
            PathSingularityError(f"exact zero on the path at parameter {ts[k]}"),
        )
    if errors:
        # failed rows continue as harmless ones and are blanked at the end
        values = values.copy()
        values[list(errors)] = 1.0

    pos = int(np.searchsorted(ts, anchor_t))
    virtual = not (
        (pos < ts.size and ts[pos] == anchor_t)
        or (pos > 0 and ts[pos - 1] == anchor_t)
    )
    if virtual:
        va = np.asarray(eval_at(anchor_t), dtype=complex).copy()
        bad = (va == 0) | ~np.isfinite(va)
        for r in np.nonzero(bad)[0]:
            errors.setdefault(
                int(r), PathSingularityError("anchor sits on a zero of a tracked value")
            )
        va[bad] = 1.0
        work_t = np.insert(ts, pos, anchor_t)
        work_v = np.insert(values, pos, va, axis=1)
        anchor_idx = pos
    else:
        work_t = ts
        work_v = values
        anchor_idx = pos if (pos < ts.size and ts[pos] == anchor_t) else pos - 1

    if anchor_log is None:
        base = np.angle(work_v[:, anchor_idx])
    else:
        base = np.imag(anchor_log)

    increments = np.zeros(work_v.shape, dtype=float)
    if work_t.size > 1:
        d = np.angle(work_v[:, 1:] / work_v[:, :-1])
        for r, k in zip(*np.nonzero(np.abs(d) >= 0.5 * math.pi)):
            r = int(r)
            if r in errors:
                continue
            try:
                d[r, k] = _arg_increment(
                    lambda t, _r=r: eval_at(t)[_r],
                    float(work_t[k]),
                    complex(work_v[r, k]),
                    float(work_t[k + 1]),
                    complex(work_v[r, k + 1]),
                    _MAX_BISECT_DEPTH,
                    1e-10 * np.max(np.abs(values[r])),
                )
            except EvaluationError as exc:
                errors[r] = exc
        increments[:, 1:] = d
    total = np.cumsum(increments, axis=1)
    arg = base[:, None] + (total - total[:, anchor_idx, None])
    logs = np.empty(work_v.shape, dtype=complex)
    logs.real = np.log(np.abs(work_v))
    logs.imag = arg
    if virtual:
        logs = np.delete(logs, anchor_idx, axis=1)
    if errors:
        logs[list(errors)] = np.nan
    return logs, errors


def integrand_values(
    spec: ScenarioSpec,
    a: np.ndarray,
    grids: Sequence[np.ndarray],
    factor_logs: dict,
    coord_logs: dict,
) -> tuple[np.ndarray, dict]:
    """Values of the multivalued integrand on coordinate grids, row by row.

    ``a`` holds one coefficient vector per row and ``grids`` one array per
    coordinate; grids and tracked logs broadcast against each other and
    against the rows (a leading axis of the rows or of 1), so a coordinate
    shared by every row is powered once, not once per row.  Power factors
    with tracked logs use exp(lam * L); the others have integer lam
    (tracked_requirements tracks every non-integer one) and are evaluated
    by direct powers.  Exp factors contribute exp(f(x)); coordinate twists
    exp((beta-1) log x_p) use tracked logs when present, integer powers
    otherwise.

    Returns the values and a dict mapping each row whose integrand
    overflows or is not finite to its EvaluationError; such rows hold 0.
    """
    shape = (len(a),) + np.broadcast_shapes(*(g.shape for g in grids))[1:]
    # coefficient k of every row, shaped to broadcast against the grids
    coeff_shape = (-1, shape[0]) + (1,) * (len(shape) - 1)
    # complex products keep their operand order (np.multiply, never `x *
    # temp`, which numpy may evaluate as temp *= x): numpy's complex product
    # is not bitwise commutative, and a row's value must not depend on its batch
    exponent, direct = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for fac in spec.factors:
            coeffs = spec.coefficients_for(a, fac.index).T.reshape(coeff_shape)
            if fac.kind == "exp":
                exponent.append(fac.values(coeffs, tuple(grids)))
                continue
            lam = complex(fac.lam)
            if fac.index in factor_logs:
                exponent.append(lam * factor_logs[fac.index])
                continue
            # x ** 1 is x bit for bit, but numpy runs a full power loop for it
            vals = fac.values(coeffs, tuple(grids))
            k = int(lam.real)
            direct.append(vals if k == 1 else vals ** k)
        for p in range(1, spec.m + 1):
            beta = complex(spec.twist_beta[p - 1])
            if p in coord_logs:
                exponent.append((beta - 1.0) * coord_logs[p])
            elif k := int(beta.real) - 1:
                direct.append(grids[p - 1] if k == 1 else grids[p - 1] ** k)
        # the sum and the product start from their first terms; every factor
        # enters one of them, so vals spans the grid
        vals = reduce(np.multiply, direct) if direct else None
        if exponent:
            w = reduce(np.add, exponent)
            vals = np.exp(w) if vals is None else np.multiply(np.exp(w), vals)
    errors: dict = {}
    grids = [np.broadcast_to(g, shape) for g in grids]
    wr = np.broadcast_to(np.real(w) if exponent else 0.0, shape)
    for r in np.nonzero(np.any((wr > _EXP_CAP).reshape(shape[0], -1), axis=1))[0]:
        k = np.unravel_index(int(np.argmax(wr[r])), shape[1:])
        loc = tuple(complex(g[r][k]) for g in grids)
        errors[int(r)] = IntegrandOverflowError(
            f"integrand magnitude exp({float(wr[r][k]):.1f}) overflows at x = {loc}"
        )
    bad = ~np.isfinite(vals)
    for r in np.nonzero(np.any(bad.reshape(shape[0], -1), axis=1))[0]:
        k = np.unravel_index(int(np.argmax(bad[r])), shape[1:])
        loc = tuple(complex(g[r][k]) for g in grids)
        errors.setdefault(
            int(r), PathSingularityError(f"integrand not finite at node x = {loc}")
        )
    if errors:
        vals[list(errors)] = 0.0
    return vals, errors
