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
    "ResolvedSegment",
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


@dataclass(frozen=True)
class LineSegment:
    start: Union[complex, RootAnchor]
    end: Union[complex, RootAnchor]


@dataclass(frozen=True)
class ArcSegment:
    center: complex
    radius: float
    angle_start: float
    angle_end: float


@dataclass(frozen=True)
class RaySegment:
    start: complex
    direction: complex
    length: float


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
class ResolvedSegment:
    """One segment of a path at every row of a batch: a line endpoint
    resolved from a RootAnchor is a (rows, 1) array, all else is shared."""

    kind: str
    z0: complex = 0.0
    z1: complex = 0.0
    center: complex = 0.0
    radius: float = 0.0
    angle_start: float = 0.0
    angle_end: float = 0.0
    direction: complex = 1.0
    length: float = 0.0
    # factor indices of the RootAnchors the endpoints resolved from, or 0
    anchored_start: int = 0
    anchored_end: int = 0

    def point(self, s):
        if self.kind == "line":
            return self.z0 + s * (self.z1 - self.z0)
        if self.kind == "arc":
            ang = self.angle_start + s * (self.angle_end - self.angle_start)
            return self.center + self.radius * np.exp(1j * np.asarray(ang))
        return self.z0 + s * (self.length * self.direction)

    def derivative(self, s):
        if self.kind == "line":
            return (self.z1 - self.z0) * np.ones_like(np.asarray(s, dtype=float))
        if self.kind == "arc":
            span = self.angle_end - self.angle_start
            ang = self.angle_start + s * span
            return 1j * self.radius * span * np.exp(1j * np.asarray(ang))
        return self.length * self.direction * np.ones_like(np.asarray(s, dtype=float))


@dataclass(frozen=True)
class ResolvedPath:
    """A Path1D resolved at each of ``rows`` coefficient vectors; point()
    and derivative() return one row per coefficient vector."""

    segments: tuple
    closed: bool
    anchor_t: float
    rows: int

    @property
    def nsegments(self) -> int:
        return len(self.segments)

    def point(self, t):
        return self._piecewise(t, "point")

    def derivative(self, t):
        return self._piecewise(t, "derivative")

    def _piecewise(self, t, method: str) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.minimum(np.maximum(np.floor(t), 0), self.nsegments - 1).astype(int)
        s = t - idx
        out = np.empty((self.rows,) + t.shape, dtype=complex)
        for k, seg in enumerate(self.segments):
            mask = idx == k
            if np.any(mask):
                # shared geometry broadcasts over the rows
                out[..., mask] = getattr(seg, method)(s[mask])
        return out

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
        """The path at the given rows of its batch."""
        def pick(z):
            return z[rows] if isinstance(z, np.ndarray) else z
        segments = tuple(replace(s, z0=pick(s.z0), z1=pick(s.z1)) for s in self.segments)
        return replace(self, segments=segments, rows=len(rows))


def _abs(z: np.ndarray) -> np.ndarray:
    # |z| as scalar abs() rounds it; np.abs of complex arrays may differ
    return np.hypot(z.real, z.imag)


def _anchor_points(
    anchor: RootAnchor, spec: ScenarioSpec, a: np.ndarray, roots: dict,
) -> tuple[np.ndarray, dict]:
    """Each row's root of the anchor's factor nearest ``anchor.near``.

    ``roots`` caches univariate_roots per factor, so anchors on one factor
    share one call.  Returns the points and a dict mapping each row whose
    factor has no finite root to its PathSingularityError.
    """
    if spec.m != 1:
        raise ScenarioError("cycle", "root-anchored endpoints need m = 1")
    fac = spec.factors[anchor.factor - 1]
    if fac.kind != "power":
        raise ScenarioError("cycle", "root anchor must point at a power factor")
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

    def endpoint(pt) -> tuple:
        if not isinstance(pt, RootAnchor):
            return complex(pt), 0
        if pt not in anchors:
            anchors[pt], errs = _anchor_points(pt, spec, rows, roots)
            for r, exc in errs.items():
                errors.setdefault(r, exc)
        return anchors[pt][:, None], pt.factor

    segs: list[ResolvedSegment] = []
    for seg in path.segments:
        if isinstance(seg, LineSegment):
            (z0, f0), (z1, f1) = endpoint(seg.start), endpoint(seg.end)
            segs.append(
                ResolvedSegment(
                    kind="line", z0=z0, z1=z1, anchored_start=f0, anchored_end=f1
                )
            )
        elif isinstance(seg, ArcSegment):
            segs.append(
                ResolvedSegment(
                    kind="arc",
                    center=complex(seg.center),
                    radius=float(seg.radius),
                    angle_start=float(seg.angle_start),
                    angle_end=float(seg.angle_end),
                )
            )
        elif isinstance(seg, RaySegment):
            d = complex(seg.direction)
            if abs(abs(d) - 1.0) > 1e-9:
                d = d / abs(d)
            segs.append(
                ResolvedSegment(
                    kind="ray", z0=complex(seg.start), direction=d,
                    length=float(seg.length),
                )
            )
        else:
            raise ScenarioError("cycle", f"unknown segment type {type(seg).__name__}")
    if not segs:
        raise ScenarioError("cycle", "path has no segments")
    anchor_t = float(path.anchor_t)
    rpath = ResolvedPath(
        segments=tuple(segs), closed=path.closed, anchor_t=anchor_t, rows=len(rows)
    )
    ends, scale = rpath.endpoints()
    with np.errstate(invalid="ignore"):
        broken = _abs(ends[:-1, 1] - ends[1:, 0]) > 1e-9 * scale
        unclosed = path.closed & (_abs(ends[-1, 1] - ends[0, 0]) > 1e-9 * scale)
    bad = broken.any(axis=0) | unclosed | (not 0.0 <= anchor_t <= len(segs))
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
        if unclosed[r]:
            raise ScenarioError("cycle", "closed path does not return to its start")
        raise ScenarioError("cycle", f"anchor_t {anchor_t} outside [0, {len(segs)}]")
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
    zero_floor = 1e-10 * np.max(np.abs(values), axis=1)

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
                    zero_floor[r],
                )
            except EvaluationError as exc:
                errors[r] = exc
        increments[:, 1:] = d
    total = np.cumsum(increments, axis=1)
    arg = base[:, None] + (total - total[:, anchor_idx, None])
    logs = np.log(np.abs(work_v)) + 1j * arg
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
    coordinate whose leading axis runs over the same rows; tracked logs
    broadcast against them.  Power factors with tracked logs use
    exp(lam * L); untracked power factors must have integer lam and are
    evaluated by direct powers.  Exp factors contribute exp(f(x));
    coordinate twists exp((beta-1) log x_p) use tracked logs when present,
    integer powers otherwise.

    Returns the values and a dict mapping each row whose integrand
    overflows or is not finite to its EvaluationError; such rows hold 0.
    """
    shape = grids[0].shape
    # coefficient k of every row, shaped to broadcast against the grids
    coeff_shape = (-1, shape[0]) + (1,) * (len(shape) - 1)
    # complex products keep their operand order (in place, never `x * temp`,
    # which numpy may evaluate as temp *= x): numpy's complex product is not
    # bitwise commutative, and a row's value must not depend on its batch
    w = np.zeros(shape, dtype=complex)
    direct = np.ones(shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for fac in spec.factors:
            coeffs = spec.coefficients_for(a, fac.index).T.reshape(coeff_shape)
            if fac.kind == "exp":
                w = w + fac.values(coeffs, tuple(grids))
                continue
            lam = complex(fac.lam)
            if fac.index in factor_logs:
                w = w + lam * factor_logs[fac.index]
            elif is_real_integer(lam):
                vals = fac.values(coeffs, tuple(grids))
                direct *= vals ** int(lam.real)
            else:
                raise ScenarioError(
                    "cycle",
                    f"factor {fac.index} has non-integer exponent but no "
                    f"tracked branch",
                )
        for p in range(1, spec.m + 1):
            beta = complex(spec.twist_beta[p - 1])
            if p in coord_logs:
                w = w + (beta - 1.0) * coord_logs[p]
            elif not is_real_integer(beta):
                raise ScenarioError(
                    "cycle",
                    f"coordinate {p} has non-integer twist but no tracked "
                    f"branch",
                )
            elif int(beta.real) != 1:
                direct *= grids[p - 1] ** (int(beta.real) - 1)
        wr = np.real(w)
        vals = np.exp(w) * direct
    errors: dict = {}
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
