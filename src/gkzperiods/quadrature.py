"""Tensor-product quadrature over cycle chains with branch transport.

Rule selection is per path segment: periodic trapezoid for a closed
single-arc full turn with a single-valued integrand, tanh-sinh where an
endpoint sits on a zero of a branched factor (or coordinate), plain
composite Gauss-Legendre otherwise, including truncated rays.  Levels
refine until successive values agree to the requested tolerance.  The
trapezoid and tanh-sinh rules nest (each level's nodes are every other
node of the next), so a group of those rules starts on its second level's
grid and takes the first level's value from that grid's sub-grid.  All of
it runs on batches of coefficient vectors: rows with the same rules share
nodes, branch transport and integrand evaluation, and keep their own
convergence and errors.  Each row's levels, level values and ray-tip
ratio are entries of arrays over the batch, not objects of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, reduce

import numpy as np

from .analytic_paths import (
    ArcSegment,
    CycleTerm,
    RaySegment,
    ResolvedPath,
    _abs,
    continued_logs,
    integrand_values,
    resolve_path,
    tracked_requirements,
)
from .scenario import ScenarioSpec

__all__ = ["IntegralResult", "branch_logs", "integrate_term", "integrate_cycle"]

# tanh-sinh parameter range; tanh((pi/2) sinh 3.2) is within 2e-17 of 1
_TS_TMAX = 3.2
# nodes closer to an endpoint than this are dropped (weights are ~1e-15)
_TS_EDGE = 1e-15
# ray truncation quality: a row whose ray tip magnitude over its grid's
# peak magnitude is above this has short_rays
_TIP_RATIO = 1e-18
# refinement levels tried by integrate_term, first to last
LEVEL_START = 5
LEVEL_CAP = 14
# integrand nodes of one level call, summed over its rows: a level runs on
# slices of at least one row that keep rows x nodes per row under this
# (4096: the largest grid one derivative's stencil needs on a shipped period)
_NODE_BUDGET = 4096

_GL16 = np.polynomial.legendre.leggauss(16)
# rules whose level L - 1 nodes are level L nodes with twice the weight
_NESTED = ("trapezoid", "tanh-sinh")


@dataclass(frozen=True)
class IntegralResult:
    """An integral at every row of a batch of coefficient vectors.

    ``value``, ``error_estimate`` (level differencing plus clipped tails)
    and ``row_converged`` have one entry per row.  A row whose evaluation
    failed has its EvaluationError in ``errors`` (None elsewhere), nan
    value and no nodes.  ``nodes_used`` counts the integrand nodes
    evaluated for all rows; a level read off the next level's grid adds
    none.
    """

    value: np.ndarray
    error_estimate: np.ndarray
    nodes_used: int
    diagnostics: dict
    row_converged: np.ndarray
    errors: tuple

    @property
    def converged(self) -> bool:
        """Whether every row converged."""
        return bool(self.row_converged.all())


def _path_rules(
    rpath: ResolvedPath, spec: ScenarioSpec, a: np.ndarray,
    tracked_factors, tracked_coords,
) -> np.ndarray:
    """Each row's rule on each segment of ``rpath``, shaped (rows, segments)."""
    seg = rpath.segments[0]
    if (
        rpath.closed
        and rpath.nsegments == 1
        and isinstance(seg, ArcSegment)
        and abs(abs(seg.angle_end - seg.angle_start) - 2 * math.pi) < 1e-12
        and not tracked_factors
        and not tracked_coords
    ):
        return np.full((rpath.rows, 1), "trapezoid")
    ends, geom_scale = rpath.endpoints()
    singular = np.zeros(ends.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.m == 1:
            size = np.maximum(1.0, _abs(ends))
            for fi in tracked_factors:
                fac = spec.factors[fi - 1]
                coeffs = spec.coefficients_for(a, fi).T
                val = fac.values(coeffs, (ends,))
                scale = sum(
                    _abs(c) * size ** mono[0] for c, mono in zip(coeffs, fac.monomials)
                )
                singular |= _abs(val) < 1e-9 * np.maximum(scale, 1e-300)
        if tracked_coords:
            singular |= _abs(ends) < 1e-9 * geom_scale
    rays = np.array([isinstance(seg, RaySegment) for seg in rpath.segments])
    return np.where(rays, "ray", np.where(singular.any(axis=1), "tanh-sinh", "gauss").T)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@cache
def _segment_nodes(rule: str, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local nodes s in (0,1), weights, and per-node tail factors.

    The tail factor is zero except at the outermost kept nodes of a
    tanh-sinh segment, where it converts that node's contribution into an
    estimate of the mass lost to endpoint clipping.  Level refinement
    cannot see that mass (the clip point is level-independent), so it has
    to enter the error estimate separately.  The nodes strictly increase.
    Built once per (rule, level) and shared, so the arrays are read-only.
    """
    if rule == "trapezoid":
        n = 2**level
        s, w, tail = np.arange(n) / n, np.full(n, 1.0 / n), np.zeros(n)
    elif rule in ("gauss", "ray"):
        panels = max(1, 2**level // 16)
        xi, wi = _GL16
        s = ((np.arange(panels)[:, None] + (xi[None, :] + 1.0) / 2.0) / panels).ravel()
        w = np.tile(wi / (2.0 * panels), panels)
        tail = np.zeros(s.size)
    elif rule == "tanh-sinh":
        h = 2.0 * _TS_TMAX / 2**level
        j = np.arange(-(2 ** level) // 2, (2 ** level) // 2 + 1)
        t = j * h
        u = 0.5 * math.pi * np.sinh(t)
        x = np.tanh(u)
        w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        keep = 1.0 - np.abs(x) > _TS_EDGE
        tk = t[keep]
        tail = np.zeros(tk.size)
        if tk.size:
            # integrand (1-|x|)^lam decays like exp(-2(1+lam)u) past the
            # clip; contribution/(h dudt) * 2 covers rates down to lam=-3/4
            tail[0] = 2.0 / (h * 0.5 * math.pi * math.cosh(tk[0]))
            tail[-1] = 2.0 / (h * 0.5 * math.pi * math.cosh(tk[-1]))
        s, w = (x[keep] + 1.0) / 2.0, w[keep] / 2.0
        # from level 11 on, several t next to a clip point round to one s:
        # each such run becomes one node, its weights added, and a run of
        # two or more takes the tail factor sum_j w_j tail_j / sum_j w_j,
        # which keeps the run's clipped-tail estimate
        first = np.flatnonzero(np.diff(s, prepend=-1.0) > 0)
        runs = np.diff(first, append=s.size)
        merged = np.add.reduceat(w, first)
        tail = np.where(runs > 1, np.add.reduceat(w * tail, first) / merged, tail[first])
        s, w = s[first], merged
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return _frozen(s, w, tail)


@cache
def _axis_nodes(
    rules: tuple[str, ...], level: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global-parameter nodes, weights, and tail factors of one path.

    Segment k contributes its rule's nodes shifted to [k, k + 1].  Shared
    and read-only, like _segment_nodes.
    """
    parts = [_segment_nodes(rule, level) for rule in rules]
    return _frozen(
        np.concatenate([k + p[0] for k, p in enumerate(parts)]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )


@cache
def _coarse_index(rules: tuple, level: int) -> tuple[np.ndarray, ...] | None:
    """Per axis, where the level - 1 nodes sit among the level nodes.

    None unless every rule nests: each segment's level - 1 nodes are every
    other one of its level nodes, bit for bit, with exactly twice their
    weight.  Then the level - 1 integral is 2**m times the level grid's
    contributions summed over that sub-grid, exactly.  (From level 11 on a
    tanh-sinh segment merges the nodes that round to one s, and it does
    not nest.)
    """
    if any(rule not in _NESTED for axis in rules for rule in axis):
        return None
    index = []
    for axis in rules:
        parts, start = [], 0
        for rule in axis:
            s, w, _ = _segment_nodes(rule, level)
            coarse_s, coarse_w, _ = _segment_nodes(rule, level - 1)
            offsets = [
                o for o in (0, 1)
                if s[o::2].tobytes() == coarse_s.tobytes()
                and (2.0 * w[o::2]).tobytes() == coarse_w.tobytes()
            ]
            if not offsets:
                return None
            parts.append(start + np.arange(offsets[0], s.size, 2))
            start += s.size
        index.append(np.concatenate(parts))
    return _frozen(*index)


@lru_cache(maxsize=128)
def _shared_samples(
    segments: tuple, rules: tuple[str, ...], level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Points and derivatives, one row each, of a row-shared path at its
    level nodes.  Shared and read-only, like _axis_nodes; the cache is
    bounded, since its keys come from the scenarios' paths."""
    ts = _axis_nodes(rules, level)[0]
    # closed and anchor_t do not enter point() or derivative()
    path = ResolvedPath(segments=segments, closed=False, anchor_t=0.0, rows=1)
    return _frozen(path.point(ts), path.derivative(ts))


def _at(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
    # rows ``owner`` of x; one row (a row-shared path's) broadcasts to all
    return x if len(x) == 1 else x[owner]


def branch_logs(
    spec: ScenarioSpec,
    a: np.ndarray,
    rpaths: list[ResolvedPath],
    axes_ts: list[np.ndarray],
    axes_pts: list[np.ndarray],
    factors,
    coords,
) -> tuple[dict, dict, dict]:
    """Continuous logs of tracked factors and coordinates on tensor grids.

    Each row of ``a`` is one coefficient vector.  ``rpaths[d]`` is axis d's
    path resolved at the same rows (resolve_path), ``axes_ts[d]`` the
    sorted global parameters of axis d, shared by every row, and
    ``axes_pts[d]`` their points, one row per coefficient row or a single
    row shared by all (a row-shared path).  A factor's
    logs fill each row's whole grid: transport runs along a comb, down the
    first axis with the other coordinates held at their anchors, then
    along each later axis starting from the already-transported log.  At
    axis d every (row, earlier-axis node) pair is one row of a single
    continued_logs call.  A coordinate's logs vary along its own axis only
    and are shaped to broadcast against the grid; on a row-shared path they
    are transported once, for every row.  Every branch is principal at the
    path anchors.

    Returns factor logs shaped (rows, T_0, ..., T_{m-1}), coordinate logs,
    and a dict mapping each row that cannot be transported to its first
    EvaluationError.
    """
    n_rows = a.shape[0]
    m = len(rpaths)
    errors: dict = {}
    factor_logs = {}
    anchors_x = [rp.point(rp.anchor_t) for rp in rpaths] if factors else []
    for fi in factors:
        fac = spec.factors[fi - 1]
        coeffs = spec.coefficients_for(a, fi)
        # comb rows at axis d: (row, k_0, ..., k_{d-1}) in row-major order
        owner = np.arange(n_rows)
        fixed: list = []
        anchor_log = None
        for d in range(m):
            c = coeffs[owner].T

            def coords_at(x_d, _d=d, _owner=owner, _fixed=fixed):
                # the first _d coordinates are fixed, the later ones anchored
                ax = (slice(None),) + (None,) * (np.ndim(x_d) - 1)
                return tuple(
                    x_d if i == _d
                    else (_fixed[i] if i < _d else _at(anchors_x[i], _owner))[ax]
                    for i in range(m)
                )

            def eval_at(t, _d=d, _owner=owner, _c=c, _coords=coords_at):
                return fac.values(_c, _coords(_at(rpaths[_d].point(t), _owner)))

            pts = _at(axes_pts[d], owner)
            vals = fac.values(c[..., None], coords_at(pts))
            logs, errs = continued_logs(
                axes_ts[d], vals, eval_at, rpaths[d].anchor_t, anchor_log=anchor_log
            )
            for b in sorted(errs):
                errors.setdefault(int(owner[b]), errs[b])
            if d < m - 1:
                size = axes_ts[d].size
                owner = np.repeat(owner, size)
                fixed = [np.repeat(x, size) for x in fixed] + [
                    np.broadcast_to(pts, logs.shape).reshape(-1)
                ]
                anchor_log = logs.reshape(-1)
        factor_logs[fi] = logs.reshape((n_rows,) + tuple(ts.size for ts in axes_ts))

    coord_logs = {}
    for p in coords:
        rp = rpaths[p - 1]
        logs, errs = continued_logs(axes_ts[p - 1], axes_pts[p - 1], rp.point, rp.anchor_t)
        for r, exc in errs.items():
            # a row-shared path's one row fails for every row
            for row in range(n_rows) if len(logs) == 1 else (r,):
                errors.setdefault(row, exc)
        shape = [len(logs)] + [1] * m
        shape[p] = logs.shape[1]
        coord_logs[p] = logs.reshape(shape)
    return factor_logs, coord_logs, errors


def _term_level_value(
    spec: ScenarioSpec,
    a: np.ndarray,
    rpaths: list[ResolvedPath],
    rules: tuple,
    level: int,
    tracked_factors,
    tracked_coords,
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, dict, np.ndarray | None]:
    """One refinement level of a term at every row of ``a``.

    ``rpaths`` holds the term's paths resolved at the same rows.  All rows
    share ``rules`` (one rule tuple per path), hence the nodes.  A
    row-shared path's points and derivatives come off one cached table
    per (segments, rules, level), a single row that broadcasts against
    the batch, as does its coordinate grid.
    Returns per-row values and clipped-tail estimates, the node count of
    one row, the integrand grid (rows first), a dict mapping failed rows to
    their EvaluationError (failed rows hold value 0), and, at level
    LEVEL_START + 1 of nesting rules, the per-row values of level
    LEVEL_START read off this grid (None otherwise).  Those equal the
    level's own values bit for bit where no branch is tracked; tracked logs
    are transported on the finer grid and may differ by rounding.
    """
    n_rows = a.shape[0]
    m = len(rules)
    rules = tuple(map(tuple, rules))
    axes = [_axis_nodes(r, level) for r in rules]
    axes_ts = [ax[0] for ax in axes]
    axes_pts, axes_dz = zip(*(
        _shared_samples(rp.segments, r, level) if rp.shared
        else (rp.point(ts), rp.derivative(ts))
        for rp, r, ts in zip(rpaths, rules, axes_ts)
    ))

    def on_axis(x: np.ndarray, d: int) -> np.ndarray:
        # (rows, T) or (T,) laid along grid axis d
        shape = [x.shape[0] if x.ndim == 2 else 1] + [1] * m
        shape[d + 1] = x.shape[-1]
        return x.reshape(shape)

    grids = [on_axis(p, d) for d, p in enumerate(axes_pts)]

    factor_logs, coord_logs, errors = branch_logs(
        spec, a, rpaths, axes_ts, axes_pts, tracked_factors, tracked_coords
    )
    vals, value_errors = integrand_values(spec, a, grids, factor_logs, coord_logs)
    for r, exc in value_errors.items():
        errors.setdefault(r, exc)
    if errors:
        vals[list(errors)] = 0.0

    wd = [on_axis(ax[1] * dz, d) for d, (ax, dz) in enumerate(zip(axes, axes_dz))]
    # np.multiply keeps the operand order; see integrand_values
    contributions = np.multiply(vals, reduce(np.multiply, wd))
    value = contributions.reshape(n_rows, -1).sum(axis=1)
    coarse = None
    index = _coarse_index(rules, level) if level == LEVEL_START + 1 else None
    if index is not None:
        # the sub-grid's contributions, C-ordered to be summed in the same
        # order as on their own grid, times 2**m: scaling the real and
        # imaginary parts apart is exact, signed zeros included
        sub = contributions
        for d, k in enumerate(index):
            sub = np.take(sub, k, axis=d + 1)
        sub.real *= 2.0**m
        sub.imag *= 2.0**m
        coarse = sub.reshape(n_rows, -1).sum(axis=1)
    tail_est = np.zeros(n_rows)
    for d, ax in enumerate(axes):
        tf = ax[2]
        if np.any(tf):
            tail_est += (
                (np.abs(contributions) * on_axis(tf, d)).reshape(n_rows, -1).sum(axis=1)
            )
    nodes = int(np.prod([ts.size for ts in axes_ts]))
    return value, nodes, tail_est, vals, errors, coarse


def _tip_ratios(rules: tuple, level: int, grid: np.ndarray) -> np.ndarray:
    """Per row of an integrand grid: the largest tip over peak magnitude of
    its rays, 0 where it has none."""
    ratio = np.zeros(grid.shape[0])
    rays = [
        (axis, k)
        for axis, axis_rules in enumerate(rules)
        for k, rule in enumerate(axis_rules)
        if rule == "ray"
    ]
    if not rays or not ratio.size:
        return ratio
    mags = np.abs(grid)
    peak = np.maximum(np.max(mags.reshape(len(mags), -1), axis=1), 1e-300)
    for axis, seg_idx in rays:
        ts = _axis_nodes(rules[axis], level)[0]
        tip_idx = np.nonzero((ts >= seg_idx) & (ts <= seg_idx + 1))[0][-1]
        tip = np.take(mags, tip_idx, axis=axis + 1).reshape(len(mags), -1)
        ratio = np.maximum(ratio, np.max(tip, axis=1) / peak)
    return ratio


def integrate_term(
    term: CycleTerm, spec: ScenarioSpec, a: np.ndarray
) -> IntegralResult:
    """Integrate one product-cycle term at each row of ``a``.

    ``a`` is an (N, n) array of coefficient vectors.  Each path is
    resolved once for the batch, and rows are grouped by their
    per-segment rules.  Each group refines its levels together,
    LEVEL_START..LEVEL_CAP, a row leaving when successive values agree to
    ``spec.settings.tol``; a group whose rules all nest (trapezoid,
    tanh-sinh) evaluates its first grid at LEVEL_START + 1 and reads level
    LEVEL_START off its sub-grid.  A level runs on slices of the active
    rows, each at least one row and otherwise holding rows x nodes per row
    under _NODE_BUDGET, so memory stays bounded however large the batch;
    rows are independent, so slicing changes no result.  Values include the
    term multiplicity.  A row that reaches the level cap without agreement,
    or whose rays are cut too short (``short_rays``), is flagged
    unconverged but still returned.

    ``diagnostics`` holds arrays: ``row_levels``, the levels each row
    completed (0 where it failed); ``levels``, the values (without the
    multiplicity) of those levels, row after row; ``tip_ratio``, each row's
    largest ray tip over peak magnitude at the level it stopped on (0
    without rays); and ``short_rays``, where that ratio is above
    _TIP_RATIO, a sign that the ray truncation is too short: level
    agreement cannot see the mass cut off past the tips.
    """
    a = spec.coefficient_rows(a)
    n_rows = a.shape[0]
    tracked_factors, tracked_coords = tracked_requirements(spec)
    errors: list = [None] * n_rows
    rpaths = []
    for path in term.paths:
        rpath, path_errors = resolve_path(path, spec, a)
        rpaths.append(rpath)
        for r, exc in path_errors.items():
            errors[r] = errors[r] or exc
    path_rules = [
        _path_rules(rp, spec, a, tracked_factors, tracked_coords) for rp in rpaths
    ]
    # a group holds the resolved rows of one rule tuple, in order of first row
    codes = np.concatenate(path_rules, axis=1)
    failed = np.array([exc is not None for exc in errors], dtype=bool)
    pending = ~failed
    groups = []
    while pending.any():
        members = pending & (codes == codes[np.argmax(pending)]).all(axis=1)
        groups.append(np.nonzero(members)[0])
        pending &= ~members

    tol = spec.settings.tol
    value = np.full(n_rows, np.nan, dtype=complex)
    err = np.full(n_rows, math.inf)
    converged = np.zeros(n_rows, dtype=bool)
    nodes_used = np.zeros(n_rows, dtype=int)
    # per row: its value at each level it completed, and its ray-tip ratio
    # at the level it stopped on
    level_values = np.zeros((n_rows, LEVEL_CAP - LEVEL_START + 1), dtype=complex)
    levels_done = np.zeros(n_rows, dtype=int)
    tip_ratio = np.zeros(n_rows)
    for active in groups:
        rules = tuple(tuple(r[active[0]].tolist()) for r in path_rules)
        first = LEVEL_START + (_coarse_index(rules, LEVEL_START + 1) is not None)
        for level in range(first, LEVEL_CAP + 1):
            row_nodes = math.prod(_axis_nodes(r, level)[0].size for r in rules)
            step = max(1, _NODE_BUDGET // row_nodes)
            still = []
            for start in range(0, len(active), step):
                part = active[start:start + step]
                vals, nodes, tails, grid, errs, coarse = _term_level_value(
                    spec, a[part], [rp.take(part) for rp in rpaths], rules, level,
                    tracked_factors, tracked_coords,
                )
                ok = np.ones(len(part), dtype=bool)
                ok[list(errs)] = False
                for j, exc in errs.items():
                    errors[part[j]] = exc
                failed[part[~ok]] = True
                done, v, t = part[ok], vals[ok], tails[ok]
                nodes_used[done] += nodes
                if coarse is not None:
                    # this first grid of nesting rules also gives LEVEL_START
                    level_values[done, 0] = value[done] = coarse[ok]
                    levels_done[done] += 1
                level_values[done, level - LEVEL_START] = v
                levels_done[done] += 1
                if level > LEVEL_START:
                    # clipped-tail mass is invisible to level agreement; fold it in
                    diff = _abs(v - value[done])
                    err[done] = np.where(t > diff, t, diff)
                    size = _abs(v)
                    converged[done] = err[done] <= tol * np.where(size > 1.0, size, 1.0)
                value[done] = v
                stop = converged[done] | (level == LEVEL_CAP)
                still.append(done[~stop])
                finished = np.nonzero(ok)[0][stop]
                tip_ratio[part[finished]] = _tip_ratios(rules, level, grid[finished])
            active = np.concatenate(still)
            if not active.size:
                break

    value[failed] = np.nan
    nodes_used[failed] = 0
    levels_done[failed] = 0
    mult = complex(term.multiplicity)
    # one scalar product per row: numpy's vectorized complex product may
    # fuse multiply-adds and round a row differently from Python's
    value[~failed] = [mult * v for v in value[~failed].tolist()]
    err[~failed] = abs(mult) * err[~failed]
    completed = np.arange(level_values.shape[1]) < levels_done[:, None]
    short_rays = tip_ratio > _TIP_RATIO
    return IntegralResult(
        value=value,
        error_estimate=err,
        nodes_used=int(nodes_used.sum()),
        diagnostics={
            "levels": level_values[completed],
            "row_levels": levels_done,
            "tip_ratio": tip_ratio,
            "short_rays": short_rays,
        },
        row_converged=converged & ~short_rays,
        errors=tuple(errors),
    )


def integrate_cycle(spec: ScenarioSpec, a: np.ndarray) -> IntegralResult:
    """Multiplicity-weighted sum over ``spec.cycle`` at each row of ``a``.

    Errors are added in quadrature; a row keeps the error of the first
    term that failed on it.
    """
    a = spec.coefficient_rows(a)
    n_rows = a.shape[0]
    total = np.zeros(n_rows, dtype=complex)
    err_sq = np.zeros(n_rows)
    nodes = 0
    converged = np.ones(n_rows, dtype=bool)
    errors: list = [None] * n_rows
    term_diags = []
    for term in spec.cycle.terms:
        res = integrate_term(term, spec, a=a)
        total += res.value
        err_sq += res.error_estimate**2
        nodes += res.nodes_used
        converged &= res.row_converged
        errors = [e or f for e, f in zip(errors, res.errors)]
        term_diags.append(res.diagnostics)
    return IntegralResult(
        value=total,
        error_estimate=np.sqrt(err_sq),
        nodes_used=nodes,
        diagnostics={"terms": term_diags},
        row_converged=converged,
        errors=tuple(errors),
    )
