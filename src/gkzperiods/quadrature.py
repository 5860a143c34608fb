"""Tensor-product quadrature over cycle chains with branch transport.

Rule selection is per path segment: periodic trapezoid for a closed
single-arc full turn with a single-valued integrand, tanh-sinh where an
endpoint sits on a zero of a branched factor (or coordinate), plain
composite Gauss-Legendre otherwise, including truncated rays.  Levels
refine until successive values agree to the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .analytic_paths import (
    CycleTerm,
    ResolvedPath,
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
# ray truncation quality: tip magnitude over max magnitude along the path
_TIP_RATIO = 1e-18
# refinement levels tried by integrate_term, first to last
LEVEL_START = 5
LEVEL_CAP = 14

_GL16 = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class IntegralResult:
    """Value with a level-differencing error estimate and diagnostics."""

    value: complex
    error_estimate: float
    nodes_used: int
    diagnostics: dict
    converged: bool


def _endpoint_is_singular(
    seg, which: str, spec: ScenarioSpec, a: np.ndarray,
    tracked_factors, tracked_coords, geom_scale: float,
) -> bool:
    anchored = seg.anchored_start if which == "start" else seg.anchored_end
    if anchored and anchored in tracked_factors:
        return True
    z = seg.start_point if which == "start" else seg.end_point
    if spec.m == 1:
        for fi in tracked_factors:
            fac = spec.factors[fi - 1]
            coeffs = spec.coefficients_for(a, fi)
            val = complex(fac.values(coeffs, (z,)))
            scale = sum(
                abs(c) * max(1.0, abs(z)) ** mono[0]
                for c, mono in zip(coeffs, fac.monomials)
            )
            if abs(val) < 1e-9 * max(scale, 1e-300):
                return True
    for _p in tracked_coords:
        if abs(z) < 1e-9 * geom_scale:
            return True
    return False


def _path_rules(
    rpath: ResolvedPath, spec: ScenarioSpec, a: np.ndarray,
    tracked_factors, tracked_coords,
) -> list[str]:
    seg = rpath.segments[0]
    if (
        rpath.closed
        and rpath.nsegments == 1
        and seg.kind == "arc"
        and abs(abs(seg.angle_end - seg.angle_start) - 2 * math.pi) < 1e-12
        and not tracked_factors
        and not tracked_coords
    ):
        return ["trapezoid"]
    geom_scale = max(
        1.0,
        max(abs(s.start_point) for s in rpath.segments),
        max(abs(s.end_point) for s in rpath.segments),
    )
    rules = []
    for seg in rpath.segments:
        if seg.kind == "ray":
            rules.append("ray")
            continue
        singular = _endpoint_is_singular(
            seg, "start", spec, a, tracked_factors, tracked_coords, geom_scale
        ) or _endpoint_is_singular(
            seg, "end", spec, a, tracked_factors, tracked_coords, geom_scale
        )
        rules.append("tanh-sinh" if singular else "gauss")
    return rules


def _segment_nodes(rule: str, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local nodes s in (0,1), weights, and per-node tail factors.

    The tail factor is zero except at the outermost kept nodes of a
    tanh-sinh segment, where it converts that node's contribution into an
    estimate of the mass lost to endpoint clipping.  Level refinement
    cannot see that mass (the clip point is level-independent), so it has
    to enter the error estimate separately.
    """
    if rule == "trapezoid":
        n = 2**level
        s = np.arange(n) / n
        return s, np.full(n, 1.0 / n), np.zeros(n)
    if rule in ("gauss", "ray"):
        panels = max(1, 2**level // 16)
        xi, wi = _GL16
        s = ((np.arange(panels)[:, None] + (xi[None, :] + 1.0) / 2.0) / panels).ravel()
        w = np.tile(wi / (2.0 * panels), panels)
        return s, w, np.zeros(s.size)
    if rule == "tanh-sinh":
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
        return (x[keep] + 1.0) / 2.0, w[keep] / 2.0, tail
    raise ValueError(f"unknown rule {rule!r}")


def _axis_nodes(
    rpath: ResolvedPath, rules: list[str], level: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str]], np.ndarray]:
    """Global-parameter nodes, weights, and tail factors for one path."""
    ts_parts = []
    ws_parts = []
    tail_parts = []
    kinds = []
    for k, rule in enumerate(rules):
        s, w, tail = _segment_nodes(rule, level)
        ts_parts.append(k + s)
        ws_parts.append(w)
        tail_parts.append(tail)
        kinds.append((k, rule))
    return (
        np.concatenate(ts_parts),
        np.concatenate(ws_parts),
        kinds,
        np.concatenate(tail_parts),
    )


def branch_logs(
    spec: ScenarioSpec,
    a: np.ndarray,
    rpaths: list[ResolvedPath],
    axes_ts: list[np.ndarray],
    axes_pts: list[np.ndarray],
    factors,
    coords,
) -> tuple[dict, dict]:
    """Continuous logs of tracked factors and coordinates on a tensor grid.

    ``axes_ts`` and ``axes_pts`` hold the sorted global parameters of each
    axis and their points on ``rpaths``.  A factor's logs fill the whole
    grid: transport runs along a comb, down the first axis with the other
    coordinates held at their anchors, then recursively along later axes
    starting from the already-transported log.  A coordinate's logs vary
    along its own axis only and are shaped to broadcast against the grid.
    Every branch is principal at the path anchors.
    """
    m = len(rpaths)
    factor_logs = {}
    if factors:
        anchors_x = [complex(rp.point(rp.anchor_t)) for rp in rpaths]
    for fi in factors:
        fac = spec.factors[fi - 1]
        coeffs = spec.coefficients_for(a, fi)

        def rec(d: int, fixed_x: list, anchor_log):
            ts = axes_ts[d]
            pts = axes_pts[d]
            coords_d = tuple(
                pts if i == d else (fixed_x[i] if i < d else anchors_x[i])
                for i in range(m)
            )
            vals = fac.values(coeffs, coords_d)

            def eval_at(t: float) -> complex:
                x = [
                    (fixed_x[i] if i < d else anchors_x[i]) for i in range(m)
                ]
                x[d] = complex(rpaths[d].point(t))
                return complex(fac.values(coeffs, tuple(x)))

            logs = continued_logs(
                ts, vals, eval_at, rpaths[d].anchor_t, anchor_log=anchor_log
            )
            if d == m - 1:
                return logs
            out = np.empty([len(axes_ts[i]) for i in range(d, m)], dtype=complex)
            for k in range(len(ts)):
                out[k] = rec(d + 1, fixed_x + [complex(pts[k])], logs[k])
            return out

        factor_logs[fi] = rec(0, [], None)

    coord_logs = {}
    for p in coords:
        rp = rpaths[p - 1]
        logs = continued_logs(
            axes_ts[p - 1],
            axes_pts[p - 1],
            lambda t, _rp=rp: complex(_rp.point(t)),
            rp.anchor_t,
        )
        shape = [1] * m
        shape[p - 1] = logs.size
        coord_logs[p] = logs.reshape(shape)
    return factor_logs, coord_logs


def _term_level_value(
    spec: ScenarioSpec,
    a: np.ndarray,
    rpaths: list[ResolvedPath],
    all_rules: list[list[str]],
    level: int,
    tracked_factors,
    tracked_coords,
) -> tuple[complex, int, dict]:
    m = len(rpaths)
    axes_ts: list[np.ndarray] = []
    axes_ws: list[np.ndarray] = []
    axes_kinds = []
    axes_tail: list[np.ndarray] = []
    for rp, rules in zip(rpaths, all_rules):
        ts, ws, kinds, tail = _axis_nodes(rp, rules, level)
        axes_ts.append(ts)
        axes_ws.append(ws)
        axes_kinds.append(kinds)
        axes_tail.append(tail)
    axes_pts = [rp.point(ts) for rp, ts in zip(rpaths, axes_ts)]
    axes_dz = [rp.derivative(ts) for rp, ts in zip(rpaths, axes_ts)]

    grids = list(np.meshgrid(*axes_pts, indexing="ij")) if m > 1 else [axes_pts[0]]

    factor_logs, coord_logs = branch_logs(
        spec, a, rpaths, axes_ts, axes_pts, tracked_factors, tracked_coords
    )

    vals = integrand_values(spec, a, grids, factor_logs, coord_logs)

    diagnostics: dict = {}
    mags = np.abs(vals)
    peak = float(np.max(mags)) if mags.size else 0.0
    tip_info = []
    for axis, kinds in enumerate(axes_kinds):
        for seg_idx, rule in kinds:
            if rule != "ray":
                continue
            mask = (axes_ts[axis] >= seg_idx) & (axes_ts[axis] <= seg_idx + 1)
            idx_local = np.nonzero(mask)[0]
            tip_idx = idx_local[-1]
            axis_mags = mags if m == 1 else np.moveaxis(mags, axis, 0)
            tip_mag = float(np.max(np.abs(axis_mags[tip_idx])))
            ratio = tip_mag / max(peak, 1e-300)
            tip_info.append(
                {"axis": axis, "segment": seg_idx, "tip_ratio": ratio}
            )
    if tip_info:
        diagnostics["ray_tips"] = tip_info

    wd = [w * dz for w, dz in zip(axes_ws, axes_dz)]
    weight_grid = reduce(np.multiply.outer, wd) if m > 1 else wd[0]
    contributions = vals * weight_grid
    value = complex(np.sum(contributions))
    tail_est = 0.0
    for axis, tf in enumerate(axes_tail):
        if np.any(tf):
            shape = [1] * m
            shape[axis] = tf.size
            tail_est += float(np.sum(np.abs(contributions) * tf.reshape(shape)))
    if tail_est:
        diagnostics["tail_estimate"] = tail_est
    nodes = int(np.prod([ts.size for ts in axes_ts]))
    return value, nodes, diagnostics


def integrate_term(
    term: CycleTerm,
    spec: ScenarioSpec,
    a: np.ndarray | None = None,
) -> IntegralResult:
    """Integrate one product-cycle term, refining until level agreement.

    Tolerance comes from ``spec.settings``; levels run LEVEL_START..LEVEL_CAP.
    The returned value includes the term multiplicity.  If the level cap is
    reached without agreement the result is flagged unconverged but still
    returned.
    """
    if a is None:
        a = spec.coefficient_vector()
    a = np.asarray(a, dtype=complex)
    if len(term.paths) != spec.m:
        raise ValueError(
            f"cycle term has {len(term.paths)} path factors, scenario has m = {spec.m}"
        )
    tracked_factors, tracked_coords = tracked_requirements(spec)
    rpaths = [resolve_path(p, spec, a) for p in term.paths]
    all_rules = [
        _path_rules(rp, spec, a, tracked_factors, tracked_coords) for rp in rpaths
    ]

    tol = spec.settings.tol
    prev = None
    value = 0.0 + 0.0j
    err = math.inf
    nodes_total = 0
    diag: dict = {"rules": all_rules, "levels": []}
    converged = False
    for level in range(LEVEL_START, LEVEL_CAP + 1):
        value, nodes, level_diag = _term_level_value(
            spec, a, rpaths, all_rules, level, tracked_factors, tracked_coords
        )
        nodes_total += nodes
        diag["levels"].append({"level": level, "value": repr(value)})
        diag.update(level_diag)
        # clipped-tail mass is invisible to level agreement; fold it in
        tail_est = float(level_diag.get("tail_estimate", 0.0))
        if prev is not None:
            err = max(abs(value - prev), tail_est)
            if err <= tol * max(1.0, abs(value)):
                converged = True
                break
        prev = value
    warnings = []
    for tip in diag.get("ray_tips", []):
        if tip["tip_ratio"] > _TIP_RATIO:
            warnings.append(
                f"ray axis {tip['axis']} segment {tip['segment']}: tip magnitude "
                f"ratio {tip['tip_ratio']:.2e} above {_TIP_RATIO:.0e}; "
                f"truncation length may be too short"
            )
    if warnings:
        diag["warnings"] = warnings
    mult = complex(term.multiplicity)
    return IntegralResult(
        value=mult * value,
        error_estimate=abs(mult) * (err if prev is not None else math.inf),
        nodes_used=nodes_total,
        diagnostics=diag,
        converged=converged,
    )


def integrate_cycle(spec: ScenarioSpec, a: np.ndarray | None = None) -> IntegralResult:
    """Multiplicity-weighted sum over ``spec.cycle``, errors added in quadrature."""
    cycle = spec.cycle
    if not cycle.terms:
        raise ValueError("cycle has no terms")
    total = 0.0 + 0.0j
    err_sq = 0.0
    nodes = 0
    converged = True
    term_diags = []
    for k, term in enumerate(cycle.terms):
        res = integrate_term(term, spec, a=a)
        total += res.value
        err_sq += res.error_estimate**2
        nodes += res.nodes_used
        converged = converged and res.converged
        term_diags.append(res.diagnostics)
    return IntegralResult(
        value=total,
        error_estimate=math.sqrt(err_sq),
        nodes_used=nodes,
        diagnostics={"terms": term_diags},
        converged=converged,
    )
