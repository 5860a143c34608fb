"""Path resolution and continuous branch transport."""

import cmath
import math

import numpy as np
import pytest

from gkzperiods import (
    ArcSegment,
    LineSegment,
    Path1D,
    PathSingularityError,
    RootAnchor,
    ScenarioError,
)
from gkzperiods.analytic_paths import (
    continued_logs,
    integrand_values,
    resolve_path,
    tracked_requirements,
)
from gkzperiods.quadrature import branch_logs

from test_scenario import builtin


def full_circle(center=0.0, radius=1.0, turns=1, anchor_t=0.0):
    return Path1D(
        segments=(
            ArcSegment(center=center, radius=radius, angle_start=0.0,
                       angle_end=2.0 * math.pi * turns),
        ),
        closed=(turns == int(turns)),
        anchor_t=anchor_t,
    )


def transport(spec, path, factors=None, coords=None, samples=64):
    """Branch logs along one path at the base coefficients.

    Each segment is sampled at ``samples + 1`` equispaced parameters; the
    factors and coordinates default to those the quadrature tracks.
    Returns the parameters, their points, and the factor and coordinate
    logs keyed by index.
    """
    rows = spec.coefficient_vector()[None]
    rpath, errors = resolve_path(path, spec, rows)
    assert not errors
    ts = np.unique(np.concatenate(
        [np.linspace(k, k + 1, samples + 1) for k in range(rpath.nsegments)]
    ))
    pts = rpath.point(ts)
    auto_factors, auto_coords = tracked_requirements(spec)
    factor_logs, coord_logs, errors = branch_logs(
        spec, rows, [rpath], [ts], [pts],
        auto_factors if factors is None else factors,
        auto_coords if coords is None else coords,
    )
    if errors:
        raise errors[0]
    return (
        ts,
        pts[0],
        {fi: logs[0] for fi, logs in factor_logs.items()},
        {p: logs[0] for p, logs in coord_logs.items()},
    )


def coord_log_drift(spec, path, **kw):
    _, _, _, coord_logs = transport(spec, path, factors=(), coords=(1,), **kw)
    return coord_logs[1][-1] - coord_logs[1][0]


def test_full_turn_adds_two_pi_i_to_coordinate_log():
    spec = builtin("residue_circle")
    drift = coord_log_drift(spec, full_circle())
    assert abs(drift - 2.0j * math.pi) < 1e-12


def test_double_turn_adds_four_pi_i():
    spec = builtin("residue_circle")
    drift = coord_log_drift(spec, full_circle(turns=2))
    assert abs(drift - 4.0j * math.pi) < 1e-12


def test_loop_not_enclosing_origin_leaves_log_unchanged():
    spec = builtin("residue_circle")
    drift = coord_log_drift(spec, full_circle(center=3.0, radius=1.0))
    assert abs(drift) < 1e-12


def test_square_root_continues_to_i():
    # upper half circle from 1 to -1, principal at the start: exp(L/2) -> i
    spec = builtin("residue_circle")
    path = Path1D(
        segments=(
            ArcSegment(center=0.0, radius=1.0, angle_start=0.0,
                       angle_end=math.pi),
        ),
    )
    _, _, _, coord_logs = transport(spec, path, factors=(), coords=(1,))
    end = coord_logs[1][-1]
    assert abs(cmath.exp(0.5 * end) - 1j) < 1e-12


def test_exp_of_log_reproduces_tracked_value():
    # interior piece of the gauss segment: both factors stay away from zero
    spec = builtin("gauss")
    path = Path1D(segments=(LineSegment(start=0.6, end=1.8),))
    _, pts, factor_logs, coord_logs = transport(spec, path)
    a = spec.coefficient_vector()
    for k, point in enumerate(pts):
        for fi, logs in factor_logs.items():
            fac = spec.factors[fi - 1]
            val = fac.values(spec.coefficients_for(a, fi), (point,))
            assert abs(cmath.exp(logs[k]) - val) < 1e-10 * max(1.0, abs(val))
        for p, logs in coord_logs.items():
            assert abs(cmath.exp(logs[k]) - point) < 1e-10


def test_tracking_through_a_factor_root_raises():
    # the shipped gauss path ends exactly on the factor roots, so asking for
    # branch data at the endpoints must fail loudly rather than wrap garbage
    spec = builtin("gauss")
    path = spec.cycle.terms[0].paths[0]
    with pytest.raises(PathSingularityError):
        transport(spec, path)


def test_branch_transport_is_refinement_invariant():
    spec = builtin("pochhammer")
    path = spec.cycle.terms[0].paths[0]
    _, _, coarse, _ = transport(spec, path, samples=32)
    _, _, fine, _ = transport(spec, path, samples=256)
    for fi in coarse:
        assert abs(coarse[fi][-1] - fine[fi][-1]) < 1e-9


def test_exact_zero_on_path_raises():
    # the tracked coordinate passes through the origin
    spec = builtin("residue_circle")
    path = Path1D(segments=(LineSegment(start=-1.0, end=1.0),))
    with pytest.raises(PathSingularityError):
        transport(spec, path, factors=(), coords=(1,))


def test_root_anchor_follows_coefficients():
    spec = builtin("gauss")
    path = spec.cycle.terms[0].paths[0]
    a = spec.coefficient_vector()
    rp, _ = resolve_path(path, spec, a[None])
    ends = rp.endpoints()[0][:, :, 0]
    # base coefficients: factor 2 root at 0.5, factor 1 root at 2.0
    assert abs(ends[0, 0] - 0.5) < 1e-12
    assert abs(ends[-1, 1] - 2.0) < 1e-12
    # perturb the linear factors: the endpoints move with the roots
    b = a + np.array([0.07j, -0.02, 0.05, 0.01j])
    rp2, _ = resolve_path(path, spec, b[None])
    ends = rp2.endpoints()[0][:, :, 0]
    assert abs(ends[0, 0] - (-b[2] / b[3])) < 1e-10
    assert abs(ends[-1, 1] - (-b[0] / b[1])) < 1e-10
    assert rp2.segments[0].anchored_start == 2
    assert rp2.segments[-1].anchored_end == 1


def test_non_chaining_segments_rejected():
    spec = builtin("residue_circle")
    path = Path1D(
        segments=(
            LineSegment(start=1.0, end=2.0),
            LineSegment(start=3.0, end=4.0),
        ),
    )
    with pytest.raises(ScenarioError, match="do not chain"):
        resolve_path(path, spec, spec.coefficient_vector()[None])


def test_closed_path_must_return_to_start():
    spec = builtin("residue_circle")
    path = Path1D(
        segments=(
            ArcSegment(center=0.0, radius=1.0, angle_start=0.0,
                       angle_end=math.pi),
        ),
        closed=True,
    )
    with pytest.raises(ScenarioError, match="does not return"):
        resolve_path(path, spec, spec.coefficient_vector()[None])


def test_tracked_requirements_by_kind():
    # non-integer lambda and beta force tracking; integers do not
    assert tracked_requirements(builtin("gauss")) == ((1, 2), (1,))
    assert tracked_requirements(builtin("beta")) == ((), ())
    assert tracked_requirements(builtin("airy")) == ((), ())
    assert tracked_requirements(builtin("pochhammer")) == ((1, 2), ())
    assert tracked_requirements(builtin("quadratic_root")) == ((), ())


def test_integrand_values_airy_at_origin_is_one():
    spec = builtin("airy")
    path = spec.cycle.terms[0].paths[0]
    _, pts, factor_logs, coord_logs = transport(spec, path)
    vals, errors = integrand_values(
        spec, spec.coefficient_vector()[None], [pts[None]], factor_logs, coord_logs
    )
    assert not errors
    vals = vals[0]
    k = int(np.argmin(np.abs(pts)))
    assert abs(pts[k]) < 1e-12
    assert abs(vals[k] - 1.0) < 1e-12


def test_integrand_values_beta_density():
    # integrand of the beta scenario is x (1 - x) on (0, 1)
    spec = builtin("beta")
    path = spec.cycle.terms[0].paths[0]
    # integer exponents need no tracking (the endpoints sit on zeros anyway)
    _, pts, factor_logs, coord_logs = transport(spec, path, factors=(), coords=())
    vals, errors = integrand_values(
        spec, spec.coefficient_vector()[None], [pts[None]], factor_logs, coord_logs
    )
    assert not errors
    vals = vals[0]
    k = int(np.argmin(np.abs(pts - 0.5)))
    x = pts[k]
    assert abs(vals[k] - x * (1.0 - x)) < 1e-12


def test_branch_is_principal_at_anchor():
    spec = builtin("pochhammer")
    for term in spec.cycle.terms:
        path = term.paths[0]
        ts, pts, factor_logs, _ = transport(spec, path)
        k = int(np.argmin(np.abs(ts - path.anchor_t)))
        a = spec.coefficient_vector()
        for fi, logs in factor_logs.items():
            fac = spec.factors[fi - 1]
            val = fac.values(spec.coefficients_for(a, fi), (pts[k],))
            principal = cmath.log(complex(val))
            assert abs(logs[k] - principal) < 1e-10


def test_anchor_out_of_range_rejected():
    spec = builtin("residue_circle")
    path = Path1D(
        segments=(ArcSegment(center=0.0, radius=1.0, angle_start=0.0,
                             angle_end=2.0 * math.pi),),
        closed=True,
        anchor_t=5.0,
    )
    with pytest.raises(ScenarioError, match="anchor_t"):
        resolve_path(path, spec, spec.coefficient_vector()[None])


def test_bisection_runs_per_row_and_keeps_rows_apart():
    # five samples per turn: the circle around 3 (row 0) needs no
    # bisection, the unit circle (row 1) steps its argument by exactly
    # pi/2 and is bisected, and the segment through 0.4 (row 2) is
    # bisected towards its zero until the value falls below the floor
    ts = np.linspace(0.0, 1.0, 5)

    def curves(t):
        turn = np.exp(2j * math.pi * np.asarray(t))
        return np.array([3.0 + turn, turn, np.asarray(t) - 0.4 + 0j])

    calls = []

    def eval_at(t):
        calls.append(t)
        return curves(t)

    logs, errors = continued_logs(ts, curves(ts), eval_at, 0.0)
    assert calls
    assert abs(logs[0, -1] - logs[0, 0]) < 1e-12
    assert abs(logs[1, -1] - logs[1, 0] - 2j * math.pi) < 1e-12
    assert list(errors) == [2] and "below safety floor" in str(errors[2])
    assert np.all(np.isnan(logs[2]))
    # every row alone: same logs, same error
    for r in range(3):
        alone, alone_errors = continued_logs(
            ts, curves(ts)[r:r + 1], lambda t, _r=r: curves(t)[_r:_r + 1], 0.0
        )
        assert np.array_equal(alone[0], logs[r], equal_nan=True)
        assert [str(e) for e in alone_errors.values()] == (
            [str(errors[2])] if r == 2 else []
        )
