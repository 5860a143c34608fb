"""Cycle integration against closed forms."""

import dataclasses
import math

import numpy as np
import pytest

from gkzperiods import (
    ArcSegment,
    CycleSpec,
    CycleTerm,
    EvalSettings,
    EvaluationError,
    FactorSupport,
    LineSegment,
    Path1D,
    PathSingularityError,
    PeriodFunction,
    RaySegment,
    RootAnchor,
    ScenarioError,
    ScenarioSpec,
    UnconvergedQuadratureError,
    eval_period,
    integrate_cycle,
    integrate_term,
    validate_scenario,
)
from gkzperiods import quadrature
from gkzperiods.quadrature import (
    _axis_nodes,
    _path_rules,
    _segment_nodes,
    _term_level_value,
    branch_logs,
)
from gkzperiods.scenario_io import builtin_scenario_names
from gkzperiods.verifier import verification_points
from gkzperiods.analytic_paths import (
    resolve_path,
    tracked_requirements,
)

from oracles import (
    GAUSS_SEGMENT_VALUE,
    airy_ai0,
    end_point,
    path_rules,
    resolve_rows,
    start_point,
)

from test_scenario import builtin

TWO_PI = 2.0 * math.pi


def unit_circle(radius=1.0, center=0.0):
    return Path1D(
        segments=(ArcSegment(center=center, radius=radius, angle_start=0.0,
                             angle_end=TWO_PI),),
        closed=True,
    )


def period_spec(name, factors, beta, cycle, m=1, **settings):
    spec = ScenarioSpec(
        name=name,
        m=m,
        factors=factors,
        twist_beta=tuple(beta),
        function_kind="period",
        cycle=cycle,
        settings=EvalSettings(**settings),
    )
    validate_scenario(spec)
    return spec


def test_residue_of_inverse_coordinate():
    # builtin: (2x)^(-1) around the unit circle, exactly pi i
    spec = builtin("residue_circle")
    val = PeriodFunction(spec)(spec.coefficient_vector())
    assert abs(val - 1j * math.pi) < 1e-12


def test_entire_integrand_integrates_to_zero_on_loops():
    # x^2 around the unit circle: holomorphic, so the loop integral vanishes
    fac = FactorSupport(index=1, kind="power", monomials=((0,), (1,)),
                        coefficients=(0.0, 1.0), lam=2.0)
    spec = period_spec("loop_zero", (fac,), (1.0,),
                       CycleSpec((CycleTerm(1.0, (unit_circle(),)),)))
    val = PeriodFunction(spec)(spec.coefficient_vector())
    assert abs(val) < 1e-12


def test_beta_integral_closed_form():
    spec = builtin("beta")
    val = PeriodFunction(spec)(spec.coefficient_vector())
    assert abs(val - 1.0 / 6.0) < 1e-12


def test_gauss_segment_against_frozen_reference():
    spec = builtin("gauss")
    val = PeriodFunction(spec)(spec.coefficient_vector())
    assert abs(val - GAUSS_SEGMENT_VALUE) < 1e-9


def test_airy_contour_value():
    spec = builtin("airy")
    val = PeriodFunction(spec)(spec.coefficient_vector())
    assert abs(val - TWO_PI * 1j * airy_ai0()) < 1e-8


def test_pochhammer_cycle_value():
    # double contour: (1 - mu0)(1 - mu1) B(3/2, 3/2) with mu = exp(2 pi i /2)
    spec = builtin("pochhammer")
    val = PeriodFunction(spec)(spec.coefficient_vector())
    b_32_32 = math.gamma(1.5) ** 2 / math.gamma(3.0)
    assert abs(val - 4.0 * b_32_32) < 1e-10
    assert abs(val - 0.5 * math.pi) < 1e-10


def test_torus_residue_in_two_variables():
    # dx dy / (x y) over a product of unit circles: (2 pi i)^2
    fac = FactorSupport(index=1, kind="power", monomials=((1, 1),),
                        coefficients=(1.0,), lam=-1.0)
    cycle = CycleSpec((CycleTerm(1.0, (unit_circle(), unit_circle())),))
    spec = period_spec("torus", (fac,), (1.0, 1.0), cycle, m=2)
    val = PeriodFunction(spec)(spec.coefficient_vector())
    assert abs(val - (2j * math.pi) ** 2) < 1e-10 * abs(val)


def bilinear_spec(a):
    # f = a0 + a1 y + a2 x + a3 x y with lam = 1/2, x = x1 and y = x2, on
    # the torus |x| = |y| = 1/2
    fac = FactorSupport(index=1, kind="power",
                        monomials=((0, 0), (0, 1), (1, 0), (1, 1)),
                        coefficients=tuple(complex(c) for c in a), lam=0.5)
    circle = unit_circle(radius=0.5)
    cycle = CycleSpec((CycleTerm(1.0, (circle, circle)),))
    return period_spec("bilinear", (fac,), (1.0, 1.0), cycle, m=2)


def comb_logs(spec):
    """Transported logs of factor 1 on a 65 x 49 grid over the torus."""
    a = spec.coefficient_vector()
    rpaths = [resolve_path(p, spec, a[None])[0] for p in spec.cycle.terms[0].paths]
    axes_ts = [np.linspace(0.0, 1.0, 65), np.linspace(0.0, 1.0, 49)]
    axes_pts = [rp.point(ts) for rp, ts in zip(rpaths, axes_ts)]
    factor_logs, _, errors = branch_logs(
        spec, a[None], rpaths, axes_ts, axes_pts, (1,), (),
    )
    assert not errors
    return [pts[0] for pts in axes_pts], factor_logs[1][0]


def test_comb_transport_is_principal_off_the_zero_locus():
    # |f - 3| <= 1.2 (r + r + r^2) = 1.5 on the torus, so f stays in a disk
    # that excludes 0 and log 3 + Log(f/3) is a continuous branch there
    rng = np.random.default_rng(5)
    a = np.concatenate([[3.0], 1.2 * np.exp(2j * np.pi * rng.uniform(size=3))])
    (xs, ys), logs = comb_logs(bilinear_spec(a))
    assert logs.shape == (65, 49)
    x, y = np.meshgrid(xs, ys, indexing="ij")
    f = a[0] + a[1] * y + a[2] * x + a[3] * x * y
    assert np.max(np.abs(logs - (math.log(3.0) + np.log(f / 3.0)))) < 1e-12


def test_comb_transport_winds_along_the_dominant_axis():
    # f = 0.3 + 2y + 0.4x: |2y| = 1 beats |0.3 + 0.4x| <= 0.5, so f winds
    # once around 0 as y turns, and never as x turns with y fixed; swapping
    # the x and y coefficients swaps the axes
    for a, winding_axis in (([0.3, 2.0, 0.4, 0.0], 1), ([0.3, 0.4, 2.0, 0.0], 0)):
        _, logs = comb_logs(bilinear_spec(a))
        gains = (logs[-1, :] - logs[0, :], logs[:, -1] - logs[:, 0])
        for axis, gain in enumerate(gains):
            expect = 2j * math.pi if axis == winding_axis else 0.0
            assert np.max(np.abs(gain - expect)) < 1e-12, (a, axis)


def test_divergent_endpoint_exponents_stay_honest():
    # int_0^1 x^(-1/2) (1-x)^(-1/2) dx = pi.  Exponent -1/2 at both ends is
    # at the edge of what pointwise double precision can resolve (the last
    # usable nodes sit ~1e-16 from the endpoint), so tanh-sinh stalls around
    # 1e-7 absolute.  The contract: get close AND report the stall rather
    # than claim convergence at tol 1e-10.
    fac = FactorSupport(index=1, kind="power", monomials=((0,), (1,)),
                        coefficients=(1.0, -1.0), lam=-0.5)
    cycle = CycleSpec(
        (CycleTerm(1.0, (Path1D(segments=(LineSegment(0.0, 1.0),),
                                anchor_t=0.5),)),)
    )
    spec = period_spec("halfpole", (fac,), (0.5,), cycle)
    res = integrate_cycle(spec, spec.coefficient_vector()[None])
    assert abs(res.value - math.pi) < 5e-7
    if not res.converged:
        with pytest.raises(UnconvergedQuadratureError):
            PeriodFunction(spec)(spec.coefficient_vector())
    # relaxing the tolerance to the honest floor converges cleanly
    loose = dataclasses.replace(
        spec, settings=dataclasses.replace(spec.settings, tol=1e-6)
    )
    val = PeriodFunction(loose)(loose.coefficient_vector())
    assert abs(val - math.pi) < 1e-6


def test_clipped_tail_enters_the_error_estimate():
    # int_0^1 x^(-1/2) (1-x)^(+1/2) dx = B(1/2, 3/2) = pi/2.  The divergent
    # end leaves ~5e-8 beyond the last representable node; plain level
    # agreement would claim 1e-9 convergence while being off by that much,
    # so the estimate must carry the clipped mass
    fac = FactorSupport(index=1, kind="power", monomials=((0,), (1,)),
                        coefficients=(1.0, -1.0), lam=0.5)
    cycle = CycleSpec(
        (CycleTerm(1.0, (Path1D(segments=(LineSegment(0.0, 1.0),),
                                anchor_t=0.5),)),)
    )
    spec = period_spec("halfzero", (fac,), (0.5,), cycle, tol=1e-9)
    res = integrate_cycle(spec, spec.coefficient_vector()[None])
    true_err = abs(res.value - 0.5 * math.pi)
    assert not res.converged
    assert res.error_estimate >= true_err
    # at a tolerance the clipping floor can meet, the run converges honestly
    loose = dataclasses.replace(
        spec, settings=dataclasses.replace(spec.settings, tol=1e-6)
    )
    res2 = integrate_cycle(loose, loose.coefficient_vector()[None])
    assert res2.converged
    assert abs(res2.value - 0.5 * math.pi) <= res2.error_estimate < 1.6e-6


def test_term_multiplicity_scales_value():
    spec = builtin("beta")
    term = spec.cycle.terms[0]
    doubled = CycleTerm(multiplicity=-2.0, paths=term.paths)
    a = spec.coefficient_vector()[None]
    r1 = integrate_term(term, spec, a)
    r2 = integrate_term(doubled, spec, a)
    assert abs(r2.value + 2.0 * r1.value) < 1e-12
    assert r1.converged and r2.converged


def test_error_estimate_covers_true_error():
    spec = builtin("gauss")
    res = integrate_cycle(spec, spec.coefficient_vector()[None])
    assert res.converged
    true_err = abs(res.value - GAUSS_SEGMENT_VALUE)
    assert true_err < 10.0 * max(res.error_estimate, 1e-12)


def test_level_refinement_converges_geometrically():
    spec = builtin("gauss")
    a = spec.coefficient_vector()
    term = spec.cycle.terms[0]
    tracked_factors, tracked_coords = tracked_requirements(spec)
    rpaths = [resolve_path(p, spec, a[None])[0] for p in term.paths]
    rules = [tuple(_path_rules(rp, spec, a[None], tracked_factors, tracked_coords)[0])
             for rp in rpaths]
    vals = []
    for level in range(4, 10):
        v = _term_level_value(spec, a[None], rpaths, rules, level,
                              tracked_factors, tracked_coords)[0]
        vals.append(v[0])
    errs = [abs(v - GAUSS_SEGMENT_VALUE) for v in vals]
    for e0, e1 in zip(errs, errs[1:]):
        if e0 < 1e-13:
            break
        assert e1 < 0.5 * e0


def test_split_segment_matches_single_segment():
    # same contour, different parameterization: split at an interior point
    spec = builtin("beta")
    single = PeriodFunction(spec)(spec.coefficient_vector())
    split_path = Path1D(
        segments=(LineSegment(0.0, 0.3), LineSegment(0.3, 1.0)),
        anchor_t=1.0,
    )
    split = dataclasses.replace(
        spec, cycle=CycleSpec((CycleTerm(1.0, (split_path,)),))
    )
    val = PeriodFunction(split)(split.coefficient_vector())
    assert abs(val - single) < 1e-10


def test_orientation_reversal_flips_sign():
    spec = builtin("beta")
    forward = PeriodFunction(spec)(spec.coefficient_vector())
    back_path = Path1D(segments=(LineSegment(1.0, 0.0),), anchor_t=0.5)
    back = dataclasses.replace(
        spec, cycle=CycleSpec((CycleTerm(1.0, (back_path,)),))
    )
    val = PeriodFunction(back)(back.coefficient_vector())
    assert abs(val + forward) < 1e-12


def with_ray_length(spec, length):
    """spec with every ray of its cycle truncated at ``length``."""
    def cut(path):
        segs = tuple(
            dataclasses.replace(s, length=length) if isinstance(s, RaySegment)
            else s
            for s in path.segments
        )
        return dataclasses.replace(path, segments=segs)

    terms = tuple(
        CycleTerm(t.multiplicity, tuple(cut(p) for p in t.paths))
        for t in spec.cycle.terms
    )
    return dataclasses.replace(spec, cycle=CycleSpec(terms))


def test_ray_truncation_is_long_enough():
    # lengthening the airy rays by a third moves nothing at this tolerance
    spec = builtin("airy")
    short = PeriodFunction(spec)(spec.coefficient_vector())
    long = with_ray_length(spec, 12.0)
    val = PeriodFunction(long)(long.coefficient_vector())
    assert abs(val - short) < 1e-10


def test_short_rays_are_flagged():
    # airy's rays cut from length 9 to 3 still agree between levels, but their
    # tips keep about 1e-4 of the peak magnitude, so those rows are not
    # converged; the shipped rays end below 1e-97
    spec = builtin("airy")
    rows = np.array(verification_points(spec.coefficient_vector(), 3, seed=7))
    for length, short in ((9.0, False), (3.0, True)):
        cut = with_ray_length(spec, length)
        res = integrate_cycle(cut, rows)
        assert res.row_converged.tolist() == [not short] * len(rows), length
        for term in res.diagnostics["terms"]:
            assert (term["tip_ratio"] > 0).all()
            assert term["short_rays"].tolist() == [short] * len(rows), length
    for got in eval_period(cut, rows):
        assert isinstance(got, UnconvergedQuadratureError)
        assert "ray truncation is too short" in str(got)


def test_level_cap_failure_raises():
    # no level reaches 1e-300 agreement before the fixed cap of 14
    spec = builtin("gauss")
    starved = dataclasses.replace(
        spec, settings=dataclasses.replace(spec.settings, tol=1e-300)
    )
    with pytest.raises(UnconvergedQuadratureError, match="level cap 14"):
        PeriodFunction(starved)(starved.coefficient_vector())


def test_moved_coefficients_move_the_value():
    # residue of c / (2x) picks up the perturbed numerator... the residue
    # pair (coefficient, value) must stay proportional
    spec = builtin("residue_circle")
    a = spec.coefficient_vector()
    val0 = PeriodFunction(spec)(a)
    val1 = PeriodFunction(spec)(2.0 * a)
    assert abs(val1 - 0.5 * val0) < 1e-12


def test_quadrature_nodes_are_built_once_and_read_only():
    for rule in ("trapezoid", "gauss", "ray", "tanh-sinh"):
        arrays = _segment_nodes(rule, 6)
        assert all(x is y for x, y in zip(arrays, _segment_nodes(rule, 6)))
        for x in arrays:
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0.5
    ts, ws, tail = _axis_nodes(("tanh-sinh", "gauss"), 6)
    assert _axis_nodes(("tanh-sinh", "gauss"), 6)[0] is ts
    assert np.all(np.diff(ts) > 0) and ts[0] > 0.0 and ts[-1] < 2.0
    for x in (ts, ws, tail):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.5


def row_level_values(diag, k):
    """Row k's level values, cut out of the rows' concatenated ones."""
    start = int(diag["row_levels"][:k].sum())
    return diag["levels"][start:start + diag["row_levels"][k]]


@pytest.mark.parametrize("name", ["airy", "gauss"])
def test_batch_rows_keep_their_own_diagnostics(name):
    # airy's rays carry tip ratios, gauss's tanh-sinh ends tail estimates
    spec = builtin(name)
    rows = np.array(verification_points(spec.coefficient_vector(), 3, seed=7))
    batch = integrate_cycle(spec, rows)
    for k, row in enumerate(rows):
        alone = integrate_cycle(spec, row[None])
        assert batch.value[k] == alone.value[0]
        assert batch.error_estimate[k] == alone.error_estimate[0]
        for term_batch, term_alone in zip(
            batch.diagnostics["terms"], alone.diagnostics["terms"]
        ):
            for key in ("row_levels", "tip_ratio", "short_rays"):
                assert term_batch[key][k] == term_alone[key][0], key
            assert np.array_equal(
                row_level_values(term_batch, k), term_alone["levels"]
            )
    assert batch.nodes_used == sum(
        integrate_cycle(spec, row[None]).nodes_used for row in rows
    )


def test_batch_rows_do_not_depend_on_the_batch_size(monkeypatch):
    # four 64 x 64 grids fill 256 KiB, where numpy starts to reuse large
    # temporaries in place; a row must still come out bit for bit as alone.
    # The node budget is raised so that the four rows share each level call
    rng = np.random.default_rng(5)
    rows = np.array(
        [np.concatenate([[3.0], 1.2 * np.exp(2j * np.pi * rng.uniform(size=3))])
         for _ in range(3)] + [[0.3, 2.0, 0.4, 0.0]],
        dtype=complex,
    )
    spec = bilinear_spec(rows[0])
    calls = []

    def counted(spec, a, rpaths, rules, level, *args):
        calls.append((len(a), level))
        return _term_level_value(spec, a, rpaths, rules, level, *args)

    monkeypatch.setattr(quadrature, "_term_level_value", counted)
    monkeypatch.setattr(quadrature, "_NODE_BUDGET", len(rows) * 64 * 64)
    batch = eval_period(spec, rows)
    # level 6 is the 64 x 64 grid
    assert (len(rows), 6) in calls
    assert batch == [eval_period(spec, row[None])[0] for row in rows]
    levels = integrate_cycle(spec, rows).diagnostics["terms"][0]["row_levels"]
    assert quadrature.LEVEL_START + max(levels) - 1 >= 6


@pytest.mark.parametrize(
    "name, failing",
    [
        # factor 2 vanishes identically: the row fails while paths resolve
        ("gauss", [2.0, -1.0, 0.0, 0.0]),
        # the integrand overflows on the ray: the row fails inside a level
        ("airy", [0.0, 1e3]),
    ],
)
def test_node_budget_slices_change_no_result(name, failing, monkeypatch):
    spec = builtin(name)
    rows = verification_points(spec.coefficient_vector(), 19, seed=3, rel=0.2)
    rows = np.array(rows[:7] + [failing] + rows[7:], dtype=complex)
    calls = []

    def counted(spec, a, *args):
        calls.append(len(a))
        return _term_level_value(spec, a, *args)

    monkeypatch.setattr(quadrature, "_term_level_value", counted)
    results, sizes = {}, {}
    for budget in (10**9, 1):
        monkeypatch.setattr(quadrature, "_NODE_BUDGET", budget)
        calls.clear()
        results[budget] = [integrate_term(t, spec, rows) for t in spec.cycle.terms]
        sizes[budget] = set(calls)
    # one row per level call under a budget of one node, the whole group without
    assert sizes[1] == {1} and max(sizes[10**9]) >= 19
    whole, sliced = results[10**9], results[1]
    for w, s in zip(whole, sliced):
        assert np.array_equal(w.value, s.value, equal_nan=True)
        assert np.array_equal(w.error_estimate, s.error_estimate, equal_nan=True)
        assert np.array_equal(w.row_converged, s.row_converged)
        assert w.nodes_used == s.nodes_used
        assert [repr(e) for e in w.errors] == [repr(e) for e in s.errors]
        assert w.errors[7] is not None and w.errors.count(None) == 19
        assert w.diagnostics.keys() == s.diagnostics.keys()
        for key, x in w.diagnostics.items():
            assert np.array_equal(x, s.diagnostics[key]), key


def resolution_against_oracle(spec, path, rows):
    """Batched endpoints, errors and rules of ``path``, checked row by row.

    Every row must match the scalar oracle exactly: the same endpoints, the
    same anchor error, the same rule for each segment.  Returns the
    batch's (rows, segments) rules.
    """
    tracked_factors, tracked_coords = tracked_requirements(spec)
    rpath, errors = resolve_path(path, spec, rows)
    ends, _ = rpath.endpoints()
    rules = _path_rules(rpath, spec, rows, tracked_factors, tracked_coords)
    for r, expected in enumerate(resolve_rows(path, spec, rows)):
        if isinstance(expected, EvaluationError):
            assert repr(errors[r]) == repr(expected)
            continue
        assert r not in errors
        assert [tuple(ends[k, :, r]) for k in range(rpath.nsegments)] == [
            (start_point(seg), end_point(seg)) for seg in expected.segments
        ]
        assert list(rules[r]) == path_rules(
            expected, spec, rows[r], tracked_factors, tracked_coords
        )
    return rules


@pytest.mark.parametrize("name", ["gauss", "beta", "airy", "residue_circle"])
def test_batched_resolution_matches_the_scalar_oracle(name):
    spec = builtin(name)
    rows = np.array(verification_points(spec.coefficient_vector(), 64, seed=5, rel=0.2))
    for term in spec.cycle.terms:
        for path in term.paths:
            resolution_against_oracle(spec, path, rows)


def test_endpoint_on_a_tracked_zero_takes_tanh_sinh_at_its_rows():
    # gauss's factor roots at the base coefficients, now fixed endpoints:
    # base rows sit on both zeros, perturbed rows on neither
    spec = builtin("gauss")
    path = Path1D(segments=(LineSegment(0.5, 2.0),), anchor_t=0.5)
    a = spec.coefficient_vector()
    moved = verification_points(a, 62, seed=5, rel=0.2)
    rows = np.array(moved[:30] + [a, a] + moved[30:])
    rules = resolution_against_oracle(spec, path, rows)
    tanh_sinh = rules[:, 0] == "tanh-sinh"
    assert np.array_equal(np.nonzero(tanh_sinh)[0], [30, 31])
    assert set(rules[~tanh_sinh, 0]) == {"gauss"}


def test_identically_vanishing_anchor_factor_fails_only_its_rows():
    spec = builtin("gauss")
    rows = verification_points(spec.coefficient_vector(), 62, seed=5, rel=0.2)
    rows = np.array(rows[:10] + [[2.0, -1.0, 0.0, 0.0]] + rows[10:]
                    + [[0.0, 0.0, 0.3, 1.0]], dtype=complex)
    path = spec.cycle.terms[0].paths[0]
    resolution_against_oracle(spec, path, rows)
    _, errors = resolve_path(path, spec, rows)
    assert sorted(errors) == [10, 63]
    assert all(isinstance(e, PathSingularityError) for e in errors.values())
    assert "vanishes identically" in str(errors[10])


def test_path_that_stops_chaining_at_one_row_raises_the_oracle_message():
    # the anchored end meets the next segment's start only while beta's
    # factor 1 - x keeps its root at 1; the first moved row breaks the chain
    spec = builtin("beta")
    path = Path1D(
        segments=(LineSegment(0.0, RootAnchor(factor=1, near=1.0)),
                  LineSegment(1.0, 2.0)),
        anchor_t=0.5,
    )
    a = spec.coefficient_vector()
    moved = verification_points(a, 60, seed=5, rel=0.2)
    rows = np.array([a] * 4 + moved)
    resolution_against_oracle(spec, path, rows[:4])
    with pytest.raises(ScenarioError, match="do not chain") as batched:
        resolve_path(path, spec, rows)
    with pytest.raises(ScenarioError) as scalar:
        resolve_rows(path, spec, rows)
    assert str(batched.value) == str(scalar.value)


# nodes and per-term refinement levels of integrate_cycle at each shipped
# period scenario's own verification points
SHIPPED_QUADRATURE_WORK = {
    "airy": (1344, (9, 9)),
    "beta": (288, (6,)),
    "gauss": (282, (6,)),
    "hesse_cubic": (15360, (6,)),
    "pochhammer": (1152, (6, 6, 6, 6)),
    "residue_circle": (288, (6,)),
    "torus_coefficient": (15360, (6,)),
}


def test_shipped_periods_keep_their_quadrature_work():
    periods = {
        name for name in builtin_scenario_names()
        if builtin(name).function_kind == "period"
    }
    assert set(SHIPPED_QUADRATURE_WORK) == periods
    for name, (nodes, levels) in SHIPPED_QUADRATURE_WORK.items():
        spec = builtin(name)
        settings = spec.settings
        rows = verification_points(
            spec.coefficient_vector(), settings.points, settings.seed, settings.point_rel
        )
        res = integrate_cycle(spec, np.array(rows))
        assert res.nodes_used == nodes, name
        assert tuple(len(t["levels"]) for t in res.diagnostics["terms"]) == levels, name


def test_every_completed_level_has_its_value():
    # perfbench counts a term's levels as len(diagnostics["levels"])
    for name in SHIPPED_QUADRATURE_WORK:
        spec = builtin(name)
        rows = verification_points(spec.coefficient_vector(), 3, seed=5)
        for term in spec.cycle.terms:
            diag = integrate_term(term, spec, np.array(rows)).diagnostics
            assert diag["row_levels"].shape == (len(rows),), name
            assert len(diag["levels"]) == diag["row_levels"].sum() > 0, name


def test_empty_batch_integrates_to_no_rows():
    for name in ("gauss", "airy", "residue_circle"):
        spec = builtin(name)
        res = integrate_cycle(spec, np.zeros((0, spec.n_columns()), dtype=complex))
        assert res.value.shape == (0,) and res.nodes_used == 0 and res.errors == ()
        assert all(len(x) == 0 for t in res.diagnostics["terms"] for x in t.values())
