"""Numerical differentiation and operator residual checks."""

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import gkzperiods.verifier
from gkzperiods._stencils import SampleTable, _Template, _direction_sets, _template
from gkzperiods.analytic_paths import EvaluationError, PathSingularityError
from gkzperiods.gkz_system import (
    BoxOperator,
    EulerOperator,
    build_system,
    corrupt_eigenvalue,
)
from gkzperiods.period_functions import PeriodFunction
from gkzperiods.scenario import EvalSettings
from gkzperiods.scenario_io import builtin_scenario_names, load_scenario
from gkzperiods.verifier import (
    DerivativeCache,
    FrozenStencilError,
    _derivatives,
    _derive,
    differentiate,
    verification_points,
    verify,
)

from oracles import (
    PointSampleTable,
    cauchy_tensor,
    circle_sum,
    direction_set,
    direction_stencils,
    own_direction_set,
    quadratic_formula_root,
    quadratic_root_derivative,
    quadratic_root_second_mixed,
    tensor_grid,
)

from test_scenario import builtin

# spec-free tests differentiate entire or far-from-singular functions on
# circles of radius 0.5 * max(1, |a_v|)
DIFF = EvalSettings(radius_factor=0.5)


def test_second_derivative_of_square():
    d = differentiate(lambda a: a[0] ** 2, np.array([0.7 + 0.2j]), (2,), DIFF)
    assert abs(d.value - 2.0) < 1e-12
    assert d.warnings == ()


def test_third_derivative_of_exp():
    d = differentiate(lambda a: np.exp(a[0]), np.array([0.0j]), (3,), DIFF)
    assert abs(d.value - 1.0) < 1e-12


def test_mixed_partial_of_monomial():
    # d_a1 d_a2^2 of a1 a2^2 = 2, constant in a
    phi = lambda a: a[1] * a[2] ** 2
    d = differentiate(phi, np.array([0.3, -0.8 + 0.1j, 1.4j]), (0, 1, 2), DIFF)
    assert abs(d.value - 2.0) < 1e-12


def test_polynomial_exactness_below_node_count():
    # Cauchy circles with 16 nodes integrate coordinate degree < 16 exactly
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(13) + 1j * rng.standard_normal(13)

    def phi(a):
        return sum(c * a[0] ** k for k, c in enumerate(coeffs))

    a = np.array([0.4 - 0.3j])
    for q in (1, 3, 5):
        expect = sum(
            c * math.perm(k, q) * a[0] ** (k - q)
            for k, c in enumerate(coeffs)
            if k >= q
        )
        d = differentiate(phi, a, (q,), DIFF)
        assert abs(d.value - expect) < 1e-12 * max(1.0, abs(expect))


def test_differentiation_is_linear():
    f = lambda a: np.exp(a[0]) * a[1]
    g = lambda a: a[0] ** 3 + a[1] ** 2
    alpha, beta = 1.7 - 0.3j, -0.6 + 1.1j
    h = lambda a: alpha * f(a) + beta * g(a)
    a = np.array([0.2 + 0.1j, -0.5])
    multi = (2, 1)
    dh = differentiate(h, a, multi, DIFF).value
    df = differentiate(f, a, multi, DIFF).value
    dg = differentiate(g, a, multi, DIFF).value
    assert abs(dh - alpha * df - beta * dg) < 1e-10 * max(1.0, abs(dh))


def test_order_zero_returns_value():
    cache = DerivativeCache()
    a = np.array([1.0 + 2.0j])
    d = differentiate(lambda x: 3.0 * x[0], a, (0,), DIFF, cache)
    assert d.value == 3.0 * (1.0 + 2.0j)
    assert d.diagnostic == 0.0


def test_order_cap_and_negative_index_rejected():
    a = np.array([0.0j, 0.0j])
    with pytest.raises(ValueError, match="exceeds cap"):
        differentiate(lambda x: x[0], a, (4, 3), DIFF)
    with pytest.raises(ValueError, match="nonnegative"):
        differentiate(lambda x: x[0], a, (-1, 0), DIFF)
    with pytest.raises(ValueError, match="length"):
        differentiate(lambda x: x[0], a, (1,), DIFF)


def test_circle_evaluations_are_shared_between_orders():
    calls = {"n": 0}

    def phi(a):
        calls["n"] += 1
        return cmath.exp(a[0] + 0.5 * a[1])

    a = np.array([0.1, 0.2], dtype=complex)

    def evaluations(*multis):
        cache = DerivativeCache()
        before = calls["n"]
        _derive(phi, [a], list(multis), DIFF, cache)
        return calls["n"] - before, cache

    # (1,2) and (2,2) both use the 4 directions (rho0, rho1 i^j), and a single
    # coordinate's one circle serves every order: derived together, each pair
    # evaluates exactly the rows of its lower order alone
    for low, high in (((1, 2), (2, 2)), ((1, 0), (3, 0))):
        alone, _ = evaluations(low)
        together, cache = evaluations(low, high)
        assert together == alone > 0
    # and a repeated request is memoized outright
    before = calls["n"]
    for multi in ((3, 0), (1, 0), (0, 0)):
        differentiate(phi, a, multi, DIFF, cache)
    assert calls["n"] == before


def test_failed_evaluation_is_cached_and_raised_again():
    calls = {"n": 0}

    def phi(a):
        calls["n"] += 1
        raise PathSingularityError("synthetic failure")

    cache = DerivativeCache()
    a = np.array([0.3 + 0.1j, 0.5])
    # the first request evaluates a and both radii's circle once; asking
    # again evaluates nothing
    for _ in range(2):
        with pytest.raises(PathSingularityError, match="synthetic failure"):
            differentiate(phi, a, (1, 0), DIFF, cache)
    assert calls["n"] == cache.misses == 1 + 2 * 16
    # a new order samples its circles again, but not the failing centre
    with pytest.raises(PathSingularityError, match="synthetic failure"):
        differentiate(phi, a, (2, 0), DIFF, cache)
    with pytest.raises(PathSingularityError, match="synthetic failure"):
        cache.value(phi, a)
    assert calls["n"] == cache.misses == 1 + 4 * 16


class BatchOnly:
    """phi with a batch entry point; counts batch calls and their rows."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.rows = 0

    def __call__(self, a):
        raise AssertionError("a batching phi is not called point by point")

    def batch(self, rows):
        self.calls += 1
        self.rows += len(rows)
        out = []
        for row in rows:
            try:
                out.append(self.fn(row))
            except EvaluationError as exc:
                out.append(exc)
        return out


def test_stencil_goes_to_phi_batch_once():
    phi = BatchOnly(lambda a: cmath.exp(a[0] + 0.5 * a[1]))
    plain = DerivativeCache()
    batched = DerivativeCache()
    a = np.array([0.1, 0.2], dtype=complex)
    for multi in ((1, 2), (2, 2), (1, 0)):
        want = differentiate(phi.fn, a, multi, DIFF, plain)
        calls = phi.calls
        got = differentiate(phi, a, multi, DIFF, batched)
        assert got == want
        assert phi.calls - calls <= 1
    # batching moves evaluations, not counts
    assert (batched.hits, batched.misses) == (plain.hits, plain.misses)
    assert phi.rows == plain.misses


def test_failed_batch_row_is_cached_and_raised_again():
    bad = np.array([0.5, 0.0], dtype=complex)

    def fn(a):
        if np.array_equal(a, bad):
            raise PathSingularityError("synthetic row failure")
        return complex(a[0])

    phi = BatchOnly(fn)
    cache = DerivativeCache()
    good = np.array([0.25, 0.0], dtype=complex)
    assert cache.value(phi, good) == 0.25
    for _ in range(3):
        with pytest.raises(PathSingularityError, match="synthetic row failure"):
            cache.value(phi, bad)
    assert cache.value(phi, good) == 0.25
    # one miss for each point's first lookup, then hits; no re-evaluation
    assert (phi.calls, phi.rows) == (2, 2)
    assert (cache.misses, cache.hits) == (2, 3)


@pytest.mark.parametrize("extra", [-1, 1])
def test_batch_of_the_wrong_length_is_rejected(extra):
    class WrongLength:
        def __call__(self, a):
            return _smooth(a)

        def batch(self, rows):
            return [_smooth(row) for row in rows[:len(rows) + extra]] + [0j] * extra

    cache = DerivativeCache()
    # a and the 2 x 16 samples of one circle's two radii
    expect = f"phi.batch returned {33 + extra} entries for 33 rows"
    with pytest.raises(ValueError, match=expect):
        differentiate(WrongLength(), np.array([0.1j]), (1,), DIFF, cache)
    assert cache.values == {}


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


def _smooth(a):
    return complex(cmath.exp(0.3 * complex(sum(a))) / (3.0 + a[0]))


def _shipped_multis(spec) -> list:
    """Every derivative a shipped system's operators take, once, in order."""
    system = build_system(spec)
    n = spec.coefficient_vector().size
    return list(dict.fromkeys(
        m for op in list(system.eulers) + list(system.boxes)
        for m in _derivatives(op, n) if 0 < sum(m) <= 6
    ))


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_sample_table_matches_scalar_stencils_bit_for_bit(name):
    spec = load_scenario(name)
    settings = spec.settings
    a = verification_points(
        spec.coefficient_vector(), 1, settings.seed, settings.point_rel
    )[0]
    multis = _shipped_multis(spec)
    table = SampleTable(a[None], multis, settings)
    rows = table.rows[0]
    assert _bits(rows[0]).tolist() == _bits(a).tolist()
    values = np.array(DerivativeCache().evaluate(_smooth, rows))
    sums = table.circle_sums(values[None])[0]
    scalar = DerivativeCache()
    for j, multi in enumerate(multis):
        _, *stencils = direction_stencils(a, multi, settings, multis)
        for t, (points, phases, pref) in zip((2 * j, 2 * j + 1), stencils):
            k = table.lengths[t]
            assert np.array_equal(_bits(rows[table.index[t, :k]]), _bits(points))
            assert np.array_equal(_bits(table.phases[t, :k]), _bits(phases))
            assert np.array_equal(_bits(table.prefs[0, t]), _bits(pref)), multi
            want = circle_sum(lambda p: scalar.value(_smooth, p), (points, phases, pref))
            assert np.array_equal(_bits(sums[t]), _bits(want)), multi
    # all derivatives at once evaluate a and every distinct sample once,
    # as the sample-by-sample loop does
    scalar.value(_smooth, a)
    cache = DerivativeCache()
    _derive(BatchOnly(_smooth), [a], multis, settings, cache)
    assert cache.misses == scalar.misses == len(rows)


def _oracle_points(n: int, rng) -> np.ndarray:
    """100 points: unit scale, magnitudes spread by 10^+-3, and Gaussian
    integers of one magnitude per point (equal radii in every coordinate)."""
    def phases(count):
        return np.exp(2j * np.pi * rng.uniform(size=(count, n)))

    unit = rng.uniform(0.5, 1.5, (34, n)) * phases(34)
    spread = 10.0 ** rng.uniform(-3.0, 3.0, (33, n)) * phases(33)
    axes = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, (33, n))]
    equal = rng.integers(1, 5, (33, 1)) * axes
    return np.concatenate([unit, spread, equal])


# derivatives no shipped scenario asks for: n = 4 and 5, orders 1 to 6,
# first derivatives read off a mixed set (as its first coordinate and as
# one it turns) or kept on their own circle beside a higher pure power,
# and the quartic pair of ROADMAP item 12's K3 period
OTHER_MULTIS = {
    "n4_hosted": [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (2, 0, 1, 0),
                  (0, 0, 0, 3), (0, 0, 1, 0)],
    "n5_orders_1_to_6": [(0, 0, 0, 1, 0), (0, 0, 3, 3, 0), (1, 2, 3, 0, 0),
                         (0, 1, 0, 0, 5), (6, 0, 0, 0, 0), (0, 0, 2, 0, 2),
                         (1, 0, 0, 0, 0)],
    "n5_quartic_pair": [(1, 0, 1, 1, 1), (0, 4, 0, 0, 0)],
}


def _table_case(case):
    """(n, multis, settings) of a shipped scenario or an OTHER_MULTIS case."""
    if case in OTHER_MULTIS:
        multis = OTHER_MULTIS[case]
        return len(multis[0]), multis, DIFF
    spec = load_scenario(case)
    return spec.coefficient_vector().size, _shipped_multis(spec), spec.settings


def test_other_multis_host_first_derivatives_on_mixed_sets():
    for case, want in [("n4_hosted", {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)}),
                       ("n5_orders_1_to_6", {(0, 0, 0, 1, 0)})]:
        multis = OTHER_MULTIS[case]
        sets = _direction_sets(tuple(multis))
        hosted = {u for u in multis if len(sets[u][0]) > sum(u)}
        assert hosted == want, case


@pytest.mark.parametrize("case", builtin_scenario_names() + list(OTHER_MULTIS))
def test_stacked_table_matches_one_table_per_point_bit_for_bit(case):
    n, multis, settings = _table_case(case)
    points = _oracle_points(n, np.random.default_rng(23))
    table = SampleTable(points, multis, settings)
    for a, rows, prefs, amps in zip(points, table.rows, table.prefs, table.amps):
        want = PointSampleTable(a, multis, settings)
        # structural merge gives the bit merge's rows, none more or fewer
        assert rows.shape == want.rows.shape
        assert np.array_equal(_bits(rows), _bits(want.rows))
        assert np.array_equal(table.index, want.index)
        assert np.array_equal(_bits(table.phases), _bits(want.phases))
        assert np.array_equal(_bits(prefs), _bits(want.prefs))
        # the noise floor's prod q!/rho^q at half radius, as a scalar loop
        for j, multi in enumerate(multis):
            amp = 1.0
            for v, q in enumerate(multi):
                if q > 0:
                    amp *= math.factorial(q) / (want.radii[v] / 2.0) ** q
            assert _bits(amps[j]).tolist() == _bits(amp).tolist(), multi


@pytest.mark.parametrize("batching", [False, True])
def test_failing_half_radius_row_raises_like_the_scalar_sum(batching):
    a = np.array([0.3 + 0.1j, -0.5 + 0.2j], dtype=complex)
    # (1, 2) and (2, 2) sample the same four directions
    half_points = direction_stencils(a, (1, 2), DIFF)[2][0]
    bad = half_points[len(half_points) // 2].tobytes()

    def fn(p):
        if p.tobytes() == bad:
            raise PathSingularityError("synthetic middle row")
        return _smooth(p)

    phi = BatchOnly(fn) if batching else fn
    cache, scalar = DerivativeCache(), DerivativeCache()
    for multi in ((1, 2), (2, 2), (1, 2)):
        _, full, half = direction_stencils(a, multi, DIFF)
        with pytest.raises(PathSingularityError) as want:
            for stencil in (full, half):
                circle_sum(lambda p: scalar.value(fn, p), stencil)
        with pytest.raises(PathSingularityError) as got:
            differentiate(phi, a, multi, DIFF, cache)
        assert str(got.value) == str(want.value) == "synthetic middle row"
    # (1, 2) evaluates a and every sample once, the failing row included;
    # (2, 2) samples the same rows and evaluates them again, but not a; the
    # repeat reads the cached error
    samples = {p.tobytes() for stencil in (full, half) for p in stencil[0]}
    assert (cache.misses, cache.hits) == (1 + 2 * len(samples), 1)
    assert list(cache.values) == [a.tobytes()]
    if batching:
        assert (phi.calls, phi.rows) == (2, cache.misses)


def _noise_floor(a, multi, radius_factor, phi0):
    # differentiate's floor: 1e-10 * prod q!/(rho/2)^q * |phi(a)|
    amp = 1.0
    for v, q in enumerate(multi):
        rho = radius_factor * max(1.0, abs(a[v]))
        amp *= math.factorial(q) / (rho / 2.0) ** q
    return amp * abs(phi0) * 1e-10


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_direction_circles_match_tensor_grid_on_shipped_boxes(name):
    spec = load_scenario(name)
    settings = spec.settings
    pf = PeriodFunction(scenario=spec)
    cache = DerivativeCache()
    a = verification_points(
        spec.coefficient_vector(), 1, settings.seed, settings.point_rel
    )[0]
    phi0 = cache.value(pf, a)
    multis = {
        m for box in build_system(spec).boxes for m in (box.u_plus, box.u_minus)
    }
    for multi in sorted(multis):
        new = differentiate(pf, a, multi, settings, cache).value
        # 16 nodes per circle, as in the verifier; the grid goes to phi.batch
        grid = {p.tobytes(): p for p, _ in tensor_grid(a, multi, settings.radius_factor, 16)}
        values = dict(zip(grid, pf.batch(np.array(list(grid.values())))))
        tensor = cauchy_tensor(
            lambda p: values[p.tobytes()], a, multi, settings.radius_factor, 16
        )
        floor = _noise_floor(a, multi, settings.radius_factor, phi0)
        scale = max(abs(new), abs(tensor))
        assert abs(new - tensor) <= 1e-6 * max(scale, floor), (multi, new, tensor)
        if name == "gl_quadratic" and sum(q > 0 for q in multi) > 1:
            # d^u of 1/a2 vanishes when u touches a0 or a1: noise only
            assert scale < floor


def test_mixed_partials_exact_on_polynomials():
    # total degree 12 is below nodes + q on every direction circle, and the
    # direction average is exact, so only rounding remains
    rng = np.random.default_rng(12)
    exps = [e for e in itertools.product(range(13), repeat=3) if sum(e) <= 12]
    coeffs = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
    powers = np.array(exps)

    def phi(a):
        return complex(np.prod(a ** powers, axis=1) @ coeffs)

    a = np.array([0.3 - 0.2j, -0.4 + 0.1j, 0.2 + 0.5j])
    cache = DerivativeCache()
    mixed = [
        u for u in itertools.product(range(7), repeat=3)
        if sum(u) <= 6 and sum(q > 0 for q in u) >= 2
    ]
    # one table for all of them, as verify derives a point's derivatives
    _derive(phi, [a], mixed, DIFF, cache)
    for u in mixed:
        expect = 0.0j
        for e, c in zip(exps, coeffs):
            if all(ev >= uv for ev, uv in zip(e, u)):
                term = c
                for ev, uv, av in zip(e, u, a):
                    term *= math.perm(ev, uv) * av ** (ev - uv)
                expect += term
        d = differentiate(phi, a, u, DIFF, cache)
        assert abs(d.value - expect) < 1e-10 * abs(expect), u


def _exact_direction_sum(u, alpha, sizes) -> list:
    """sum over the directions of a set with circle counts ``sizes`` of
    prod_i zeta_i^(j_i (alpha_i - u_i)), i past the first coordinate, in
    exact cyclotomic arithmetic: its integer coordinates on the basis
    1, w, ..., w^(M/2 - 1) of Z[w], w = exp(2 pi i / M), M the largest
    count (a power of two, so w^(M/2) = -1)."""
    big = max(sizes[1:], default=1)
    counts = [0] * big
    for turns in itertools.product(*(range(m) for m in sizes[1:])):
        e = sum(j * (big // m) * (a - q)
                for j, m, a, q in zip(turns, sizes[1:], alpha[1:], u[1:]))
        counts[e % big] += 1
    if big == 1:
        return counts
    return [counts[e] - counts[e + big // 2] for e in range(big // 2)]


def test_direction_sets_isolate_each_derivative_exactly():
    # every alpha of |alpha| = q over the set's support: the direction
    # average of d^u's phases keeps alpha = u alone, exactly
    hosted = 0
    for name in builtin_scenario_names():
        multis = _shipped_multis(load_scenario(name))
        sets = _direction_sets(tuple(multis))
        for u in multis:
            support, sizes = sets[u]
            assert (support, sizes) == direction_set(u, multis), (name, u)
            hosted += (support, sizes) != own_direction_set(u)
            q = sum(u)
            on = tuple(u[v] for v in support)
            assert sum(on) == q, (name, u, support)
            directions = math.prod(sizes[1:])
            for alpha in itertools.product(range(q + 1), repeat=len(support)):
                if sum(alpha) != q:
                    continue
                got = _exact_direction_sum(on, alpha, sizes)
                want = [directions if alpha == on else 0] + [0] * (len(got) - 1)
                assert got == want, (name, u, support, sizes, alpha)
    # gauss, pochhammer, torus_coefficient and cubic_root_parametric 4
    # each, hesse_cubic 3, quadratic_root, gl_quadratic and gl_cubic 2
    # each, none elsewhere
    assert hosted == 4 * 4 + 3 + 2 * 3


def test_hosted_first_derivatives_are_exact_on_polynomials():
    # total degree 15: the 16-node circles alias no term of order 1
    rng = np.random.default_rng(15)
    exps = [e for e in itertools.product(range(16), repeat=3) if sum(e) <= 15]
    coeffs = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
    powers = np.array(exps)

    def phi(a):
        return complex(np.prod(a ** powers, axis=1) @ coeffs)

    a = np.array([0.3 - 0.2j, -0.4 + 0.1j, 0.2 + 0.5j])
    firsts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    multis = firsts + [(1, 0, 1), (0, 2, 1)]
    # d_0 and d_2 read (1, 0, 1)'s 32 samples, d_1 the 64 of (0, 2, 1)
    assert [direction_set(u, multis) for u in firsts] == [
        ((0, 2), (16, 2)), ((1, 2), (16, 4)), ((0, 2), (16, 2))]
    cache = DerivativeCache()
    _derive(phi, [a], multis, DIFF, cache)
    for v, u in enumerate(firsts):
        expect = sum(c * e[v] * np.prod(a ** (np.array(e) - np.array(u)))
                     for e, c in zip(exps, coeffs) if e[v])
        got = cache.derivs[a.tobytes(), u, DIFF.radius_factor].value
        assert abs(got - expect) < 1e-10 * abs(expect), u


def test_frozen_part_is_an_error_in_every_stencil_that_samples_it():
    # a radius of 1e-20 moves a0 = 1e-30 and the imaginary part of a1 = 1,
    # but not its real part: every row of the stencils below differs from
    # a, yet none samples a circle in a1
    settings = EvalSettings(radius_factor=1e-20)
    a = np.array([1e-30, 1.0], dtype=complex)
    fn = lambda p: p[0] * cmath.exp(p[1])
    multis = [(1, 0), (0, 1), (1, 1), (2, 0)]
    cache = DerivativeCache()
    _derive(fn, [a], multis, settings, cache)
    # d_1 reads the samples of (1, 1); d_0 and d_0^2 read a0's own circle
    assert direction_set((0, 1), multis) == ((0, 1), (16, 2))
    for u in ((0, 1), (1, 1)):
        d = cache.derivs[a.tobytes(), u, 1e-20]
        assert isinstance(d, FrozenStencilError), u
        assert str(d).startswith(f"derivative d^{u} has a stencil")
    # (1, 0)'s circle moves a0 alone: exact up to rounding
    d = cache.derivs[a.tobytes(), (1, 0), 1e-20]
    assert abs(d.value - math.e) < 1e-12 * math.e
    # d_0 beside (1, 1) alone reads its samples, which do not move a1
    # along a circle
    alone = DerivativeCache()
    _derive(fn, [a], [(1, 0), (1, 1)], settings, alone)
    assert isinstance(alone.derivs[a.tobytes(), (1, 0), 1e-20], FrozenStencilError)


@pytest.mark.parametrize("name", ["residue_circle", "gl_quadratic"])
def test_radius_below_the_ulp_is_an_error_cell(name):
    # every row of every first-derivative stencil rounds to its point
    spec = builtin(name)
    spec = replace(spec, settings=replace(spec.settings, radius_factor=1e-300))
    report = verify(build_system(spec), PeriodFunction(scenario=spec))
    assert report.has_errors and not report.passed
    eulers = [c for c in report.cells if c.operator.startswith("euler")]
    assert eulers and all(c.error.startswith("FrozenStencilError: ") for c in eulers)


def test_vanishing_mixed_partial_stays_quiet():
    d = differentiate(
        lambda a: np.exp(a[0]), np.array([0.4 + 0.3j, -0.7]), (1, 1), DIFF
    )
    assert abs(d.value) < 1e-12
    assert d.warnings == ()


def test_diagnostic_flags_pole_inside_circle():
    # pole at 1.0 sits inside both sampling circles around 0.9
    phi = lambda a: 1.0 / (a[0] - 1.0)
    d = differentiate(phi, np.array([0.9 + 0.0j]), (1,), DIFF)
    assert d.diagnostic > 1e-4
    assert any("agreement" in w for w in d.warnings)


def test_exact_zero_derivative_stays_quiet():
    # d^2/da1^2 of a function not depending on a1: zero, and no warning
    phi = lambda a: a[0] ** 3
    d = differentiate(phi, np.array([0.8, 0.6 + 0.2j]), (0, 2), DIFF)
    assert abs(d.value) < 1e-13
    assert d.warnings == ()


def test_quadratic_root_derivatives_match_implicit_formula():
    spec = builtin("quadratic_root")
    pf = PeriodFunction(scenario=spec)
    cache = DerivativeCache()
    for a in verification_points(spec.coefficient_vector(), 3, seed=17):
        x = quadratic_formula_root(a, near=pf(a))
        for j in range(3):
            multi = tuple(1 if v == j else 0 for v in range(3))
            d = differentiate(pf, a, multi, spec.settings, cache)
            expect = quadratic_root_derivative(a, x, j)
            assert abs(d.value - expect) < 1e-8 * max(1.0, abs(expect))
        # both second mixed partials against the closed form
        for multi in ((1, 0, 1), (0, 2, 0)):
            d = differentiate(pf, a, multi, spec.settings, cache)
            expect = quadratic_root_second_mixed(a, x)
            assert abs(d.value - expect) < 1e-7 * max(1.0, abs(expect))


def apply_alone(op, phi, a, settings, cache=None):
    """The cell of verify on a system holding op alone, at the one point a,
    with the given settings on its scenario; an error cell fails the test."""
    spec = builtin("quadratic_root")
    base = build_system(replace(spec, settings=settings))
    euler = isinstance(op, EulerOperator)
    system = replace(base, eulers=(op,) if euler else (), boxes=() if euler else (op,))
    (cell,) = verify(system, phi, points=[a], cache=cache).cells
    assert cell.error is None, cell.error
    return cell


def test_euler_operator_application():
    # phi = a0 a1 satisfies (a0 d0 + a1 d1 - 2) phi = 0
    phi = lambda a: a[0] * a[1]
    a = np.array([0.8 - 0.1j, 1.3 + 0.4j])
    good = EulerOperator(weights=(1, 1), eigenvalue=2.0, label=("exponent", 1))
    app = apply_alone(good, phi, a, DIFF)
    assert app.relative < 1e-12
    assert not app.degenerate
    bad = EulerOperator(weights=(1, 1), eigenvalue=1.0, label=("exponent", 1))
    app2 = apply_alone(bad, phi, a, DIFF)
    assert app2.relative > 0.2


def test_box_operator_application():
    # phi = exp(a0 a2 + a1^2 / 2): d0 d2 phi - d1^2 phi = (a0 a2 - a1^2) phi,
    # so the residual vanishes exactly on the a0 a2 = a1^2 locus
    phi = lambda a: np.exp(a[0] * a[2] + 0.5 * a[1] ** 2)
    box = BoxOperator(u_plus=(1, 0, 1), u_minus=(0, 2, 0))
    off = apply_alone(box, phi, np.array([0.3, 0.4, 0.2], dtype=complex), DIFF)
    assert off.relative > 1e-3
    on = apply_alone(
        box, phi, np.array([0.3, math.sqrt(0.06), 0.2], dtype=complex), DIFF
    )
    assert on.relative < 1e-10


def test_apply_operator_sends_one_batch():
    # the point and both radii's samples of every derivative the operator
    # applies go to phi together, with the same residual as derivatives
    # made one at a time
    fn = lambda a: cmath.exp(a[0] * a[2] + 0.5 * a[1] ** 2)
    a = np.array([0.3, 0.4, 0.2], dtype=complex)
    box = BoxOperator(u_plus=(1, 0, 1), u_minus=(0, 2, 0))
    euler = EulerOperator(weights=(1, 0, 2), eigenvalue=1.5, label=("exponent", 1))
    for op in (box, euler):
        phi = BatchOnly(fn)
        cache = DerivativeCache()
        app = apply_alone(op, phi, a, DIFF, cache)
        assert (phi.calls, phi.rows) == (1, cache.misses)
        one_at_a_time = DerivativeCache()
        ds = [differentiate(fn, a, m, DIFF, one_at_a_time) for m in _derivatives(op, 3)]
        if op is box:
            assert app.raw == ds[0].value - ds[1].value
        else:
            phi0 = fn(a)
            assert app.raw == -1.5 * phi0 + a[0] * ds[0].value + 2 * a[2] * ds[1].value
        # a repeated application evaluates nothing
        assert apply_alone(op, phi, a, DIFF, cache) == app
        assert phi.calls == 1


def test_degenerate_operator_flagged():
    # box of order 2 on a linear function: both sides vanish identically
    phi = lambda a: 2.0 * a[0] + a[1]
    box = BoxOperator(u_plus=(2, 0), u_minus=(0, 2))
    app = apply_alone(box, phi, np.array([0.4, 0.7], dtype=complex), DIFF)
    assert app.degenerate
    assert app.relative == 0.0


def test_verification_points_reproducible_and_bounded():
    base = np.array([-1.0, 0.1, 1.0], dtype=complex)
    p1 = verification_points(base, 5, seed=42)
    p2 = verification_points(base, 5, seed=42)
    for u, v in zip(p1, p2):
        assert np.array_equal(u, v)
    p3 = verification_points(base, 5, seed=43)
    assert not np.array_equal(p1[0], p3[0])
    scale = np.where(np.abs(base) > 1e-12, np.abs(base), 1.0)
    for pt in p1:
        rel = np.abs(pt - base) / scale
        assert np.all(rel >= 0.1 - 1e-12) and np.all(rel <= 0.2 + 1e-12)


def test_verify_passes_on_root_scenario():
    spec = builtin("quadratic_root")
    system = build_system(spec)
    report = verify(system, PeriodFunction(scenario=spec))
    assert report.passed
    assert not report.has_errors
    assert report.max_relative < 1e-6
    assert len(report.points) == spec.settings.points
    n_ops = len(system.eulers) + len(system.boxes)
    assert len(report.cells) == n_ops * len(report.points)


def test_verify_fails_after_corruption():
    spec = builtin("quadratic_root")
    system = corrupt_eigenvalue(build_system(spec), row=1)
    report = verify(system, PeriodFunction(scenario=spec))
    assert not report.passed
    assert report.max_relative > 1e-2


def test_verify_reports_order_above_cap_as_error_cell():
    spec = builtin("gl_quadratic")
    base = build_system(spec)
    n = len(base.matrix.column_labels)
    too_high = BoxOperator(u_plus=(7,) + (0,) * (n - 1), u_minus=(0,) * n)
    system = replace(base, eulers=(), boxes=(too_high,))
    report = verify(system, lambda a: complex(a[0]), points=[np.ones(n)])
    assert len(report.cells) == 1
    assert "DerivativeOrderError" in report.cells[0].error
    assert report.has_errors
    assert not report.passed


def test_verify_rejects_empty_point_list():
    spec = builtin("quadratic_root")
    with pytest.raises(ValueError, match="at least one point"):
        verify(build_system(spec), PeriodFunction(scenario=spec), points=[])


def test_verify_collects_evaluation_errors():
    spec = builtin("quadratic_root")
    system = build_system(spec)

    def broken(a):
        raise PathSingularityError("synthetic failure")

    report = verify(system, broken)
    assert report.has_errors
    assert not report.passed
    assert all(c.error is not None for c in report.cells)
    assert "synthetic failure" in report.cells[0].error


def test_verify_shared_cache_reuses_values():
    spec = builtin("quadratic_root")
    system = build_system(spec)
    calls = {"n": 0}
    inner = PeriodFunction(scenario=spec)

    def phi(a):
        calls["n"] += 1
        return inner(a)

    cache = DerivativeCache()
    verify(system, phi, cache=cache)
    first = calls["n"]
    # corrupted re-verify at the same points: derivatives all cached
    verify(corrupt_eigenvalue(system, row=0), phi, cache=cache)
    assert calls["n"] == first


def test_verify_sends_one_batch_per_run():
    spec = builtin("gl_quadratic")
    system = build_system(spec)
    phi = BatchOnly(lambda a: cmath.exp(a[0]) / a[2] + a[1] ** 3)
    points = verification_points(spec.coefficient_vector(), 2, seed=4)
    cache = DerivativeCache()
    verify(system, phi, points=points, cache=cache)
    assert phi.calls == 1
    assert phi.rows == cache.misses
    # every derivative is finished: a rerun evaluates nothing
    verify(system, phi, points=points, cache=cache)
    assert phi.calls == 1


# cheap shipped scenarios of each function kind
CROSS_POINT_SCENARIOS = ["quadratic_root", "gl_quadratic", "residue_circle", "beta"]


@pytest.mark.parametrize("name", CROSS_POINT_SCENARIOS)
def test_cells_do_not_depend_on_the_other_points(name):
    spec = builtin(name)
    system = build_system(spec)
    phi = PeriodFunction(scenario=spec)
    points = verification_points(spec.coefficient_vector(), 3, seed=11)
    report = verify(system, phi, points=points)
    for k, pt in enumerate(points):
        alone = verify(system, phi, points=[pt])
        assert alone.phi_values == report.phi_values[k:k + 1]
        cells = [replace(c, point_index=0) for c in report.cells if c.point_index == k]
        # repr tells every float apart by its bits, -0.0 from 0.0 too
        assert repr(cells) == repr(list(alone.cells))


def test_repeated_point_is_evaluated_once():
    spec = builtin("gl_quadratic")
    system = build_system(spec)
    point = verification_points(spec.coefficient_vector(), 1, seed=3)[0]
    runs = []
    for points in ([point], [point, point.copy()]):
        phi = BatchOnly(lambda a: cmath.exp(a[0]) / a[2] + a[1] ** 3)
        cache = DerivativeCache()
        report = verify(system, phi, points=points, cache=cache)
        runs.append((phi, cache, report))
    (one, one_cache, single), (two, two_cache, double) = runs
    assert (one.calls, one.rows) == (two.calls, two.rows) == (1, one_cache.misses)
    assert two_cache.misses == one_cache.misses
    # the copy's value lookup and every derivative its cells read are hits
    assert two_cache.hits == 2 * one_cache.hits
    assert double.cells == single.cells + tuple(
        replace(c, point_index=1) for c in single.cells)


def test_failing_point_errors_only_its_own_cells():
    spec = builtin("gl_quadratic")
    system = build_system(spec)
    points = verification_points(spec.coefficient_vector(), 3, seed=5)
    clean = verify(system, PeriodFunction(scenario=spec), points=points)
    phi = FailingBatchPhi(spec, [points[1]])
    report = verify(system, phi, points=points)
    assert phi.calls == 1
    assert report.phi_values == (clean.phi_values[0], None, clean.phi_values[2])
    for got, want in zip(report.cells, clean.cells):
        if got.point_index == 1:
            assert got.error == "PathSingularityError: synthetic row failure"
        else:
            assert repr(got) == repr(want)
    assert report.has_errors and not report.passed


def test_verified_points_keep_their_derivatives_not_their_rows():
    spec = builtin("gl_quadratic")
    settings = spec.settings
    system = build_system(spec)
    phi = BatchOnly(lambda a: cmath.exp(a[0]) / a[2] + a[1] ** 3)
    points = verification_points(spec.coefficient_vector(), 2, seed=4)
    cache = DerivativeCache()
    verify(system, phi, points=points, cache=cache)
    rows, n = phi.rows, points[0].size
    needed = {
        m for op in list(system.eulers) + list(system.boxes)
        for m in _derivatives(op, n)
    }
    for multi in needed:
        differentiate(phi, points[1], multi, settings, cache)
    assert phi.rows == rows
    # a derivative no operator needs: its stencil rows, not the point
    multi = next(m for m in itertools.product(range(3), repeat=n)
                 if sum(m) == 2 and m not in needed)
    differentiate(phi, points[1], multi, settings, cache)
    table = SampleTable(points[1][None], [multi], settings)
    assert phi.rows - rows == table.rows.shape[1] - 1


class FailingPhi:
    """A shipped phi that raises PathSingularityError at the chosen points;
    counts the points it evaluates."""

    def __init__(self, spec, bad):
        self.pf = PeriodFunction(scenario=spec)
        self.bad = {p.tobytes() for p in bad}
        self.points = 0

    def __call__(self, a):
        self.points += 1
        if a.tobytes() in self.bad:
            raise PathSingularityError("synthetic row failure")
        return self.pf(a)


class FailingBatchPhi(FailingPhi):
    calls = 0

    def batch(self, rows):
        self.calls += 1
        self.points += len(rows)
        return [
            PathSingularityError("synthetic row failure")
            if row.tobytes() in self.bad else v
            for row, v in zip(rows, self.pf.batch(rows))
        ]


@pytest.mark.parametrize("name", ["quadratic_root", "gl_quadratic", "residue_circle"])
def test_failing_rows_mark_only_the_cells_that_use_them(name):
    spec = builtin(name)
    settings = spec.settings
    system = build_system(spec)
    operators = list(system.eulers) + list(system.boxes)
    points = verification_points(spec.coefficient_vector(), 2, seed=8)
    n = points[0].size
    # one halved-circle row of the highest derivative at point 1
    multi = max(
        (m for op in operators for m in _derivatives(op, n)), key=lambda m: (sum(m), m)
    )
    run = _shipped_multis(spec)
    bad = direction_stencils(points[1], multi, settings, run)[2][0][-1]
    using = {
        m for op in operators for m in _derivatives(op, n)
        if any(np.array_equal(p, bad)
               for st in direction_stencils(points[1], m, settings, run)[1:]
               for p in st[0])
    }
    plain_phi, plain_cache = FailingPhi(spec, [points[0], bad]), DerivativeCache()
    plain = verify(system, plain_phi, points=points, cache=plain_cache)
    batching, cache = FailingBatchPhi(spec, [points[0], bad]), DerivativeCache()
    report = verify(system, batching, points=points, cache=cache)
    assert report == plain
    # both points' rows, the failing ones too, go to phi in one batch
    assert batching.calls == 1
    # misses count every evaluation, the rows beside a failing point too
    assert plain_phi.points == plain_cache.misses
    assert batching.points == cache.misses
    assert (plain_cache.hits, plain_cache.misses) == (cache.hits, cache.misses)
    message = "PathSingularityError: synthetic row failure"
    # a failing centre fails every cell at its point
    assert report.phi_values[0] is None
    assert all(c.error == message for c in report.cells if c.point_index == 0)
    # a failing stencil row fails the cells whose derivatives sample it
    failed = {i for i, op in enumerate(operators)
              if using.intersection(_derivatives(op, n))}
    at_one = [c for c in report.cells if c.point_index == 1]
    # residue_circle's two Euler rows share its only derivative
    assert failed and (len(failed) < len(operators) or not system.boxes)
    assert [c.error for c in at_one] == [
        message if i in failed else None for i in range(len(operators))
    ]


def _derivs_repr(cache) -> dict:
    """Each cached derivative by repr, or its error by type and message."""
    return {
        key: (type(d).__name__, str(d)) if isinstance(d, EvaluationError) else repr(d)
        for key, d in cache.derivs.items()
    }


def test_mixed_cache_states_derive_as_one_call_per_point():
    spec = builtin("gl_quadratic")
    settings = spec.settings
    system = build_system(spec)
    multis = _shipped_multis(spec)
    points = verification_points(spec.coefficient_vector(), 3, seed=6)
    # at point 2, the first sample of the first derivative and the last
    # halved-circle sample of the highest one
    top = max(multis, key=lambda m: (sum(m), m))
    bad = [direction_stencils(points[2], multis[0], settings, multis)[1][0][0],
           direction_stencils(points[2], top, settings, multis)[2][0][-1]]
    # point 1 again, as a copy
    run = points + [points[1].copy()]

    def prepared():
        phi, cache = FailingBatchPhi(spec, bad), DerivativeCache()
        # phi known at point 0, two derivatives finished at point 1 by a
        # run of the same operators
        cache.value(phi, points[0])
        _derive(phi, [points[1]], multis, settings, cache)
        for multi in multis[2:]:
            del cache.derivs[points[1].tobytes(), multi, settings.radius_factor]
        return phi, cache

    phi, cache = prepared()
    stacked = verify(system, phi, points=run, cache=cache)
    # points 0 and 2 need every derivative: one stacked group beside point 1's
    assert phi.calls == 2 + 1
    one_phi, one_cache = prepared()
    for p in run:
        _derive(one_phi, [p], multis, settings, one_cache)
    single = verify(system, one_phi, points=run, cache=one_cache)
    assert one_phi.calls == 2 + 3
    assert repr(stacked.cells) == repr(single.cells)
    assert (cache.hits, cache.misses) == (one_cache.hits, one_cache.misses)
    assert _derivs_repr(cache) == _derivs_repr(one_cache)
    # a cold cache reads every derivative off the same samples
    cold_phi, cold_cache = FailingBatchPhi(spec, bad), DerivativeCache()
    cold = verify(system, cold_phi, points=run, cache=cold_cache)
    assert cold_phi.calls == 1
    assert repr(cold.cells) == repr(stacked.cells)
    assert _derivs_repr(cold_cache) == _derivs_repr(cache)
    # the failing rows err some derivatives at point 2 and none elsewhere
    errs = {k[0] for k, d in cache.derivs.items() if isinstance(d, EvaluationError)}
    assert errs == {points[2].tobytes()}
    assert stacked.phi_values[2] is not None


def test_warm_verify_builds_one_table_per_group_and_no_template(monkeypatch):
    spec = builtin("gl_quadratic")
    system = build_system(spec)
    points = verification_points(spec.coefficient_vector(), 3, seed=9)

    def phi():
        return BatchOnly(lambda a: cmath.exp(a[0]) / a[2] + a[1] ** 3)

    verify(system, phi(), points=points)
    tables, templates = [], []

    class CountedTable(SampleTable):
        def __init__(self, points, *args):
            tables.append(len(points))
            super().__init__(points, *args)

    build = _Template.__init__

    def counted_build(self, multis, among):
        templates.append(multis)
        build(self, multis, among)

    monkeypatch.setattr(gkzperiods.verifier, "SampleTable", CountedTable)
    monkeypatch.setattr(_Template, "__init__", counted_build)
    before = _template.cache_info()
    verify(system, phi(), points=points)
    assert (tables, templates) == ([3], [])
    # quadratic_root's operators take the same derivatives
    other = builtin("quadratic_root")
    assert _shipped_multis(other) == _shipped_multis(spec)
    verify(build_system(other), phi(), points=points)
    after = _template.cache_info()
    assert (tables, templates) == ([3, 3], [])
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    # a template the cache has not seen is counted
    _template(((0, 0, 5),), ((0, 0, 5),))
    assert templates == [((0, 0, 5),)]


@pytest.mark.parametrize("radius_factor", [1e-300, 1e300])
def test_non_finite_derivative_is_an_error_cell(radius_factor):
    # powers of the radii underflow (1e-300) or overflow (1e300)
    spec = builtin("gl_quadratic")
    spec = replace(spec, settings=replace(spec.settings, radius_factor=radius_factor))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(build_system(spec), PeriodFunction(scenario=spec))
    assert report.has_errors and not report.passed
    assert any(c.error and c.error.startswith("NonFiniteDerivativeError: ")
               for c in report.cells)
    for c in report.cells:
        assert all(math.isfinite(x) for x in (
            c.raw.real, c.raw.imag, c.normalization, c.relative, c.diagnostic))
    assert math.isfinite(report.max_relative)


def test_zero_function_at_a_huge_radius_agrees():
    # the noise floor underflows to 0, and two exact zeros agree
    d = differentiate(lambda a: 0.0, np.array([5.0 + 0j]), (1,),
                      EvalSettings(radius_factor=1e20))
    assert (d.value, d.diagnostic, d.warnings) == (0, 0.0, ())


class CountingPhi:
    """phi counted by evaluated points; a batch of N rows counts N."""

    def __init__(self, phi):
        self.phi = phi
        self.points = 0
        self.batches = 0

    def __call__(self, a):
        self.points += 1
        return self.phi(a)

    def batch(self, rows):
        self.points += len(rows)
        self.batches += 1
        return self.phi.batch(rows)


# (phi evaluations, cache hits) of one verify run at each shipped
# scenario's own settings; a hit is phi(a) looked up once per point, and
# each derivative a cell's residual reads from the cache
SHIPPED_EVAL_COUNTS = {
    "gauss": (387, 27),
    "airy": (195, 15),
    "beta": (195, 12),
    "residue_circle": (99, 9),
    "quadratic_root": (483, 30),
    "gl_quadratic": (483, 30),
    "gl_cubic": (1155, 54),
    "cubic_root_parametric": (3555, 63),
    "pochhammer": (387, 27),
    "hesse_cubic": (1635, 33),
    "torus_coefficient": (387, 33),
}


@functools.cache
def _shipped_run(name):
    """One verify run of a shipped scenario at its own settings: its
    counted phi, its cache and its report."""
    spec = load_scenario(name)
    phi = CountingPhi(PeriodFunction(scenario=spec))
    cache = DerivativeCache()
    report = verify(build_system(spec), phi, cache=cache)
    return phi, cache, report


def test_shipped_scenarios_keep_their_eval_counts():
    assert set(SHIPPED_EVAL_COUNTS) == set(builtin_scenario_names())
    for name, (count, hits) in SHIPPED_EVAL_COUNTS.items():
        phi, cache, report = _shipped_run(name)
        assert report.passed, name
        assert phi.points == cache.misses == count, name
        assert cache.hits == hits, name
        assert phi.batches == 1, name


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_hosted_derivatives_agree_with_their_own_circles(name):
    # a first derivative read off a mixed direction set, against d_v on
    # its own coordinate circle, relative to the larger of |d_v phi| and
    # the |phi| / rho_v its rounding noise scales with
    phi, cache, report = _shipped_run(name)
    settings = load_scenario(name).settings
    multis = _shipped_multis(load_scenario(name))
    hosted = [u for u in multis if direction_set(u, multis) != own_direction_set(u)]
    points = [np.array(p) for p in report.points]
    own = DerivativeCache()
    # first derivatives alone: each on its own circle, in one batch
    _derive(phi.phi, points, hosted, settings, own)
    for a, phi0 in zip(points, report.phi_values):
        for u in hosted:
            key = (a.tobytes(), u, settings.radius_factor)
            got, want = cache.derivs[key].value, own.derivs[key].value
            rho = settings.radius_factor * max(1.0, abs(a[u.index(1)]))
            assert abs(got - want) <= 1e-12 * max(abs(want), abs(phi0) / rho), (u, got, want)
