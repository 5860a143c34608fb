"""Root continuation and global residue sums."""

import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from gkzperiods import _roots
from gkzperiods._roots import univariate_roots
from gkzperiods.analytic_paths import (
    EvaluationError,
    PathSingularityError,
    resolve_path,
)
from gkzperiods.gkz_system import build_system
from gkzperiods.period_functions import (
    BranchAmbiguityError,
    MultipleRootError,
    NearDiscriminantError,
    PeriodFunction,
    RootEscapeError,
    _continue_root_segment,
    eval_gl_residue,
    eval_period,
    eval_root,
)
from gkzperiods.quadrature import integrate_cycle, integrate_term
from gkzperiods.scenario import (
    EvalSettings,
    FactorSupport,
    ScenarioSpec,
    validate_scenario,
)
from gkzperiods.verifier import verification_points, verify

from oracles import direction_circles, quadratic_formula_root, track_root

from test_scenario import builtin


def gl_spec(coefficients, beta, name="gl_test"):
    n = len(coefficients)
    fac = FactorSupport(
        index=1,
        kind="power",
        monomials=tuple((k,) for k in range(n)),
        coefficients=tuple(complex(c) for c in coefficients),
    )
    spec = ScenarioSpec(
        name=name,
        m=1,
        factors=(fac,),
        twist_beta=(complex(beta),),
        function_kind="gl_residue",
    )
    validate_scenario(spec)
    return spec


# ---------------------------------------------------------------------------
# root continuation


def test_continued_root_still_satisfies_polynomial():
    spec = builtin("quadratic_root")
    base = spec.coefficient_vector()
    points = verification_points(base, 100, seed=2024)
    for a in points:
        x = PeriodFunction(spec)(a)
        residual = abs(a[0] + a[1] * x + a[2] * x * x)
        assert residual < 1e-12 * max(1.0, abs(x)) * float(np.max(np.abs(a)))


def test_continuation_matches_quadratic_formula():
    spec = builtin("quadratic_root")
    base = spec.coefficient_vector()
    for a in verification_points(base, 25, seed=99):
        x = PeriodFunction(spec)(a)
        expect = quadratic_formula_root(a, near=x)
        assert abs(x - expect) < 1e-12
        # nearest-branch matching is not circular: the two roots are far apart
        other = quadratic_formula_root(a, near=-x - a[1] / a[2])
        assert abs(x - other) > 0.5


def test_square_root_of_two():
    spec = builtin("quadratic_root")
    x = PeriodFunction(spec)(np.array([-2.0, 0.0, 1.0]))
    assert abs(x - math.sqrt(2.0)) < 1e-12


def test_loop_around_discriminant_swaps_branch():
    # x^2 + a0 with a0 circling 0: the tracked square root changes sign
    spec = builtin("quadratic_root")
    start = np.array([-1.0, 0.0, 1.0], dtype=complex)
    x0 = PeriodFunction(spec)(start)
    assert abs(x0 - 1.0) < 1e-12
    loop = [
        np.array([-cmath.exp(2j * math.pi * k / 12), 0.0, 1.0])
        for k in range(1, 13)
    ]
    assert abs(track_root(spec, [start] + loop) + 1.0) < 1e-10
    # a second lap restores the original branch
    assert abs(track_root(spec, [start] + loop + loop) - 1.0) < 1e-10


def test_root_scaling_identities():
    # x(t a) = x(a); x(a0, t a1, t^2 a2) = x(a) / t
    spec = builtin("quadratic_root")
    a = np.array([-1.1, 0.13, 0.94], dtype=complex)
    x = PeriodFunction(spec)(a)
    t = 1.3 - 0.4j
    assert abs(PeriodFunction(spec)(t * a) - x) < 1e-10
    scaled = np.array([a[0], t * a[1], t * t * a[2]])
    assert abs(PeriodFunction(spec)(scaled) - x / t) < 1e-10


def test_root_against_log_derivative_contour():
    # (1/2 pi i) oint x f'/f dx around the tracked root, plain trapezoid
    spec = builtin("quadratic_root")
    a = np.array([-1.05 + 0.1j, 0.2 - 0.05j, 0.93], dtype=complex)
    x_star = PeriodFunction(spec)(a)
    r, n = 0.3, 256
    theta = 2.0 * math.pi * np.arange(n) / n
    z = x_star + r * np.exp(1j * theta)
    f = a[0] + a[1] * z + a[2] * z * z
    df = a[1] + 2.0 * a[2] * z
    integrand = z * df / f * (1j * r * np.exp(1j * theta))
    val = complex(np.sum(integrand)) / n / (2j * math.pi) * (2.0 * math.pi)
    assert abs(val - x_star) < 1e-10


def test_root_function_is_holomorphic():
    # first-order differences in h and ih agree through multiplication by i
    spec = builtin("quadratic_root")
    phi = PeriodFunction(spec)
    a = spec.coefficient_vector().astype(complex)
    h = 1e-5
    for v in range(3):
        e = np.zeros(3, dtype=complex)
        e[v] = 1.0
        d_re = (phi(a + h * e) - phi(a - h * e)) / (2 * h)
        d_im = (phi(a + 1j * h * e) - phi(a - 1j * h * e)) / (2j * h)
        assert abs(d_re - d_im) < 1e-8 * max(1.0, abs(d_re))


def test_parametric_root_scenario_folds_frozen_variable():
    spec = builtin("cubic_root_parametric")
    a = spec.coefficient_vector()
    x = PeriodFunction(spec)(a)
    assert abs(x - complex(spec.base_root)) < 1e-12
    # residual of the bivariate factor at (x1, x2) = (0.7, root)
    fac = spec.factors[0]
    val = fac.values(a, (0.7, x))
    assert abs(val) < 1e-12


def test_near_discriminant_raises():
    # target polynomial has an exact double root; Newton stalls approaching it
    spec = builtin("quadratic_root")
    with pytest.raises(NearDiscriminantError):
        PeriodFunction(spec)(np.array([1.0, -2.0, 1.0]))


def test_root_escape_raises():
    # leading coefficient dies along the segment
    spec = builtin("quadratic_root")
    with pytest.raises(RootEscapeError):
        PeriodFunction(spec)(np.array([-1.0, 0.1, -1.0]))


def test_period_function_wrapper_checks_shape():
    pf = PeriodFunction(builtin("quadratic_root"))
    assert pf.dimension == 3
    with pytest.raises(ValueError, match="length 3"):
        pf(np.array([1.0, 2.0]))
    base = builtin("quadratic_root").coefficient_vector()
    assert abs(pf(base) - 0.9512492197250393) < 1e-12


def root_tolerance(row, r, m):
    """How far a root r of multiplicity m of sum_k row[k] x^k may move when
    every coefficient moves by a rounding: 64 |r| (eps S / |D|)^(1/m), with
    S = sum_k |row[k] r^k| and D = f^(m)(r) r^m / m!, both divided by the
    largest term |row[k] r^k| (in logs, so a root of 1e240 does not
    overflow).  A zero root gets 64 (eps |row[0]| / |row[m]|)^(1/m)."""
    eps = np.finfo(float).eps
    c = np.asarray(row, dtype=complex)
    if r == 0:
        return 64 * (eps * abs(c[0]) / abs(c[m])) ** (1 / m)
    k = np.arange(len(c))
    with np.errstate(divide="ignore"):
        logs = np.log(c) + k * np.log(complex(r))
    terms = np.exp(logs - logs.real.max())
    binom = np.array([math.comb(q, m) for q in k])
    ratio = np.sum(np.abs(terms)) / abs(np.sum(binom * terms))
    return 64 * abs(r) * (eps * ratio) ** (1 / m)


def assert_roots_match_np_roots(row, found, exact=None):
    """found is np.roots(row) as a multiset, each root within its
    root_tolerance; a root's multiplicity is that of the nearest root in
    ``exact`` (all simple if none are given)."""
    expected = np.roots(np.asarray(row)[::-1])
    mult = [1] * len(expected)
    if exact is not None:
        exact = np.asarray(exact, dtype=complex)
        mult = [int(np.sum(exact == exact[np.argmin(np.abs(exact - r))])) for r in expected]
    tol = [root_tolerance(row, r, m) for r, m in zip(expected, mult)]
    assert any(
        all(abs(found[q] - r) <= t for q, r, t in zip(perm, expected, tol))
        for perm in itertools.permutations(range(len(found)))
    ), (row, found, expected, tol)


# rows of degree 1 to 3, as ascending coefficients, and their exact roots
HARD_ROOT_ROWS = [
    *((np.poly(roots)[::-1], roots) for roots in (
        [1.0, 1.0 + 1e-7],                 # roots 1e-7 apart
        [1.0, 1.0 + 1e-7, -0.5],
        [2.0, 2.0, 2.0],                   # a triple root at 2
        [2.0, 2.0, 0.0],
        [1e-6, 1e6],                       # root spreads from 1e-6 to 1e6
        [1e-6, 1.0, 1e6],
        [1 + 2j, 1 - 2j, 0.5],             # a conjugate pair, real coefficients
    )),
    ([0.0, 1.0], [0.0]),                   # zero roots
    ([0.0, 0.0, 1.0], [0.0, 0.0]),
    ([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),
    ([-1e240, 1.0], [1e240]),              # a 1e240 root
    ([0.0, -1e240, 1.0], [0.0, 1e240]),
    ([0.0, 0.0, -1e240, 1.0], [0.0, 0.0, 1e240]),
    ([1.0, 1.0, 1e-240], [-1e240, -1.0]),
    ([5.0, 2.0, 1.0], [-1 + 2j, -1 - 2j]),
    # depressed cubics with p = 0 (x^3 - 8 and (x - 1)^3 - 8) and with
    # q = 0 (x^3 - 4x and (x - 1)^3 - 4 (x - 1))
    ([-8.0, 0.0, 0.0, 1.0], 2 * np.exp(2j * np.pi * np.arange(3) / 3)),
    ([-9.0, 3.0, -3.0, 1.0], 1 + 2 * np.exp(2j * np.pi * np.arange(3) / 3)),
    ([0.0, -4.0, 0.0, 1.0], [0.0, 2.0, -2.0]),
    ([3.0, -1.0, -3.0, 1.0], [1.0, 3.0, -1.0]),
]


def test_stacked_roots_match_np_roots_per_row():
    # degrees 1-6 mixed in one stack, padded with trailing zeros, plus a
    # constant, the zero polynomial and the hard rows of degree 1 to 3
    rng = np.random.default_rng(77)
    degrees = [int(d) for d in rng.integers(1, 7, size=40)] + [0, -1]
    stack = np.zeros((len(degrees) + len(HARD_ROOT_ROWS), 7), dtype=complex)
    for row, d in zip(stack, degrees):
        row[: d + 1] = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    exact = [None] * len(degrees)
    for row, (coeffs, roots) in zip(stack[len(degrees):], HARD_ROOT_ROWS):
        row[: len(coeffs)] = coeffs
        degrees.append(len(coeffs) - 1)
        exact.append(roots)
    roots, deg = univariate_roots(stack)
    assert deg.tolist() == degrees
    for row, d, found, known in zip(stack, degrees, roots, exact):
        assert np.isnan(found[max(d, 0):]).all()
        if d < 1:
            continue
        assert_roots_match_np_roots(row[: d + 1], found[:d], known)
        # a row's roots do not depend on the rest of its stack
        alone, _ = univariate_roots(row[None])
        assert np.array_equal(alone[0], found, equal_nan=True)


def mpmath_roots(row):
    """The roots of sum_k row[k] x^k at 40 digits, rounded to complex."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c = [mpmath.mpc(complex(z)) for z in np.trim_zeros(np.asarray(row), "b")[::-1]]
        return np.array([complex(r) for r in mpmath.polyroots(c, maxsteps=100, extraprec=100)])


def assert_roots_match(row, found, expected, rel=None):
    """found is ``expected`` (simple roots) as a multiset: each expected
    root's nearest found root is a different one, within its
    root_tolerance and, if ``rel`` is given, within rel times its size."""
    nearest = [int(np.argmin(np.abs(found - r))) for r in expected]
    assert sorted(nearest) == list(range(len(found))), (row, found, expected)
    for q, r in zip(nearest, expected):
        assert abs(found[q] - r) <= root_tolerance(row, r, 1), (row, found, expected)
        assert rel is None or abs(found[q] - r) <= rel * abs(r), (row, found, expected)


def spread_stack():
    # 64 complex normal rows of degree 6; every seventh row's coefficients
    # scaled by 10^U(-30, 30) each
    rng = np.random.default_rng(8)
    c = rng.standard_normal((64, 7)) + 1j * rng.standard_normal((64, 7))
    c[::7] *= 10.0 ** rng.uniform(-30, 30, size=c[::7].shape)
    return c


@pytest.mark.parametrize("row", [7, 63])
def test_spread_row_keeps_its_roots_apart(row):
    # companion eigenvalues started rows 7 and 63 with one root five times,
    # and Newton kept them merged; the Newton-polygon starts do not
    stack = spread_stack()
    roots, deg = univariate_roots(stack)
    assert deg[row] == 6
    assert_roots_match(stack[row], roots[row], mpmath_roots(stack[row]), rel=1e-12)


def test_spread_stack_roots_match_mpmath():
    stack = spread_stack()
    roots, deg = univariate_roots(stack)
    assert (deg == 6).all()
    for row, found in zip(stack, roots):
        # no root comes out twice
        gaps = np.abs(found[:, None] - found[None, :]) + np.eye(6)
        assert (gaps > 0).all(), (row, found)
        assert_roots_match(row, found, mpmath_roots(row), rel=1e-12)
        # a row's roots do not depend on the rest of its stack
        alone, _ = univariate_roots(row[None])
        assert np.array_equal(alone[0], found)


def assert_far_apart_roots_found(d, count):
    # roots of sizes 1e-30, 1 and 1e30 in one row, random phases; the roots
    # the row was built from are within root_tolerance of its own
    rng = np.random.default_rng(40 + d)
    for _ in range(count):
        size = 10.0 ** rng.choice([-30, 0, 30], size=d)
        exact = size * np.exp(2j * np.pi * rng.uniform(size=d))
        row = np.poly(exact)[::-1]
        roots, deg = univariate_roots(row[None])
        assert deg.tolist() == [d]
        assert_roots_match(row, roots[0], exact)
    # a root of 1e240: Horner runs in each root's own scaled variable
    exact = [*range(1, d), 1e240]
    row = np.poly(exact)[::-1]
    assert_roots_match(row, univariate_roots(row[None])[0][0], exact)


@pytest.mark.parametrize("d", range(1, 4))
def test_roots_far_apart_at_degree_1_to_3(d):
    # Aberth steps from the closed-form starts
    assert_far_apart_roots_found(d, 200)


@pytest.mark.parametrize("d", range(4, 10))
def test_roots_far_apart_at_degree_4_to_9(d):
    # Aberth steps from the Newton-polygon starts
    assert_far_apart_roots_found(d, 20)


@pytest.mark.parametrize("name", ["gl_cubic", "gl_quadratic"])
def test_shipped_roots_stop_at_horners_floor(monkeypatch, name):
    # every root a shipped verify finds is within Horner's rounding floor
    # |f(x)| <= 2 d 2^-53 sum_k |c_k| |x|^k, and its closed-form start is
    # already there: each Aberth call on closed-form starts (degree <= 3)
    # evaluates once and takes no step
    calls, evals = [], []
    aberth, horner = _roots._aberth, _roots.eval_with_derivative

    def counted_aberth(coeffs, x):
        evals.clear()
        out = aberth(coeffs, x)
        calls.append((coeffs, out, len(evals)))
        return out

    def counted_horner(coeffs, x):
        evals.append(1)
        return horner(coeffs, x)

    monkeypatch.setattr(_roots, "_aberth", counted_aberth)
    monkeypatch.setattr(_roots, "eval_with_derivative", counted_horner)
    spec = builtin(name)
    assert verify(build_system(spec), PeriodFunction(spec)).passed
    assert [n for coeffs, _, n in calls if coeffs.shape[1] <= 4] == [1]
    for coeffs, roots, _ in calls:
        f, _ = horner(coeffs[:, None, :], roots)
        assert (np.abs(f) <= horner_floor(coeffs[:, None, :], roots)).all()


def horner_floor(coeffs, x):
    """Horner's rounding floor 2 d 2^-53 sum_k |c_k| |x|^k of ascending
    coefficients coeffs[..., k] at x; the leading axes broadcast."""
    d = coeffs.shape[-1] - 1
    floor = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], x.shape))
    for k in range(d, -1, -1):
        floor = floor * np.abs(x) + np.abs(coeffs[..., k])
    return 2 * d * 2.0**-53 * floor


@pytest.mark.parametrize("name", ["quadratic_root", "cubic_root_parametric"])
def test_continued_roots_stop_at_horners_floor(name):
    # continuation accepts a root under the rule the root kernel stops at
    spec = builtin(name)
    rows = np.array(verification_points(spec.coefficient_vector(), 200, seed=5))
    roots = np.array(eval_root(spec, rows))
    dense = spec.dense_univariate(rows)
    f, _ = _roots.eval_with_derivative(dense, roots)
    assert (np.abs(f) <= horner_floor(dense, roots)).all()


def test_continuation_rejects_an_iterate_whose_magnitude_sum_overflows():
    # at x = 1e200 both |f(x)| and sum_k |c_k| |x|^k of quadratic_root's
    # base row x^2 + 0.1 x - 1 overflow to inf, and |f| <= tol * inf would
    # accept it; the floor, taken in x's own scaled variable, does not
    spec = builtin("quadratic_root")
    dense = spec.dense_univariate(spec.coefficient_vector()[None])
    assert dense.tolist() == [[-1.0, 0.1, 1.0]]
    with np.errstate(all="ignore"):
        _, errors = _continue_root_segment(dense, dense, np.array([1e200 + 0j]), np.inf)
    assert list(errors) == [0]
    assert isinstance(errors[0], NearDiscriminantError)


# ---------------------------------------------------------------------------
# global residue sums


def test_quadratic_residue_closed_form():
    # beta = 2: sum r / f'(r) over both roots equals 1 / a2
    spec = builtin("gl_quadratic")
    rng = np.random.default_rng(4321)
    for _ in range(10):
        a = spec.coefficient_vector() + 0.3 * (
            rng.standard_normal(3) + 1j * rng.standard_normal(3)
        )
        val = PeriodFunction(spec)(a)
        assert abs(val - 1.0 / a[2]) < 1e-12 * abs(1.0 / a[2])


def test_euler_jacobi_vanishing():
    # sum r^k / f'(r) = 0 for k <= deg f - 2, any squarefree f
    rng = np.random.default_rng(20260816)
    for deg in (3, 4):
        for _ in range(25):
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            for k in range(deg - 1):
                spec = gl_spec(coeffs, beta=k + 1)
                val = PeriodFunction(spec)(spec.coefficient_vector())
                roots = np.roots(coeffs[::-1])
                dpoly = np.polyder(np.poly1d(coeffs[::-1]))
                scale = float(np.sum(np.abs(roots**k / dpoly(roots))))
                assert abs(val) < 1e-12 * max(scale, 1.0)


def test_top_residue_is_inverse_leading_coefficient():
    # k = deg - 1 gives 1 / lead, the first nonvanishing moment
    rng = np.random.default_rng(5)
    for deg in (2, 3, 4, 5):
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        spec = gl_spec(coeffs, beta=deg)
        val = PeriodFunction(spec)(spec.coefficient_vector())
        assert abs(val - 1.0 / coeffs[-1]) < 1e-12 * abs(1.0 / coeffs[-1])


def test_cubic_residue_against_direct_root_sum():
    spec = builtin("gl_cubic")
    a = spec.coefficient_vector()
    beta = spec.twist_beta[0]
    roots = np.roots(a[::-1])
    dpoly = np.poly1d(a[::-1]).deriv()
    direct = sum(r ** (beta - 1.0) / dpoly(r) for r in map(complex, roots))
    val = PeriodFunction(spec)(a)
    assert abs(val - direct) < 1e-12 * max(1.0, abs(direct))


def test_gl_cubic_base_value_from_exact_roots():
    # x^3 - 8x^2 + 22x - 20 = (x - 2)(x^2 - 6x + 10): the roots are 2 and
    # 3 +- i, and sum r^(-1/2) / f'(r) over them, taken on exact roots to
    # 20 digits, is 0.030974808687702289245
    roots = [2, 3 + 1j, 3 - 1j]
    direct = sum(
        cmath.exp(-0.5 * cmath.log(r)) / math.prod(r - s for s in roots if s != r)
        for r in roots
    )
    exact = 0.030974808687702289245
    assert abs(direct - exact) < 1e-14 * exact
    spec = builtin("gl_cubic")
    assert abs(PeriodFunction(spec)(spec.coefficient_vector()) - exact) < 1e-13 * exact


def test_residue_function_smooth_through_root_collision():
    # (x-1)^2 (x-2) + eps: per-root terms scale like 1/sqrt(eps), but the
    # sum is symmetric in the colliding pair, so the singularity is removable
    # and the function stays differentiable in eps near 0
    base = np.array([-2.0, 5.0, -4.0, 1.0], dtype=complex)
    spec = gl_spec(base, beta=0.5)

    def phi(eps):
        return PeriodFunction(spec)(base + np.array([eps, 0.0, 0.0, 0.0]))

    vals = [phi(10.0**-k) for k in (2, 3, 4, 5)]
    diffs = [abs(v1 - v0) for v0, v1 in zip(vals, vals[1:])]
    assert diffs[0] > 1e-4  # the function genuinely moves at this scale
    for d0, d1 in zip(diffs, diffs[1:]):
        # linear in eps: each decade shrinks the increment tenfold; a
        # sqrt(eps) branch point would give ratios near 0.32
        assert d1 < 0.15 * d0


def test_multiple_root_raises():
    spec = gl_spec([1.0, -2.0, 1.0], beta=2)  # (x-1)^2
    with pytest.raises(MultipleRootError):
        PeriodFunction(spec)(spec.coefficient_vector())


def test_branch_cut_root_raises():
    spec = gl_spec([1.0, 1.0], beta=0.5)  # root at -1, non-integer twist
    with pytest.raises(BranchAmbiguityError):
        PeriodFunction(spec)(spec.coefficient_vector())


def test_degenerate_leading_coefficient_raises():
    spec = builtin("gl_quadratic")
    a = spec.coefficient_vector()
    a[2] = 0.0
    with pytest.raises(RootEscapeError, match="leading coefficient"):
        PeriodFunction(spec)(a)


def test_gl_cubic_fractional_beta_uses_principal_branch():
    # beta = 1/2: weights are r^(-1/2) on the principal branch; cross-check
    # against cmath at every root
    spec = builtin("gl_cubic")
    a = spec.coefficient_vector()
    val = PeriodFunction(spec)(a)
    roots = np.roots(a[::-1])
    dpoly = np.poly1d(a[::-1]).deriv()
    direct = sum(
        cmath.exp(-0.5 * cmath.log(complex(r))) / complex(dpoly(r))
        for r in roots
    )
    assert abs(val - direct) < 1e-13


def test_period_function_dispatches_gl_kind():
    pf = PeriodFunction(scenario=builtin("gl_quadratic"))
    a = builtin("gl_quadratic").coefficient_vector()
    assert abs(pf(a) - 1.0 / 7.0) < 1e-15


# ---------------------------------------------------------------------------
# batches


PERIOD_SCENARIOS = ("gauss", "airy", "beta", "residue_circle", "pochhammer")
ROOT_SCENARIOS = ("quadratic_root", "cubic_root_parametric", "gl_quadratic", "gl_cubic")


def direction_stencil(spec):
    """Both radii's points of one derivative at the first verification point.

    The derivative is the first box operator's u+ (a mixed partial where
    the scenario has one), else the first coordinate's first derivative.
    """
    settings = spec.settings
    a = verification_points(
        spec.coefficient_vector(), 1, settings.seed, settings.point_rel
    )[0]
    boxes = build_system(spec).boxes
    multi = boxes[0].u_plus if boxes else (1,) + (0,) * (a.size - 1)
    radii = {
        v: settings.radius_factor * max(1.0, abs(a[v]))
        for v, q in enumerate(multi)
        if q
    }
    full, _, _ = direction_circles(a, multi, radii)
    half, _, _ = direction_circles(a, multi, {v: r / 2 for v, r in radii.items()})
    return np.array(full + half)


@pytest.mark.parametrize("name", PERIOD_SCENARIOS + ROOT_SCENARIOS)
def test_batch_rows_equal_one_row_calls(name):
    pf = PeriodFunction(builtin(name))
    rows = direction_stencil(pf.scenario)
    values = pf.batch(rows)
    assert len(values) == len(rows) >= 32
    # bit for bit, and independent of the rest of the batch
    assert values == [pf(row) for row in rows]
    assert pf.batch(rows[::-1]) == values[::-1]


def raised(pf, row):
    with pytest.raises(EvaluationError) as info:
        pf(row)
    return info.value


@pytest.mark.parametrize(
    "name, failing, error, message",
    [
        ("residue_circle", [0.0], PathSingularityError, "integrand not finite"),
        ("gauss", None, PathSingularityError, "no roots to anchor"),
        ("gl_quadratic", [1.0, -2.0, 1.0], MultipleRootError, "nearly multiple root"),
        # factor 2 of gauss is identically zero
        ("gauss", [2.0, -1.0, 0.0, 0.0], PathSingularityError, "vanishes identically"),
        # the segment from the base -1 + 0.1 x + x^2 meets the discriminant
        # near t = 0.5025
        ("quadratic_root", [1.0, 0.1, 0.0], NearDiscriminantError, "root collision"),
        # (x + 1)(x^2 + 1): a root on the cut of r^(-1/2)
        ("gl_cubic", [1.0, 1.0, 1.0, 1.0], BranchAmbiguityError, "branch cut"),
    ],
)
def test_failing_row_leaves_the_batch_alone(name, failing, error, message):
    pf = PeriodFunction(builtin(name))
    base = pf.scenario.coefficient_vector()
    if failing is None:
        # gauss: a1 = 0 makes factor 1 constant, with no root to anchor on
        failing = base.copy()
        failing[1] = 0.0
    good = verification_points(base, 2, seed=11, rel=0.1)
    rows = np.array([good[0], failing, good[1]], dtype=complex)
    values = pf.batch(rows)
    alone = raised(pf, rows[1])
    assert isinstance(alone, error) and message in str(alone)
    assert type(values[1]) is type(alone) and str(values[1]) == str(alone)
    assert [values[0], values[2]] == [pf(rows[0]), pf(rows[2])]


def test_batch_rejects_a_single_vector():
    pf = PeriodFunction(builtin("beta"))
    with pytest.raises(ValueError, match=r"\(N, 2\)"):
        pf.batch(pf.scenario.coefficient_vector())


@pytest.mark.parametrize(
    "name, evaluate",
    [
        ("gauss", eval_period),
        ("quadratic_root", eval_root),
        ("gl_quadratic", eval_gl_residue),
        ("gauss", integrate_cycle),
        ("gauss", lambda spec, a: integrate_term(spec.cycle.terms[0], spec, a)),
        ("gauss", lambda spec, a: resolve_path(spec.cycle.terms[0].paths[0], spec, a)),
    ],
    ids=["eval_period", "eval_root", "eval_gl_residue", "integrate_cycle",
         "integrate_term", "resolve_path"],
)
def test_rows_only_entries_reject_a_single_vector(name, evaluate):
    spec = builtin(name)
    n = spec.n_columns()
    with pytest.raises(ValueError, match=rf"\(N, {n}\) coefficient array"):
        evaluate(spec, spec.coefficient_vector())
