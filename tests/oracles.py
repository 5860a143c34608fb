"""Independent reference values and exact helpers used across the tests.

Everything here is derived without the package's own numerics: closed
forms, series, exact rational arithmetic, brute-force enumeration, or the
scalar one-row-at-a-time form of a batched computation.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from gkzperiods._stencils import _directions, _mul
from gkzperiods.analytic_paths import (
    ArcSegment,
    LineSegment,
    RaySegment,
    ResolvedPath,
    RootAnchor,
    _anchor_points,
)
from gkzperiods.period_functions import _continue_root_segment
from gkzperiods.scenario import ScenarioError

# Value of the gauss scenario's segment period, precomputed once with a
# 30-digit tanh-sinh integration of (2-x)^(1/3) (x-1/2)^(1/5) x^(-1/2)
# over [1/2, 2] in mpmath.
GAUSS_SEGMENT_VALUE = 1.0672908935636424


def airy_ai0(terms: int = 0) -> float:
    """Ai(0) from the Maclaurin expansion's closed-form constant term.

    Ai(x) = c1 f(x) - c2 g(x) with c1 = 3^(-2/3)/Gamma(2/3); at x = 0 the
    series collapses to c1.  ``terms`` is accepted for symmetry with
    airy_ai but unused.
    """
    return 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)


def airy_ai(x: float, terms: int = 40) -> float:
    """Power-series Airy function, independent of any quadrature.

    Ai(x) = c1 f(x) - c2 g(x) where f = sum 3^k (1/3)_k x^(3k)/(3k)! and
    g = sum 3^k (2/3)_k x^(3k+1)/(3k+1)!.
    """
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    f = g = 0.0
    poch1 = poch2 = 1.0  # (1/3)_k and (2/3)_k
    for k in range(terms):
        f += 3.0**k * poch1 * x ** (3 * k) / math.factorial(3 * k)
        g += 3.0**k * poch2 * x ** (3 * k + 1) / math.factorial(3 * k + 1)
        poch1 *= 1.0 / 3.0 + k
        poch2 *= 2.0 / 3.0 + k
    return c1 * f - c2 * g


def hesse_cubic_period(a) -> complex:
    """Torus period of 1 / (a00 + a03 y^3 + a11 xy + a30 x^3) by its series.

    (2 pi i)^2 / a11 * 2F1(1/3, 2/3; 1; 27 z) with z = -a00 a03 a30 / a11^3,
    that is (2 pi i)^2 / a11 * sum (3n)!/(n!)^3 z^n: the constant terms of
    the powers of a00/(xy) + a03 y^2/x + a30 x^2/y, for |a11| dominant.
    """
    a00, a03, a11, a30 = (complex(x) for x in a)
    x = 27.0 * (-a00 * a03 * a30 / a11**3)
    total, term, n = 0.0, 1.0 + 0.0j, 0
    while abs(term) > 1e-18 * abs(total):
        total += term
        term *= (n + 1.0 / 3.0) * (n + 2.0 / 3.0) / (n + 1.0) ** 2 * x
        n += 1
    return (2j * math.pi) ** 2 / a11 * total


def torus_coefficient_period(a, lam: float = 1.0 / 3.0) -> complex:
    """Torus period of (a0 + a1 y + a2 x + a3 xy)^lam x^-2 y^-2 in closed form.

    (2 pi i)^2 times the xy coefficient of f^lam expanded around a0:
    lam a0^(lam-1) a3 + lam (lam-1) a0^(lam-2) a1 a2, principal powers.
    """
    a0, a1, a2, a3 = (complex(x) for x in a)
    coeff = lam * a0 ** (lam - 1) * a3 + lam * (lam - 1) * a0 ** (lam - 2) * a1 * a2
    return (2j * math.pi) ** 2 * coeff


# ---------------------------------------------------------------------------
# exact integer linear algebra


def fraction_rank(rows) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def brute_force_kernel(rows, bound: int = 3):
    """All nonzero integer kernel vectors with entries in [-bound, bound].

    Exponential in the column count; callers keep N small.
    """
    n = len(rows[0])
    out = []
    for cand in itertools.product(range(-bound, bound + 1), repeat=n):
        if all(c == 0 for c in cand):
            continue
        if all(sum(r * c for r, c in zip(row, cand)) == 0 for row in rows):
            out.append(cand)
    return out


def in_integer_span(basis, vector) -> bool:
    """Exact test that ``vector`` is an integer combination of ``basis``.

    Solves c . basis = vector over the rationals and checks integrality;
    an unsolvable system returns False.
    """
    if not basis:
        return all(x == 0 for x in vector)
    k = len(basis)
    n = len(vector)
    # augmented system basis^T c = vector, solved by elimination
    mat = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(vector[i])]
           for i in range(n)]
    rank = 0
    for col in range(k):
        pivot = next((r for r in range(rank, n) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(n):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    # inconsistent rows mean vector is outside even the rational span
    for r in range(rank, n):
        if mat[r][k] != 0:
            return False
    coeffs = {}
    for r in range(rank):
        col = next(c for c in range(k) if mat[r][c] != 0)
        coeffs[col] = mat[r][k] / mat[r][col]
    return all(c.denominator == 1 for c in coeffs.values())


# ---------------------------------------------------------------------------
# closed forms for the quadratic root scenario


def quadratic_formula_root(a, near):
    """Root of a0 + a1 x + a2 x^2 by the quadratic formula, branch nearest
    ``near``."""
    a0, a1, a2 = complex(a[0]), complex(a[1]), complex(a[2])
    s = np.sqrt(complex(a1 * a1 - 4.0 * a0 * a2))
    roots = [(-a1 + s) / (2.0 * a2), (-a1 - s) / (2.0 * a2)]
    return min(roots, key=lambda r: abs(r - near))


def quadratic_root_derivative(a, x, j):
    """d x / d a_j from implicit differentiation: -x^j / f'(x)."""
    fprime = a[1] + 2.0 * a[2] * x
    return -(x**j) / fprime


def quadratic_root_second_mixed(a, x):
    """The common value of d0 d2 x and d1^2 x: -2 a0 / f'(x)^3.

    Both mixed partials collapse to this by eliminating x^2 with f(x) = 0,
    which is the box identity in closed form.
    """
    fprime = a[1] + 2.0 * a[2] * x
    return -2.0 * a[0] / fprime**3


def track_root(spec, waypoints) -> complex:
    """The base root continued along straight segments through the
    waypoints, one segment after another."""
    dense = spec.dense_univariate(spec.coefficient_vector()[None])
    x = np.array([complex(spec.base_root)])
    with np.errstate(all="ignore"):
        for w in waypoints:
            following = spec.dense_univariate(np.asarray(w, dtype=complex)[None])
            x, errors = _continue_root_segment(dense, following, x, 1e6)
            assert not errors, errors
            dense = following
    return complex(x[0])


# ---------------------------------------------------------------------------
# tensor-grid Cauchy differentiation


def cauchy_tensor(value, a, multi, radius_factor: float, nodes: int) -> complex:
    """Mixed partial d^multi f(a) by the trapezoid rule on a tensor grid of
    coordinate circles.

    Each differentiated coordinate v runs over ``nodes`` points on the
    circle of radius radius_factor * max(1, |a_v|) around a_v; ``value``
    maps a point to f(point).  Exact for coordinate degree below ``nodes``,
    at a cost of nodes^k evaluations for k differentiated coordinates.
    """
    a = np.asarray(a, dtype=complex)
    acc = 0.0 + 0.0j
    for point, phase in tensor_grid(a, multi, radius_factor, nodes):
        acc += value(point) * phase
    pref = 1.0
    for v, q in enumerate(multi):
        if q > 0:
            rho = radius_factor * max(1.0, abs(a[v]))
            pref *= math.factorial(q) / (nodes * rho**q)
    return pref * acc


def tensor_grid(a, multi, radius_factor: float, nodes: int):
    """The (point, phase) pairs cauchy_tensor sums over, in its order."""
    a = np.asarray(a, dtype=complex)
    vars_orders = [(v, q) for v, q in enumerate(multi) if q > 0]
    radii = [radius_factor * max(1.0, abs(a[v])) for v, _ in vars_orders]
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    for combo in itertools.product(range(nodes), repeat=len(vars_orders)):
        point = a.copy()
        phase = 1.0 + 0.0j
        for (v, q), rho, idx in zip(vars_orders, radii, combo):
            point[v] = a[v] + rho * np.exp(1j * theta[idx])
            phase *= np.exp(-1j * q * theta[idx])
        yield point, phase


# ---------------------------------------------------------------------------
# direction-circle stencils, one sample at a time


def own_direction_set(multi: tuple) -> tuple:
    """The support of d^multi and its circle counts: 16 for the first
    support coordinate, and for each other one i the smallest power of two
    above max(u_i, q - u_i)."""
    order = sum(multi)
    support = tuple(v for v, q in enumerate(multi) if q > 0)
    sizes = (16,) + tuple(
        1 << max(multi[i], order - multi[i]).bit_length() for i in support[1:]
    )
    return support, sizes


def direction_set(multi: tuple, among=()) -> tuple:
    """The direction set d^multi is read off when derived with the
    derivatives ``among``: its own, except for a first-order d_v whose
    coordinate circle no other pure power of v in ``among`` samples.  That
    one reads the direction set of a mixed derivative of ``among`` over v
    with the fewest samples, ties broken by support and then by counts."""
    own = own_direction_set(multi)
    if sum(multi) != 1:
        return own
    v = multi.index(1)
    if any(m != multi and own_direction_set(m)[0] == (v,) for m in among):
        return own
    hosts = [s for s in map(own_direction_set, among) if len(s[0]) > 1 and v in s[0]]
    return min(hosts, key=lambda s: (math.prod(s[1]), s), default=own)


def direction_circles(a: np.ndarray, multi: tuple, radii: dict, host=None):
    """Sample points, phases and prefactor for d^multi phi(a) by 1-D circles.

    The derivative is pref * sum_k phases[k] * phi(points[k]), summed in
    order (see ``circle_sum``).  The samples are those of the direction set
    ``host`` (support, circle counts), d^multi's own by default; ``radii``
    holds the radius of every coordinate of its support.  Each sample
    point is built by scalar arithmetic; the package's sample table must
    reproduce them bit for bit.
    """
    order = sum(multi)
    support, sizes = own_direction_set(multi) if host is None else host
    theta = 2.0 * math.pi * np.arange(16) / 16
    rot = np.exp(1j * theta)
    node_phases = [np.exp(-1j * order * t) for t in theta]
    points = []
    phases = []
    for turns in itertools.product(*(range(m) for m in sizes[1:])):
        step = {support[0]: radii[support[0]]}
        coef = 1.0 + 0.0j
        for i, j, m in zip(support[1:], turns, sizes[1:]):
            step[i] = radii[i] * np.exp(2j * math.pi * (j / m))
            coef *= np.exp(-2j * math.pi * (j * multi[i] % m / m))
        for idx in range(16):
            point = a.copy()
            for v, h in step.items():
                point[v] = a[v] + h * rot[idx]
            points.append(point)
            phases.append(coef * node_phases[idx])
    pref = 1.0 + 0.0j
    for v, m in zip(support, sizes):
        pref *= math.factorial(multi[v]) / (m * radii[v] ** multi[v])
    return points, phases, pref


def direction_stencils(a, multi, settings, among=()):
    """Radii and the full- and half-radius direction circles of d^multi at
    a, derived with the derivatives ``among`` (see ``direction_set``)."""
    host = direction_set(multi, among)
    radii = {v: settings.radius_factor * max(1.0, abs(a[v])) for v in host[0]}
    full = direction_circles(a, multi, radii, host)
    halved = direction_circles(
        a, multi, {v: r / 2.0 for v, r in radii.items()}, host)
    return radii, full, halved


def circle_sum(value, stencil) -> complex:
    """pref * sum of value(point) * phase, one sample at a time, in order;
    an error raised by ``value`` stops the sum."""
    points, phases, pref = stencil
    acc = 0.0 + 0.0j
    for point, phase in zip(points, phases):
        acc += value(point) * phase
    return pref * acc


# ---------------------------------------------------------------------------
# the sample table of one point, merged by the bits of its rows


class PointSampleTable:
    """Every circle sample of some derivatives at one point, as arrays,
    each derivative on the direction set it takes among ``among`` (multis
    by default).

    Derivative j of ``multis`` owns stencils 2j (full radius) and 2j + 1
    (half radius), consecutive blocks of sample rows after the point
    itself.  Rows equal in bits are merged into ``rows``, first occurrences
    first, so the point is row 0; ``index[t, k]`` is the row of stencil t's
    sample k, padded with row 0 past ``lengths[t]``.  Radii and prefactors
    are scalar Python arithmetic, one coordinate at a time.
    """

    def __init__(self, a: np.ndarray, multis: list, settings, among=None):
        n = a.size
        self.radii = [settings.radius_factor * max(1.0, abs(x)) for x in a]
        halved = [r / 2.0 for r in self.radii]
        among = multis if among is None else among
        dirs = [_directions(multi, *direction_set(multi, among))
                for multi in multis for _ in range(2)]
        prefs = []
        for t, (support, sizes, *_) in enumerate(dirs):
            multi, radii = multis[t // 2], (self.radii, halved)[t % 2]
            pref = 1.0 + 0.0j
            for v, m in zip(support, sizes):
                pref *= math.factorial(multi[v]) / (m * radii[v] ** multi[v])
            prefs.append(pref)
        self.prefs = np.array(prefs)
        self.lengths = np.array([len(d[2]) for d in dirs])
        starts = 1 + np.cumsum(self.lengths) - self.lengths

        phase, column, unit, node = map(
            np.concatenate, zip(*(d[2:] for d in dirs)))
        entries = [len(d[3]) for d in dirs]
        # each entry's row in flat: every sample moves its support's coordinates
        sample = np.repeat(np.arange(1, 1 + self.lengths.sum()),
                           np.repeat([len(d[0]) for d in dirs], self.lengths))
        halves = np.repeat(np.arange(len(dirs)) % 2, entries)
        radius = np.array(self.radii + halved, dtype=complex)[column + n * halves]
        flat = np.empty((1 + self.lengths.sum(), n), dtype=complex)
        flat[:] = a
        step = _mul(_mul(radius, unit), node)
        flat.reshape(-1)[sample * n + column] = a[column] + step
        self.rows, sample_rows = merge_rows(flat)

        width = self.lengths.max()
        into = np.arange(1, len(flat)) + np.repeat(
            np.arange(len(dirs)) * width - starts, self.lengths)
        self.index = np.zeros(len(dirs) * width, dtype=np.intp)
        self.index[into] = sample_rows[1:]
        self.index = self.index.reshape(-1, width)
        self.phases = np.zeros(len(dirs) * width, dtype=complex)
        self.phases[into] = phase
        self.phases = self.phases.reshape(-1, width)


def merge_rows(flat: np.ndarray):
    """The distinct rows (in bits) in order of first occurrence, and each
    row's position among them."""
    bits = flat.view(np.uint64)
    order = np.lexsort(bits.T)
    ordered = bits[order]
    starts = np.ones(len(flat), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    # lexsort is stable: each run of equal rows starts at its first occurrence
    first = np.zeros(len(flat), dtype=bool)
    first[order[starts]] = True
    rank = np.cumsum(first) - 1
    inverse = np.empty(len(flat), dtype=np.intp)
    inverse[order] = rank[order[starts]][np.cumsum(starts) - 1]
    return flat[first], inverse


# ---------------------------------------------------------------------------
# scalar path resolution and rule selection, one row at a time


def resolve_rows(path, spec, rows) -> list:
    """Each row's resolution of ``path``, or the error of its anchor.

    Anchor roots come from the package's root finder, once per anchored
    factor for all rows; everything after them runs row by row.
    """
    anchors, errors, roots = {}, {}, {}
    for seg in path.segments:
        if isinstance(seg, LineSegment):
            for pt in (seg.start, seg.end):
                if isinstance(pt, RootAnchor) and pt not in anchors:
                    anchors[pt], errs = _anchor_points(pt, spec, rows, roots)
                    for r, exc in errs.items():
                        errors.setdefault(r, exc)
    return [
        errors[r] if r in errors else resolve_row(path, anchors, r)
        for r in range(len(rows))
    ]


def resolve_row(path, anchors: dict, r: int):
    """Row r of a path's resolution, built segment by segment in scalars.

    ``anchors`` maps each RootAnchor of the path to its points at every row.
    Returns a one-row ResolvedPath of scalar segments, or raises
    ScenarioError where the path does not chain or close.
    """

    def endpoint(pt):
        return complex(anchors[pt][r]) if isinstance(pt, RootAnchor) else complex(pt)

    segs = []
    for seg in path.segments:
        if isinstance(seg, LineSegment):
            seg = LineSegment(endpoint(seg.start), endpoint(seg.end))
        elif isinstance(seg, ArcSegment):
            seg = ArcSegment(
                complex(seg.center), float(seg.radius),
                float(seg.angle_start), float(seg.angle_end),
            )
        elif isinstance(seg, RaySegment):
            d = complex(seg.direction)
            if abs(abs(d) - 1.0) > 1e-9:
                d = d / abs(d)
            seg = RaySegment(complex(seg.start), d, float(seg.length))
        segs.append(seg)
    scale = max(
        1.0, max(abs(start_point(s)) for s in segs), max(abs(end_point(s)) for s in segs)
    )
    for prev, nxt in zip(segs, segs[1:]):
        if abs(end_point(prev) - start_point(nxt)) > 1e-9 * scale:
            raise ScenarioError(
                "cycle",
                f"consecutive segments do not chain: {end_point(prev)} vs "
                f"{start_point(nxt)}",
            )
    if path.closed and abs(end_point(segs[-1]) - start_point(segs[0])) > 1e-9 * scale:
        raise ScenarioError("cycle", "closed path does not return to its start")
    return ResolvedPath(segments=tuple(segs), closed=path.closed,
                        anchor_t=float(path.anchor_t), rows=1)


def start_point(seg) -> complex:
    return complex(seg.point(0.0))


def end_point(seg) -> complex:
    return complex(seg.point(1.0))


def endpoint_is_singular(seg, which, anchored, spec, a, tracked_factors,
                         tracked_coords, geom_scale) -> bool:
    """Whether one endpoint of a one-row segment sits on a tracked zero;
    ``anchored`` is the factor of the RootAnchor it was resolved from, or 0."""
    if anchored and anchored in tracked_factors:
        return True
    z = start_point(seg) if which == "start" else end_point(seg)
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


def anchor_factors(seg) -> tuple[int, int]:
    """The factors of an unresolved segment's RootAnchor ends, (start, end),
    0 where an end has none."""
    if not isinstance(seg, LineSegment):
        return 0, 0
    return tuple(pt.factor if isinstance(pt, RootAnchor) else 0 for pt in (seg.start, seg.end))


def path_rules(path, rpath, spec, a, tracked_factors, tracked_coords) -> list:
    """The quadrature rule of each segment of ``rpath``, the one-row
    resolution of ``path`` at vector ``a``; an end resolved from a
    RootAnchor of a tracked factor is singular, whatever its value."""
    seg = rpath.segments[0]
    if (
        rpath.closed
        and rpath.nsegments == 1
        and isinstance(seg, ArcSegment)
        and abs(abs(seg.angle_end - seg.angle_start) - 2 * math.pi) < 1e-12
        and not tracked_factors
        and not tracked_coords
    ):
        return ["trapezoid"]
    geom_scale = max(
        1.0,
        max(abs(start_point(s)) for s in rpath.segments),
        max(abs(end_point(s)) for s in rpath.segments),
    )
    rules = []
    for seg, (f0, f1) in zip(rpath.segments, map(anchor_factors, path.segments)):
        if isinstance(seg, RaySegment):
            rules.append("ray")
            continue
        singular = endpoint_is_singular(
            seg, "start", f0, spec, a, tracked_factors, tracked_coords, geom_scale
        ) or endpoint_is_singular(
            seg, "end", f1, spec, a, tracked_factors, tracked_coords, geom_scale
        )
        rules.append("tanh-sinh" if singular else "gauss")
    return rules


# ---------------------------------------------------------------------------
# random structure generator


def random_scenario_structure(rng):
    """Random factor supports for lattice tests: m <= 2, total columns <= 8.

    Returns (m, list of (kind, monomial tuple list)); coefficients and
    analytic data are irrelevant to the exponent matrix.
    """
    m = int(rng.integers(1, 3))
    n_factors = int(rng.integers(1, 4))
    budget = 8
    factors = []
    for _ in range(n_factors):
        room = budget - sum(len(mons) for _, mons in factors)
        if room < 1:
            break
        size = int(rng.integers(1, min(4, room) + 1))
        mons = set()
        while len(mons) < size:
            mons.add(tuple(int(e) for e in rng.integers(0, 4, size=m)))
        kind = "power" if rng.random() < 0.7 else "exp"
        factors.append((kind, sorted(mons)))
    return m, factors
