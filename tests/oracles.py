"""Independent reference values and exact helpers used across the tests.

Everything here is derived without the package's own numerics: closed
forms, exact rational arithmetic, or brute-force enumeration.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

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
