"""Internal helper: roots of stacks of dense univariate polynomials.

Rows of degree 1 to 3 start from closed forms, rows of degree 4 and
above on the circles of their Newton polygon, and every row takes
Aberth-Ehrlich steps from there.  The iteration stops a root, without
taking its step, once its residual is within Horner's rounding floor.
Root continuation takes its Newton corrections, and the same floor, from
_newton, and residue sums share the Horner evaluation and the magnitude
sum behind the floor.
Kept separate so path resolution, root continuation and residue
evaluation share one implementation.  Everything works on stacks, one
polynomial per row, and a row's results do not depend on the rest of its
stack.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = ["univariate_roots", "eval_with_derivative", "magnitude_sum"]

# Aberth-Ehrlich steps, at most (from the Newton-polygon starts, simple
# roots of degree 4 to 9 rows stop within 15, multiple roots within 20)
_ABERTH_STEPS = 64
# unit roundoff of double precision, for Horner's rounding floor
_EPS = 2.0**-53
# angle (radians) by which the Newton-polygon starts are turned off the
# real axis, Bini's 0.7
_TURN = 0.7
# the cube roots of unity, one per branch of Cardano's formula
_OMEGA = np.array([1.0, complex(-0.5, 0.75**0.5), complex(-0.5, -(0.75**0.5))])


def eval_with_derivative(coeffs: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of ascending coefficients ``coeffs[..., k]`` at x.

    Horner on the last axis of ``coeffs``; its leading axes broadcast
    against ``x``.
    """
    x = np.asarray(x, dtype=complex)
    f = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], x.shape), dtype=complex)
    df = f.copy()
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        # np.multiply keeps the operand order: numpy's complex product is
        # not bitwise commutative, and a row must not depend on its stack
        df = np.multiply(df, x) + f
        f = np.multiply(f, x) + coeffs[..., k]
    return f, df


def magnitude_sum(coeffs: np.ndarray, r) -> np.ndarray:
    """sum_k |coeffs[..., k]| r^k for real r >= 0, by one real Horner pass;
    the leading axes of ``coeffs`` broadcast against r."""
    mags = np.abs(coeffs)
    s = mags[..., -1]
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        s = s * r + mags[..., k]
    return s


def _newton(coeffs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton corrections f(x) / f'(x) at the roots x[r] of row coeffs[r],
    and which roots are at Horner's rounding floor.

    A root is at the floor once |f(x)| <= 2 d eps sum_k |c_k| |x|^k at
    degree d and eps = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, section 5.1): below it the residual is
    rounding noise, and a step would only dither.  Where f'(x) vanishes
    off the floor, the correction is not finite.  The Aberth steps and
    root continuation both take their corrections and floor from here.
    Where a term |c_k x^k| of the stack could near overflow, each root is
    evaluated in its own variable y = x / 2^e, 2^e near it, on its row
    scaled by the power of two that brings its largest term at |y| = 1 to
    about 1.  Powers of two scale exactly: in the normal range the scaled
    corrections and floors are the unscaled ones, bit for bit.
    """
    e = np.frexp(np.abs(x))[1]
    size = np.frexp(np.abs(coeffs))[1]
    degree = coeffs.shape[1] - 1
    c, y = coeffs[:, None, :], x
    scaled = size.max(initial=0) + degree * max(int(e.max(initial=0)), 0) >= 1000
    if scaled:
        size[coeffs == 0] = -(2**20)
        ek = e[..., None] * np.arange(degree + 1, dtype=e.dtype)
        # each root's largest term, k by k: numpy reduces a short axis slowly
        top = reduce(np.maximum, [size[:, None, k] + ek[..., k] for k in range(degree + 1)])
        c = _ldexp(c, ek - top[..., None])
        y = _ldexp(x, -e)
    f, df = eval_with_derivative(c, y)
    done = np.abs(f) <= 2 * degree * _EPS * magnitude_sum(c, np.abs(y))
    step = f / df
    return (_ldexp(step, e) if scaled else step), done


def _aberth(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Aberth-Ehrlich steps on all roots of each row at once.

    Row r's roots x[r] belong to coeffs[r].  Root i's Newton correction
    N is deflated by the row's other roots, N / (1 - N sum_{j != i} 1 /
    (x_i - x_j)), which converges to all roots at once and keeps the
    roots apart while it does (Bini, Numer. Algorithms 13 (1996)); a row
    of degree 1 has no other root, and its step is Newton's.  A root
    stops at Horner's rounding floor (_newton), or where its Newton
    correction is not finite (f'(x) = 0), and the others keep moving
    against it; a start already within the floor costs one Horner pass
    and takes no step.  A root still moving after _ABERTH_STEPS steps is
    returned as it stands.
    """
    live = np.ones(x.shape, dtype=bool)
    others = ~np.eye(x.shape[1], dtype=bool)
    for _ in range(_ABERTH_STEPS):
        step, done = _newton(coeffs, x)
        live &= ~done & np.isfinite(step)
        if not live.any():
            break
        pull = np.sum(1.0 / (x[:, :, None] - x[:, None, :]), axis=2, where=others)
        x = x - np.where(live, step / (1.0 - step * pull), 0.0)
    return x


def _polygon_starts(coeffs: np.ndarray) -> np.ndarray:
    """Starting roots of rows of degree d, (N, d), on their Newton polygon.

    Over each unit interval (m, m + 1) the upper convex hull of the points
    (k, log2 |c_k|) has a slope s: the least, over i <= m, of the largest
    slope from point i to a point j > m.  At |x| = 2^-s the two terms that
    end that hull edge balance, so an edge of length l carries about l
    roots of that modulus (Bini 1996), and interval m's root starts on
    that circle at angle 2 pi m / d + _TURN.  Zero low coefficients put as
    many starts at 0, where those roots are exact.
    """
    d = coeffs.shape[1] - 1
    k = np.arange(d + 1)
    height = np.log2(np.abs(coeffs))
    # slope[:, i, j] from point i to point j: infinite where one of them is
    # a zero coefficient, nan where both are, which fmin and fmax pass over
    slope = (height[:, None, :] - height[:, :, None]) / (k - k[:, None])
    hull = np.stack([
        np.fmin.reduce(np.fmax.reduce(slope[:, : m + 1, m + 1 :], axis=2), axis=1)
        for m in range(d)
    ], axis=1)
    return np.exp2(-hull) * np.exp(1j * (2 * np.pi * np.arange(d) / d + _TURN))


def _closed_form_roots(monic: np.ndarray) -> np.ndarray:
    """Starting roots of monic rows of degree d <= 3, (N, d).

    Degree 1 is -c0.  A row of degree 2 or 3 is scaled, x = 2^e y, by the
    power of two nearest its root bound max_k |c_k|^(1/(d-k)), which is
    exact and keeps the closed forms clear of overflow, and its largest
    root r is found there.  Degree 2 takes the root -(b + s sqrt(b^2 - 4c))
    / 2 with the sign s that makes it largest, so nothing cancels.  Degree
    3 is Cardano on the depressed cubic, taking the square-root sign that
    makes |u^3| largest, then the largest of the three cube-root branches:
    the branches are accurate only to eps times the largest root.  The
    other roots come from Vieta's formulas on the unscaled row, c0 / r for
    degree 2 and the roots of the quadratic with product -c0 / r and sum
    (c1 - product) / r for degree 3, so a root many orders of magnitude
    smaller than r is still within reach of the Aberth steps.
    """
    d = monic.shape[1] - 1
    if d == 1:
        return -monic[:, :1]
    # int32 exponents, as frexp gives _newton: np.ldexp casts int64 slowly
    k = np.arange(d, dtype=np.int32)
    e = np.rint(np.max(np.log2(np.abs(monic[:, :d])) / (d - k), axis=1))
    e = np.where(np.isfinite(e), e, 0.0).astype(np.int32)
    m = _ldexp(monic[:, :d], e[:, None] * (k - d))
    if d == 2:
        b, c = m[:, 1], m[:, 0]
        w = np.sqrt(b * b - 4.0 * c)
        big = -0.5 * (b + np.where(b.real * w.real + b.imag * w.imag < 0, -w, w))
    else:
        a, b, c = m[:, 2], m[:, 1], m[:, 0]
        p = b - a * a / 3.0
        q = (2.0 * a * a * a - 9.0 * a * b) / 27.0 + c
        w = np.sqrt(0.25 * q * q + p * p * p / 27.0)
        u3 = np.where(np.abs(w - 0.5 * q) >= np.abs(w + 0.5 * q), w - 0.5 * q, -w - 0.5 * q)
        u = u3 ** (1.0 / 3.0)
        v = np.divide(-p, 3.0 * u, out=np.zeros_like(u), where=u != 0)
        branches = u[:, None] * _OMEGA + v[:, None] * _OMEGA.conj() - a[:, None] / 3.0
        big = branches[np.arange(len(m)), np.argmax(np.abs(branches), axis=1)]
    r = _ldexp(big, e)
    # r is 0 only when every root is
    prod = np.divide(-monic[:, 0], r, out=np.zeros_like(r), where=r != 0)
    if d == 2:
        return np.stack([r, -prod], axis=1)
    total = np.divide(monic[:, 1] - prod, r, out=np.zeros_like(r), where=r != 0)
    rest = _closed_form_roots(np.stack([prod, -total, np.ones_like(r)], axis=1))
    return np.concatenate([r[:, None], rest], axis=1)


def _ldexp(z: np.ndarray, e) -> np.ndarray:
    """z * 2**e for exponents e broadcasting against z, exact unless it
    leaves the normal range: one ldexp on both parts as a float pair."""
    pairs = np.ascontiguousarray(z).view(float).reshape(z.shape + (2,))
    return np.ldexp(pairs, np.asarray(e)[..., None]).view(complex)[..., 0]


def univariate_roots(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """All roots of sum_k coeffs[r, k] x^k for each row r of an (N, D+1) array.

    Trailing (high-degree) zero coefficients of a row are trimmed first,
    and rows of equal trimmed degree are solved together.  Rows of degree
    1 to 3 start from closed forms (_closed_form_roots), rows of degree 4
    and above from their Newton polygon (_polygon_starts), and all take
    stacked Aberth-Ehrlich steps (_aberth), which stop a root at Horner's
    rounding floor (_newton).  Returns the roots, (N, D) with row r's in
    its first deg[r] entries and nan after them, and the trimmed degrees
    deg, -1 for the zero polynomial.  A row with non-finite coefficients
    keeps nan roots.
    """
    c = np.asarray(coeffs, dtype=complex)
    n, width = c.shape
    nonzero = c != 0
    last = width - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    deg = np.where(nonzero.any(axis=1), last, -1)
    roots = np.full((n, max(width - 1, 0)), np.nan, dtype=complex)
    with np.errstate(all="ignore"):
        for d in sorted(set(deg[deg > 0].tolist())):
            cd = c[deg == d, : d + 1]
            monic = cd / cd[:, d, None]
            # a row with non-finite coefficients keeps nan roots
            ok = np.isfinite(monic).all(axis=1)
            starts = _closed_form_roots(monic[ok]) if d <= 3 else _polygon_starts(cd[ok])
            roots[np.nonzero(deg == d)[0][ok], :d] = _aberth(cd[ok], starts)
    return roots, deg
