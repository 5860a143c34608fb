"""Internal helper: roots of stacks of dense univariate polynomials.

Starting roots from closed forms for degrees 1 to 3 and from
companion-matrix eigenvalues above, followed by a few Newton polish
steps, and the Horner evaluation they share with root continuation and
residue sums.
Kept separate so path resolution, root continuation and residue
evaluation share one implementation.  Everything works on stacks, one
polynomial per row, and a row's results do not depend on the rest of its
stack.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = ["univariate_roots", "eval_with_derivative"]

# Newton polish steps after the starting roots.
_POLISH_STEPS = 8
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


def _polish(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Newton steps on each root of each row; a root stops on its own.

    Row r's roots x[r] belong to coeffs[r].  A root stops when its
    derivative vanishes or its step falls below 1e-16 * max(1, |x|).
    Where a term |c_k x^k| of the stack could near overflow, each root
    runs in its own variable y = x / 2^e, 2^e near its start, on its row
    scaled by the power of two that brings its largest term at |y| = 1 to
    about 1.  Powers of two scale exactly: in the normal range the scaled
    steps are the unscaled ones, bit for bit.
    """
    e = np.frexp(np.abs(x))[1]
    size = np.frexp(np.abs(coeffs))[1]
    degree = coeffs.shape[1] - 1
    c, y, unit = coeffs[:, None, :], x, 1.0
    scaled = size.max(initial=0) + degree * max(int(e.max(initial=0)), 0) >= 1000
    if scaled:
        size[coeffs == 0] = -(2**20)
        ek = e[..., None] * np.arange(degree + 1, dtype=e.dtype)
        # each root's largest term, k by k: numpy reduces a short axis slowly
        top = reduce(np.maximum, [size[:, None, k] + ek[..., k] for k in range(degree + 1)])
        c = _ldexp(c, ek - top[..., None])
        # the stop rule in y: 1e-16 max(1, |x|) = 2^e 1e-16 max(2^-e, |y|)
        y, unit = _ldexp(x, -e), np.ldexp(1.0, -e)
    live = np.ones(x.shape, dtype=bool)
    for _ in range(_POLISH_STEPS):
        f, df = eval_with_derivative(c, y)
        live &= df != 0
        step = np.where(live, f / df, 0.0)
        y = y - step
        live &= ~(np.abs(step) < 1e-16 * np.maximum(unit, np.abs(y)))
        if not live.any():
            break
    return _ldexp(y, e) if scaled else y


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
    smaller than r is still within reach of the Newton polish.
    """
    d = monic.shape[1] - 1
    if d == 1:
        return -monic[:, :1]
    # int32 exponents, as frexp gives _polish: np.ldexp casts int64 slowly
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
    and above from one stacked companion eigvals call; all then get the
    same Newton polish.  Returns the roots, (N, D) with row r's in its
    first deg[r] entries and nan after them, and the trimmed degrees deg,
    -1 for the zero polynomial.  A row with non-finite coefficients keeps
    nan roots.
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
            if d <= 3:
                start = _closed_form_roots(monic[ok])
            else:
                comp = np.zeros((ok.sum(), d, d), dtype=complex)
                comp[:, 1:, :-1] = np.eye(d - 1)
                comp[:, :, -1] = -monic[ok, :d]
                start = np.linalg.eigvals(comp)
            rows = np.nonzero(deg == d)[0][ok]
            roots[rows, :d] = _polish(cd[ok], start)
    return roots, deg
