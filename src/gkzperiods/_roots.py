"""Internal helper: roots of stacks of dense univariate polynomials.

Companion-matrix eigenvalues followed by a few Newton polish steps, and
the Horner evaluation they share with root continuation and residue sums.
Kept separate so path resolution, root continuation and residue
evaluation share one implementation.  Everything works on stacks, one
polynomial per row, and a row's results do not depend on the rest of its
stack.
"""

from __future__ import annotations

import numpy as np

__all__ = ["univariate_roots", "eval_with_derivative"]

# Newton polish steps after the companion eigenvalues.
_POLISH_STEPS = 8


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
    """
    c = coeffs[:, None, :]
    live = np.ones(x.shape, dtype=bool)
    for _ in range(_POLISH_STEPS):
        f, df = eval_with_derivative(c, x)
        live &= df != 0
        step = np.where(live, f / df, 0.0)
        x = x - step
        live &= ~(np.abs(step) < 1e-16 * np.maximum(1.0, np.abs(x)))
        if not live.any():
            break
    return x


def univariate_roots(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """All roots of sum_k coeffs[r, k] x^k for each row r of an (N, D+1) array.

    Trailing (high-degree) zero coefficients of a row are trimmed first;
    rows of equal trimmed degree share one stacked companion eigvals call.
    Returns the roots, (N, D) with row r's in its first deg[r] entries and
    nan after them, and the trimmed degrees deg, -1 for the zero
    polynomial.  A row with non-finite coefficients keeps nan roots.
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
            comp = np.zeros((ok.sum(), d, d), dtype=complex)
            comp[:, 1:, :-1] = np.eye(d - 1)
            comp[:, :, -1] = -monic[ok, :d]
            rows = np.nonzero(deg == d)[0][ok]
            roots[rows, :d] = _polish(cd[ok], np.linalg.eigvals(comp))
    return roots, deg
