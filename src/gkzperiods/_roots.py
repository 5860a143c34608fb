"""Internal helper: roots of a dense univariate polynomial.

Companion-matrix eigenvalues followed by a few Newton polish steps, and
the Horner evaluation they share with root continuation.  Kept separate
so path resolution, root continuation and residue evaluation share one
implementation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["univariate_roots", "polish_root", "eval_with_derivative"]


def eval_with_derivative(coeffs: np.ndarray, x: complex) -> tuple[complex, complex]:
    # Horner on ascending coefficients, value and derivative together.
    f = 0.0 + 0.0j
    df = 0.0 + 0.0j
    for c in coeffs[::-1]:
        df = df * x + f
        f = f * x + c
    return f, df


def polish_root(coeffs: np.ndarray, x: complex, steps: int = 8) -> complex:
    """A few Newton steps; returns the input unchanged if Newton stalls."""
    for _ in range(steps):
        f, df = eval_with_derivative(coeffs, x)
        if df == 0:
            break
        step = f / df
        x = x - step
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return x


def univariate_roots(coeffs) -> np.ndarray:
    """All roots of sum_k coeffs[k] x^k, coefficients ascending.

    Trailing (high-degree) zero coefficients are trimmed first.  Raises
    ValueError for the zero polynomial or degree zero.
    """
    c = np.asarray(coeffs, dtype=complex)
    # trim vanishing leading coefficients
    deg = len(c) - 1
    while deg >= 0 and c[deg] == 0:
        deg -= 1
    if deg < 0:
        raise ValueError("zero polynomial has no well-defined roots")
    if deg == 0:
        return np.zeros(0, dtype=complex)
    c = c[: deg + 1]
    monic = c / c[deg]
    comp = np.zeros((deg, deg), dtype=complex)
    if deg > 1:
        comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[:deg]
    raw = np.linalg.eigvals(comp)
    return np.array([polish_root(c, r) for r in raw], dtype=complex)
