"""Coefficient functions: periods, continued roots, and residue sums.

Each scenario's function kind is packaged as a black-box map a -> complex,
holomorphic on a neighborhood of the base coefficients, ready for
numerical differentiation:

  period      integrate the branched integrand over the scenario cycle
  root        continue the base root along a straight coefficient segment
  gl_residue  sum r^(beta-1)/f'(r) over all roots of the univariate factor

PeriodFunction.batch evaluates many coefficient vectors in one call, each
row to its value or its own EvaluationError; a single call is a batch of
one row.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ._roots import eval_with_derivative, univariate_roots
from .analytic_paths import EvaluationError
from .quadrature import LEVEL_CAP, integrate_cycle
from .scenario import ScenarioSpec, is_real_integer

__all__ = [
    "PeriodEvaluationError",
    "UnconvergedQuadratureError",
    "NearDiscriminantError",
    "RootEscapeError",
    "MultipleRootError",
    "BranchAmbiguityError",
    "PeriodFunction",
    "eval_period",
    "eval_root",
    "track_root",
    "eval_gl_residue",
]


class PeriodEvaluationError(EvaluationError):
    """Evaluation of a coefficient function failed."""


class UnconvergedQuadratureError(PeriodEvaluationError):
    """The quadrature level cap was reached without tolerance agreement."""


class NearDiscriminantError(PeriodEvaluationError):
    """Root continuation stalled: the path runs too close to a root collision."""


class RootEscapeError(PeriodEvaluationError):
    """A root left the working range (leading coefficient degenerated)."""


class MultipleRootError(PeriodEvaluationError):
    """The factor is not squarefree at the requested coefficients."""


class BranchAmbiguityError(PeriodEvaluationError):
    """A root sits on the principal branch cut with a non-integer twist."""


# ---------------------------------------------------------------------------
# root continuation


def _poly_scale(dense: np.ndarray, x: complex) -> float:
    m = max(1.0, abs(x))
    return float(sum(abs(c) * m**k for k, c in enumerate(dense)))


def _newton(dense: np.ndarray, x: complex, tol_rel: float = 1e-13,
            max_iter: int = 10) -> complex | None:
    for _ in range(max_iter):
        f, df = eval_with_derivative(dense, x)
        scale = _poly_scale(dense, x)
        if abs(f) <= tol_rel * scale:
            return x
        if df == 0:
            return None
        step = f / df
        if abs(step) > 0.5 * (1.0 + abs(x)):
            return None
        x = x - step
    f, _ = eval_with_derivative(dense, x)
    if abs(f) <= tol_rel * _poly_scale(dense, x):
        return x
    return None


def _continue_root_segment(
    dense0: np.ndarray, dense1: np.ndarray, x0: complex,
    escape_radius: float,
) -> complex:
    """Track the root of (1-t) dense0 + t dense1 from t=0 to t=1."""
    ddense = dense1 - dense0
    x = complex(x0)
    t = 0.0
    dt = 0.25
    while t < 1.0:
        dt = min(dt, 1.0 - t)
        tn = t + dt
        dense_t = dense0 + tn * ddense
        lead = np.abs(dense_t)
        if lead[-1] < 1e-10 * max(float(np.max(lead)), 1e-300):
            raise RootEscapeError(
                f"leading coefficient degenerates at segment parameter {tn:.6f}"
            )
        fdot = complex(np.polyval(ddense[::-1], x))
        _, df = eval_with_derivative(dense0 + t * ddense, x)
        pred = x - dt * fdot / df if df != 0 else x
        corrected = _newton(dense_t, pred)
        if corrected is None:
            dt *= 0.5
            if dt < 1e-12:
                raise NearDiscriminantError(
                    f"Newton correction failed near segment parameter {t:.6f}; "
                    f"the continuation path runs too close to a root collision"
                )
            continue
        x = corrected
        t = tn
        if abs(x) > escape_radius:
            raise RootEscapeError(
                f"root magnitude {abs(x):.3e} exceeded escape radius at "
                f"segment parameter {t:.6f}"
            )
        dt = min(dt * 1.6, 0.25)
    return x


def track_root(spec: ScenarioSpec, waypoints) -> complex:
    """Continue the base root along straight segments through the waypoints.

    Each segment is followed by predictor-corrector continuation with
    adaptive step halving and Newton correction to |f| <= 1e-13 *
    coefficient scale; the root at the last waypoint is returned.
    """
    dense = spec.dense_univariate(spec.coefficient_vector())
    x0 = complex(spec.base_root)
    x = _newton(dense, x0)
    if x is None:
        raise PeriodEvaluationError(
            "base root does not satisfy the base coefficients"
        )
    escape = 1e6 * (1.0 + abs(x0))
    for w in waypoints:
        dense_next = spec.dense_univariate(np.asarray(w, dtype=complex))
        x = _continue_root_segment(dense, dense_next, x, escape)
        dense = dense_next
    return x


def eval_root(spec: ScenarioSpec, a: np.ndarray) -> complex:
    """Analytic continuation of the base root to coefficients a.

    The path is the straight segment from the scenario base coefficients.
    """
    return track_root(spec, [a])


# ---------------------------------------------------------------------------
# residue sums


def eval_gl_residue(spec: ScenarioSpec, a: np.ndarray) -> complex:
    """Sum of r^(beta-1) / f'(r) over all roots r of the factor.

    Roots come from companion-matrix eigenvalues plus Newton polish.  For
    non-integer beta the power uses the principal branch; a root on (or
    hugging) the negative real axis makes that choice ambiguous and raises.
    """
    a = np.asarray(a, dtype=complex)
    dense = spec.dense_univariate(a)
    mags = np.abs(dense)
    if mags[-1] < 1e-10 * max(float(np.max(mags)), 1e-300):
        raise RootEscapeError("leading coefficient of the factor degenerates")
    if dense.size < 2:
        raise PeriodEvaluationError("factor is constant; no roots to sum over")
    roots = univariate_roots(dense)
    beta = complex(spec.twist_beta[0])
    dpoly = dense[1:] * np.arange(1, dense.size)
    total = 0.0 + 0.0j
    for r in sorted(map(complex, roots), key=lambda z: (z.real, z.imag)):
        df = complex(np.polyval(dpoly[::-1], r))
        scale = _poly_scale(dense, r) / max(1.0, abs(r))
        if abs(df) < 1e-8 * scale:
            raise MultipleRootError(
                f"nearly multiple root at {r:.6g}: |f'| = {abs(df):.3e}"
            )
        if is_real_integer(beta):
            k = int(beta.real) - 1
            if k < 0 and r == 0:
                raise PeriodEvaluationError(
                    "zero root with negative twist power has no finite weight"
                )
            weight = r**k
        else:
            if r == 0 or (r.real < 0 and abs(r.imag) <= 1e-9 * abs(r)):
                raise BranchAmbiguityError(
                    f"root {r:.6g} sits on the principal branch cut with "
                    f"non-integer twist beta = {beta}"
                )
            weight = cmath.exp((beta - 1.0) * cmath.log(r))
        total += weight / df
    if not (np.isfinite(total.real) and np.isfinite(total.imag)):
        raise PeriodEvaluationError("residue sum is not finite")
    return total


# ---------------------------------------------------------------------------
# periods


def eval_period(spec: ScenarioSpec, a: np.ndarray):
    """Cycle integral at coefficients a; raises instead of returning junk.

    ``a`` is one coefficient vector, or an (N, n) batch whose rows are
    integrated together: then one complex or EvaluationError per row is
    returned, and an unconverged row is an UnconvergedQuadratureError.
    """
    a = np.asarray(a, dtype=complex)
    res = integrate_cycle(spec, a=a)
    out: list = []
    for value, estimate, converged, exc in zip(
        res.value, res.error_estimate, res.row_converged, res.errors
    ):
        if exc is None and not converged:
            exc = UnconvergedQuadratureError(
                f"quadrature did not converge below tol {spec.settings.tol:g} "
                f"within level cap {LEVEL_CAP} (error estimate "
                f"{estimate:.3e})"
            )
        out.append(complex(value) if exc is None else exc)
    if a.ndim == 2:
        return out
    if isinstance(out[0], EvaluationError):
        raise out[0]
    return out[0]


# ---------------------------------------------------------------------------
# the packaged callable


@dataclass
class PeriodFunction:
    """Black-box holomorphic function of the coefficient vector."""

    scenario: ScenarioSpec

    @property
    def kind(self) -> str:
        return self.scenario.function_kind

    @property
    def dimension(self) -> int:
        return self.scenario.n_columns()

    def batch(self, a) -> list:
        """Values at each row of an (N, n) coefficient array.

        Entry k is row k's complex value or the EvaluationError that row
        raised; a failing row leaves the others untouched, and a row's
        value does not depend on the rest of its batch.  Periods integrate
        all rows together; roots and residue sums go row by row.
        """
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[1] != self.dimension:
            raise ValueError(
                f"expected an (N, {self.dimension}) coefficient array, "
                f"got shape {a.shape}"
            )
        kind = self.scenario.function_kind
        if kind == "period":
            return eval_period(self.scenario, a)
        fn = eval_root if kind == "root" else eval_gl_residue
        out: list = []
        for row in a:
            try:
                out.append(fn(self.scenario, row))
            except EvaluationError as exc:
                out.append(exc)
        return out

    def __call__(self, a) -> complex:
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.dimension,):
            raise ValueError(
                f"expected coefficient vector of length {self.dimension}, "
                f"got shape {a.shape}"
            )
        value = self.batch(a[None])[0]
        if isinstance(value, EvaluationError):
            raise value
        return value
