"""Coefficient functions: periods, continued roots, and residue sums.

Each scenario's function kind is packaged as a black-box map a -> complex,
holomorphic on a neighborhood of the base coefficients, ready for
numerical differentiation:

  period      integrate the branched integrand over the scenario cycle
  root        continue the base root along a straight coefficient segment
  gl_residue  sum r^(beta-1)/f'(r) over all roots of the univariate factor

Every evaluator takes an (N, n) array of coefficient vectors and returns
one entry per row: its value or its own EvaluationError.  All three kinds
evaluate a batch together: roots and residue sums share the stacked root
kernel of ``_roots``, and every root, found or continued, is accepted
under its one rule, Horner's rounding floor.  PeriodFunction is the
single-vector entry: a call is a batch of one row that raises the row's
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._roots import _newton, eval_with_derivative, magnitude_sum, univariate_roots
from .analytic_paths import EvaluationError
from .quadrature import LEVEL_CAP, IntegralResult, integrate_cycle
from .scenario import ScenarioSpec, is_real_integer, validate_scenario

__all__ = [
    "PeriodEvaluationError",
    "UnconvergedQuadratureError",
    "NearDiscriminantError",
    "RootEscapeError",
    "MultipleRootError",
    "BranchAmbiguityError",
    "PeriodFunction",
    "eval_period",
    "period_values",
    "eval_root",
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

# Newton steps per correction, at most, before its continuation step is halved
_CORRECTIONS = 10


def _degenerate_lead(dense: np.ndarray) -> np.ndarray:
    """Rows whose leading coefficient degenerates: |c_d| < 1e-10 max_k |c_k|."""
    mags = np.abs(dense)
    return mags[:, -1] < 1e-10 * np.maximum(mags.max(axis=1), 1e-300)


def _correct(dense: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton on row r's root x[r] of dense[r]; returns the roots and which
    reached Horner's rounding floor.

    The corrections and the floor are _roots._newton's.  A row fails
    where f' vanishes (its correction is not finite), where a step
    exceeds (1 + |x|) / 2, or where _CORRECTIONS steps leave it above
    the floor.
    """
    x = x[:, None]
    live = np.ones(x.shape, dtype=bool)
    ok = np.zeros(x.shape, dtype=bool)
    for _ in range(_CORRECTIONS):
        step, done = _newton(dense, x)
        ok |= live & done
        live &= ~done & np.isfinite(step) & (np.abs(step) <= 0.5 * (1.0 + np.abs(x)))
        if not live.any():
            break
        x = np.where(live, x - step, x)
    else:
        ok |= live & _newton(dense, x)[1]
    return x[:, 0], ok[:, 0]


def _continue_root_segment(
    dense0: np.ndarray, dense1: np.ndarray, x: np.ndarray,
    escape_radius: float,
) -> tuple[np.ndarray, dict]:
    """Track row r's root of (1-t) dense0[r] + t dense1[r] from t=0 to t=1.

    Each row keeps its own parameter, step and root.  A step predicts
    the root along its tangent and corrects it by Newton (_correct),
    which accepts it at Horner's rounding floor; a failed correction
    halves that row's step, an accepted one grows it.  Returns the roots
    at t=1 and a dict mapping each failed row to its error.
    """
    ddense = dense1 - dense0
    n = x.shape[0]
    x = x.copy()
    t = np.zeros(n)
    dt = np.full(n, 0.25)
    errors: dict = {}
    live = np.arange(n)
    while live.size:
        tl, xl, d0, dd = t[live], x[live], dense0[live], ddense[live]
        dtl = np.minimum(dt[live], 1.0 - tl)
        tn = tl + dtl
        dense_t = d0 + tn[:, None] * dd
        escaped = _degenerate_lead(dense_t)
        fdot, _ = eval_with_derivative(dd, xl)
        _, df = eval_with_derivative(d0 + tl[:, None] * dd, xl)
        pred = np.where(df != 0, xl - dtl * fdot / df, xl)
        corrected, ok = _correct(dense_t, pred)
        ok &= ~escaped
        failed = ~ok & ~escaped
        dtl = np.where(failed, 0.5 * dtl, dtl)
        stalled = failed & (dtl < 1e-12)
        xl = np.where(ok, corrected, xl)
        tl = np.where(ok, tn, tl)
        far = ok & (np.abs(xl) > escape_radius)
        for j in np.nonzero(escaped | stalled | far)[0]:
            if escaped[j]:
                exc = RootEscapeError(
                    f"leading coefficient degenerates at segment parameter "
                    f"{tn[j]:.6f}"
                )
            elif stalled[j]:
                exc = NearDiscriminantError(
                    f"Newton correction failed near segment parameter "
                    f"{tl[j]:.6f}; the continuation path runs too close to a "
                    f"root collision"
                )
            else:
                exc = RootEscapeError(
                    f"root magnitude {abs(xl[j]):.3e} exceeded escape radius "
                    f"at segment parameter {tl[j]:.6f}"
                )
            errors[int(live[j])] = exc
        x[live] = xl
        t[live] = tl
        dt[live] = np.where(ok, np.minimum(dtl * 1.6, 0.25), dtl)
        live = live[~(escaped | stalled | far | (tl >= 1.0))]
    return x, errors


def _base_root(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray, float]:
    # base dense coefficients (one row), the corrected base root, escape radius
    dense = spec.dense_univariate(spec.coefficient_vector()[None])
    x0 = complex(spec.base_root)
    x, ok = _correct(dense, np.array([x0]))
    if not ok[0]:
        raise PeriodEvaluationError(
            "base root does not satisfy the base coefficients"
        )
    return dense, x, 1e6 * (1.0 + abs(x0))


def eval_root(spec: ScenarioSpec, a: np.ndarray) -> list:
    """Analytic continuation of the base root to each row of ``a``.

    The path is the straight segment from the scenario base coefficients;
    the base root and each step's root are corrected to Horner's rounding
    floor (_correct).  The rows of the (N, n) array ``a`` are continued
    together, each with its own step control; one complex or
    EvaluationError per row is returned.
    """
    a = spec.coefficient_rows(a)
    with np.errstate(all="ignore"):
        try:
            dense, x, escape = _base_root(spec)
        except PeriodEvaluationError as exc:
            return [exc] * len(a)
        dense1 = spec.dense_univariate(a)
        x, errors = _continue_root_segment(
            np.broadcast_to(dense, dense1.shape), dense1,
            np.repeat(x, len(a)), escape,
        )
    out = x.tolist()
    for r, exc in errors.items():
        out[r] = exc
    return out


# ---------------------------------------------------------------------------
# residue sums


def eval_gl_residue(spec: ScenarioSpec, a: np.ndarray) -> list:
    """Sum of r^(beta-1) / f'(r) over all roots r of the factor.

    Roots come from _roots.univariate_roots: Aberth-Ehrlich steps from
    closed-form starts for degrees 1 to 3 and from Newton-polygon starts
    above, each root stopped at Horner's rounding floor.  For
    non-integer beta the power uses the principal branch; a root on (or
    hugging) the negative real axis makes that choice ambiguous, an error
    for that row.  The roots of all rows of the (N, n) array ``a`` are
    found together; one complex or EvaluationError per row is returned.
    """
    dense = spec.dense_univariate(spec.coefficient_rows(a))
    out: list = [None] * len(dense)
    beta = complex(spec.twist_beta[0])
    with np.errstate(all="ignore"):
        degenerate = _degenerate_lead(dense)
        for r in np.nonzero(degenerate)[0]:
            out[r] = RootEscapeError("leading coefficient of the factor degenerates")
        rows = np.nonzero(~degenerate)[0]
        if dense.shape[1] < 2:
            for r in rows:
                out[r] = PeriodEvaluationError(
                    "factor is constant; no roots to sum over"
                )
            return out
        d = dense[rows]
        roots, _ = univariate_roots(d)
        # each row's roots in (real, imag) order, which fixes the summation order
        order = np.lexsort((roots.imag, roots.real), axis=-1)
        roots = np.take_along_axis(roots, order, axis=1)
        _, df = eval_with_derivative(d[:, None, :], roots)
        # nearly multiple: |f'| < 1e-8 sum_k |c_k| max(1, |r|)^(k-1)
        size = np.maximum(1.0, np.abs(roots))
        scale = magnitude_sum(d[:, None, :], size) / size
        multiple = np.abs(df) < 1e-8 * scale
        # roots whose weight r^(beta-1) is infinite or on an ambiguous branch
        if is_real_integer(beta):
            k = int(beta.real) - 1
            no_weight = (roots == 0) & (k < 0)
            weight = roots**k
        else:
            no_weight = (roots == 0) | (
                (roots.real < 0) & (np.abs(roots.imag) <= 1e-9 * np.abs(roots))
            )
            weight = np.exp((beta - 1.0) * np.log(roots))
        terms = weight / df
        total = np.zeros(len(rows), dtype=complex)
        for j in range(roots.shape[1]):
            total = total + terms[:, j]
    bad = multiple | no_weight
    spoiled = bad.any(axis=1)
    values = total.tolist()
    for i in np.flatnonzero(spoiled | ~np.isfinite(total)).tolist():
        if spoiled[i]:
            j = int(np.argmax(bad[i]))
            values[i] = _root_error(complex(roots[i, j]), complex(df[i, j]),
                                    bool(multiple[i, j]), beta)
        else:
            values[i] = PeriodEvaluationError("residue sum is not finite")
    for r, v in zip(rows.tolist(), values):
        out[r] = v
    return out


def _root_error(r: complex, df: complex, multiple: bool, beta: complex):
    # why root r spoils a residue sum, checked in the same order as the sum
    if multiple:
        return MultipleRootError(
            f"nearly multiple root at {r:.6g}: |f'| = {abs(df):.3e}"
        )
    if is_real_integer(beta):
        return PeriodEvaluationError(
            "zero root with negative twist power has no finite weight"
        )
    return BranchAmbiguityError(
        f"root {r:.6g} sits on the principal branch cut with "
        f"non-integer twist beta = {beta}"
    )


# ---------------------------------------------------------------------------
# periods


def eval_period(spec: ScenarioSpec, a: np.ndarray) -> list:
    """Cycle integral at each row of (N, n) ``a``, as period_values gives it."""
    return period_values(spec, integrate_cycle(spec, a))


def period_values(spec: ScenarioSpec, res: IntegralResult) -> list:
    """Each row of a cycle integral as its complex value or its error.

    A row keeps the EvaluationError its integration raised; otherwise a
    row whose rays are cut too short, or that did not converge within the
    level cap, is an UnconvergedQuadratureError.
    """
    terms = res.diagnostics["terms"]
    short = np.any([d["short_rays"] for d in terms], axis=0)
    failed = np.array([exc is not None for exc in res.errors], dtype=bool)
    out: list = res.value.tolist()
    for r in np.flatnonzero(failed | short | ~res.row_converged).tolist():
        exc = res.errors[r]
        if exc is None and short[r]:
            tip = np.max([d["tip_ratio"][r] for d in terms])
            exc = UnconvergedQuadratureError(
                f"a ray truncation is too short: its tip keeps {tip:.1e} of "
                f"the integrand's peak magnitude"
            )
        elif exc is None:
            exc = UnconvergedQuadratureError(
                f"quadrature did not converge below tol {spec.settings.tol:g} "
                f"within level cap {LEVEL_CAP} (error estimate "
                f"{res.error_estimate[r]:.3e})"
            )
        out[r] = exc
    return out


# ---------------------------------------------------------------------------
# the packaged callable


@dataclass
class PeriodFunction:
    """Black-box holomorphic function of the coefficient vector; the
    scenario is validated once, here, as loading does."""

    scenario: ScenarioSpec

    def __post_init__(self):
        validate_scenario(self.scenario)

    @property
    def dimension(self) -> int:
        return self.scenario.n_columns()

    def batch(self, a) -> list:
        """Values at each row of an (N, n) coefficient array.

        Entry k is row k's complex value or the EvaluationError that row
        raised; a failing row leaves the others untouched, and a row's
        value does not depend on the rest of its batch.  Every kind
        evaluates all rows together.
        """
        kind = self.scenario.function_kind
        if kind == "period":
            return eval_period(self.scenario, a)
        if kind == "root":
            return eval_root(self.scenario, a)
        return eval_gl_residue(self.scenario, a)

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
