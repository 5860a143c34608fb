"""Scenario data model: polynomial factors, twists, and the function kind.

A scenario is the raw input every other module consumes: a polynomial map
given by factor supports with base coefficients, per-variable twist
exponents, and which function of the coefficients is being studied (a
cycle integral, a tracked polynomial root, or a residue sum over the
roots of a univariate polynomial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

__all__ = [
    "ScenarioError",
    "Monomial",
    "FactorSupport",
    "EvalSettings",
    "ScenarioSpec",
    "validate_scenario",
    "is_real_integer",
]

FUNCTION_KINDS = ("period", "root", "gl_residue")
FACTOR_KINDS = ("power", "exp")

# Exponent vector of one monomial, one entry per variable.
Monomial = tuple[int, ...]


class ScenarioError(ValueError):
    """Scenario data violates a structural rule.

    ``where`` is a dotted/indexed path into the scenario document, for
    example ``factors[0].monomials[2]``.
    """

    def __init__(self, where: str, message: str):
        self.where = where
        self.message = message
        super().__init__(f"{where}: {message}" if where else message)


def is_real_integer(z: complex) -> bool:
    """True when z is a real number with integral value."""
    z = complex(z)
    return z.imag == 0.0 and float(z.real).is_integer()


@dataclass(frozen=True)
class FactorSupport:
    """One polynomial factor: its support monomials and base coefficients.

    ``kind`` is "power" for a factor entering the integrand as f^lam (or as
    the tracked polynomial of a root / residue scenario) and "exp" for a
    factor entering as exp(f).  Monomials are stored lex-sorted and must be
    pairwise distinct; coefficients stay aligned with them.
    """

    index: int
    kind: str
    monomials: tuple[Monomial, ...]
    coefficients: tuple[complex, ...]
    lam: complex | None = None

    def n_columns(self) -> int:
        return len(self.monomials)

    def degree_in(self, p: int) -> int:
        """Largest exponent of variable p (0-based) in the support."""
        return max(mono[p] for mono in self.monomials)

    def values(self, coeffs: Sequence[complex], coords: Sequence) -> Any:
        """Evaluate sum_k coeffs[k] * x^monomials[k] at ``coords``.

        ``coords`` holds one scalar or ndarray per variable; broadcasting
        follows numpy rules, so mixed scalar/array coordinates work.
        """
        total: Any = 0.0 + 0.0j
        for mono, c in zip(self.monomials, coeffs):
            term: Any = c
            for p, e in enumerate(mono):
                if e:
                    # np.multiply, not *: numpy may reuse a large temporary
                    # right operand of * in place, swapping the factors, and
                    # its complex product is not bitwise commutative, so a
                    # batch row's value would depend on the batch size.
                    # x ** 1 is x bit for bit, but numpy runs a full power
                    # loop for it
                    term = np.multiply(term, coords[p] if e == 1 else coords[p] ** e)
            total = total + term
        return total


@dataclass(frozen=True)
class EvalSettings:
    """Numerical knobs carried by a scenario.

    Defaults match the documented contract: quadrature tolerance 1e-10,
    box search bound 4, verification threshold 1e-6 with three seeded
    points perturbed by point_rel/2..point_rel (10..20 percent), and
    Cauchy-circle differentiation at radius 0.1 * max(1, |a|).  The
    quadrature levels (5..14) and the circle node count (16) are fixed
    constants of their modules.  Values the verifier cannot use are
    rejected here, for scenario files and command line overrides alike.
    """

    tol: float = 1e-10
    degree_bound: int = 4
    threshold: float = 1e-6
    seed: int = 1234
    points: int = 3
    point_rel: float = 0.2
    radius_factor: float = 0.1

    def __post_init__(self):
        if not self.tol > 0:
            raise ScenarioError("settings.tol", "must be positive")
        if self.degree_bound < 1:
            raise ScenarioError("settings.degree_bound", "must be at least 1")
        if not self.threshold > 0:
            raise ScenarioError("settings.threshold", "must be positive")
        if self.seed < 0:
            raise ScenarioError("settings.seed", "must be non-negative")
        if self.points < 1:
            raise ScenarioError("settings.points", "need at least one point")
        if not self.point_rel > 0:
            raise ScenarioError("settings.point_rel", "must be positive")
        if not self.radius_factor > 0:
            raise ScenarioError("settings.radius_factor", "must be positive")


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete scenario: factors, twist, function kind, and settings.

    ``cycle`` is a CycleSpec for period scenarios (kept untyped here so the
    geometry layer can stay import-free of this module).  ``frozen`` lists
    (variable index, value) pairs, 1-based, for root scenarios where all but
    one variable is held at a fixed numeric value.
    """

    name: str
    m: int
    factors: tuple[FactorSupport, ...]
    twist_beta: tuple[complex, ...]
    function_kind: str
    cycle: Any = None
    base_root: complex | None = None
    frozen: tuple[tuple[int, complex], ...] = ()
    settings: EvalSettings = field(default_factory=EvalSettings)

    # ---- canonical coefficient coordinates ---------------------------------

    def columns(self) -> tuple[tuple[int, Monomial], ...]:
        """Canonical column order: factor index first, then lex on monomials."""
        cols: list[tuple[int, Monomial]] = []
        for fac in self.factors:
            for mono in fac.monomials:
                cols.append((fac.index, mono))
        return tuple(cols)

    def n_columns(self) -> int:
        return sum(fac.n_columns() for fac in self.factors)

    def factor_slices(self) -> tuple[slice, ...]:
        out = []
        lo = 0
        for fac in self.factors:
            hi = lo + fac.n_columns()
            out.append(slice(lo, hi))
            lo = hi
        return tuple(out)

    def coefficient_vector(self) -> np.ndarray:
        """Base coefficients concatenated in canonical column order."""
        vals: list[complex] = []
        for fac in self.factors:
            vals.extend(fac.coefficients)
        return np.asarray(vals, dtype=complex)

    def coefficient_rows(self, a) -> np.ndarray:
        """``a`` as (N, n) complex rows; anything else raises ValueError."""
        a = np.asarray(a, dtype=complex)
        n = self.n_columns()
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError(f"expected an (N, {n}) coefficient array, got shape {a.shape}")
        return a

    def coefficients_for(self, a: np.ndarray, index: int) -> np.ndarray:
        """Slice of coefficient vector ``a`` belonging to factor ``index``.

        The slice is taken along the last axis, so a batch of coefficient
        vectors (one per row) gives one slice per row.
        """
        return a[..., self.factor_slices()[index - 1]]

    # ---- root-scenario helpers ---------------------------------------------

    def frozen_values(self) -> dict[int, complex]:
        return {p: v for p, v in self.frozen}

    def root_variable(self) -> int:
        """The single non-frozen variable of a root scenario (1-based)."""
        frozen = set(self.frozen_values())
        free = [p for p in range(1, self.m + 1) if p not in frozen]
        if len(free) != 1:
            raise ScenarioError(
                "frozen", "root scenarios need exactly one non-frozen variable"
            )
        return free[0]

    def dense_univariate(self, a: np.ndarray, index: int = 1) -> np.ndarray:
        """Dense coefficients of factor ``index`` in the root variable.

        Frozen variables (root scenarios only) are substituted at their
        declared values; the result is ascending-degree dense coefficients
        in the remaining variable.  Linear in a, so straight segments in
        coefficient space map to straight segments of dense coefficients.
        An (N, n) batch ``a`` gives one row of dense coefficients per row.
        """
        fac = self.factors[index - 1]
        q = self.root_variable() - 1
        coeffs = np.asarray(self.coefficients_for(a, index), dtype=complex)
        dense = np.zeros(coeffs.shape[:-1] + (fac.degree_in(q) + 1,), dtype=complex)
        for mono, c in zip(fac.monomials, np.moveaxis(coeffs, -1, 0)):
            for p, val in self.frozen:
                c = c * complex(val) ** mono[p - 1]
            dense[..., mono[q]] += c
        return dense


def _validate_factor(fac: FactorSupport, m: int, function_kind: str) -> None:
    where = f"factors[{fac.index - 1}]"
    if fac.kind not in FACTOR_KINDS:
        raise ScenarioError(where + ".kind", f"unknown factor kind {fac.kind!r}")
    if not fac.monomials:
        raise ScenarioError(where + ".monomials", "empty factor support")
    seen: set[Monomial] = set()
    for k, mono in enumerate(fac.monomials):
        if len(mono) != m:
            raise ScenarioError(
                where + f".monomials[{k}]",
                f"monomial has {len(mono)} exponents, scenario has m={m}",
            )
        if any((not isinstance(e, int)) or e < 0 for e in mono):
            raise ScenarioError(
                where + f".monomials[{k}]",
                "monomial exponents must be nonnegative integers",
            )
        if mono in seen:
            raise ScenarioError(
                where + ".monomials", f"duplicate monomial in factor {fac.index}"
            )
        seen.add(mono)
    if list(fac.monomials) != sorted(fac.monomials):
        raise ScenarioError(where + ".monomials", "monomials not in lex order")
    if len(fac.coefficients) != len(fac.monomials):
        raise ScenarioError(
            where + ".coefficients",
            "coefficient count does not match support size",
        )
    for k, c in enumerate(fac.coefficients):
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ScenarioError(where + f".coefficients[{k}]", "non-finite coefficient")
    if function_kind == "period":
        if fac.kind == "power" and fac.lam is None:
            raise ScenarioError(where + ".lambda", "power factor needs an exponent")
        if fac.kind == "exp" and fac.lam is not None:
            raise ScenarioError(where + ".lambda", "exp factor takes no exponent")
    else:
        if fac.lam is not None:
            raise ScenarioError(
                where + ".lambda",
                f"{function_kind} scenarios carry no factor exponent",
            )


def _validate_cycle(spec: ScenarioSpec) -> None:
    """The cycle rules that hold whatever the coefficients: at least one
    term, m paths per term, non-empty paths of known segments, nonzero ray
    directions, root anchors only at m = 1 and on a power factor, anchor_t
    in range."""
    # the path types import this module
    from .analytic_paths import ArcSegment, LineSegment, RaySegment, RootAnchor

    def fail(message: str):
        raise ScenarioError("cycle", message)

    if not spec.cycle.terms:
        fail("cycle has no terms")
    for term in spec.cycle.terms:
        if len(term.paths) != spec.m:
            fail(f"term has {len(term.paths)} path factors, scenario has m = {spec.m}")
        for path in term.paths:
            if not path.segments:
                fail("path has no segments")
            for seg in path.segments:
                if isinstance(seg, RaySegment) and complex(seg.direction) == 0:
                    fail("ray direction is zero")
                if not isinstance(seg, (LineSegment, ArcSegment, RaySegment)):
                    fail(f"unknown segment type {type(seg).__name__}")
                ends = (seg.start, seg.end) if isinstance(seg, LineSegment) else ()
                for anchor in (e for e in ends if isinstance(e, RootAnchor)):
                    if spec.m != 1:
                        fail("root-anchored endpoints need m = 1")
                    if not 1 <= anchor.factor <= len(spec.factors):
                        fail(f"root anchor names factor {anchor.factor}, "
                             f"scenario has {len(spec.factors)}")
                    if spec.factors[anchor.factor - 1].kind != "power":
                        fail("root anchor must point at a power factor")
            if not 0.0 <= float(path.anchor_t) <= len(path.segments):
                fail(f"anchor_t {float(path.anchor_t)} outside [0, {len(path.segments)}]")


def validate_scenario(spec: ScenarioSpec) -> None:
    """Check every structural rule; raises ScenarioError with a document path.

    The cycle rules that need the coefficients, chaining and closure at
    root-anchored endpoints, are checked by the path layer as it resolves
    them.
    """
    if not isinstance(spec.m, int) or spec.m < 1:
        raise ScenarioError("m", "m must be a positive integer")
    if spec.function_kind not in FUNCTION_KINDS:
        raise ScenarioError("function.kind", f"unknown kind {spec.function_kind!r}")
    if not spec.factors:
        raise ScenarioError("factors", "at least one factor is required")
    for k, fac in enumerate(spec.factors):
        if fac.index != k + 1:
            raise ScenarioError(f"factors[{k}]", "factor indices must be 1,2,...")
        _validate_factor(fac, spec.m, spec.function_kind)
    if len(spec.twist_beta) != spec.m:
        raise ScenarioError("twist_beta", f"expected {spec.m} twist exponents")
    for p, b in enumerate(spec.twist_beta):
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise ScenarioError(f"twist_beta[{p}]", "non-finite twist exponent")

    if spec.function_kind == "period":
        if spec.cycle is None:
            raise ScenarioError("function.cycle", "period scenarios need a cycle")
        if spec.base_root is not None or spec.frozen:
            raise ScenarioError(
                "function", "base_root/frozen are only for root scenarios"
            )
        _validate_cycle(spec)
    elif spec.function_kind == "root":
        if len(spec.factors) != 1:
            raise ScenarioError("factors", "root scenarios use exactly one factor")
        if spec.factors[0].kind != "power":
            raise ScenarioError("factors[0].kind", "root factor must be polynomial")
        if spec.base_root is None:
            raise ScenarioError("function.base_root", "root scenarios need a base root")
        if any(b != 1 for b in spec.twist_beta):
            raise ScenarioError(
                "twist_beta", "root scenarios use the plain volume form (beta = 1)"
            )
        frozen = {}
        for k, (p, v) in enumerate(spec.frozen):
            if not isinstance(p, int) or p < 1 or p > spec.m:
                raise ScenarioError(
                    f"function.frozen[{k}]", f"variable index {p} out of range"
                )
            if p in frozen:
                raise ScenarioError(
                    f"function.frozen[{k}]", f"variable {p} frozen twice"
                )
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ScenarioError(f"function.frozen[{k}]", "non-finite value")
            frozen[p] = v
        if len(frozen) != spec.m - 1:
            raise ScenarioError(
                "function.frozen",
                f"need {spec.m - 1} frozen variables for m={spec.m}, got {len(frozen)}",
            )
        spec.root_variable()
    elif spec.function_kind == "gl_residue":
        if spec.m != 1:
            raise ScenarioError("m", "residue scenarios are univariate (m = 1)")
        if len(spec.factors) != 1:
            raise ScenarioError("factors", "residue scenarios use exactly one factor")
        if spec.factors[0].kind != "power":
            raise ScenarioError("factors[0].kind", "residue factor must be polynomial")
        if spec.cycle is not None or spec.base_root is not None or spec.frozen:
            raise ScenarioError(
                "function", "residue scenarios take no cycle, base root, or frozen data"
            )
