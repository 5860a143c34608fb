"""Exponent matrices and exact integer kernel lattices.

The exponent matrix A of a scenario has one indicator row per polynomial
(non-exp) factor and one exponent row per variable; its integer kernel
drives the box operators.  All lattice work here is exact: Hermite-style
row reduction over Python integers, never a floating-point nullspace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scenario import Monomial, ScenarioError, ScenarioSpec

__all__ = [
    "RowLabel",
    "ExponentMatrix",
    "LatticeBasis",
    "BoxOperator",
    "BoxEnumeration",
    "build_exponent_matrix",
    "integer_kernel_basis",
    "enumerate_box_vectors",
]

# ("indicator", factor index) or ("exponent", variable index), both 1-based.
RowLabel = tuple[str, int]

# Coefficient-box enumeration is cut off beyond this many candidate
# combinations; the basis vectors themselves are always kept.
_SEARCH_CAP = 3_000_000


@dataclass(frozen=True)
class ExponentMatrix:
    """Integer matrix with labeled rows and canonically ordered columns."""

    rows: tuple[tuple[int, ...], ...]
    row_labels: tuple[RowLabel, ...]
    column_labels: tuple[tuple[int, Monomial], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.column_labels))


@dataclass(frozen=True)
class LatticeBasis:
    """Basis of the full integer kernel lattice {u : A u = 0}."""

    vectors: tuple[tuple[int, ...], ...]
    matrix_rank: int

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class BoxOperator:
    """Operator d^(u+) - d^(u-) of a kernel vector u = u+ - u-."""

    u_plus: tuple[int, ...]
    u_minus: tuple[int, ...]

    @property
    def order(self) -> int:
        return max(sum(self.u_plus), sum(self.u_minus))


@dataclass(frozen=True)
class BoxEnumeration:
    """Enumerated box operators plus any warnings raised along the way."""

    vectors: tuple[BoxOperator, ...]
    warnings: tuple[str, ...]

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)


def build_exponent_matrix(spec: ScenarioSpec) -> ExponentMatrix:
    """Assemble the exponent matrix in canonical row and column order.

    Columns run over (factor, monomial) pairs, factors first, monomials in
    lex order inside each factor.  Indicator rows come first (skipping exp
    factors), then one exponent row per variable.
    """
    columns = spec.columns()
    rows: list[tuple[int, ...]] = []
    labels: list[RowLabel] = []
    for fac in spec.factors:
        if fac.kind == "exp":
            continue
        rows.append(tuple(1 if i == fac.index else 0 for i, _ in columns))
        labels.append(("indicator", fac.index))
    for p in range(1, spec.m + 1):
        rows.append(tuple(mono[p - 1] for _, mono in columns))
        labels.append(("exponent", p))
    return ExponentMatrix(
        rows=tuple(rows), row_labels=tuple(labels), column_labels=columns
    )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with s*a + t*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hermite_rows(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """Row Hermite form with transformation: U @ mat = H, U unimodular.

    Returns (H, U, rank).  Pivots are positive and entries above each pivot
    are reduced, so the nonzero rows of H are canonical for the row lattice.
    """
    a = [list(row) for row in mat]
    n = len(a)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ncols = len(a[0]) if n else 0
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= n:
            break
        piv = None
        for r in range(pivot_row, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[pivot_row], a[piv] = a[piv], a[pivot_row]
        u[pivot_row], u[piv] = u[piv], u[pivot_row]
        for r in range(pivot_row + 1, n):
            if a[r][col] == 0:
                continue
            g, s, t = _xgcd(a[pivot_row][col], a[r][col])
            ap = a[pivot_row][col] // g
            ar = a[r][col] // g
            # Unimodular 2x2 combine: det = s*ap + t*ar = 1.
            row_p = [s * x + t * y for x, y in zip(a[pivot_row], a[r])]
            row_r = [-ar * x + ap * y for x, y in zip(a[pivot_row], a[r])]
            a[pivot_row], a[r] = row_p, row_r
            urow_p = [s * x + t * y for x, y in zip(u[pivot_row], u[r])]
            urow_r = [-ar * x + ap * y for x, y in zip(u[pivot_row], u[r])]
            u[pivot_row], u[r] = urow_p, urow_r
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = a[pivot_row][col]
        for r in range(pivot_row):
            q = a[r][col] // p
            if q:
                a[r] = [x - q * y for x, y in zip(a[r], a[pivot_row])]
                u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
        pivot_row += 1
    return a, u, pivot_row


def integer_kernel_basis(matrix: ExponentMatrix) -> LatticeBasis:
    """Basis of the saturated integer kernel of the exponent matrix.

    Row-reduce A^T with a tracked unimodular transform; transform rows that
    map to zero span exactly {u in Z^N : A u = 0}.  The basis is then put in
    Hermite form so the output is canonical (pivots positive).
    """
    n_rows, n_cols = matrix.shape
    if n_cols == 0:
        return LatticeBasis(vectors=(), matrix_rank=0)
    a_t = [[matrix.rows[r][c] for r in range(n_rows)] for c in range(n_cols)]
    _, u, rank = _hermite_rows(a_t)
    kernel = [u[r] for r in range(rank, n_cols)]
    if kernel:
        h, _, hrank = _hermite_rows(kernel)
        kernel = h[:hrank]
    vectors = tuple(tuple(v) for v in kernel)
    for v in vectors:
        for row in matrix.rows:
            if sum(x * y for x, y in zip(row, v)) != 0:
                raise AssertionError("kernel reduction produced a non-kernel vector")
    return LatticeBasis(vectors=vectors, matrix_rank=rank)


def _sign_normalize(u: tuple[int, ...]) -> tuple[int, ...]:
    for x in u:
        if x != 0:
            return u if x > 0 else tuple(-y for y in u)
    return u


def enumerate_box_vectors(basis: LatticeBasis, degree_bound: int = 4) -> BoxEnumeration:
    """All kernel vectors whose positive and negative parts fit the bound.

    Searches integer combinations of the basis with coefficients in
    [-degree_bound, degree_bound], keeps u != 0 with |u+|_1 <= bound and
    |u-|_1 <= bound, sign-normalizes (first nonzero entry positive), and
    dedupes.  Basis vectors are always included, with a warning when the
    bound is smaller than some basis vector order.  Each u comes back as
    its BoxOperator, ordered by |u|_1 and then u.
    """
    if degree_bound < 1:
        raise ScenarioError("settings.degree_bound", "degree bound must be >= 1")
    warnings: list[str] = []
    found: dict[tuple[int, ...], None] = {}

    def admit(u: tuple[int, ...]) -> None:
        plus = sum(x for x in u if x > 0)
        minus = sum(-x for x in u if x < 0)
        if 0 < plus <= degree_bound and minus <= degree_bound:
            found.setdefault(_sign_normalize(u), None)

    rank = len(basis.vectors)
    if rank:
        span = 2 * degree_bound + 1
        if span**rank <= _SEARCH_CAP:
            coeff_range = range(-degree_bound, degree_bound + 1)
        else:
            # Kernel rank too large for the full coefficient box; fall back
            # to single steps so the output stays deterministic and finite.
            coeff_range = range(-1, 2)
            warnings.append(
                f"coefficient search truncated: kernel rank {rank} too large "
                f"for bound {degree_bound}"
            )
        n = len(basis.vectors[0])

        def search(idx: int, acc: tuple[int, ...]) -> None:
            if idx == rank:
                if any(acc):
                    admit(acc)
                return
            vec = basis.vectors[idx]
            for c in coeff_range:
                if c == 0:
                    search(idx + 1, acc)
                else:
                    search(idx + 1, tuple(x + c * y for x, y in zip(acc, vec)))

        search(0, tuple([0] * n))

    over_bound = []
    for vec in basis.vectors:
        norm = _sign_normalize(vec)
        order = max(
            sum(x for x in norm if x > 0), sum(-x for x in norm if x < 0)
        )
        if order > degree_bound:
            over_bound.append(order)
        found.setdefault(norm, None)
    if over_bound:
        warnings.append(
            f"degree bound {degree_bound} is below the largest basis vector "
            f"order {max(over_bound)}; basis vectors kept anyway"
        )

    ordered = sorted(found, key=lambda u: (sum(abs(x) for x in u), u))
    boxes = tuple(
        BoxOperator(
            u_plus=tuple(max(x, 0) for x in u), u_minus=tuple(max(-x, 0) for x in u)
        )
        for u in ordered
    )
    return BoxEnumeration(vectors=boxes, warnings=tuple(warnings))
