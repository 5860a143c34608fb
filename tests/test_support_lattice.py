"""Exponent matrix assembly and exact integer kernel computation."""

import numpy as np
import pytest

from gkzperiods.scenario import FactorSupport, ScenarioSpec
from gkzperiods.support_lattice import (
    build_exponent_matrix,
    enumerate_box_vectors,
    integer_kernel_basis,
)

from oracles import (
    brute_force_kernel,
    fraction_rank,
    in_integer_span,
    random_scenario_structure,
)

from test_scenario import builtin


def structure_spec(m, factors):
    """ScenarioSpec carrying only support data, enough for the lattice layer."""
    facs = tuple(
        FactorSupport(
            index=i + 1,
            kind=kind,
            monomials=tuple(mons),
            coefficients=tuple(1.0 for _ in mons),
            lam=None,
        )
        for i, (kind, mons) in enumerate(factors)
    )
    return ScenarioSpec(
        name="structure",
        m=m,
        factors=facs,
        twist_beta=tuple(1.0 for _ in range(m)),
        function_kind="root",
        base_root=0.0,
    )


def box_u(op):
    """The kernel vector u = u+ - u- of a box operator."""
    return tuple(p - q for p, q in zip(op.u_plus, op.u_minus))


def sign_normalized(u):
    first = next(x for x in u if x != 0)
    return u if first > 0 else tuple(-x for x in u)


def test_quadratic_matrix():
    mat = build_exponent_matrix(builtin("quadratic_root"))
    assert mat.rows == ((1, 1, 1), (0, 1, 2))
    assert mat.row_labels == (("indicator", 1), ("exponent", 1))
    assert mat.column_labels == ((1, (0,)), (1, (1,)), (1, (2,)))


def test_exp_factor_has_no_indicator_row():
    mat = build_exponent_matrix(builtin("airy"))
    assert mat.rows == ((1, 3),)
    assert mat.row_labels == (("exponent", 1),)


def test_two_factor_matrix_block_structure():
    mat = build_exponent_matrix(builtin("gauss"))
    # two linear factors in one variable: indicator rows then the exponent row
    assert mat.rows == ((1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1))
    assert mat.row_labels == (
        ("indicator", 1),
        ("indicator", 2),
        ("exponent", 1),
    )


def test_parametric_matrix_keeps_frozen_variable_row():
    spec = builtin("cubic_root_parametric")
    mat = build_exponent_matrix(spec)
    assert mat.shape == (3, 5)
    assert ("exponent", 1) in mat.row_labels
    assert ("exponent", 2) in mat.row_labels


def test_quadratic_kernel_is_the_classic_vector():
    basis = integer_kernel_basis(build_exponent_matrix(builtin("quadratic_root")))
    assert basis.vectors == ((1, -2, 1),)
    assert basis.matrix_rank == 2


def test_gauss_kernel():
    basis = integer_kernel_basis(build_exponent_matrix(builtin("gauss")))
    assert len(basis) == 1
    u = basis.vectors[0]
    # one relation between the four coefficients, sign-normalized
    assert sorted(u) == [-1, -1, 1, 1]


def test_kernel_vectors_annihilated_exactly():
    for name in ("quadratic_root", "gauss", "cubic_root_parametric", "gl_cubic"):
        spec = builtin(name)
        mat = build_exponent_matrix(spec)
        basis = integer_kernel_basis(mat)
        arr = np.array(mat.rows, dtype=object)
        for u in basis.vectors:
            assert all(sum(r * c for r, c in zip(row, u)) == 0 for row in mat.rows)
        assert len(basis) == mat.shape[1] - basis.matrix_rank
        # no numpy float arithmetic snuck in
        assert arr.dtype == object or arr.dtype.kind == "i"


def test_rank_matches_exact_fraction_rank():
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        m, factors = random_scenario_structure(rng)
        spec = structure_spec(m, factors)
        mat = build_exponent_matrix(spec)
        basis = integer_kernel_basis(mat)
        assert basis.matrix_rank == fraction_rank(mat.rows)
        assert len(basis) == mat.shape[1] - basis.matrix_rank
        for u in basis.vectors:
            assert all(sum(r * c for r, c in zip(row, u)) == 0 for row in mat.rows)


def test_kernel_spans_every_small_kernel_vector():
    # brute force over a +-3 box must land inside the integer span of the basis
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(60):
        m, factors = random_scenario_structure(rng)
        spec = structure_spec(m, factors)
        mat = build_exponent_matrix(spec)
        if mat.shape[1] > 5:
            continue
        basis = integer_kernel_basis(mat)
        for cand in brute_force_kernel(mat.rows, bound=3):
            assert in_integer_span(basis.vectors, cand), (mat.rows, cand)
            checked += 1
    assert checked > 50


def test_saturation_catches_non_primitive_bases():
    # A = [1 1 2]: (1, 1, -1) is in the kernel but not in 2 Z^3, so a basis
    # built from doubled vectors would miss it
    spec = structure_spec(1, [("power", [(0,), (1,), (2,)])])
    mat = build_exponent_matrix(spec)
    # replace the indicator row so the kernel is rank 2 with a parity trap
    rows = ((1, 1, 2),)
    basis = integer_kernel_basis(
        type(mat)(rows=rows, row_labels=(("exponent", 1),),
                  column_labels=mat.column_labels)
    )
    assert in_integer_span(basis.vectors, (1, 1, -1))
    assert in_integer_span(basis.vectors, (2, 0, -1))


def test_basis_is_deterministic():
    spec = builtin("cubic_root_parametric")
    mat = build_exponent_matrix(spec)
    b1 = integer_kernel_basis(mat)
    b2 = integer_kernel_basis(mat)
    assert b1.vectors == b2.vectors


def test_box_enumeration_orders_and_bounds():
    basis = integer_kernel_basis(build_exponent_matrix(builtin("quadratic_root")))
    # bound 4 admits the doubled relation too; bound 2 leaves the primitive one
    enum = enumerate_box_vectors(basis, degree_bound=4)
    assert [box_u(bv) for bv in enum] == [(1, -2, 1), (2, -4, 2)]
    enum = enumerate_box_vectors(basis, degree_bound=2)
    assert [box_u(bv) for bv in enum] == [(1, -2, 1)]
    bv = enum.vectors[0]
    assert bv.u_plus == (1, 0, 1)
    assert bv.u_minus == (0, 2, 0)
    assert bv.order == 2
    assert enum.warnings == ()


def test_box_enumeration_respects_degree_bound():
    spec = builtin("cubic_root_parametric")
    basis = integer_kernel_basis(build_exponent_matrix(spec))
    small = enumerate_box_vectors(basis, degree_bound=2)
    big = enumerate_box_vectors(basis, degree_bound=4)
    assert len(big.vectors) >= len(small.vectors)
    for bv in big:
        assert sum(bv.u_plus) <= 4 and sum(bv.u_minus) <= 4
        assert all(p == 0 or q == 0 for p, q in zip(bv.u_plus, bv.u_minus))
    # sign normalization: first nonzero entry positive
    for bv in big:
        first = next(x for x in box_u(bv) if x != 0)
        assert first > 0
    # sorted by order then lexicographically
    keys = [(bv.order, box_u(bv)) for bv in big]
    assert keys == sorted(keys)


def test_box_enumeration_no_duplicates():
    spec = builtin("cubic_root_parametric")
    basis = integer_kernel_basis(build_exponent_matrix(spec))
    enum = enumerate_box_vectors(basis, degree_bound=4)
    us = [box_u(bv) for bv in enum]
    assert len(us) == len(set(us))


def test_tight_bound_keeps_basis_with_warning():
    # bound too small for even the basis vectors: they are kept, flagged
    basis = integer_kernel_basis(build_exponent_matrix(builtin("quadratic_root")))
    enum = enumerate_box_vectors(basis, degree_bound=1)
    assert [box_u(bv) for bv in enum] == [(1, -2, 1)]
    assert any("degree bound" in w for w in enum.warnings)


def test_box_enumeration_is_complete_within_the_bound():
    # every nonzero kernel vector with |u+| <= d and |u-| <= d appears once,
    # sign-normalized; anything else listed is a basis vector kept over d
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(80):
        m, factors = random_scenario_structure(rng)
        mat = build_exponent_matrix(structure_spec(m, factors))
        if mat.shape[1] > 5:
            continue
        basis = integer_kernel_basis(mat)
        small = brute_force_kernel(mat.rows, bound=3)
        for bound in (1, 2, 3):
            listed = [box_u(bv) for bv in enumerate_box_vectors(basis, bound)]
            want = {
                sign_normalized(u)
                for u in small
                if sum(x for x in u if x > 0) <= bound
                and sum(-x for x in u if x < 0) <= bound
            }
            for u in want:
                assert listed.count(u) == 1, (mat.rows, bound, u)
            kept = {sign_normalized(v) for v in basis.vectors}
            assert set(listed) - want <= kept, (mat.rows, bound)
            checked += len(want)
    assert checked > 100


def test_full_rank_matrix_has_empty_kernel():
    spec = structure_spec(1, [("power", [(0,), (1,)])])
    mat = build_exponent_matrix(spec)
    basis = integer_kernel_basis(mat)
    assert basis.vectors == ()
    enum = enumerate_box_vectors(basis, degree_bound=4)
    assert len(enum) == 0
