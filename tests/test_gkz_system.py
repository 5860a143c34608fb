"""Operator assembly: Euler eigenvalues, box operators, rendering."""

from dataclasses import replace

import pytest

from gkzperiods.gkz_system import (
    BoxOperator,
    EulerOperator,
    build_system,
    corrupt_eigenvalue,
    render_system,
)
from gkzperiods.scenario import ScenarioError

from test_scenario import builtin


def euler_by_label(system, label):
    return next(e for e in system.eulers if e.label == label)


def test_root_kind_eigenvalues():
    sys_ = build_system(builtin("quadratic_root"))
    assert euler_by_label(sys_, ("indicator", 1)).eigenvalue == 0.0
    assert euler_by_label(sys_, ("exponent", 1)).eigenvalue == -1.0


def test_period_kind_eigenvalues_follow_lambda_and_beta():
    sys_ = build_system(builtin("gauss"))
    assert euler_by_label(sys_, ("indicator", 1)).eigenvalue == pytest.approx(1 / 3)
    assert euler_by_label(sys_, ("indicator", 2)).eigenvalue == pytest.approx(1 / 5)
    assert euler_by_label(sys_, ("exponent", 1)).eigenvalue == pytest.approx(-1 / 2)


def test_residue_kind_eigenvalues():
    sys_ = build_system(builtin("gl_quadratic"))
    assert euler_by_label(sys_, ("indicator", 1)).eigenvalue == -1.0
    assert euler_by_label(sys_, ("exponent", 1)).eigenvalue == -2.0


def test_euler_weights_are_matrix_rows():
    for name in ("quadratic_root", "gauss", "gl_cubic", "airy"):
        sys_ = build_system(builtin(name))
        for e in sys_.eulers:
            matrix = sys_.matrix
            assert e.weights == matrix.rows[matrix.row_labels.index(e.label)]


def test_airy_system_shape():
    sys_ = build_system(builtin("airy"))
    # exp factor: no indicator row, one exponent row, one kernel relation
    assert len(sys_.eulers) == 1
    assert sys_.eulers[0].weights == (1, 3)
    assert sys_.eulers[0].eigenvalue == -1.0
    assert [b.u_plus for b in sys_.boxes] == [(3, 0)]
    assert [b.u_minus for b in sys_.boxes] == [(0, 1)]


def test_frozen_variable_gets_no_euler_operator():
    sys_ = build_system(builtin("cubic_root_parametric"))
    # all three matrix rows carry a parameter slot
    assert len(sys_.parameters) == 3
    # but the frozen variable's exponent row yields no Euler operator
    labels = [e.label for e in sys_.eulers]
    assert ("exponent", 1) not in labels
    assert set(labels) == {("indicator", 1), ("exponent", 2)}


def test_tighter_degree_bound_setting_keeps_fewer_boxes():
    spec = builtin("cubic_root_parametric")
    default = build_system(spec)
    tight = build_system(
        replace(spec, settings=replace(spec.settings, degree_bound=2))
    )
    assert len(tight.boxes) < len(default.boxes)
    # only basis vectors may exceed the bound (kept so the system stays
    # faithful to the lattice), and doing so is flagged
    basis = set(tight.kernel.vectors)
    over = [b for b in tight.boxes if b.order > 2]
    for b in over:
        u = tuple(p - q for p, q in zip(b.u_plus, b.u_minus))
        assert u in basis or tuple(-x for x in u) in basis
    if over:
        assert any("degree bound" in w for w in tight.warnings)


def test_box_operator_order():
    b = BoxOperator(u_plus=(1, 0, 1), u_minus=(0, 2, 0))
    assert b.order == 2


def test_render_contains_matrix_and_operators():
    text = render_system(build_system(builtin("quadratic_root")))
    assert "exponent matrix" in text
    assert "kernel basis: (1, -2, 1)" in text
    assert "euler" in text
    assert "box" in text
    # eigenvalues appear with their sign
    assert "0" in text and "-1" in text


def test_render_notes_missing_indicator_rows():
    text = render_system(build_system(builtin("airy")))
    assert "indicator rows: none (exp factor)" in text


def test_corrupt_eigenvalue_shifts_one_row():
    base = build_system(builtin("quadratic_root"))
    bad = corrupt_eigenvalue(base, row=1, delta=1.0)
    assert bad.parameters[1] == base.parameters[1] + 1.0
    assert bad.parameters[0] == base.parameters[0]
    # the matching Euler operator picked up the shift
    good = euler_by_label(base, ("exponent", 1)).eigenvalue
    assert euler_by_label(bad, ("exponent", 1)).eigenvalue == good + 1.0
    # original untouched
    assert euler_by_label(base, ("exponent", 1)).eigenvalue == good


def test_corrupt_eigenvalue_rejects_bad_row():
    base = build_system(builtin("quadratic_root"))
    with pytest.raises(ScenarioError, match="out of range"):
        corrupt_eigenvalue(base, row=5)


def test_operators_are_frozen_dataclasses():
    sys_ = build_system(builtin("quadratic_root"))
    with pytest.raises(Exception):
        sys_.eulers[0].eigenvalue = 3.0  # type: ignore[misc]
    assert isinstance(sys_.eulers[0], EulerOperator)
