"""Scenario model validation and JSON round trips."""

import json
from dataclasses import replace

import numpy as np
import pytest

from gkzperiods.analytic_paths import (
    CycleSpec,
    CycleTerm,
    LineSegment,
    Path1D,
    RaySegment,
    RootAnchor,
)
from gkzperiods.period_functions import PeriodFunction
from gkzperiods.scenario import (
    EvalSettings,
    FactorSupport,
    ScenarioError,
    ScenarioSpec,
    validate_scenario,
)
from gkzperiods.scenario_io import (
    builtin_scenario_names,
    dumps_scenario,
    loads_scenario,
    resolve_scenario_source,
    scenario_to_document,
)

BUILTINS = (
    "quadratic_root",
    "cubic_root_parametric",
    "gl_quadratic",
    "gl_cubic",
    "beta",
    "gauss",
    "airy",
    "pochhammer",
    "residue_circle",
    "hesse_cubic",
    "torus_coefficient",
)


def builtin(name):
    nm, text, _ = resolve_scenario_source(name)
    return loads_scenario(text, nm)


def minimal_root_doc():
    return {
        "schema": "gkz-scenario@1",
        "name": "t",
        "m": 1,
        "factors": [
            {
                "kind": "power",
                "monomials": [[0], [1], [2]],
                "coefficients": [-1.0, 0.1, 1.0],
            }
        ],
        "twist_beta": [1.0],
        "function": {"kind": "root", "base_root": 0.9512492197250393},
    }


def test_builtin_listing_is_complete():
    assert set(builtin_scenario_names()) == set(BUILTINS)


def test_builtins_load_and_validate():
    for name in BUILTINS:
        spec = builtin(name)
        assert spec.name == name
        validate_scenario(spec)


def test_round_trip_is_identity_for_builtins():
    for name in BUILTINS:
        spec = builtin(name)
        again = loads_scenario(dumps_scenario(spec), name)
        assert again == spec


def test_dump_is_idempotent():
    for name in BUILTINS:
        text = dumps_scenario(builtin(name))
        assert dumps_scenario(loads_scenario(text)) == text


def test_monomials_normalized_on_load():
    doc = minimal_root_doc()
    doc["factors"][0]["monomials"] = [[2], [0], [1]]
    doc["factors"][0]["coefficients"] = [1.0, -1.0, 0.1]
    spec = loads_scenario(json.dumps(doc))
    assert spec.factors[0].monomials == ((0,), (1,), (2,))
    # coefficients travel with their monomials under the sort
    assert spec.factors[0].coefficients == (-1.0 + 0j, 0.1 + 0j, 1.0 + 0j)


def test_complex_coefficients_as_pairs():
    doc = minimal_root_doc()
    doc["factors"][0]["coefficients"] = [[-1.0, 0.5], 0.1, 1]
    spec = loads_scenario(json.dumps(doc))
    assert spec.factors[0].coefficients[0] == -1.0 + 0.5j
    assert spec.factors[0].coefficients[2] == 1.0 + 0j


def test_duplicate_monomial_rejected():
    doc = minimal_root_doc()
    doc["factors"][0]["monomials"] = [[0], [1], [1]]
    with pytest.raises(ScenarioError, match="duplicate monomial in factor 1"):
        loads_scenario(json.dumps(doc))


def test_wrong_exponent_count_rejected():
    doc = minimal_root_doc()
    doc["factors"][0]["monomials"] = [[0], [1], [2, 0]]
    with pytest.raises(ScenarioError, match="expected 1 exponents"):
        loads_scenario(json.dumps(doc))


def test_negative_exponent_rejected():
    doc = minimal_root_doc()
    doc["factors"][0]["monomials"] = [[-1], [0], [1]]
    with pytest.raises(ScenarioError, match="nonnegative"):
        loads_scenario(json.dumps(doc))


def test_coefficient_count_mismatch_rejected():
    doc = minimal_root_doc()
    doc["factors"][0]["coefficients"] = [1.0, 2.0]
    with pytest.raises(ScenarioError, match="coefficient count"):
        loads_scenario(json.dumps(doc))


def test_unknown_setting_key_rejected():
    doc = minimal_root_doc()
    # settings that no longer exist must not load silently
    for key, val in (("nonsense", 3), ("jobs", 2),
                     ("diff_method", "central-difference"), ("fd_step", 1e-3),
                     ("richardson", 2), ("diff_nodes", 16), ("level_start", 5),
                     ("level_cap", 14), ("point_rel_min", 0.1)):
        doc["settings"] = {"tol": 1e-10, key: val}
        with pytest.raises(ScenarioError, match="unknown setting") as info:
            loads_scenario(json.dumps(doc))
        assert info.value.where == f"settings.{key}"


@pytest.mark.parametrize("key, val", [
    ("points", 0),
    ("point_rel", 0.0),
    ("point_rel", -1.0),
    ("radius_factor", -1.0),
    ("radius_factor", 0.0),
    ("tol", -1.0),
    ("tol", 0.0),
    ("tol", float("nan")),
    ("threshold", 0.0),
    ("threshold", -1e-6),
    ("seed", -1),
    ("degree_bound", 0),
])
def test_unusable_setting_value_rejected_on_load(key, val):
    doc = minimal_root_doc()
    doc["settings"] = {key: val}
    with pytest.raises(ScenarioError) as info:
        loads_scenario(json.dumps(doc))
    assert info.value.where == f"settings.{key}"


def test_non_finite_number_rejected_with_document_path():
    doc = scenario_to_document(builtin("residue_circle"))
    seg = doc["function"]["cycle"]["terms"][0]["paths"][0]["segments"][0]
    seg["radius"] = float("nan")
    with pytest.raises(ScenarioError, match="expected a finite number") as info:
        loads_scenario(json.dumps(doc))
    assert info.value.where == "function.cycle.terms[0].paths[0].segments[0].radius"


def test_unknown_top_level_key_rejected():
    doc = minimal_root_doc()
    doc["extra"] = {}
    with pytest.raises(ScenarioError, match="unknown keys"):
        loads_scenario(json.dumps(doc))


def test_bad_json_reports_cleanly():
    with pytest.raises(ScenarioError, match="not valid JSON"):
        loads_scenario("{not json")


def test_error_string_carries_document_path():
    doc = minimal_root_doc()
    doc["factors"][0]["monomials"] = [[0], [1], [1]]
    try:
        loads_scenario(json.dumps(doc))
    except ScenarioError as exc:
        assert str(exc).startswith("factors[0].monomials:")
    else:
        pytest.fail("expected ScenarioError")


@pytest.mark.parametrize("m", [-1, 0, 1.5, True, "1"])
def test_bad_m_reports_m_not_the_monomials(m):
    doc = minimal_root_doc()
    doc["m"] = m
    with pytest.raises(ScenarioError) as info:
        loads_scenario(json.dumps(doc))
    assert str(info.value) == "m: m must be a positive integer"


def test_empty_monomial_list_reports_the_monomials_key():
    doc = minimal_root_doc()
    doc["factors"][0]["monomials"] = []
    doc["factors"][0]["coefficients"] = []
    with pytest.raises(ScenarioError) as info:
        loads_scenario(json.dumps(doc))
    assert str(info.value) == "factors[0].monomials: empty factor support"


def test_period_scenario_requires_cycle():
    spec = builtin("beta")
    broken = ScenarioSpec(
        name=spec.name,
        m=spec.m,
        factors=spec.factors,
        twist_beta=spec.twist_beta,
        function_kind="period",
        cycle=None,
        settings=spec.settings,
    )
    with pytest.raises(ScenarioError, match="need a cycle"):
        validate_scenario(broken)


def test_root_scenario_requires_base_root():
    doc = minimal_root_doc()
    del doc["function"]["base_root"]
    with pytest.raises(ScenarioError, match="base root"):
        loads_scenario(json.dumps(doc))


def test_power_period_factor_requires_lambda():
    spec = builtin("beta")
    fac = spec.factors[0]
    broken = ScenarioSpec(
        name=spec.name,
        m=spec.m,
        factors=(FactorSupport(fac.index, fac.kind, fac.monomials,
                               fac.coefficients, lam=None),),
        twist_beta=spec.twist_beta,
        function_kind="period",
        cycle=spec.cycle,
        settings=spec.settings,
    )
    with pytest.raises(ScenarioError, match="needs an exponent"):
        validate_scenario(broken)


ANCHOR = RootAnchor(factor=1, near=0.0)


@pytest.mark.parametrize(
    "name, path, paths, message",
    [
        ("hesse_cubic", Path1D((LineSegment(ANCHOR, 1.0),)), 2,
         "root-anchored endpoints need m = 1"),
        ("gauss", Path1D((LineSegment(RootAnchor(3, 0.0), 1.0),)), 1,
         "root anchor names factor 3, scenario has 2"),
        ("airy", Path1D((LineSegment(0.0, ANCHOR),)), 1,
         "root anchor must point at a power factor"),
        ("beta", Path1D((LineSegment(0.0, 1.0),)), 2,
         "term has 2 path factors, scenario has m = 1"),
        ("airy", Path1D((RaySegment(0.0, 0.0, 1.0),)), 1, "ray direction is zero"),
        ("beta", Path1D(()), 1, "path has no segments"),
        ("beta", Path1D((LineSegment(0.0, 1.0),), anchor_t=-0.5), 1,
         "anchor_t -0.5 outside [0, 1]"),
        ("beta", Path1D(("arc",)), 1, "unknown segment type str"),
    ],
)
def test_cycle_rules_without_coefficients_rejected(name, path, paths, message):
    spec = builtin(name)
    broken = replace(spec, cycle=CycleSpec(terms=(CycleTerm(1.0, (path,) * paths),)))
    # a function built from an unloaded spec is held to the same rules
    for check in (validate_scenario, PeriodFunction):
        with pytest.raises(ScenarioError) as exc:
            check(broken)
        assert str(exc.value) == f"cycle: {message}"


def test_cycle_without_terms_rejected_on_construction():
    # integrate_cycle would otherwise be the first to notice, at batch time
    broken = replace(builtin("beta"), cycle=CycleSpec(terms=()))
    for check in (validate_scenario, PeriodFunction):
        with pytest.raises(ScenarioError) as exc:
            check(broken)
        assert (exc.value.where, str(exc.value)) == ("cycle", "cycle: cycle has no terms")


def test_settings_defaults():
    s = EvalSettings()
    assert s.tol == 1e-10
    assert s.degree_bound == 4
    assert s.threshold == 1e-6
    assert s.points == 3
    assert s.point_rel == 0.2
    assert s.radius_factor == 0.1


def test_scenario_settings_override_defaults():
    doc = minimal_root_doc()
    doc["settings"] = {"tol": 1e-8, "seed": 7}
    spec = loads_scenario(json.dumps(doc))
    assert spec.settings.tol == 1e-8
    assert spec.settings.seed == 7
    assert spec.settings.point_rel == EvalSettings().point_rel


def test_normalized_document_key_order_is_canonical():
    doc = scenario_to_document(builtin("quadratic_root"))
    assert list(doc)[:4] == ["schema", "name", "m", "factors"]
    assert doc["schema"] == "gkz-scenario@1"
    # normalized form spells out every setting explicitly
    assert set(doc["settings"]) == {
        f for f in EvalSettings.__dataclass_fields__
    }


def test_factor_values_broadcast():
    spec = builtin("quadratic_root")
    fac = spec.factors[0]
    xs = np.array([0.5, 1.0, 2.0])
    vals = fac.values(fac.coefficients, (xs,))
    expect = -1.0 + 0.1 * xs + xs**2
    assert np.allclose(vals, expect)


def test_root_variable_of_parametric_scenario():
    spec = builtin("cubic_root_parametric")
    assert spec.m == 2
    assert spec.root_variable() == 2
    assert spec.frozen_values() == {1: 0.7 + 0j}


def test_resolve_prefers_existing_file(tmp_path):
    p = tmp_path / "custom.json"
    p.write_text(dumps_scenario(builtin("beta")))
    name, text, path = resolve_scenario_source(str(p))
    assert str(path) == str(p)
    assert loads_scenario(text, name).factors == builtin("beta").factors


def test_resolve_unknown_name_raises():
    with pytest.raises(ScenarioError, match="no such scenario"):
        resolve_scenario_source("definitely_not_a_scenario")
