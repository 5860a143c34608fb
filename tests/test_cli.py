"""Command line interface: ``cli.main`` run in the test process, plus real
subprocesses for ``python -m gkzperiods``, its import path and the
modules a fresh process's verify imports."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from gkzperiods import cli

# The child process may run in another directory (cwd=tmp_path), so a
# relative PYTHONPATH inherited from the caller would point nowhere; give
# it the package source by absolute path instead.
SRC = Path(__file__).resolve().parents[1] / "src"

DUPLICATE_DOC = """\
{
  "schema": "gkz-scenario@1",
  "name": "broken",
  "m": 1,
  "factors": [
    {"kind": "power", "monomials": [[0], [1], [1]],
     "coefficients": [1.0, 2.0, 3.0]}
  ],
  "twist_beta": [1.0],
  "function": {"kind": "root", "base_root": 1.0}
}
"""

DENSE_SEPTIC_DOC = """\
{
  "schema": "gkz-scenario@1",
  "name": "septic",
  "m": 1,
  "factors": [
    {"kind": "power", "monomials": [[0], [1], [2], [3], [4], [5], [6], [7]],
     "coefficients": [1.0, 0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 1.0]}
  ],
  "twist_beta": [1.0],
  "function": {"kind": "gl_residue"},
  "settings": {"degree_bound": 1, "points": 1}
}
"""


def child_env():
    # no empty entry: that would put the child's cwd on its path
    paths = [str(SRC)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def run_child(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gkzperiods", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
        timeout=120,
    )


def run_cli(*args, cwd=None):
    """``gkzperiods *args`` in this process, with the result of a child.

    stdout and stderr are captured, warnings are shown once per place as
    in a fresh interpreter and land on stderr, and argparse's SystemExit
    (usage errors, --version) gives the return code.  Any other exception that
    escapes main fails the calling test, as a child's traceback would.
    """
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("default")
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(home)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return subprocess.CompletedProcess(
        ["gkzperiods", *args], code or 0, out.getvalue(), err.getvalue()
    )


def test_module_entry_point_runs_in_a_child():
    res = run_child("system", "quadratic_root")
    assert res.returncode == 0, res.stderr
    assert "kernel basis: (1, -2, 1)" in res.stdout
    assert run_child().returncode == 2


def test_child_in_another_directory_imports_the_source(tmp_path):
    res = run_child("system", "quadratic_root", "--emit-normalized",
                    "--out", "norm.json", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads((tmp_path / "norm.json").read_text())["name"] == "quadratic_root"


# np.unique imports numpy.ma, a cost in every fresh process's start-up
# time and peak memory; the sample-table merge and the root finder avoid
# it, so no verify may import it
FRESH_VERIFY = """
import sys
from gkzperiods import PeriodFunction, build_system, load_scenario, verify
for name in ("gauss", "gl_cubic", "quadratic_root", "residue_circle"):
    spec = load_scenario(name)
    assert verify(build_system(spec), PeriodFunction(scenario=spec)).passed, name
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_fresh_verify_never_imports_numpy_ma():
    res = subprocess.run([sys.executable, "-c", FRESH_VERIFY], capture_output=True,
                         text=True, env=child_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_system_prints_matrix_and_kernel():
    res = run_cli("system", "quadratic_root")
    assert res.returncode == 0
    assert "kernel basis: (1, -2, 1)" in res.stdout
    assert "exponent matrix" in res.stdout
    assert "euler" in res.stdout


def test_system_notes_exp_factor():
    res = run_cli("system", "airy")
    assert res.returncode == 0
    assert "indicator rows: none (exp factor)" in res.stdout


def test_duplicate_monomial_is_input_error(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text(DUPLICATE_DOC)
    res = run_cli("system", str(f))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error: factors[0].monomials: duplicate monomial in factor 1" in res.stderr


def test_unknown_scenario_is_input_error():
    res = run_cli("period", "nonexistent_scenario")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_period_values():
    cases = {
        "residue_circle": "value = 0+3.14159265359i",
        "beta": "value = 0.166666666667",
        "gl_quadratic": "value = 0.142857142857",
        "quadratic_root": "value = 0.951249219725",
    }
    for name, line in cases.items():
        res = run_cli("period", name)
        assert res.returncode == 0, res.stderr
        assert line in res.stdout


def test_period_at_overridden_point():
    res = run_cli("period", "residue_circle", "--point", "[4]")
    assert res.returncode == 0
    assert "value = 0+1.57079632679i" in res.stdout


def test_period_point_as_complex_pair():
    res = run_cli("period", "residue_circle", "--point", "[[0, 2]]")
    assert res.returncode == 0
    # residue of (2 i x)^(-1): 2 pi i / (2 i) = pi
    assert "value = 3.14159265359" in res.stdout


def test_period_bad_point_is_input_error():
    res = run_cli("period", "residue_circle", "--point", "[1, 2, 3]")
    assert res.returncode == 2
    assert "error:" in res.stderr
    # booleans are not numbers, and JSON's NaN and Infinity are not finite
    for name, point, where in (
        ("residue_circle", "[[true, 0]]", "--point[0]"),
        ("residue_circle", "[NaN]", "--point[0]"),
        ("quadratic_root", "[1, Infinity, 1]", "--point[1]"),
    ):
        res = run_cli("period", name, "--point", point)
        assert res.returncode == 2, point
        assert f"error: {where}:" in res.stderr, res.stderr
        assert "value =" not in res.stdout


def test_period_identically_zero_anchor_factor_is_evaluation_error():
    # a2 = a3 = 0: gauss's second factor vanishes, its root anchor has nothing
    res = run_cli("period", "gauss", "--point", "[2, -1, 0, 0]")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: PathSingularityError:")
    assert "vanishes identically" in lines[0]


def test_period_with_short_rays_exits_2(tmp_path):
    # airy's rays cut from length 9 to 3: the levels agree, the tips do not vanish
    text = (SRC / "gkzperiods" / "scenarios" / "airy.json").read_text()
    assert text.count('"length": 9.0') == 2
    path = tmp_path / "airy_short.json"
    path.write_text(text.replace('"length": 9.0', '"length": 3.0'))
    res = run_cli("period", str(path))
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: UnconvergedQuadratureError: a ray truncation is too short"
    ), res.stderr
    assert "value =" not in res.stdout


def test_period_without_convergence_exits_2():
    # no level of gauss agrees to 1e-30 before the level cap
    res = run_cli("period", "gauss", "--tol", "1e-30")
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: UnconvergedQuadratureError: quadrature did not converge"
    ), res.stderr
    assert "value =" not in res.stdout


@pytest.mark.parametrize(
    "name, point, error",
    [
        ("gl_cubic", "[1e308, 1e308, 1e308, 1e308]", "BranchAmbiguityError"),
        # every term of the row overflows, and the base root's first
        # continuation step stalls above Horner's floor
        ("quadratic_root", "[1e300, 1e300, 1e300]", "NearDiscriminantError"),
    ],
)
def test_period_overflow_prints_no_warnings(name, point, error):
    res = run_cli("period", name, "--point", point)
    assert res.returncode == 2
    assert "RuntimeWarning" not in res.stderr + res.stdout
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}:"), res.stderr


def term_paths(doc):
    """The paths of a scenario document's first cycle term."""
    return doc["function"]["cycle"]["terms"][0]["paths"]


@pytest.mark.parametrize(
    "command", [("period",), ("verify",), ("system",), ("system", "--emit-normalized")],
    ids=["period", "verify", "system", "emit-normalized"],
)
@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("gauss",
         lambda doc: term_paths(doc)[0]["segments"][0]["start"].update(root_of_factor=7),
         "root anchor names factor 7, scenario has 2"),
        ("gauss",
         lambda doc: term_paths(doc).append(term_paths(doc)[0]),
         "term has 2 path factors, scenario has m = 1"),
        ("airy",
         lambda doc: term_paths(doc)[0]["segments"][0].update(direction=[0, 0]),
         "ray direction is zero"),
    ],
    ids=["anchor_factor_7", "second_path_for_m_1", "zero_ray_direction"],
)
def test_malformed_cycle_is_input_error(tmp_path, command, name, edit, message):
    # loading rejects the cycle, so every command does, with the same line
    doc = json.loads((SRC / "gkzperiods" / "scenarios" / f"{name}.json").read_text())
    edit(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    res = run_cli(*command, str(path), cwd=tmp_path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert lines == [f"error: cycle: {message}"], res.stderr


def test_emit_normalized_round_trip(tmp_path):
    out1 = tmp_path / "norm1.json"
    res = run_cli("system", "quadratic_root", "--emit-normalized",
                  "--out", str(out1))
    assert res.returncode == 0
    doc = json.loads(out1.read_text())
    assert doc["schema"] == "gkz-scenario@1"
    # normalizing the normalized file is the identity
    out2 = tmp_path / "norm2.json"
    res2 = run_cli("system", str(out1), "--emit-normalized", "--out", str(out2))
    assert res2.returncode == 0
    assert out1.read_text() == out2.read_text()
    # and the normalized file describes the same system
    sys1 = run_cli("system", "quadratic_root").stdout
    sys2 = run_cli("system", str(out1)).stdout
    assert sys1.splitlines()[1:] == sys2.splitlines()[1:]


def test_emit_normalized_to_stdout(tmp_path):
    res = run_cli("system", "quadratic_root", "--emit-normalized")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["name"] == "quadratic_root"


def test_verify_passes_and_writes_report(tmp_path):
    res = run_cli("verify", "quadratic_root", cwd=tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    assert "PASS" in res.stdout
    assert "max relative residual" in res.stdout
    report_file = tmp_path / "quadratic_root.report.json"
    assert report_file.exists()
    doc = json.loads(report_file.read_text())
    assert doc["schema"] == "gkz-verify-report@1"
    assert doc["passed"] is True
    assert doc["max_relative"] < 1e-6
    assert len(doc["residuals"]) > 0
    labels = {r["operator"] for r in doc["residuals"]}
    assert any(lbl.startswith("euler") for lbl in labels)
    assert any(lbl.startswith("box") for lbl in labels)


def test_verify_prints_its_phi_evals_and_cache_hits(tmp_path):
    res = run_cli("verify", "gauss", cwd=tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    status = [line for line in res.stdout.splitlines() if line.startswith("PASS")]
    assert len(status) == 1
    assert re.fullmatch(
        r"PASS \(\d+\.\d\ds, 387 phi evals in 1 batch, 27 cache hits\)", status[0]
    ), status
    # the counts are printed only: the report keeps its fields
    doc = json.loads((tmp_path / "gauss.report.json").read_text())
    assert set(doc) == {
        "schema", "tool_version", "scenario", "system", "threshold", "seed",
        "points", "phi_values", "residuals", "max_relative", "passed",
        "warnings", "timing_seconds",
    }


def test_verify_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        res = run_cli("verify", "gl_quadratic", cwd=d)
        assert res.returncode == 0, res.stderr
    da = json.loads((a / "gl_quadratic.report.json").read_text())
    db = json.loads((b / "gl_quadratic.report.json").read_text())
    # identical up to wall-clock timing
    da.pop("timing_seconds")
    db.pop("timing_seconds")
    assert da == db


def test_verify_corrupted_eigenvalue_fails(tmp_path):
    res = run_cli("verify", "quadratic_root", "--corrupt-eigenvalue", "1",
                  cwd=tmp_path)
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    doc = json.loads((tmp_path / "quadratic_root.report.json").read_text())
    assert doc["passed"] is False
    assert doc["max_relative"] > 1e-2


def test_verify_threshold_flag(tmp_path):
    # an absurdly tight threshold turns the same residuals into a failure
    res = run_cli("verify", "gl_quadratic", "--threshold", "1e-30",
                  cwd=tmp_path)
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_verify_seed_changes_points(tmp_path):
    for seed in ("1", "2"):
        res = run_cli("verify", "gl_quadratic", "--seed", seed, "--out",
                      str(tmp_path / f"s{seed}.json"), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
    d1 = json.loads((tmp_path / "s1.json").read_text())
    d2 = json.loads((tmp_path / "s2.json").read_text())
    assert d1["points"] != d2["points"]
    assert d1["seed"] == 1 and d2["seed"] == 2


def test_verify_zero_points_is_input_error(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli("verify", "gl_quadratic", "--points", "0", "--out", str(out),
                  cwd=tmp_path)
    assert res.returncode == 2
    assert "error: settings.points" in res.stderr
    assert "PASS" not in res.stdout
    assert not out.exists()


def test_verify_unusable_tol_override_is_input_error(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli("verify", "gl_quadratic", "--tol", "-1", "--out", str(out),
                  cwd=tmp_path)
    assert res.returncode == 2
    assert "error: settings.tol" in res.stderr
    assert not out.exists()


def test_verify_negative_seed_is_input_error(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli("verify", "residue_circle", "--seed", "-1", "--out", str(out),
                  cwd=tmp_path)
    assert res.returncode == 2
    assert "error: settings.seed" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_verify_corrupt_eigenvalue_out_of_range_is_input_error(tmp_path):
    res = run_cli("verify", "quadratic_root", "--corrupt-eigenvalue", "9",
                  cwd=tmp_path)
    assert res.returncode == 2
    assert "error: corrupt:" in res.stderr
    assert "Traceback" not in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_verify_unusable_diff_setting_is_input_error(tmp_path):
    # settings folded into constants fail to load as unknown keys
    folded = {"diff_nodes", "level_start", "level_cap", "point_rel_min"}
    for key, val in (("diff_nodes", 7), ("radius_factor", -1), ("point_rel", -1),
                     ("level_start", 5), ("level_cap", 14), ("point_rel_min", 0.1)):
        doc = json.loads(DENSE_SEPTIC_DOC)
        doc["settings"] = {key: val}
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        res = run_cli("verify", str(path), cwd=tmp_path)
        assert res.returncode == 2
        assert f"error: settings.{key}" in res.stderr
        assert ("unknown setting" in res.stderr) == (key in folded)
        assert "Traceback" not in res.stderr


def test_verify_derivative_order_above_cap_is_error_cell(tmp_path):
    # degree bound 1 still keeps the order-7 basis vector of a dense septic
    path = tmp_path / "septic.json"
    path.write_text(DENSE_SEPTIC_DOC)
    res = run_cli("verify", str(path), cwd=tmp_path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "DerivativeOrderError" in res.stdout


def test_verify_non_finite_derivative_exits_2(tmp_path):
    # a radius factor EvalSettings accepts, whose powers underflow
    doc = json.loads((SRC / "gkzperiods" / "scenarios" / "gl_quadratic.json").read_text())
    doc["settings"] = {"radius_factor": 1e-300}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    res = run_cli("verify", str(path), cwd=tmp_path)
    assert res.returncode == 2
    assert "Warning" not in res.stderr + res.stdout
    assert "NonFiniteDerivativeError" in res.stdout
    # no residual reads nan: in the table, or as a number in the report
    assert not [line for line in res.stdout.splitlines() if line.endswith(" nan")]
    assert "NaN" not in (tmp_path / "tiny.report.json").read_text()


def test_verify_radius_below_the_ulp_exits_2(tmp_path):
    # residue_circle's rows all round to their points: no circle is sampled
    doc = json.loads((SRC / "gkzperiods" / "scenarios" / "residue_circle.json").read_text())
    doc["settings"] = {"radius_factor": 1e-300}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    res = run_cli("verify", str(path), cwd=tmp_path)
    assert res.returncode == 2
    eulers = [line for line in res.stdout.splitlines() if line.startswith("  euler")]
    assert len(eulers) == 2
    assert all("evaluation error: FrozenStencilError: " in line for line in eulers)


def test_no_usable_cell_shows_no_max_residual(tmp_path):
    # every cell is a FrozenStencilError; the report's max_relative stays
    # 0.0, which is no residual, so neither command prints it as one
    doc = json.loads((SRC / "gkzperiods" / "scenarios" / "residue_circle.json").read_text())
    doc["settings"] = {"radius_factor": 1e-300}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    line = "max relative residual = none (no usable cell)"
    res = run_cli("verify", str(path), cwd=tmp_path)
    assert res.returncode == 2
    assert line in res.stdout.splitlines()
    report = tmp_path / "tiny.report.json"
    assert json.loads(report.read_text())["max_relative"] == 0.0
    res = run_cli("report", str(report))
    assert res.returncode == 0
    assert line in res.stdout.splitlines()


def test_verify_file_scenario_writes_report_beside_it(tmp_path):
    res0 = run_cli("system", "gl_quadratic", "--emit-normalized",
                   "--out", str(tmp_path / "local.json"))
    assert res0.returncode == 0
    res = run_cli("verify", str(tmp_path / "local.json"))
    assert res.returncode == 0
    assert (tmp_path / "local.report.json").exists()


def test_report_subcommand_pretty_prints(tmp_path):
    res = run_cli("verify", "gl_quadratic", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli("report", str(tmp_path / "gl_quadratic.report.json"))
    assert res.returncode == 0
    assert "gl_quadratic" in res.stdout
    assert re.search(r"^max relative residual = \d\.\d{3}e-\d\d$", res.stdout, re.M)


def test_report_missing_file_is_input_error(tmp_path):
    res = run_cli("report", str(tmp_path / "nope.json"))
    assert res.returncode == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "JSON object"),
        ({"schema": "gkz-verify-report@1"}, "'threshold'"),
        (
            {"schema": "gkz-verify-report@1", "threshold": 1e-6},
            "'max_relative'",
        ),
        (
            {
                "schema": "gkz-verify-report@1",
                "threshold": 1e-6,
                "max_relative": 0.0,
                "residuals": [{"operator": "box (1, -2, 1)", "relative": 0.0}],
            },
            "'point'",
        ),
    ],
)
def test_report_malformed_document_is_input_error(tmp_path, doc, message):
    path = tmp_path / "bad.report.json"
    path.write_text(json.dumps(doc))
    res = run_cli("report", str(path))
    assert res.returncode == 2
    assert "error:" in res.stderr and message in res.stderr
    assert "Traceback" not in res.stderr


def test_no_arguments_shows_usage():
    res = run_cli()
    assert res.returncode == 2
    assert "usage" in (res.stderr + res.stdout).lower()
