"""Command line surface: inspect systems, evaluate functions, verify, report.

Exit codes: 0 success, 1 a residual crossed the verification threshold,
2 bad input or an evaluation failure.  Verification reports are JSON with
a schema tag; the residual table in a report is reproducible byte for
byte across runs with the same inputs (timing lives outside it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic_paths import EvaluationError
from .gkz_system import GkzSystem, build_system, corrupt_eigenvalue, render_system
from .period_functions import PeriodFunction, period_values
from .quadrature import integrate_cycle
from .scenario import ScenarioError, ScenarioSpec
from .scenario_io import (
    _complex_in,
    _complex_out,
    builtin_scenario_names,
    dumps_scenario,
    loads_scenario,
    resolve_scenario_source,
)
from .verifier import ResidualReport, verify

__all__ = ["main"]

REPORT_SCHEMA = "gkz-verify-report@1"


def _fmt_value(z: complex, digits: int = 12) -> str:
    """Human complex formatting, snapping parts below 1e-12 relative to zero."""
    z = complex(z)
    re, im = z.real, z.imag
    mag = max(abs(re), abs(im))
    if mag == 0.0:
        return "0"
    if abs(re) < 1e-12 * mag:
        re = 0.0
    if abs(im) < 1e-12 * mag:
        im = 0.0
    re_s = f"{re:.{digits}g}"
    if im == 0.0:
        return re_s
    return f"{re_s}{'+' if im >= 0 else '-'}{abs(im):.{digits}g}i"


def _load(arg: str) -> tuple:
    name, text, path = resolve_scenario_source(arg)
    spec = loads_scenario(text, name=name)
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return spec, sha, path


def _apply_overrides(spec: ScenarioSpec, args) -> ScenarioSpec:
    updates = {}
    for field_name, arg_name in (
        ("tol", "tol"),
        ("threshold", "threshold"),
        ("seed", "seed"),
        ("points", "points"),
        ("degree_bound", "degree_bound"),
    ):
        val = getattr(args, arg_name, None)
        if val is not None:
            updates[field_name] = val
    if not updates:
        return spec
    return replace(spec, settings=replace(spec.settings, **updates))


def _parse_point(text: str, n: int) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("--point", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, list) or len(doc) != n:
        raise ScenarioError("--point", f"expected a list of {n} entries")
    return np.asarray(
        [_complex_in(entry, f"--point[{k}]") for k, entry in enumerate(doc)],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_system(args) -> int:
    spec, _, _ = _load(args.scenario)
    spec = _apply_overrides(spec, args)
    if args.emit_normalized:
        text = dumps_scenario(spec)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    system = build_system(spec)
    print(render_system(system))
    return 0


def _cmd_period(args) -> int:
    spec, sha, _ = _load(args.scenario)
    spec = _apply_overrides(spec, args)
    a = spec.coefficient_vector()
    if args.point is not None:
        a = _parse_point(args.point, spec.n_columns())
    error_estimate = None
    if spec.function_kind == "period":
        res = integrate_cycle(spec, a[None])
        value = period_values(spec, res)[0]
        if isinstance(value, EvaluationError):
            raise value
        error_estimate = float(res.error_estimate[0])
    else:
        value = PeriodFunction(spec)(a)
    print(f"value = {_fmt_value(value)}")
    if error_estimate is not None:
        print(f"error estimate = {error_estimate:.3e}")
    if args.out:
        doc = {
            "schema": "gkz-period-report@1",
            "tool_version": __version__,
            "scenario": {"name": spec.name, "sha256": sha},
            "point": [_complex_out(z) for z in a],
            "value": _complex_out(value),
            "error_estimate": error_estimate,
        }
        Path(args.out).write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8"
        )
    return 0


def _report_document(
    spec: ScenarioSpec,
    sha: str,
    source: str,
    system: GkzSystem,
    rep: ResidualReport,
    elapsed: float,
) -> dict:
    residuals = []
    warnings = list(system.warnings)
    for c in rep.cells:
        residuals.append(
            {
                "point": c.point_index,
                "operator": c.operator,
                "raw": _complex_out(c.raw),
                "normalization": c.normalization,
                "relative": c.relative,
                "degenerate": c.degenerate,
                "diagnostic": c.diagnostic,
                "error": c.error,
            }
        )
        warnings.extend(c.warnings)
    return {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "scenario": {"name": spec.name, "source": source, "sha256": sha},
        "system": render_system(system).splitlines(),
        "threshold": rep.threshold,
        "seed": spec.settings.seed,
        "points": [[_complex_out(z) for z in pt] for pt in rep.points],
        "phi_values": [
            None if v is None else _complex_out(v) for v in rep.phi_values
        ],
        "residuals": residuals,
        "max_relative": rep.max_relative,
        "passed": rep.passed,
        "warnings": sorted(set(warnings)),
        "timing_seconds": elapsed,
    }


def _cmd_verify(args) -> int:
    spec, sha, path = _load(args.scenario)
    spec = _apply_overrides(spec, args)
    system = build_system(spec)
    if args.corrupt_eigenvalue is not None:
        system = corrupt_eigenvalue(system, args.corrupt_eigenvalue)
    phi = PeriodFunction(spec)

    t0 = time.perf_counter()
    rep = verify(system, phi)
    elapsed = time.perf_counter() - t0

    source = str(path) if path is not None else f"builtin:{spec.name}"
    doc = _report_document(spec, sha, source, system, rep, elapsed)
    if args.out:
        report_path = Path(args.out)
    elif path is not None:
        report_path = path.parent / (path.stem + ".report.json")
    else:
        report_path = Path.cwd() / f"{spec.name}.report.json"
    report_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    n_pts = len(rep.points)
    print(
        f"scenario {spec.name}: {len(system.eulers)} euler + "
        f"{len(system.boxes)} box operators, {n_pts} points, "
        f"threshold {rep.threshold:g}"
    )
    by_op: dict = {}
    for c in rep.cells:
        by_op.setdefault(c.operator, []).append(c)
    print(f"residuals (max over {n_pts} points):")
    for op, cells in by_op.items():
        errs = [c for c in cells if c.error is not None]
        if errs:
            print(f"  {op:<28s} evaluation error: {errs[0].error}")
            continue
        live = [c.relative for c in cells if not c.degenerate]
        if live:
            print(f"  {op:<28s} {max(live):.3e}")
        else:
            print(f"  {op:<28s} degenerate (operator terms vanish)")
    for w in doc["warnings"]:
        print(f"warning: {w}")
    print(f"max relative residual = {rep.max_relative:.3e}")
    print(f"{'PASS' if rep.passed else 'FAIL'} ({elapsed:.2f}s)")
    print(f"report written to {report_path}")
    if rep.has_errors:
        return 2
    return 0 if rep.passed else 1


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _report_shape_error(doc: dict) -> str | None:
    """Name the first field of a report that `report` cannot print, if any."""
    for key in ("threshold", "max_relative"):
        if not _is_number(doc.get(key)):
            return f"'{key}' is missing or not a number"
    if not _is_number(doc.get("timing_seconds", 0.0)):
        return "'timing_seconds' is not a number"
    if not isinstance(doc.get("scenario", {}), dict):
        return "'scenario' is not an object"
    for key in ("system", "phi_values", "residuals"):
        if not isinstance(doc.get(key, []), list):
            return f"'{key}' is not a list"
    for k, phi in enumerate(doc.get("phi_values", [])):
        if phi is not None and not (
            isinstance(phi, list) and len(phi) == 2 and all(map(_is_number, phi))
        ):
            return f"phi_values[{k}] is not null or a [re, im] pair"
    for k, row in enumerate(doc.get("residuals", [])):
        if not isinstance(row, dict):
            return f"residuals[{k}] is not an object"
        if type(row.get("point")) is not int:
            return f"residuals[{k}] has no integer 'point'"
        if not isinstance(row.get("operator"), str):
            return f"residuals[{k}] has no 'operator' string"
        if not _is_number(row.get("relative")):
            return f"residuals[{k}] has no numeric 'relative'"
    return None


def _cmd_report(args) -> int:
    try:
        doc = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print("error: a report must be a JSON object", file=sys.stderr)
        return 2
    if doc.get("schema") != REPORT_SCHEMA:
        print(
            f"error: not a {REPORT_SCHEMA} document "
            f"(schema = {doc.get('schema')!r})",
            file=sys.stderr,
        )
        return 2
    problem = _report_shape_error(doc)
    if problem is not None:
        print(f"error: malformed report: {problem}", file=sys.stderr)
        return 2
    sc = doc.get("scenario", {})
    print(f"scenario {sc.get('name')}  (source {sc.get('source')})")
    print(f"sha256 {sc.get('sha256')}")
    print(f"tool version {doc.get('tool_version')}, "
          f"{doc.get('timing_seconds', 0.0):.2f}s")
    print()
    for line in doc.get("system", []):
        print(line)
    print()
    print(f"threshold {doc.get('threshold'):g}, seed {doc.get('seed')}")
    for k, phi in enumerate(doc.get("phi_values", [])):
        shown = "evaluation failed" if phi is None else _fmt_value(complex(*phi))
        print(f"point {k}: phi = {shown}")
    print()
    print(f"{'pt':>3s}  {'operator':<30s} {'relative':>12s}  flags")
    for row in doc.get("residuals", []):
        flags = []
        if row.get("degenerate"):
            flags.append("degenerate")
        if row.get("error"):
            flags.append(f"error: {row['error']}")
        print(
            f"{row['point']:>3d}  {row['operator']:<30s} "
            f"{row['relative']:>12.3e}  {' '.join(flags)}"
        )
    print()
    print(f"max relative residual = {doc.get('max_relative'):.3e}")
    print("PASS" if doc.get("passed") else "FAIL")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkzperiods",
        description=(
            "Construct the annihilating operator system attached to a "
            "polynomial-map scenario, evaluate its period/root/residue "
            "function, and verify annihilation numerically."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    names = ", ".join(builtin_scenario_names())
    scen_help = f"scenario file path, or a shipped scenario name ({names})"

    p_sys = sub.add_parser("system", help="print the annihilating system")
    p_sys.add_argument("scenario", help=scen_help)
    p_sys.add_argument("--degree-bound", type=int, help="box search bound override")
    p_sys.add_argument(
        "--emit-normalized",
        action="store_true",
        help="print the scenario in canonical JSON form instead",
    )
    p_sys.add_argument("--out", help="write --emit-normalized output to a file")
    p_sys.set_defaults(func=_cmd_system)

    p_per = sub.add_parser("period", help="evaluate the scenario's function")
    p_per.add_argument("scenario", help=scen_help)
    p_per.add_argument(
        "--point", help="JSON coefficient vector of numbers or [re, im] pairs"
    )
    p_per.add_argument("--tol", type=float, help="quadrature tolerance override")
    p_per.add_argument("--out", help="also write a small JSON report here")
    p_per.set_defaults(func=_cmd_period)

    p_ver = sub.add_parser("verify", help="verify every operator annihilates")
    p_ver.add_argument("scenario", help=scen_help)
    p_ver.add_argument("--threshold", type=float, help="pass/fail threshold override")
    p_ver.add_argument("--tol", type=float, help="quadrature tolerance override")
    p_ver.add_argument("--seed", type=int, help="verification point seed override")
    p_ver.add_argument("--points", type=int, help="number of verification points")
    p_ver.add_argument("--degree-bound", type=int, help="box search bound override")
    p_ver.add_argument("--out", help="report path (default: beside the scenario)")
    p_ver.add_argument(
        "--corrupt-eigenvalue",
        type=int,
        metavar="N",
        help="debug: add 1 to euler operator N's eigenvalue (expect FAIL)",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("report", help="pretty-print an existing report")
    p_rep.add_argument("report", help="path to a verify report JSON file")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        try:
            sys.stdout.reconfigure(encoding="utf-8")
        except (ValueError, OSError):
            pass
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
