"""Scenario files: JSON documents that load into ScenarioSpec values.

Complex numbers are [re, im] pairs throughout; bare numbers are accepted
on input and normalized on output.  Load errors carry a path into the
document (factors[1].coefficients[0], function.cycle.terms[2].paths[0],
...) so a bad file pinpoints its own problem.  Monomial order inside a
factor is normalized on load, which makes the emitted canonical form and
the original file describe the same system.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import fields
from importlib import resources
from pathlib import Path

from .analytic_paths import (
    ArcSegment,
    CycleSpec,
    CycleTerm,
    LineSegment,
    Path1D,
    RaySegment,
    RootAnchor,
)
from .scenario import (
    EvalSettings,
    FactorSupport,
    ScenarioError,
    ScenarioSpec,
    validate_scenario,
)

__all__ = [
    "load_scenario",
    "loads_scenario",
    "scenario_to_document",
    "dumps_scenario",
    "resolve_scenario_source",
    "builtin_scenario_names",
]

_SETTING_NAMES = tuple(f.name for f in fields(EvalSettings))


def _want(node, typ, where: str, what: str):
    if not isinstance(node, typ):
        raise ScenarioError(where, f"expected {what}")
    return node


def _complex_in(node, where: str) -> complex:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        z = complex(node)
    elif (
        isinstance(node, list)
        and len(node) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
    ):
        z = complex(node[0], node[1])
    else:
        raise ScenarioError(where, "expected a number or [re, im] pair")
    # JSON text may spell NaN and Infinity, and Python's parser accepts them
    if not cmath.isfinite(z):
        raise ScenarioError(where, "expected a finite number")
    return z


def _complex_out(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _real_in(node, where: str) -> float:
    z = _complex_in(node, where)
    if z.imag != 0.0:
        raise ScenarioError(where, "expected a real number")
    return z.real


# ---------------------------------------------------------------------------
# cycle geometry


def _endpoint_in(node, where: str):
    if isinstance(node, dict):
        extra = set(node) - {"root_of_factor", "near"}
        if extra:
            raise ScenarioError(where, f"unknown endpoint keys {sorted(extra)}")
        if "root_of_factor" not in node:
            raise ScenarioError(where, "anchored endpoint needs root_of_factor")
        fac = node["root_of_factor"]
        if not isinstance(fac, int) or isinstance(fac, bool) or fac < 1:
            raise ScenarioError(where + ".root_of_factor", "expected a factor index")
        near = _complex_in(node.get("near", 0.0), where + ".near")
        return RootAnchor(factor=fac, near=near)
    return _complex_in(node, where)


def _endpoint_out(pt):
    if isinstance(pt, RootAnchor):
        return {"root_of_factor": pt.factor, "near": _complex_out(pt.near)}
    return _complex_out(pt)


def _segment_in(node, where: str):
    node = _want(node, dict, where, "a segment object")
    kind = node.get("type")
    if kind == "line":
        _check_keys(node, {"type", "start", "end"}, where)
        return LineSegment(
            start=_endpoint_in(node.get("start"), where + ".start"),
            end=_endpoint_in(node.get("end"), where + ".end"),
        )
    if kind == "arc":
        _check_keys(node, {"type", "center", "radius", "angle_start", "angle_end"}, where)
        return ArcSegment(
            center=_complex_in(node.get("center", 0.0), where + ".center"),
            radius=_real_in(node.get("radius"), where + ".radius"),
            angle_start=_real_in(node.get("angle_start", 0.0), where + ".angle_start"),
            angle_end=_real_in(node.get("angle_end"), where + ".angle_end"),
        )
    if kind == "ray":
        _check_keys(node, {"type", "start", "direction", "length"}, where)
        return RaySegment(
            start=_complex_in(node.get("start", 0.0), where + ".start"),
            direction=_complex_in(node.get("direction"), where + ".direction"),
            length=_real_in(node.get("length"), where + ".length"),
        )
    raise ScenarioError(where + ".type", f"unknown segment type {kind!r}")


def _segment_out(seg):
    if isinstance(seg, LineSegment):
        return {
            "type": "line",
            "start": _endpoint_out(seg.start),
            "end": _endpoint_out(seg.end),
        }
    if isinstance(seg, ArcSegment):
        return {
            "type": "arc",
            "center": _complex_out(seg.center),
            "radius": seg.radius,
            "angle_start": seg.angle_start,
            "angle_end": seg.angle_end,
        }
    return {
        "type": "ray",
        "start": _complex_out(seg.start),
        "direction": _complex_out(seg.direction),
        "length": seg.length,
    }


def _check_keys(node: dict, allowed: set, where: str) -> None:
    extra = set(node) - allowed
    if extra:
        raise ScenarioError(where, f"unknown keys {sorted(extra)}")


def _path_in(node, where: str) -> Path1D:
    node = _want(node, dict, where, "a path object")
    _check_keys(node, {"segments", "closed", "anchor_t"}, where)
    segs = _want(node.get("segments"), list, where + ".segments", "a segment list")
    if not segs:
        raise ScenarioError(where + ".segments", "empty path")
    closed = node.get("closed", False)
    if not isinstance(closed, bool):
        raise ScenarioError(where + ".closed", "expected true or false")
    anchor_t = node.get("anchor_t", 0.0)
    if isinstance(anchor_t, bool) or not isinstance(anchor_t, (int, float)):
        raise ScenarioError(where + ".anchor_t", "expected a number")
    return Path1D(
        segments=tuple(
            _segment_in(s, where + f".segments[{k}]") for k, s in enumerate(segs)
        ),
        closed=closed,
        anchor_t=float(anchor_t),
    )


def _path_out(path: Path1D) -> dict:
    return {
        "segments": [_segment_out(s) for s in path.segments],
        "closed": path.closed,
        "anchor_t": path.anchor_t,
    }


def _cycle_in(node, where: str) -> CycleSpec:
    node = _want(node, dict, where, "a cycle object")
    _check_keys(node, {"terms"}, where)
    terms = _want(node.get("terms"), list, where + ".terms", "a term list")
    if not terms:
        raise ScenarioError(where + ".terms", "cycle has no terms")
    out = []
    for k, term in enumerate(terms):
        tw = where + f".terms[{k}]"
        term = _want(term, dict, tw, "a term object")
        _check_keys(term, {"multiplicity", "paths"}, tw)
        mult = _complex_in(term.get("multiplicity", 1), tw + ".multiplicity")
        paths = _want(term.get("paths"), list, tw + ".paths", "a path list")
        if not paths:
            raise ScenarioError(tw + ".paths", "term has no paths")
        out.append(
            CycleTerm(
                multiplicity=mult,
                paths=tuple(
                    _path_in(p, tw + f".paths[{j}]") for j, p in enumerate(paths)
                ),
            )
        )
    return CycleSpec(terms=tuple(out))


def _cycle_out(cycle: CycleSpec) -> dict:
    return {
        "terms": [
            {
                "multiplicity": _complex_out(t.multiplicity),
                "paths": [_path_out(p) for p in t.paths],
            }
            for t in cycle.terms
        ]
    }


# ---------------------------------------------------------------------------
# whole documents


def _monomial_in(node, where: str, m: int) -> tuple:
    node = _want(node, list, where, "an exponent list")
    if len(node) != m:
        raise ScenarioError(where, f"expected {m} exponents")
    for e in node:
        if isinstance(e, bool) or not isinstance(e, int) or e < 0:
            raise ScenarioError(where, "exponents must be nonnegative integers")
    return tuple(node)


def _factor_in(node, where: str, index: int, m: int) -> FactorSupport:
    node = _want(node, dict, where, "a factor object")
    _check_keys(node, {"kind", "lambda", "monomials", "coefficients"}, where)
    kind = node.get("kind", "power")
    monos_node = _want(node.get("monomials"), list, where + ".monomials", "a list")
    coeff_node = _want(node.get("coefficients"), list, where + ".coefficients", "a list")
    if len(coeff_node) != len(monos_node):
        raise ScenarioError(
            where + ".coefficients", "coefficient count does not match support size"
        )
    pairs = []
    for k, (mono, cf) in enumerate(zip(monos_node, coeff_node)):
        pairs.append(
            (
                _monomial_in(mono, where + f".monomials[{k}]", m),
                _complex_in(cf, where + f".coefficients[{k}]"),
            )
        )
    pairs.sort(key=lambda mc: mc[0])
    lam = node.get("lambda")
    return FactorSupport(
        index=index,
        kind=kind,
        monomials=tuple(mono for mono, _ in pairs),
        coefficients=tuple(cf for _, cf in pairs),
        lam=None if lam is None else _complex_in(lam, where + ".lambda"),
    )


def _settings_in(node, where: str) -> EvalSettings:
    if node is None:
        return EvalSettings()
    node = _want(node, dict, where, "a settings object")
    kwargs = {}
    for key, val in node.items():
        if key not in _SETTING_NAMES:
            raise ScenarioError(where + f".{key}", "unknown setting")
        if key in ("degree_bound", "seed", "points"):
            if isinstance(val, bool) or not isinstance(val, int):
                raise ScenarioError(where + f".{key}", "expected an integer")
            kwargs[key] = val
        else:
            kwargs[key] = _real_in(val, where + f".{key}")
    return EvalSettings(**kwargs)


def loads_scenario(text: str, name: str = "scenario") -> ScenarioSpec:
    """Parse and validate a scenario document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"not valid JSON: {exc}") from exc
    doc = _want(doc, dict, "", "a JSON object")
    _check_keys(
        doc, {"schema", "name", "m", "factors", "twist_beta", "function", "settings"}, ""
    )
    m = doc.get("m")
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ScenarioError("m", "m must be a positive integer")
    factors_node = _want(doc.get("factors"), list, "factors", "a factor list")
    factors = tuple(
        _factor_in(f, f"factors[{k}]", k + 1, m) for k, f in enumerate(factors_node)
    )
    beta_node = _want(doc.get("twist_beta"), list, "twist_beta", "a list")
    twist = tuple(
        _complex_in(b, f"twist_beta[{p}]") for p, b in enumerate(beta_node)
    )

    fn = _want(doc.get("function"), dict, "function", "a function object")
    _check_keys(fn, {"kind", "cycle", "base_root", "frozen"}, "function")
    kind = fn.get("kind")
    if not isinstance(kind, str):
        raise ScenarioError("function.kind", "expected a string")
    cycle = None
    if fn.get("cycle") is not None:
        cycle = _cycle_in(fn["cycle"], "function.cycle")
    base_root = None
    if fn.get("base_root") is not None:
        base_root = _complex_in(fn["base_root"], "function.base_root")
    frozen = []
    if fn.get("frozen") is not None:
        fr = _want(fn["frozen"], list, "function.frozen", "a list")
        for k, item in enumerate(fr):
            fw = f"function.frozen[{k}]"
            item = _want(item, list, fw, "a [variable, value] pair")
            if len(item) != 2:
                raise ScenarioError(fw, "expected a [variable, value] pair")
            p = item[0]
            if isinstance(p, bool) or not isinstance(p, int):
                raise ScenarioError(fw, "variable index must be an integer")
            frozen.append((p, _complex_in(item[1], fw)))

    spec = ScenarioSpec(
        name=str(doc.get("name", name)),
        m=m,
        factors=factors,
        twist_beta=twist,
        function_kind=kind,
        cycle=cycle,
        base_root=base_root,
        frozen=tuple(frozen),
        settings=_settings_in(doc.get("settings"), "settings"),
    )
    validate_scenario(spec)
    return spec


def load_scenario(source) -> ScenarioSpec:
    """Load a scenario from a file path or a shipped scenario name."""
    name, text, _ = resolve_scenario_source(str(source))
    return loads_scenario(text, name=name)


def scenario_to_document(spec: ScenarioSpec) -> dict:
    """Canonical document: fixed key order, [re, im] pairs, full settings."""
    factors = []
    for fac in spec.factors:
        node = {"kind": fac.kind}
        if fac.lam is not None:
            node["lambda"] = _complex_out(fac.lam)
        node["monomials"] = [list(mono) for mono in fac.monomials]
        node["coefficients"] = [_complex_out(c) for c in fac.coefficients]
        factors.append(node)
    fn: dict = {"kind": spec.function_kind}
    if spec.cycle is not None:
        fn["cycle"] = _cycle_out(spec.cycle)
    if spec.base_root is not None:
        fn["base_root"] = _complex_out(spec.base_root)
    if spec.frozen:
        fn["frozen"] = [[p, _complex_out(v)] for p, v in spec.frozen]
    settings = {name: getattr(spec.settings, name) for name in _SETTING_NAMES}
    return {
        "schema": "gkz-scenario@1",
        "name": spec.name,
        "m": spec.m,
        "factors": factors,
        "twist_beta": [_complex_out(b) for b in spec.twist_beta],
        "function": fn,
        "settings": settings,
    }


def dumps_scenario(spec: ScenarioSpec) -> str:
    return json.dumps(scenario_to_document(spec), indent=2) + "\n"


# ---------------------------------------------------------------------------
# shipped scenarios


def builtin_scenario_names() -> list:
    base = resources.files("gkzperiods") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in base.iterdir() if p.name.endswith(".json"))


def resolve_scenario_source(arg: str):
    """Resolve a CLI scenario argument to (display name, JSON text, file path).

    A readable file path wins; otherwise the argument is treated as the name
    of a shipped scenario ("gauss", "examples/gauss", "gauss.json" all work)
    and the returned path is None.
    """
    p = Path(arg)
    if p.is_file():
        return p.stem, p.read_text(encoding="utf-8"), p
    name = arg
    if name.startswith("examples/"):
        name = name[len("examples/"):]
    if name.endswith(".json"):
        name = name[: -len(".json")]
    if name and all(c.isalnum() or c == "_" for c in name):
        res = resources.files("gkzperiods") / "scenarios" / f"{name}.json"
        if res.is_file():
            return name, res.read_text(encoding="utf-8"), None
    raise ScenarioError(
        "", f"no such scenario file or shipped scenario: {arg!r}"
    )
