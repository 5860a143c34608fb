"""Print a fingerprint of every shipped scenario's verify report.

For each shipped scenario, one line: its name, the sha256 of
repr(verify(build_system(spec), PeriodFunction(spec))), the points phi was
evaluated at, the cache hits, the largest relative residual
(max_relative) and PASS or FAIL.  Two trees whose lines agree produced the
same reports, bit for bit; where a hash moves, max_relative shows how far
the report's margin moved with it.  Not collected by pytest;
run it from the repository root with

    PYTHONPATH=src python tests/report_hashes.py
"""

import hashlib

from gkzperiods import PeriodFunction, build_system, load_scenario, verify
from gkzperiods.scenario_io import builtin_scenario_names
from gkzperiods.verifier import DerivativeCache


def main() -> None:
    for name in builtin_scenario_names():
        spec = load_scenario(name)
        cache = DerivativeCache()
        report = verify(build_system(spec), PeriodFunction(spec), cache=cache)
        digest = hashlib.sha256(repr(report).encode()).hexdigest()
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"{name:22} {digest} evals={cache.misses} hits={cache.hits} "
            f"max_relative={report.max_relative:.3e} {verdict}"
        )


if __name__ == "__main__":
    main()
