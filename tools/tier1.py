"""Tier-1 gate: the full test suite with exactly its one expected failure.

    python tools/tier1.py

Runs the suite as ROADMAP.md's tier-1 command does (`src/` on PYTHONPATH,
`--continue-on-collection-errors`) with a JUnit XML report, and exits 0 only
when the tests that failed, errored or could not be collected are exactly
EXPECTED_FAILURES.  Any other failure is printed, and so is an expected
failure that passed or did not run: either way the gate exits 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The reference range of acceptance criterion 2 cannot contain the certified
# optimum of about 6.0298 (see README.md); the test stays as stated.
EXPECTED_FAILURES = {"tests/test_acceptance.py::test_criterion_2_rational_cubed_deviation_range"}


def node_id(classname: str, name: str) -> str:
    """pytest's node id for a JUnit test case: the module path, any classes, then the name.

    A module that failed to collect is a case with no class whose name is the dotted module.
    """
    parts = [*classname.split("."), name] if classname else name.split(".")
    for i in range(len(parts), 0, -1):
        module = "/".join(parts[:i]) + ".py"
        if (ROOT / module).is_file():
            return "::".join([module, *parts[i:]])
    return ".".join(parts)


def failed_tests(report: Path) -> set[str]:
    """Ids of the test cases that failed or errored, collection errors included."""
    return {
        node_id(case.get("classname", ""), case.get("name", ""))
        for case in ET.parse(report).getroot().iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        code = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             f"--junitxml={report}"],
            cwd=ROOT, env=env,
        )
        if code not in (0, 1) or not report.is_file():
            print(f"tier1: pytest did not complete a run (exit code {code})")
            return 1
        failed = failed_tests(report)
    unexpected = sorted(failed - EXPECTED_FAILURES)
    missing = sorted(EXPECTED_FAILURES - failed)
    for test in unexpected:
        print(f"tier1: unexpected failure: {test}")
    for test in missing:
        print(f"tier1: expected failure did not fail (passed or did not run): {test}")
    if unexpected or missing:
        return 1
    print(f"tier1: ok, the only failure is the expected {', '.join(sorted(EXPECTED_FAILURES))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
