"""Acceptance gate: every verification suite at its pinned tolerance.

Each suite prints one PASS/FAIL line headed by the first line of its
docstring (run pytest with -s to see them all); the same suites back
`wishart-lab verify`.
"""

import pytest

from wishart_lab.verify import SUITES, run_suite


@pytest.mark.parametrize("suite", SUITES)
def test_acceptance_criterion(suite):
    report = run_suite(suite)
    status = "PASS" if report["passed"] else "FAIL"
    headline = SUITES[suite].__doc__.strip().splitlines()[0]
    print(f"[{status}] {suite}: {headline} ({report['elapsed_s']:.1f}s)")
    failed = [c for c in report["checks"] if not c["passed"]]
    detail = "; ".join(f"{c['name']}: {c['value']:.3e} !< {c['tol']:.0e}"
                       for c in failed)
    assert report["suite"] == suite
    assert report["passed"], f"{suite} failed: {detail}"
