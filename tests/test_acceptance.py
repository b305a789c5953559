"""Acceptance gate: every verification suite at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
all); the same suites back `wishart-lab verify`.
"""

import pytest

from wishart_lab import verify
from wishart_lab.verify import SUITES, run_suite

CRITERIA = [
    # (suite, headline tolerance description)
    ("parts-identity", "max relative error < 1e-8"),
    ("skew-op", "structural zeros and skew-orthogonality < 1e-7 of scale"),
    ("kernel-equiv", "brute vs CD+rank-2 correction < 1e-6 relative"),
    ("derpar", "log-derivative vs finite differences < 1e-5 relative"),
    ("mc-cdf", "5 z-points within 3 binomial SE; tau=0 routes < 1e-6"),
    ("route-equiv", "Pfaffian vs Fredholm route < 1e-3 absolute"),
    ("zonal", "closed forms 1e-10, contour/series 1e-8, MC within 3 sigma"),
    ("sphere-oracle", "contour vs sphere MC ratios within 3 sigma"),
    ("mp-density", "10 bins within 3 sigma multinomial"),
    ("hygiene", "discretisation doublings < 1e-4; Pf^2=det 1e-9; |Im| < 1e-6"),
]


@pytest.mark.parametrize("suite,descr", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(suite, descr):
    report = run_suite(suite)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"[{status}] {suite}: {descr} ({report['elapsed_s']:.1f}s)")
    failed = [c for c in report["checks"] if not c["passed"]]
    detail = "; ".join(f"{c['name']}: {c['value']:.3e} !< {c['tol']:.0e}"
                       for c in failed)
    assert report["passed"], f"{suite} failed: {detail}"


def test_all_suites_registered():
    assert {name for name, _ in CRITERIA} == set(SUITES)


def test_run_all_passes_seed(monkeypatch):
    seen = []

    def stub(name):
        def suite(seed=None):
            seen.append((name, seed))
            return {"suite": name, "passed": True}
        return suite

    monkeypatch.setattr(verify, "SUITES", {n: stub(n) for n in ("a", "b")})
    assert [r["suite"] for r in verify.run_all(seed=17)] == ["a", "b"]
    assert seen == [("a", 17), ("b", 17)]
