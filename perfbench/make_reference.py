"""Regenerate perfbench/reference.json, the CDF values every benchmark run checks.

    python3 perfbench/make_reference.py

For each fixed-grid workload the reference is the same route with doubled
quadrature (n_panels=48, q=20, as the hygiene suite doubles it).  Before the
table is written, every grid is checked

* against the empirical CDF of 10^5 seeded draws, with a family-wise
  (Bonferroni) bound over the grid's points rather than a per-point one;
* at (4, 8, 1), against the other route at the same doubled quadrature.

The file also records the Monte-Carlo quantiles of the range corners
(16, 64, 1.5) and (8, 32, 1.5) that the known-failure probe evaluates.  Nothing is written when
a check fails.
"""

from __future__ import annotations

import json
import math
import statistics
import sys

import numpy as np

import run

SEED = 20261017
DRAWS = 100_000
FAMILY_ALPHA = 0.01
CROSS_ROUTE_TOL = 1e-6
FINE = {"n_panels": 48, "q": 20}
#: range corners the known-failure probe evaluates at these MC quantiles
CORNERS = [[16, 64, 1.5], [8, 32, 1.5]]
LEVELS = [0.1, 0.5, 0.9]


def family_bound(k: int) -> float:
    return statistics.NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * k))


def main() -> int:
    wl = run.load_package()
    out, ok = {}, True
    for name, w in run.WORKLOADS.items():
        if "grid" not in w:
            continue
        p = wl.ModelParams(*w["params"])
        fine = wl.CdfEngine(p, **FINE)
        vals = [r.value for r in fine.cdf_grid(w["grid"], w["route"])]
        default = [r.value for r in wl.CdfEngine(p).cdf_grid(w["grid"], w["route"])]
        gap = max(abs(a - b) for a, b in zip(vals, default))

        lam = wl.sample_wishart_max_eig(wl.McConfig(seed=SEED, n_samples=DRAWS, params=p))
        emp = [float(np.mean(lam <= z)) for z in w["grid"]]
        sig = [abs(v - e) / math.sqrt(max(e * (1 - e), 1.0 / DRAWS) / DRAWS)
               for v, e in zip(vals, emp)]
        bound = family_bound(len(vals))
        mc_ok = max(sig) <= bound
        print(f"{name}: default-vs-doubled gap {gap:.2e}; MC max {max(sig):.2f} sigma "
              f"(family-wise bound {bound:.2f}) {'ok' if mc_ok else 'FAIL'}")
        ok &= mc_ok
        entry = {"params": list(w["params"]), "route": w["route"], "z": w["grid"], "cdf": vals,
                 "default_gap": gap, "mc_max_sigma": max(sig), "mc_bound": bound}

        if tuple(w["params"]) == (4, 8, 1.0):
            other = "fredholm" if w["route"] == "pfaffian" else "pfaffian"
            ovals = [r.value for r in fine.cdf_grid(w["grid"], other)]
            cross = max(abs(a - b) for a, b in zip(vals, ovals))
            cross_ok = cross <= CROSS_ROUTE_TOL
            print(f"{name}: {other} route gap {cross:.2e} (tol {CROSS_ROUTE_TOL:g}) "
                  f"{'ok' if cross_ok else 'FAIL'}")
            ok &= cross_ok
            entry["cross_route_gap"] = cross
        out[name] = entry

    out["corners"] = []
    for params in CORNERS:
        p = wl.ModelParams(*params)
        lam = wl.sample_wishart_max_eig(wl.McConfig(seed=SEED, n_samples=DRAWS, params=p))
        zs = [float(q) for q in np.quantile(lam, LEVELS)]
        out["corners"].append({"params": params, "levels": LEVELS, "draws": DRAWS, "seed": SEED,
                               "z": zs, "empirical": [float(np.mean(lam <= z)) for z in zs]})
    out["generated"] = {"quadrature": FINE, "mc_seed": SEED, "mc_draws": DRAWS,
                        "family_alpha": FAMILY_ALPHA, "cross_route_tol": CROSS_ROUTE_TOL}
    if not ok:
        print("a check failed; reference.json left unchanged", file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
