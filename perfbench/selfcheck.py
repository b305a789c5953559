"""Self-check of the benchmark itself; exits 1 on the first broken promise.

    python3 perfbench/selfcheck.py

One short traced iteration per workload must show that
* every layer metric mapped to a workload records at least one call there,
  and every returned value passes its check;
* self times sum to no more than the root span they sit under;
* a value perturbed by 1e-3 from its reference counts as a failed operation.
Two traced iterations of mc-n8 must give identical per-layer counts, and
BENCHMARK.json must name the workloads and metrics run.py reports.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
from spans import Tracer

#: derived layer metrics -> the span whose calls they need
DERIVED = {"quadrature.refdata_reuse": "quadrature.leggauss",
           "quadrature.cum_at.repeat_ratio": "quadrature.cum_at",
           "cdf.nodes_per_point": "cdf.truncated_moment_matrix"}


def traced_iteration(wl, name, ref):
    w = run.WORKLOADS[name]
    tracer = Tracer(wl)
    tracer.install()
    try:
        it = run.run_iteration(wl, name, w, run.make_inputs(w, seed=1), ref, tracer)
    finally:
        tracer.uninstall()
    return tracer, it


def check_spec(problems):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if {w["name"]: w["why"] for w in spec["workloads"]} != \
            {k: w["why"] for k, w in run.WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} != \
            {k: v[:2] for k, v in run.LAYER_METRICS.items()}:
        problems.append("BENCHMARK.json per_layer differs from run.LAYER_METRICS")


def check_spans(name, tracer, problems):
    spans = tracer.spans
    own = tracer.self_times()
    root_of = []
    for s in spans:
        root_of.append(len(root_of) if s[3] < 0 else root_of[s[3]])
    for r in {x for x in root_of}:
        total = float(sum(st for st, ro in zip(own, root_of) if ro == r))
        dur = spans[r][2] - spans[r][1]
        if total > dur * (1 + 1e-9) + 1e-9 or np.any(own < -1e-9):
            problems.append(f"{name}: self times {total:.6f} s exceed root {spans[r][0]} {dur:.6f} s")


def main() -> int:
    wl = run.load_package()
    ref = run.load_reference()
    problems = []
    check_spec(problems)
    for name in run.WORKLOADS:
        tracer, it = traced_iteration(wl, name, ref)
        calls, _ = tracer.summary()
        for metric, (_u, _b, _moves, on) in run.LAYER_METRICS.items():
            if name not in on or metric == "trace.overhead_frac":
                continue
            span = DERIVED.get(metric, metric.rpartition(".")[0])
            if calls[span] < 1:
                problems.append(f"{name}: {metric} records no call of {span}")
        check_spans(name, tracer, problems)
        bad = [op for op in it["ops"] if op[5]]
        if bad:
            problems.append(f"{name}: {len(bad)} operations failed: {bad[0]}")
        if "grid" in run.WORKLOADS[name]:
            for z, v, im, r, tol, _err in it["ops"]:
                if not run.check_value(v, im, r + 1e-3, tol):
                    problems.append(f"{name}: z={z} passes a reference perturbed by 1e-3")
        print(f"{name}: {len(tracer.spans)} spans, {len(it['ops'])} operations checked")

    firsts = [run.layer_metrics(*traced_iteration(wl, "mc-n8", ref)) for _ in range(2)]
    for m in run.LAYER_METRICS:
        if not m.endswith("_s") and m != "trace.overhead_frac" and firsts[0][m] != firsts[1][m]:
            problems.append(f"mc-n8: {m} differs between two traced iterations")

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
