"""Benchmark of the wishart_lab largest-eigenvalue CDF, end to end and per layer.

    python3 perfbench/run.py --workload pf-edge-n16 --seed 1 --seconds 25 --trace 0

Runs one workload through the package's public API in this process, from the
checkout's `src/`, in a closed loop with one caller: each iteration builds a
fresh `CdfEngine` (set-up), draws the workload's Monte-Carlo sample, and
evaluates one `cdf_grid` call.  Iterations repeat until the next one would
overrun `--seconds`.  On a shared host the CPU speed can drift by up to 2x over
minutes, so each iteration is bracketed by fixed calibration loads that never
touch wishart_lab, and every reported time is the median over iterations of
wall seconds times the iteration's host-speed factor (reference over measured
calibration seconds; a bulk-numpy factor for sampling, an interpreter-bound
one for the rest); raw wall medians are printed beside them.  Every returned CDF value is checked (see `check_value`); the
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced iterations and reports the per-layer metrics of `LAYER_METRICS`;
the spans of the traced iterations are written to `.perfbench-out/`.

After a traced run, outside every timing and failure count, the known-failure
probes are attempted once and their outcomes printed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from spans import Tracer, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench-out"

#: a CDF value must match its reference table entry to this (absolute)
REF_TOL = 1e-6
#: bounds and |Im| tolerance of the package's own hygiene suite
RANGE_TOL = 1e-6
IM_TOL = 1e-6
#: family-wise false-alarm rate of a Monte-Carlo comparison (Bonferroni)
MC_ALPHA = 1e-4

WORKLOADS = {
    "pf-edge-n16": {
        "why": "Pfaffian route at (16, 64, 1), 6 z over the edge [1.9, 3.1]: the per-node "
               "skew Gram (16 eps-transforms on 142 nodes) and a 16x16 Pfaffian dominate",
        "params": (16, 64, 1.0), "route": "pfaffian",
        "grid": np.linspace(1.9, 3.1, 6).tolist(), "draws": 10_000,
    },
    "pf-dense-n4": {
        "why": "Pfaffian route at (4, 8, 1), 48 z over [1, 6]: fixed per-node costs (rule "
               "build, leggauss, weights, a fresh 64-node contour per z) dominate",
        "params": (4, 8, 1.0), "route": "pfaffian",
        "grid": np.linspace(1.0, 6.0, 48).tolist(), "draws": 100_000,
    },
    "fredholm-n4": {
        "why": "Fredholm route at (4, 8, 1), z in {2, 3, 4, 5}: the only user of kernels, "
               "Nystrom determinants, the log det M walk and cum_at at arbitrary points",
        "params": (4, 8, 1.0), "route": "fredholm",
        "grid": [2.0, 3.0, 4.0, 5.0], "draws": 100_000,
    },
    "mc-n8": {
        "why": "10^5 seeded largest eigenvalues at (8, 32, 1), Pfaffian CDF at the sample's "
               "10/50/90 % quantiles vs the empirical CDF: sampling dominates",
        "params": (8, 32, 1.0), "route": "pfaffian",
        "levels": [0.1, 0.5, 0.9], "draws": 100_000,
    },
}

#: per-layer metric -> (unit, better, end-to-end metric it should move, workloads)
LAYER_METRICS = {
    "params.weight_w.calls": ("count", "lower", "grid_s", ["pf-dense-n4"]),
    "params.weight_w.self_s": ("s", "lower", "grid_s", ["pf-dense-n4"]),
    "quadrature.half_line_rule.calls": ("count", "lower", "grid_s", ["pf-dense-n4", "pf-edge-n16"]),
    "quadrature.half_line_rule.self_s": ("s", "lower", "grid_s", ["pf-dense-n4", "pf-edge-n16"]),
    "quadrature.leggauss.calls": ("count", "lower", "grid_s", ["pf-dense-n4", "pf-edge-n16"]),
    "quadrature.refdata_reuse": ("ratio", "higher", "setup_s", ["fredholm-n4"]),
    "quadrature.cumulative.calls": ("count", "lower", "grid_s", ["pf-edge-n16"]),
    "quadrature.cumulative.self_s": ("s", "lower", "grid_s", ["pf-edge-n16"]),
    "quadrature.cum_at.calls": ("count", "lower", "grid_s", ["fredholm-n4"]),
    "quadrature.cum_at.points": ("count", "lower", "grid_s", ["fredholm-n4"]),
    "quadrature.cum_at.self_s": ("s", "lower", "grid_s", ["fredholm-n4"]),
    "quadrature.cum_at.repeat_ratio": ("ratio", "lower", "grid_s", ["fredholm-n4"]),
    "laguerre.eval_all.calls": ("count", "lower", "grid_s", ["fredholm-n4"]),
    "laguerre.eval_all.points": ("count", "lower", "grid_s", ["fredholm-n4"]),
    "laguerre.eval_all.self_s": ("s", "lower", "grid_s", ["fredholm-n4"]),
    "skew.table_build.calls": ("count", "lower", "grid_s", ["pf-dense-n4", "pf-edge-n16"]),
    "skew.table_build.self_s": ("s", "lower", "grid_s", ["pf-dense-n4", "pf-edge-n16"]),
    "skew.pfaffian.calls": ("count", "lower", "grid_s", ["pf-edge-n16"]),
    "skew.pfaffian.self_s": ("s", "lower", "grid_s", ["pf-edge-n16"]),
    "kernels.bundle_build.calls": ("count", "lower", "setup_s", ["fredholm-n4"]),
    "kernels.bundle_build.self_s": ("s", "lower", "setup_s", ["fredholm-n4"]),
    "kernels.resolvent_trace.calls": ("count", "lower", "setup_s", ["fredholm-n4"]),
    "kernels.resolvent_trace.self_s": ("s", "lower", "setup_s", ["fredholm-n4"]),
    "kernels.s1.self_s": ("s", "lower", "grid_s", ["fredholm-n4"]),
    "kernels.is1.self_s": ("s", "lower", "grid_s", ["fredholm-n4"]),
    "kernels.ds1.self_s": ("s", "lower", "grid_s", ["fredholm-n4"]),
    "cdf.truncated_moment_matrix.calls": ("count", "lower", "grid_s", ["pf-dense-n4", "pf-edge-n16"]),
    "cdf.truncated_moment_matrix.self_s": ("s", "lower", "grid_s", ["pf-dense-n4", "pf-edge-n16"]),
    "cdf.nodes_per_point": ("count", "lower", "grid_s", ["pf-dense-n4", "pf-edge-n16"]),
    "cdf.fredholm_det.calls": ("count", "lower", "grid_s", ["fredholm-n4"]),
    "cdf.fredholm_det.self_s": ("s", "lower", "grid_s", ["fredholm-n4"]),
    "sampling.sample_wishart_max_eig.self_s": ("s", "lower", "sample_s", ["mc-n8"]),
    "sampling.sample_wishart_all_eigs.self_s": ("s", "lower", "sample_s", ["mc-n8"]),
    "trace.overhead_frac": ("ratio", "lower", "none", list(WORKLOADS)),
}

END_TO_END = {"setup_s": "s", "grid_s": "s", "sample_s": "s", "peak_rss_mb": "MB"}

#: units of the two host-speed factors: about the medians of the two parts of
#: `calibrate()` on a 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4
CAL_REF_S = 0.1
CAL_BULK_REF_S = 0.025
CAL_LOOPS = 4000
CAL_BATCH = 10_000

#: untimed known-failure probes: Fredholm route at these (N, M, tau)
FREDHOLM_PROBES = [(12, 48, 1.0), (16, 64, 1.0)]


def load_package():
    """Import wishart_lab from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "wishart_lab" / "__init__.py").is_file():
        print(f"perfbench: no wishart_lab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import wishart_lab
    if Path(wishart_lab.__file__).resolve().parent != (src / "wishart_lab").resolve():
        print(f"perfbench: imported {wishart_lab.__file__}, not the checkout's", file=sys.stderr)
        sys.exit(2)
    return wishart_lab


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ checks
def mc_threshold(k: int) -> float:
    """Per-point sigma bound for k comparisons at family-wise rate MC_ALPHA."""
    return statistics.NormalDist().inv_cdf(1.0 - MC_ALPHA / (2.0 * k))


def check_value(value: float, im: float, ref: float, tol: float) -> str:
    """'' when a returned CDF value passes, else the reason it failed."""
    if not (math.isfinite(value) and math.isfinite(im)):
        return "non-finite"
    if not (-RANGE_TOL <= value <= 1.0 + RANGE_TOL):
        return "outside [0, 1]"
    if abs(im) > IM_TOL:
        return f"|Im| {abs(im):.2e} > {IM_TOL:g}"
    if abs(value - ref) > tol:
        return f"misses reference by {abs(value - ref):.2e} > {tol:.2e}"
    return ""


def references(name: str, w: dict, ref: dict, zs, sample) -> tuple[list, list]:
    """(reference value, tolerance) per grid point of one iteration."""
    if "levels" in w:
        n = sample.size
        emp = [float(np.mean(sample <= z)) for z in zs]
        k = mc_threshold(len(zs))
        return emp, [k * math.sqrt(max(e * (1.0 - e), 1.0 / n) / n) for e in emp]
    table = ref[name]
    if table["z"] != w["grid"]:
        raise SystemExit(f"perfbench: reference grid of {name} does not match the workload")
    by_z = dict(zip(table["z"], table["cdf"]))
    return [by_z[z] for z in zs], [REF_TOL] * len(zs)


# ------------------------------------------------------------- iterations
def make_inputs(w: dict, seed: int) -> dict:
    """Seeded inputs: the grid in a seed-chosen order, and the sample seed."""
    rng = np.random.default_rng(seed)
    grid = w.get("grid")
    return {"grid": None if grid is None else [float(z) for z in rng.permutation(grid)],
            "sample_seed": int(seed)}


def run_iteration(wl, name: str, w: dict, inputs: dict, ref: dict, tracer=None) -> dict:
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    params = wl.ModelParams(*w["params"])
    route = w["route"]
    ops = []          # (z, value, im, reference, tol, error)
    node_counts = []
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    try:
        with span("bench.setup"):
            engine = wl.CdfEngine(params)
            one = engine.cdf(engine.z_inf, route)
    except Exception as exc:  # a raising operation is a counted failure
        engine, one = None, exc
    setup_s = time.perf_counter() - t0
    if isinstance(one, Exception):
        ops.append((math.inf, math.nan, 0.0, 1.0, REF_TOL, f"raised {type(one).__name__}: {one}"))
    else:
        ops.append((one.z, one.value, one.diagnostics.get("im_residual", 0.0), 1.0, REF_TOL, ""))

    t0 = time.perf_counter()
    with span("bench.sample"):
        sample = wl.sample_wishart_max_eig(
            wl.McConfig(seed=inputs["sample_seed"], n_samples=w["draws"], params=params))
    sample_s = time.perf_counter() - t0
    if sample.shape != (w["draws"],) or not np.all(np.isfinite(sample) & (sample > 0)):
        raise SystemExit("perfbench: sampler returned a malformed sample")

    zs = inputs["grid"] if "levels" not in w else [float(q) for q in np.quantile(sample, w["levels"])]
    refs, tols = references(name, w, ref, zs, sample)
    grid_s = math.nan
    if engine is not None:
        t0 = time.perf_counter()
        try:
            with span("bench.grid"):
                results = engine.cdf_grid(zs, route)
            grid_s = time.perf_counter() - t0
        except Exception as exc:  # every point of a raising grid call fails
            results = exc
        if isinstance(results, Exception):
            err = f"raised {type(results).__name__}: {results}"
            ops += [(z, math.nan, 0.0, r, t, err) for z, r, t in zip(zs, refs, tols)]
        else:
            for res, r, t in zip(results, refs, tols):
                ops.append((res.z, res.value, res.diagnostics.get("im_residual", 0.0), r, t, ""))
                node_counts.append(res.diagnostics.get("node_count", 0))
    else:
        ops += [(z, math.nan, 0.0, r, t, "no engine") for z, r, t in zip(zs, refs, tols)]

    verdicts = [(z, v, im, r, t, err or check_value(v, im, r, t)) for z, v, im, r, t, err in ops]
    return {"setup_s": setup_s, "grid_s": grid_s, "sample_s": sample_s,
            "wall_s": time.perf_counter() - t_start, "ops": verdicts,
            "node_counts": node_counts, "mc_sigma": mc_sigma(sample, verdicts)}


def mc_sigma(sample, ops) -> float:
    """Largest |CDF - empirical| in sigmas over the grid (informational)."""
    worst = 0.0
    for z, v, *_ in ops[1:]:
        if math.isfinite(v):
            e = float(np.mean(sample <= z))
            worst = max(worst, abs(v - e) / math.sqrt(max(e * (1 - e), 1.0 / sample.size) / sample.size))
    return worst


# ------------------------------------------------------------- run record
def blas_threads() -> int | None:
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True,
                               text=True, timeout=30, check=True).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError) as exc:
        return {"sha": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"sha": sha, "dirty": dirty}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(wl, seed: int, threads_env) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"git": git_state(), "seed": seed, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "wishart_lab": wl.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads(), "WISHART_LAB_THREADS": threads_env}


# ------------------------------------------------------------------ probes
def probes(wl, ref: dict) -> list[str]:
    lines = []
    for N, M, tau in FREDHOLM_PROBES:
        try:
            engine = wl.CdfEngine(wl.ModelParams(N, M, tau))
            v = engine.cdf(engine.z_inf, "fredholm").value
            lines.append(f"probe fredholm ({N}, {M}, {tau:g}) z_inf: returned {v!r}")
        except Exception as exc:  # the outcome, whatever it is, is the report
            lines.append(f"probe fredholm ({N}, {M}, {tau:g}) z_inf: raised "
                         f"{type(exc).__name__}: {exc}")
    for c in ref["corners"]:
        where = f"probe pfaffian corner {tuple(c['params'])} at MC quantiles {c['levels']}"
        try:
            engine = wl.CdfEngine(wl.ModelParams(*c["params"]))
            res = engine.cdf_grid(c["z"], "pfaffian")
        except Exception as exc:  # the outcome, whatever it is, is the report
            lines.append(f"{where}: raised {type(exc).__name__}: {exc}")
            continue
        vals = [r.value for r in res]
        im = max(abs(r.diagnostics["im_residual"]) for r in res)
        k = mc_threshold(len(vals))
        sig = [abs(v - e) / math.sqrt(e * (1 - e) / c["draws"]) for v, e in zip(vals, c["empirical"])]
        verdict = "fail" if max(sig) > k or im > IM_TOL else "pass"
        lines.append(f"{where}: {verdict}, CDF {[round(v, 4) for v in vals]} vs empirical "
                     f"{c['empirical']}, {[round(s, 1) for s in sig]} sigma (bound {k:.2f}), "
                     f"max |Im| {im:.1e} (tol {IM_TOL:g})")
    return lines


# -------------------------------------------------------------- measuring
def calibrate() -> tuple[float, float]:
    """Seconds for two fixed loads that never touch wishart_lab, so their drift
    tracks the host's speed, not the program's: small numpy operations in a
    Python loop (what set-up and grid spend their time on) and batched LAPACK
    plus random numbers (what sampling spends its time on)."""
    a = np.arange(256.0).reshape(16, 16) / 256.0
    g = np.arange(CAL_BATCH * 16.0).reshape(CAL_BATCH, 4, 4) % 7.0
    spd = g @ np.swapaxes(g, 1, 2) + 4.0 * np.eye(4)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CAL_LOOPS):
        v = np.linspace(0.0, 1.0, 64) * (i + 1)
        acc += float(np.sum(np.exp(-v) * np.sqrt(v))) + float((a @ a.T)[0, 0])
    t1 = time.perf_counter()
    acc += float(np.linalg.eigvalsh(spd).sum())
    acc += float(np.random.Generator(np.random.Philox(0)).standard_normal(CAL_BATCH * 16).sum())
    return t1 - t0, time.perf_counter() - t1


def layer_metrics(tracer, it: dict) -> dict:
    calls, self_s = tracer.summary()
    out = {}
    for metric in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[span]
        elif kind == "self_s":
            out[metric] = self_s[span]
        elif kind == "points":
            out[metric] = tracer.points[span]
    lg = calls["quadrature.leggauss"]
    out["quadrature.refdata_reuse"] = len(tracer.leggauss_q) / lg if lg else 0.0
    ca = calls["quadrature.cum_at"]
    out["quadrature.cum_at.repeat_ratio"] = tracer.cum_at_repeats / ca if ca else 0.0
    nc = it["node_counts"]
    out["cdf.nodes_per_point"] = sum(nc) / len(nc) if nc else 0.0
    return out


def speed_key(metric: str) -> str:
    """The host-speed factor that scales a timing: bulk for sampling work."""
    return "bulk_speed" if metric.startswith(("sample_s", "sampling.")) else "speed"


def measure(wl, name: str, seed: int, seconds: float, trace: bool, ref: dict):
    w = WORKLOADS[name]
    inputs = make_inputs(w, seed)
    tracer = Tracer(wl) if trace else None
    untraced, traced, layer_runs, span_runs = [], [], [], []
    t_run = time.perf_counter()
    while True:
        tracing = trace and len(untraced) > len(traced)
        cal0 = calibrate()
        if tracing:
            tracer.reset()
            tracer.install()
            try:
                it = run_iteration(wl, name, w, inputs, ref, tracer)
            finally:
                tracer.uninstall()
        else:
            it = run_iteration(wl, name, w, inputs, ref)
        # host-speed factors of this iteration: reference over measured calibration
        cal1 = calibrate()
        it["speed"] = CAL_REF_S / (0.5 * (cal0[0] + cal1[0]))
        it["bulk_speed"] = CAL_BULK_REF_S / (0.5 * (cal0[1] + cal1[1]))
        if tracing:
            traced.append(it)
            layer = layer_metrics(tracer, it)
            layer_runs.append({m: v * it[speed_key(m)] if m.endswith("_s") else v
                               for m, v in layer.items()})
            span_runs.append(tracer.spans)
        else:
            untraced.append(it)
        n = len(untraced) + len(traced)
        elapsed = time.perf_counter() - t_run
        if elapsed * (n + 1) / n > seconds and (not trace or traced):
            break
    if trace:
        write_spans(OUT_DIR / f"spans-{name}-seed{seed}.jsonl", span_runs)
    return untraced, traced, layer_runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the benchmark measures the default sequential path
    threads_env = os.environ.pop("WISHART_LAB_THREADS", None)
    wl = load_package()
    ref = load_reference()
    name, w = args.workload, WORKLOADS[args.workload]

    untraced, traced, layer_runs = measure(wl, name, args.seed, args.seconds, bool(args.trace), ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = untraced + traced
    ops = [op for it in done for op in it["ops"]]
    attempted, failed = len(ops), sum(1 for op in ops if op[5])

    print(f"# perfbench {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: {w['why']}")
    print("record " + json.dumps(run_record(wl, args.seed, threads_env)))
    for z, v, im, r, t, err in done[0]["ops"]:
        print(f"op z={z:.6g} value={v:.12g} im={im:.2e} ref={r:.12g} tol={t:.2e} "
              f"{'FAIL ' + err if err else 'ok'}")
    print(f"mc max |CDF - empirical| over the grid: {done[0]['mc_sigma']:.2f} sigma "
          f"({w['draws']} draws)")

    if not args.trace:
        raw = {k: [it[k] for it in untraced if math.isfinite(it[k])]
               for k in ("setup_s", "grid_s", "sample_s")}
        metrics = {k: statistics.median(it[k] * it[speed_key(k)] for it in untraced
                                        if math.isfinite(it[k]))
                   if raw[k] else math.nan for k in raw}
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
        print(f"iterations {len(untraced)}; host-speed factor medians "
              f"{statistics.median(it['speed'] for it in untraced):.4f}, bulk "
              f"{statistics.median(it['bulk_speed'] for it in untraced):.4f}; raw wall medians "
              + ", ".join(f"{k} {statistics.median(v):.6g} s" for k, v in raw.items() if v))
    else:
        # counts are per iteration and must repeat exactly; times are medians
        first = layer_runs[0]
        metrics = {}
        for m in first:
            if m.endswith(".self_s"):
                metrics[m] = statistics.median(r[m] for r in layer_runs)
            else:
                metrics[m] = first[m]
                if any(r[m] != first[m] for r in layer_runs):
                    print(f"warning: {m} differs between traced iterations", file=sys.stderr)
        metrics["trace.overhead_frac"] = (
            statistics.median(i["wall_s"] * i["speed"] for i in traced)
            / statistics.median(i["wall_s"] * i["speed"] for i in untraced) - 1.0)
        units = {m: spec[0] for m, spec in LAYER_METRICS.items()}
        print(f"iterations {len(untraced)} untraced, {len(traced)} traced; spans in {OUT_DIR}")
    for m, v in metrics.items():
        extra = ""
        if args.trace:
            _, better, moves, on = LAYER_METRICS[m]
            extra = f"  ({better} is better; moves {moves} on {', '.join(on)})"
        print(f"metric {m:42s} {v:>16.6g} {units[m]}{extra}")
    print(f"metric {'fail_frac':42s} {failed / attempted:>16.6g} ratio  ({failed} of {attempted})")
    if args.trace:
        for line in probes(wl, ref):
            print(line)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
