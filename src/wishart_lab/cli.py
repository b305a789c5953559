"""Command-line front end: cdf, sample, verify, kernel-dump.

Every data file is written next to a JSON manifest that records the full
configuration, seeds and versions needed to reproduce it byte for byte
(wall-clock time is recorded for bookkeeping but is of course not part of
the reproducibility contract).  Exit codes: 0 success, 2 configuration
error, 3 numerical failure (see `errors`), 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cdf import CdfEngine
from .errors import (ConfigError, DegenerateSkewProductError, PrecisionLossError,
                     QuadratureError, SingularWeightError, WishartLabError)
from .kernels import CdCorrectedKernel, KernelBundle
from .params import ModelParams, mp_density
from .sampling import McConfig, sample_wishart_all_eigs, sample_wishart_max_eig
from .verify import SUITES, run_suite

_FMT = "%.17g"

#: exceptions reported as a numerical failure (exit 3) rather than a traceback
_NUMERICAL = (DegenerateSkewProductError, SingularWeightError, QuadratureError, PrecisionLossError,
              ZeroDivisionError, FloatingPointError, np.linalg.LinAlgError)


def _fmt(x) -> str:
    return _FMT % float(x)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _params_from(cfg: dict) -> ModelParams:
    try:
        return ModelParams(N=cfg["N"], M=cfg["M"], tau=cfg["tau"])
    except KeyError as exc:
        raise ConfigError(f"config missing key {exc}") from exc


def _write_manifest(out_dir: Path, name: str, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("tool", "wishart-lab")
    payload.setdefault("version", __version__)
    with open(out_dir / f"{name}_manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _engine_from(cfg: dict, params: ModelParams) -> CdfEngine:
    return CdfEngine(
        params,
        contour_nodes=int(cfg.get("contour_nodes", 64)),
        margin=float(cfg.get("margin", 0.5)),
        n_panels=int(cfg.get("n_panels", 24)),
        q=int(cfg.get("q", 16)),
        n_nystrom=int(cfg.get("n_nystrom", 80)),
        z_inf=cfg.get("z_inf"),
    )


def cmd_cdf(args) -> int:
    cfg = _load_config(args.config)
    params = _params_from(cfg)
    zs = cfg.get("z", [])
    if not zs:
        raise ConfigError("config needs a non-empty z grid")
    route = args.route or cfg.get("route", "pfaffian")
    if route not in ("pfaffian", "fredholm"):
        raise ConfigError(f"unknown route {route!r}")
    eng = _engine_from(cfg, params)
    t0 = time.time()
    results = eng.cdf_grid([float(z) for z in zs], route=route)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "cdf.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z", "cdf", "route", "im_residual", "cancellation_digits"])
        for r in results:
            writer.writerow([_fmt(r.z), _fmt(r.value), r.route,
                             _fmt(r.diagnostics.get("im_residual", 0.0)),
                             _fmt(r.diagnostics.get("cancellation_digits", 0.0))])
    _write_manifest(out_dir, "cdf", {
        "command": "cdf",
        "config": cfg,
        "route": route,
        "seed": args.seed,
        "wall_clock_s": time.time() - t0,
        "outputs": ["cdf.csv"],
        "anchor_z_inf": eng.z_inf,
    })
    print(f"wrote {out_path} ({len(results)} rows, route={route})")
    return 0


def cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    params = _params_from(cfg)
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    n = int(cfg.get("n", 1000))
    mode = cfg.get("mode", "max")
    mc = McConfig(seed=seed, n_samples=n, params=params)
    t0 = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "samples.csv"
    if mode == "max":
        lams = sample_wishart_max_eig(mc)
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda_max"])
            for v in lams:
                writer.writerow([_fmt(v)])
    elif mode == "hist":
        eigs = sample_wishart_all_eigs(mc).ravel()
        nbins = int(cfg.get("bins", 40))
        edges = np.linspace(0.0, 1.2 * float(np.max(eigs)), nbins + 1)
        counts, _ = np.histogram(eigs, edges)
        total = eigs.size
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_lo", "bin_hi", "count", "density", "se",
                             "mp_density_mid"])
            for i in range(nbins):
                width = edges[i + 1] - edges[i]
                dens = counts[i] / (total * width)
                se = np.sqrt(max(counts[i], 1)) / (total * width)
                mid = 0.5 * (edges[i] + edges[i + 1])
                writer.writerow([_fmt(edges[i]), _fmt(edges[i + 1]),
                                 int(counts[i]), _fmt(dens), _fmt(se),
                                 _fmt(mp_density(params, mid))])
    else:
        raise ConfigError(f"unknown sample mode {mode!r}")
    _write_manifest(out_dir, "samples", {
        "command": "sample",
        "config": cfg,
        "seed": seed,
        "wall_clock_s": time.time() - t0,
        "outputs": [out_path.name],
    })
    print(f"wrote {out_path} (mode={mode}, n={n}, seed={seed})")
    return 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise ConfigError(f"unknown suite {args.suite!r}; "
                          f"choose from {', '.join(sorted(SUITES))} or 'all'")
    reports = []
    for name in names:
        rep = run_suite(name, seed=args.seed)
        reports.append(rep)
        status = "PASS" if rep["passed"] else "FAIL"
        print(f"[{status}] {rep['suite']}  ({rep['elapsed_s']:.1f}s)")
        for c in rep["checks"]:
            mark = "ok " if c["passed"] else "BAD"
            print(f"    {mark} {c['name']}: {c['value']:.3e} (tol {c['tol']:.0e})")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"version": __version__, "reports": reports}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["passed"] for r in reports) else 4


def cmd_kernel_dump(args) -> int:
    cfg = _load_config(args.config)
    params = _params_from(cfg)
    t = complex(*cfg.get("t", [2.0, 1.0]))
    grid = cfg.get("grid", {})
    lo, hi, n = float(grid.get("lo", 0.3)), float(grid.get("hi", 6.0)), int(grid.get("n", 12))
    xs = np.linspace(lo, hi, n)
    t0 = time.time()
    kb = KernelBundle.build(params, t)
    cd = CdCorrectedKernel.build(params, t, table=kb.table)
    s_b = kb.s1(xs, xs)
    s_c = cd.s1(xs, xs)
    is_b = kb.is1(xs, xs)
    ds_b = kb.ds1(xs, xs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "kernel.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "s1_brute_re", "s1_brute_im",
                         "s1_cd_re", "s1_cd_im", "is1_re", "is1_im",
                         "ds1_re", "ds1_im"])
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                writer.writerow([_fmt(x), _fmt(y),
                                 _fmt(s_b[i, j].real), _fmt(s_b[i, j].imag),
                                 _fmt(s_c[i, j].real), _fmt(s_c[i, j].imag),
                                 _fmt(is_b[i, j].real), _fmt(is_b[i, j].imag),
                                 _fmt(ds_b[i, j].real), _fmt(ds_b[i, j].imag)])
    _write_manifest(out_dir, "kernel", {
        "command": "kernel-dump",
        "config": cfg,
        "t": [t.real, t.imag],
        "wall_clock_s": time.time() - t0,
        "outputs": ["kernel.csv"],
        "max_mode_deviation": float(np.max(np.abs(s_b - s_c))),
    })
    print(f"wrote {out_path} ({n}x{n} grid at t={t})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wishart-lab",
        description="Finite-N machinery of the rank-1 real Wishart spiked model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_cdf = sub.add_parser("cdf", help="largest-eigenvalue CDF on a z grid")
    p_cdf.add_argument("--config", required=True)
    p_cdf.add_argument("--route", choices=["pfaffian", "fredholm"])
    p_cdf.add_argument("--seed", type=int, help="recorded in the manifest (the CDF itself is deterministic)")
    p_cdf.add_argument("--out", default=".")
    p_cdf.set_defaults(fn=cmd_cdf)

    p_s = sub.add_parser("sample", help="Monte-Carlo eigenvalue samples")
    p_s.add_argument("--config", required=True)
    p_s.add_argument("--seed", type=int)
    p_s.add_argument("--out", default=".")
    p_s.set_defaults(fn=cmd_sample)

    p_v = sub.add_parser("verify", help="run a named verification suite")
    p_v.add_argument("suite")
    p_v.add_argument("--seed", type=int)
    p_v.add_argument("--json", help="write the report as JSON")
    p_v.set_defaults(fn=cmd_verify)

    p_k = sub.add_parser("kernel-dump", help="emit kernel grids as CSV")
    p_k.add_argument("--config", required=True)
    p_k.add_argument("--out", default=".")
    p_k.set_defaults(fn=cmd_kernel_dump)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except WishartLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
