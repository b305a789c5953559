"""Command-line front end: cdf, sample, verify, kernel-dump.

Every data file is written next to a JSON manifest that records the full
configuration, seeds and versions needed to reproduce it byte for byte (the
wall-clock time it also records aside); a command refuses every config key it
does not apply.  Exit codes: 0 success, 2 configuration error (an unwritable
output path too), 3 numerical failure (see `errors`), 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .cdf import CdfEngine
from .errors import (ConfigError, DegenerateSkewProductError, PrecisionLossError,
                     QuadratureError, SingularWeightError, WishartLabError, check_count)
from .kernels import CdCorrectedKernel, KernelBundle
from .params import ModelParams, mp_density
from .sampling import McConfig, sample_wishart_all_eigs, sample_wishart_max_eig
from .skew import SkewProductTable
from .verify import SUITES, run_suite

_FMT = "%.17g"

#: exceptions reported as a numerical failure (exit 3) rather than a traceback
_NUMERICAL = (DegenerateSkewProductError, SingularWeightError, QuadratureError, PrecisionLossError,
              ZeroDivisionError, FloatingPointError, np.linalg.LinAlgError)


def _fmt(x) -> str:
    return _FMT % float(x)


def _load_config(path: str, keys) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return _known(cfg, {"N", "M", "tau", *keys}, "config")


def _known(cfg: dict, keys, where: str) -> dict:
    """cfg itself; ConfigError naming its first key that is not one of `keys`."""
    key = next((k for k in cfg if k not in keys), None)
    if key is not None:
        raise ConfigError(f"{where} key {key!r} is not applied by this command; "
                          f"it applies {', '.join(sorted(keys))}")
    return cfg


def _value(cfg: dict, key: str, kind: type, default=None):
    """cfg[key] as an int, a finite float or (kind=list) a list of finite floats.

    An absent or null key gives `default`; any other value that does not
    convert exactly raises ConfigError: a string or a boolean (also as a list
    item), and for an int a number with a fractional part, are refused rather
    than coerced.
    """
    value = cfg.get(key)
    if value is None:
        return default
    items = value if isinstance(value, list) else [value]
    try:
        if (kind is list) != isinstance(value, list) or \
                any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in items):
            raise TypeError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        out = [float(v) for v in items] if kind is list else kind(value)
        if all(map(math.isfinite, out if kind is list else [out])):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"config value {key!r} = {value!r} is not a finite {kind.__name__}")


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


#: the CdfEngine keywords a config may set, with their kinds; an absent or null key keeps
#: the engine's own default
_ENGINE_KEYS = {"n_panels": int, "q": int, "n_nystrom": int}


def cmd_cdf(args) -> int:
    cfg = _load_config(args.config, {"z", "route", *_ENGINE_KEYS})
    params = _params_from(cfg)
    zs = _value(cfg, "z", list, [])
    if not zs:
        raise ConfigError("config needs a non-empty z grid")
    route = args.route or cfg.get("route", "pfaffian")
    eng = CdfEngine(params, **{key: _value(cfg, key, kind) for key, kind in _ENGINE_KEYS.items()
                               if cfg.get(key) is not None})
    t0 = time.time()
    results = eng.cdf_grid(zs, route=route)         # ConfigError for an unknown route
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "cdf.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z", "cdf", "route", "anchor_gap", "cancellation_digits"])
        for r in results:
            writer.writerow([_fmt(r.z), _fmt(r.value), r.route,
                             _fmt(r.diagnostics.get("anchor_gap", 0.0)),
                             _fmt(r.diagnostics.get("cancellation_digits", 0.0))])
    _write_manifest(out_dir, "cdf", {
        "command": "cdf",
        "config": cfg,
        "route": route,
        "wall_clock_s": time.time() - t0,
        "outputs": ["cdf.csv"],
        "anchor_z": eng.xmax,
    })
    print(f"wrote {out_path} ({len(results)} rows, route={route})")
    return 0


def cmd_sample(args) -> int:
    cfg = _load_config(args.config, {"seed", "n", "bins", "mode"})
    params = _params_from(cfg)
    seed = args.seed if args.seed is not None else _value(cfg, "seed", int, 0)
    n = _value(cfg, "n", int, 1000)
    nbins = _value(cfg, "bins", int, 40)
    mode = cfg.get("mode", "max")
    if mode not in ("max", "hist"):
        raise ConfigError(f"unknown sample mode {mode!r}")
    if mode == "hist" and nbins < 1:
        raise ConfigError(f"config value 'bins' = {nbins} must be at least 1")
    mc = McConfig(seed=seed, n_samples=n, params=params)
    t0 = time.time()
    if mode == "max":
        header = ["lambda_max"]
        rows = ([_fmt(v)] for v in sample_wishart_max_eig(mc))
    else:
        eigs = sample_wishart_all_eigs(mc).ravel()
        edges = np.linspace(0.0, 1.2 * float(np.max(eigs)), nbins + 1)
        counts, _ = np.histogram(eigs, edges)
        norm = eigs.size * np.diff(edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        header = ["bin_lo", "bin_hi", "count", "density", "se", "mp_density_mid"]
        rows = ([_fmt(lo), _fmt(hi), int(c), _fmt(c / m), _fmt(np.sqrt(max(c, 1)) / m), _fmt(rho)]
                for lo, hi, c, m, rho in zip(edges[:-1], edges[1:], counts, norm,
                                             mp_density(params, mids)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "samples.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
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
    if args.seed is not None:
        check_count("seed", args.seed, 0)
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise ConfigError(f"unknown suite {args.suite!r}; "
                          f"choose from {', '.join(sorted(SUITES))} or 'all'")
    reports = []
    with open(args.json, "w") if args.json else nullcontext() as fh:   # refused before any suite runs
        for name in names:
            rep = run_suite(name, seed=args.seed)
            reports.append(rep)
            status = "PASS" if rep["passed"] else "FAIL"
            print(f"[{status}] {rep['suite']}  ({rep['elapsed_s']:.1f}s)")
            for c in rep["checks"]:
                mark = "ok " if c["passed"] else "BAD"
                print(f"    {mark} {c['name']}: {c['value']:.3e} (tol {c['tol']:.0e})")
        if fh:
            json.dump({"version": __version__, "reports": reports}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["passed"] for r in reports) else 4


def cmd_kernel_dump(args) -> int:
    cfg = _load_config(args.config, {"t", "grid"})
    params = _params_from(cfg)
    re_im = _value(cfg, "t", list, [2.0, 1.0])
    grid = cfg.get("grid") or {}
    if len(re_im) != 2 or not isinstance(grid, dict):
        raise ConfigError(f"config needs t = [re, im] and a grid object, got {re_im} and {grid!r}")
    _known(grid, {"lo", "hi", "n"}, "grid")
    t = complex(*re_im)
    lo, hi, n = _value(grid, "lo", float, 0.3), _value(grid, "hi", float, 6.0), _value(grid, "n", int, 12)
    if not (n >= 1 and lo > 0.0 and hi > 0.0):
        raise ConfigError(f"kernel-dump grid needs n >= 1 and lo, hi > 0, got {grid!r}")
    xs = np.linspace(lo, hi, n)
    t0 = time.time()
    table = SkewProductTable.build(params, t)     # degree N + 1, which the correction reads
    kb, cd = KernelBundle.build(params, t, table=table), CdCorrectedKernel.build(params, t, table=table)
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
    except OSError as exc:          # _load_config reads the config, so this is an output
        print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except WishartLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
