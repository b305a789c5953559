"""Command-line front end: cdf, sample, verify, kernel-dump.

Every data file is written next to a JSON manifest that records the full
configuration, seeds and versions needed to reproduce it byte for byte (the
wall-clock time it also records aside); a command refuses every config key it
does not apply.  Every output, the `verify --json` report too, goes through one
writer (`_replacing`), so each is replaced whole or left as it was.  Exit codes:
0 success, 2 configuration error (an unwritable output path too), 3 numerical
failure (see `errors`), 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import math
import numbers
import os
import sys
import time
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


@contextlib.contextmanager
def _replacing(path):
    """A text file opened beside `path` and moved onto it once the block completes, so `path` is
    replaced whole or left as it was.  A directory at `path` is refused before anything is created;
    an OSError, the block's too unless it names a file already (a nested writer's), is raised again
    naming `path`.  The file is opened like a plain `open`, so its mode is 0o666 & ~umask.
    """
    path = Path(path)
    tmp, fh = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp"), None
    try:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        fh = open(tmp, "x", newline="")
        yield fh
        fh.close()
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename not in (None, str(tmp)):
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        if fh is not None:
            fh.close()
            tmp.unlink(missing_ok=True)     # gone once moved


def _emit(args, cfg: dict, name: str, header, rows, t0: float, note: str, **fields) -> int:
    """Write `<name>.csv` (header, rows) and `<name>_manifest.json` under --out; print `note`.

    The manifest holds the shared fields (tool, version, command, config, wall_clock_s since
    `t0`, outputs) and `fields`.  Both files are complete before either is moved into place, so
    a failed write leaves the previous run's pair as it was.
    """
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{name}.csv"
    with _replacing(out_path) as fh:
        csv.writer(fh).writerows([header, *rows])
        fh.close()                  # finished before the manifest is, so before either moves
        with _replacing(out_dir / f"{name}_manifest.json") as mfh:
            json.dump({"tool": "wishart-lab", "version": __version__, "command": args.command,
                       "config": cfg, "wall_clock_s": time.time() - t0, "outputs": [out_path.name],
                       **fields}, mfh, indent=2, sort_keys=True, default=str)
            mfh.write("\n")
    print(f"wrote {out_path} ({note})")
    return 0


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
    gaps, digits = ([r.diagnostics.get(key, 0.0) for r in results]
                    for key in ("anchor_gap", "cancellation_digits"))
    return _emit(args, cfg, "cdf", ["z", "cdf", "route", "anchor_gap", "cancellation_digits"],
                 ([_fmt(r.z), _fmt(r.value), r.route, _fmt(g), _fmt(d)]
                  for r, g, d in zip(results, gaps, digits)),
                 t0, f"{len(results)} rows, route={route}", route=route, anchor_z=eng.xmax,
                 max_anchor_gap=max(gaps), max_cancellation_digits=max(digits))


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
    return _emit(args, cfg, "samples", header, rows, t0, f"mode={mode}, n={n}, seed={seed}", seed=seed)


def cmd_verify(args) -> int:
    if args.seed is not None:
        check_count("seed", args.seed, 0)
    if args.suite != "all" and args.suite not in SUITES:
        raise ConfigError(f"unknown suite {args.suite!r}; "
                          f"choose from {', '.join(sorted(SUITES))} or 'all'")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    # the report is opened, or refused, before any suite runs
    with (_replacing(args.json) if args.json else contextlib.nullcontext()) as fh:
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
    mats = kb.s1(xs, xs), cd.s1(xs, xs), kb.is1(xs, xs), kb.ds1(xs, xs)    # in the header's order
    header = ["x", "y", *(f"{k}_{p}" for k in ("s1_brute", "s1_cd", "is1", "ds1") for p in ("re", "im"))]
    rows = ([_fmt(x), _fmt(y), *(_fmt(v) for a in mats for v in (a[i, j].real, a[i, j].imag))]
            for i, x in enumerate(xs) for j, y in enumerate(xs))
    return _emit(args, cfg, "kernel", header, rows, t0, f"{n}x{n} grid at t={t}", t=[t.real, t.imag],
                 max_mode_deviation=float(np.max(np.abs(mats[0] - mats[1]))))


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
