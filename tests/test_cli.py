import csv
import errno
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wishart_lab import KernelBundle, McConfig, ModelParams, cli, sample_wishart_max_eig
from wishart_lab.cli import _fmt, main
from wishart_lab.skew import default_xmax
from wishart_lab.verify import SUITES

SRC = Path(__file__).resolve().parent.parent / "src"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, **kw):
    with open(path, "w") as fh:
        json.dump(kw, fh)
    return str(path)


@pytest.mark.parametrize("command,bad,out", [
    ("cdf", {"z": 3.0}, "cdf.csv"),
    ("cdf", {"z": ["a"]}, "cdf.csv"),
    ("cdf", {"tau": "one"}, "cdf.csv"),
    ("cdf", {"n_nystrom": "x"}, "cdf.csv"),
    ("cdf", {"z_inf": "big"}, "cdf.csv"),
    ("sample", {"seed": "x"}, "samples.csv"),
    ("sample", {"n": [5]}, "samples.csv"),
    ("sample", {"mode": "hist", "bins": "x"}, "samples.csv"),
    ("kernel-dump", {"t": [2.0, "i"]}, "kernel.csv"),
    ("kernel-dump", {"grid": {"n": "x"}}, "kernel.csv"),
    ("cdf", {"z_inf": -1}, "cdf.csv"),
    ("cdf", {"z_inf": 0.0}, "cdf.csv"),
    ("sample", {"mode": "hist", "bins": 0}, "samples.csv"),
    ("sample", {"mode": "hist", "bins": -2}, "samples.csv"),
    ("sample", {"seed": -1}, "samples.csv"),
    ("verify", {"seed": -1}, "report.json"),
    ("sample", {"mode": "foo"}, "samples.csv"),
    ("sample", {"n": 2.7}, "samples.csv"),
    ("sample", {"seed": 1.5}, "samples.csv"),
    ("sample", {"n": True}, "samples.csv"),
    ("cdf", {"contour_nodes": False}, "cdf.csv"),
    ("cdf", {"q": 3}, "cdf.csv"),
    ("cdf", {"q": 2.5}, "cdf.csv"),
    ("cdf", {"tau": True}, "cdf.csv"),
    ("cdf", {"z": [True, 3.0]}, "cdf.csv"),
    ("cdf", {"z_inf": True}, "cdf.csv"),
    ("cdf", {"M": True}, "cdf.csv"),
    ("kernel-dump", {"t": [2.0, False]}, "kernel.csv"),
    ("cdf", {"n_nystrom": 90}, "cdf.csv"),
    ("cdf", {"n_nystrom": 0}, "cdf.csv"),
    ("cdf", {"margin": 0}, "cdf.csv"),
    ("kernel-dump", {"grid": {"n": -1}}, "kernel.csv"),
    ("kernel-dump", {"grid": {"n": 0}}, "kernel.csv"),
    ("kernel-dump", {"grid": {"lo": 0}}, "kernel.csv"),
    ("kernel-dump", {"grid": {"lo": -1.0, "hi": 2.0}}, "kernel.csv"),
    ("kernel-dump", {"grid": {"lo": 0.5, "hi": -1.0}}, "kernel.csv"),
    ("cdf", {"contour_nodes": 0}, "cdf.csv"),
    ("cdf", {"contour_nodes": -5}, "cdf.csv"),
    ("cdf", {"contour_nodes": 65}, "cdf.csv"),
    ("cdf", {"z": ["3.0"]}, "cdf.csv"),
    ("cdf", {"margin": "0.5"}, "cdf.csv"),
    ("cdf", {"n_panels": "24"}, "cdf.csv"),
    ("sample", {"n": "50"}, "samples.csv"),
    ("sample", {"seed": "3"}, "samples.csv"),
    ("sample", {"mode": "hist", "bins": "5"}, "samples.csv"),
    # keys that no command applies: the engine knobs that are gone, one the engine has but
    # the CLI does not pass, a misspelling, and stray keys in sample and in kernel-dump's grid
    ("cdf", {"contour_nodes": 64}, "cdf.csv"),
    ("cdf", {"margin": 0.5}, "cdf.csv"),
    ("cdf", {"z_inf": 20.0}, "cdf.csv"),
    ("cdf", {"radius_factor": 2}, "cdf.csv"),
    ("cdf", {"n_panel": 24}, "cdf.csv"),
    ("sample", {"z": [2.0]}, "samples.csv"),
    ("kernel-dump", {"grid": {"lo": 0.5, "m": 8}}, "kernel.csv"),
])
def test_malformed_value_is_config_error(tmp_path, capsys, command, bad, out):
    # each command's config holds only its own keys besides the one under test
    own = {"z": [2.0]} if command == "cdf" else {}
    cfg = write_config(tmp_path / "c.json", **{"N": 4, "M": 8, "tau": 1.0, **own, **bad})
    out_dir = tmp_path / "o"
    if command == "verify":
        argv = ["verify", "mc-cdf", "--seed", str(bad["seed"]), "--json", str(out_dir / out)]
    else:
        argv = [command, "--config", cfg, "--out", str(out_dir)]
    code = main(argv)
    err = capsys.readouterr().err
    key = list(bad)[-1]
    key = list(bad[key])[-1] if isinstance(bad[key], dict) else key
    assert code == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert re.search(rf"\b{key}\b", err)
    assert not out_dir.exists()


@pytest.mark.parametrize("command,cfg", [
    ("cdf", {"z": [2.0]}),
    ("sample", {"n": 10}),
    ("kernel-dump", {"grid": {"n": 2}}),
    ("verify", None),
])
def test_unwritable_output_is_config_error(tmp_path, capsys, command, cfg):
    # a data directory under a file, or a report in a directory that does not exist
    (tmp_path / "a_file").write_text("")
    if command == "verify":
        path = tmp_path / "missing" / "report.json"
        argv = ["verify", "derpar", "--json", str(path)]
    else:
        path = tmp_path / "a_file" / "sub"
        argv = [command, "--config", write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, **cfg),
                "--out", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(path) in err[0] and "Traceback" not in err[0]


@pytest.mark.parametrize("suite", ["derpar", "all"])
def test_unwritable_report_is_refused_before_any_suite_runs(tmp_path, capsys, monkeypatch, suite):
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda name, seed=None: ran.append(name))
    path = tmp_path / "missing" / "report.json"
    assert main(["verify", suite, "--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert ran == [] and out == ""
    assert len(err.strip().splitlines()) == 1 and str(path) in err


def test_a_directory_at_the_report_path_is_refused_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda name, seed=None: ran.append(name))
    assert main(["verify", "all", "--json", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert ran == [] and out == "" and list(tmp_path.iterdir()) == []
    assert len(err.strip().splitlines()) == 1 and str(tmp_path) in err


@pytest.mark.parametrize("old", [None, '{"reports": []}\n'])
def test_a_suite_that_raises_leaves_the_report_path_as_it_was(tmp_path, capsys, monkeypatch, old):
    # the report is written beside PATH and moved onto it once complete; a suite that raised
    # after another had passed left a 0-byte PATH, an invalid report
    ran = []

    def run_suite(name, seed=None):
        if ran:
            raise FloatingPointError(f"{name} overflowed")
        ran.append(name)
        return {"suite": name, "passed": True, "elapsed_s": 0.0, "checks": []}

    monkeypatch.setattr(cli, "run_suite", run_suite)
    path = tmp_path / "verify.json"
    if old is not None:
        path.write_text(old)
    assert main(["verify", "all", "--json", str(path)]) == 3
    assert f"[PASS] {ran[0]}" in capsys.readouterr().out
    ran.clear()
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["verify.json"])
    assert old is None or path.read_text() == old
    assert main(["verify", "derpar", "--json", str(path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["verify.json"]
    assert json.loads(path.read_text())["reports"][0]["suite"] == "derpar"


def run_cli(args, **kw):
    """`python -W error -m wishart_lab.cli *args` in a child process, as CI runs `verify`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-W", "error", "-m", "wishart_lab.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120, **kw)


@pytest.mark.parametrize("params", [(4, 8, 100.0), (2, 1000, 1.0)])
def test_an_overflow_under_warnings_as_errors_exits_3(tmp_path, params):
    # with -W error, the overflow in the weight at (2, 1000, 1) was a raw RuntimeWarning traceback;
    # (4, 8, 100) is refused by the engine before its contour is built
    cfg = write_config(tmp_path / "c.json", **dict(zip(("N", "M", "tau"), params)), z=[0.5])
    proc = run_cli(["cdf", "--config", cfg, "--out", str(tmp_path / "out")])
    err = proc.stderr.strip().splitlines()
    assert proc.returncode == 3 and len(err) == 1, proc.stderr
    assert err[0].startswith("numerical failure (") and not (tmp_path / "out").exists()


def test_a_failed_allocation_exits_3(tmp_path):
    # 10^11 draws: a raw _ArrayMemoryError traceback; the child's address space is capped at 2 GiB
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    cfg = write_config(tmp_path / "c.json", N=2, M=4, tau=1.0, n=100_000_000_000)
    proc = run_cli(["sample", "--config", cfg, "--out", str(tmp_path / "out")], preexec_fn=cap)
    err = proc.stderr.strip().splitlines()
    assert proc.returncode == 3 and len(err) == 1, proc.stderr
    assert "MemoryError" in err[0] and not (tmp_path / "out").exists()


def test_every_output_gets_the_mode_a_plain_open_gives(tmp_path, monkeypatch):
    # the report went through a NamedTemporaryFile and landed with mode 0600
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, z=[2.0])
    old = os.umask(0o022)
    try:
        assert main(["cdf", "--config", cfg, "--out", "o"]) == 0
        assert main(["verify", "derpar", "--json", "report.json"]) == 0
    finally:
        os.umask(old)
    for name in ("report.json", "o/cdf.csv", "o/cdf_manifest.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name


@pytest.mark.parametrize("fails,named", [("manifest", "cdf_manifest.json"), ("csv", "cdf.csv")])
def test_a_failed_write_names_its_file_and_keeps_the_previous_run(tmp_path, capsys, monkeypatch,
                                                                  fails, named):
    # a full disk while the manifest was dumped printed "cannot write None" and left a 0-byte
    # manifest beside the new CSV
    out = tmp_path / "o"
    assert main(["cdf", "--config", write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, z=[2.0]),
                 "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, z=[2.0, 3.0])
    capsys.readouterr()

    def full(*args, **kw):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    if fails == "manifest":
        monkeypatch.setattr(json, "dump", full)
    else:
        monkeypatch.setattr(csv, "writer", lambda fh: type("W", (), {"writerows": full})())
    assert main(["cdf", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith(f"{out / named}: {os.strerror(errno.ENOSPC)}")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every command of the README's CLI block, with its echoed configs, exits 0
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI.*?```sh\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    commands = 0
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["echo"]:
            Path(words[3]).write_text(words[1])
        elif words[:1] == ["wishart-lab"]:
            assert main(words[1:]) == 0, (line, capsys.readouterr().err)
            commands += 1
    assert commands == 4


class TestCdfCommand:
    def test_basic_run_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0,
                           z=[6.0, 8.0, 10.0])
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["cdf", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["cdf", "--config", cfg, "--out", str(out2)]) == 0
        data1 = (out1 / "cdf.csv").read_bytes()
        assert data1 == (out2 / "cdf.csv").read_bytes()
        rows = read_rows(out1 / "cdf.csv")
        assert len(rows) == 3
        vals = [float(r["cdf"]) for r in rows]
        assert all(-1e-6 < v < 1 + 1e-6 for v in vals)
        assert vals == sorted(vals)
        assert all(float(r["cancellation_digits"]) >= 0.0 for r in rows)
        assert all(0.0 <= float(r["anchor_gap"]) < 1e-6 for r in rows)
        manifest = json.loads((out1 / "cdf_manifest.json").read_text())
        assert manifest["outputs"] == ["cdf.csv"]

    @pytest.mark.parametrize("route", ["pfaffian", "fredholm"])
    def test_manifest_carries_the_column_maxima_of_the_accuracy_columns(self, tmp_path, route):
        cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, z=[0.0, 2.0, 3.0, 5.0])
        assert main(["cdf", "--config", cfg, "--route", route, "--out", str(tmp_path / "o")]) == 0
        rows = read_rows(tmp_path / "o" / "cdf.csv")
        manifest = json.loads((tmp_path / "o" / "cdf_manifest.json").read_text())
        for col in ("anchor_gap", "cancellation_digits"):
            assert manifest[f"max_{col}"] == max(float(r[col]) for r in rows) > 0.0

    def test_manifest_records_the_anchor_used(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", N=2, M=3, tau=0.0, z=[2.0, 40.0])
        assert main(["cdf", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "cdf_manifest.json").read_text())
        assert manifest["anchor_z"] == default_xmax(ModelParams(2, 3, 0.0)) < 40.0
        assert "seed" not in manifest and "anchor_z_inf" not in manifest
        rows = read_rows(tmp_path / "o" / "cdf.csv")
        assert rows[1]["cdf"] == "1"

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        # the CDF draws nothing, so a seed would only be recorded
        cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, z=[2.0])
        with pytest.raises(SystemExit) as exc:
            main(["cdf", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2 and "--seed" in capsys.readouterr().err

    def test_empty_grid_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, z=[])
        assert main(["cdf", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", N=4, M=8)
        assert main(["cdf", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_non_finite_z_is_config_error(self, tmp_path):
        for bad in (float("nan"), float("inf")):
            cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, z=[2.0, bad])
            assert main(["cdf", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_numerical_failure_exits_3_without_traceback(self, tmp_path, capsys):
        # each route fails at its size (known limitations: at (16, 64) the
        # Fredholm route's moment matrix has cond ~ 2e15 on the contour, at
        # (20, 80) the Pfaffian anchor is exactly 0); the CLI must say so in
        # one line, not die with a traceback or write NaN
        for (N, M), route in (((16, 64), "fredholm"), ((20, 80), "pfaffian")):
            cfg = write_config(tmp_path / "c.json", N=N, M=M, tau=1.0, z=[2.0])
            code = main(["cdf", "--config", cfg, "--route", route,
                         "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == 3
            assert "Traceback" not in err and len(err.strip().splitlines()) == 1
            assert not (tmp_path / "cdf.csv").exists()

    def test_non_finite_log_det_m_exits_3(self, tmp_path, capsys, monkeypatch):
        slogdet = np.linalg.slogdet

        def one_node_at_minus_inf(a):
            sign, logabs = slogdet(a)
            if a.ndim == 3:
                logabs = np.where(np.arange(len(logabs)) == 5, -np.inf, logabs)
            return sign, logabs

        monkeypatch.setattr(np.linalg, "slogdet", one_node_at_minus_inf)
        cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, z=[2.0])
        assert main(["cdf", "--config", cfg, "--route", "fredholm", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "FloatingPointError" in err and "(4, 8, 1)" in err
        assert len(err.strip().splitlines()) == 1 and not (tmp_path / "cdf.csv").exists()

    def test_non_finite_nystrom_sample_exits_3(self, tmp_path, capsys, monkeypatch):
        # a NaN sample of L_j w on the Nystrom grid went on to the range check, a
        # PrecisionLossError (or, with warnings as errors, a RuntimeWarning from det)
        factor = KernelBundle.factor

        def one_nan(self, x, eps):
            out = factor(self, x, eps)
            if not eps:
                out[..., 0, 3] = np.nan
            return out

        monkeypatch.setattr(KernelBundle, "factor", one_nan)
        cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, z=[2.0])
        assert main(["cdf", "--config", cfg, "--route", "fredholm", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "QuadratureError" in err and "node 3" in err
        assert len(err.strip().splitlines()) == 1 and not (tmp_path / "cdf.csv").exists()

    def test_precision_loss_exits_3(self, tmp_path, capsys):
        # (8, 32, 2) loses about 15 digits to contour cancellation
        cfg = write_config(tmp_path / "c.json", N=8, M=32, tau=2.0, z=[2.0, 3.0])
        assert main(["cdf", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "PrecisionLossError" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "cdf.csv").exists()

    def test_engine_keeps_its_own_defaults(self, tmp_path, monkeypatch):
        # the CLI passes only the engine keywords a config sets (a null key counts as unset),
        # so it cannot drift from a CdfEngine default
        seen, engine = [], cli.CdfEngine
        monkeypatch.setattr(cli, "CdfEngine", lambda params, **kw: seen.append(kw) or engine(params, **kw))
        base = {"N": 4, "M": 8, "tau": 1.0, "z": [2.0]}
        for extra in ({}, {"q": 12, "n_panels": 20, "n_nystrom": None}):
            cfg = write_config(tmp_path / "c.json", **base, **extra)
            assert main(["cdf", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert seen == [{}, {"q": 12, "n_panels": 20}]

    def test_bad_route(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0, z=[2.0],
                           route="magic")
        assert main(["cdf", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestSampleCommand:
    def test_reproducible_samples(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", N=2, M=4, tau=1.0, n=1000, seed=7)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sample", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sample", "--config", cfg, "--out", str(out2)]) == 0
        rows = (out1 / "samples.csv").read_text().splitlines()
        assert len(rows) == 1001
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        manifest = json.loads((out1 / "samples_manifest.json").read_text())
        assert manifest["seed"] == 7

    @pytest.mark.parametrize("N,M", [(2, 4), (8, 32)])
    def test_max_mode_writes_the_sampler_values(self, tmp_path, N, M):
        cfg = write_config(tmp_path / "c.json", N=N, M=M, tau=1.0, n=500, seed=11)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "samples.csv").read_text().splitlines()
        lams = sample_wishart_max_eig(McConfig(11, 500, ModelParams(N, M, 1.0)))
        assert rows == ["lambda_max"] + [_fmt(v) for v in lams]

    def test_integral_float_counts_are_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", N=2, M=4, tau=1.0, n=3.0, seed=7.0)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len((tmp_path / "o" / "samples.csv").read_text().splitlines()) == 4

    def test_histogram_mode(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", N=4, M=16, tau=0.0, n=500,
                           seed=3, mode="hist", bins=20)
        out = tmp_path / "h"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "samples.csv")
        assert len(rows) == 20
        assert "mp_density_mid" in rows[0]
        assert float(rows[0]["bin_lo"]) == 0.0


class TestVerifyCommand:
    def test_unknown_suite(self):
        assert main(["verify", "nonsense"]) == 2

    def test_negative_seed_is_refused_by_a_seedless_suite(self, capsys):
        # derpar draws nothing, so only the seed check itself can refuse it
        assert main(["verify", "derpar", "--seed", "-1"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "seed" in err[0]

    @pytest.mark.parametrize("suite", SUITES)
    def test_the_report_names_each_suite_by_its_key(self, tmp_path, suite):
        report = tmp_path / "rep.json"
        assert main(["verify", suite, "--json", str(report)]) == 0
        assert [r["suite"] for r in json.loads(report.read_text())["reports"]] == [suite]

    def test_all_passes_the_seed_to_every_suite(self, monkeypatch):
        seen = []
        for name in SUITES:
            monkeypatch.setitem(SUITES, name, lambda seed=None, name=name: seen.append((name, seed)) or [])
        assert main(["verify", "all", "--seed", "17"]) == 0
        assert seen == [(name, 17) for name in SUITES]

    def test_named_suite_passes(self, tmp_path):
        report = tmp_path / "rep.json"
        assert main(["verify", "derpar", "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["reports"][0]["suite"] == "derpar"
        assert payload["reports"][0]["passed"] is True


class TestKernelDump:
    def test_grid_dump(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", N=4, M=8, tau=1.0,
                           t=[2.0, 1.0], grid={"lo": 0.5, "hi": 4.0, "n": 5})
        out = tmp_path / "k"
        assert main(["kernel-dump", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "kernel.csv")
        assert len(rows) == 25
        manifest = json.loads((out / "kernel_manifest.json").read_text())
        # the two kernel modes agree on the dumped grid
        scale = max(abs(float(r["s1_brute_re"])) for r in rows)
        assert manifest["max_mode_deviation"] < 1e-9 * max(scale, 1e-300)
