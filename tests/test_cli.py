import csv
import json

from wishart_lab.cli import main


def write_config(path, **kw):
    with open(path, "w") as fh:
        json.dump(kw, fh)
    return str(path)


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
        rows = list(csv.DictReader((out1 / "cdf.csv").open()))
        assert len(rows) == 3
        vals = [float(r["cdf"]) for r in rows]
        assert all(-1e-6 < v < 1 + 1e-6 for v in vals)
        assert vals == sorted(vals)
        assert all(float(r["cancellation_digits"]) >= 0.0 for r in rows)
        manifest = json.loads((out1 / "cdf_manifest.json").read_text())
        assert manifest["outputs"] == ["cdf.csv"]

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
        # each route underflows at its size (a known limitation: at (20, 80)
        # the Pfaffian anchor is exactly 0); the CLI must say so in one line,
        # not die with a traceback or write NaN
        for (N, M), route in (((12, 48), "fredholm"), ((20, 80), "pfaffian")):
            cfg = write_config(tmp_path / "c.json", N=N, M=M, tau=1.0, z=[2.0])
            code = main(["cdf", "--config", cfg, "--route", route,
                         "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == 3
            assert "Traceback" not in err and len(err.strip().splitlines()) == 1
            assert not (tmp_path / "cdf.csv").exists()

    def test_precision_loss_exits_3(self, tmp_path, capsys):
        # (8, 32, 2) loses about 15 digits to contour cancellation
        cfg = write_config(tmp_path / "c.json", N=8, M=32, tau=2.0, z=[2.0, 3.0])
        assert main(["cdf", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "PrecisionLossError" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "cdf.csv").exists()

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

    def test_histogram_mode(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", N=4, M=16, tau=0.0, n=500,
                           seed=3, mode="hist", bins=20)
        out = tmp_path / "h"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "samples.csv").open()))
        assert len(rows) == 20
        assert "mp_density_mid" in rows[0]
        assert float(rows[0]["bin_lo"]) == 0.0


class TestVerifyCommand:
    def test_unknown_suite(self):
        assert main(["verify", "nonsense"]) == 2

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
        rows = list(csv.DictReader((out / "kernel.csv").open()))
        assert len(rows) == 25
        manifest = json.loads((out / "kernel_manifest.json").read_text())
        # the two kernel modes agree on the dumped grid
        scale = max(abs(float(r["s1_brute_re"])) for r in rows)
        assert manifest["max_mode_deviation"] < 1e-9 * max(scale, 1e-300)
