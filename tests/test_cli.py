"""CLI behavior: reproducible bytes, validation errors, file outputs."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibeta import cli, families, grids, inference
from bibeta.cli import main
from bibeta.sampling import BLOCK


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


class TestSample:
    def test_deterministic_bytes(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            rc, _, _ = run(
                capsys,
                "sample", "--family", "ol-minus", "--alphas", "10,2.5,5",
                "--n", "1000", "--seed", "7", "--out", str(out),
            )
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_column_means_near_two_thirds(self, capsys):
        rc, out, _ = run(
            capsys,
            "sample", "--family", "ol-minus", "--alphas", "10,2.5,5",
            "--n", "20000", "--seed", "7",
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["x", "y"]
        data = np.array(rows)
        assert abs(data[:, 0].mean() - 2 / 3) < 0.01
        assert abs(data[:, 1].mean() - 2 / 3) < 0.01

    def test_zero_rows_keeps_header(self, capsys):
        rc, out, _ = run(capsys, "sample", "--family", "ol-plus", "--alphas", "1,1,1", "--n", "0")
        assert rc == 0
        assert out == "x,y\n"

    def test_json_format_carries_meta(self, capsys):
        rc, out, _ = run(
            capsys,
            "sample", "--family", "an5", "--alphas", "5,5,5,5,0.0001",
            "--n", "3", "--seed", "9", "--format", "json",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["meta"]["seed"] == 9
        assert doc["meta"]["version"]
        assert len(doc["data"]["x"]) == 3

    def test_missing_family_is_validation_error(self, capsys):
        rc, _, err = run(capsys, "sample", "--n", "10")
        assert rc == 2
        assert "error" in json.loads(err.strip())


class TestDensity:
    def test_uniform_grid_all_ones(self, capsys):
        rc, out, _ = run(
            capsys,
            "density", "--family", "indep", "--alphas", "1,1,1,1", "--m", "10",
        )
        assert rc == 0
        _, rows = parse_csv(out)
        assert np.all(np.array(rows) == 1.0)

    def test_closed_form_grid_mass(self, capsys):
        rc, out, _ = run(
            capsys,
            "density", "--family", "ol-minus", "--alphas", "10,2.5,5", "--m", "100",
        )
        assert rc == 0
        _, rows = parse_csv(out)
        total = np.array(rows).sum()
        assert abs(total - 100 * 100) < 1e-4 * 100 * 100

    def test_estimated_grid_requires_enough_samples(self, capsys):
        rc, _, err = run(
            capsys,
            "density", "--family", "an5", "--alphas", "1,1,1,1,1", "--mc-samples", "5000",
        )
        assert rc == 2
        assert "n_samples" in json.loads(err.strip())["error"]

    def test_indep_json_metadata(self, capsys):
        rc, out, _ = run(
            capsys,
            "density", "--family", "indep", "--alphas", "2,3,1,4",
            "--m", "4", "--format", "json",
        )
        assert rc == 0
        meta = json.loads(out)["meta"]
        assert meta["variant"] == "indep"
        assert meta["alphas"] == [2.0, 3.0, 1.0, 4.0]
        assert not {"beta_x", "beta_y"} & set(meta)

    def test_infinite_beta_shape_rejected(self, capsys):
        rc, out, err = run(
            capsys, "density", "--family", "indep", "--alphas", "inf,1,1,1"
        )
        assert rc == 2
        assert out == ""
        assert len(err.strip().split("\n")) == 1
        assert "finite" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--family", "ol-plus", "--alphas", "1e-310,1e-310,1e-310", "--n", "2000", "--seed", "3"),
            ("density", "--family", "ol-plus", "--alphas", "1e306,1e306,1e306", "--m", "4"),
            ("density", "--family", "indep", "--alphas", "5e307,5e307,1,1"),
            ("posterior", "--prior-family", "ol-minus", "--prior-alphas", "1e305,1e305,1e305",
             "--data", "10,5,2,3", "--m", "10", "--out", "unused"),
        ],
        ids=["sample_subnormal", "density_huge", "indep_huge", "posterior_huge"],
    )
    def test_shape_out_of_range_is_json(self, capsys, argv):
        """Subnormal shapes wrote NaN pairs with exit 0; huge ones overflowed lgamma with a traceback."""
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert len(err.strip().split("\n")) == 1
        assert "shapes must be finite, 0 or in [1e-300, 1e+300]" in json.loads(err)["error"]


    def test_lost_node_weights_are_one_json_line(self):
        """Exact cells that cannot be computed exit 2 with one JSON line on stderr, not a
        RuntimeWarning before it; run in a fresh interpreter with default warnings.  Node weights
        are no longer lost at any shape; at shared shapes of 1e15 the rules still do not converge."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["density", "--family", "an8", "--alphas", "1e15,0,0,1e15,0,0,0,1e15", "--m", "4"]
        done = subprocess.run([sys.executable, "-m", "bibeta", *argv], env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert "an8(1e+15,0,0,1e+15,0,0,0,1e+15)" in json.loads(done.stderr)["error"]


class TestPosterior:
    def test_prior_recovery(self, capsys, tmp_path):
        out = tmp_path / "post"
        rc, _, _ = run(
            capsys,
            "posterior", "--data", "0,0,0,0",
            "--prior-family", "indep", "--prior-alphas", "10,5,5,2.5",
            "--m", "40", "--seed", "3", "--out", str(out),
        )
        assert rc == 0
        _, wrows = parse_csv((tmp_path / "post.weights.csv").read_text())
        weights = np.array(wrows)
        rc, dens_out, _ = run(
            capsys,
            "density", "--family", "indep", "--alphas", "10,5,5,2.5", "--m", "40",
        )
        _, drows = parse_csv(dens_out)
        cells = np.array(drows)
        assert np.allclose(weights, cells / (40 * 40), rtol=1e-10, atol=1e-15)
        summary = json.loads((tmp_path / "post.summary.json").read_text())
        assert summary["data"]["pi_posterior"] == [1.0, 1.0]

    def test_synthetic_run_emits_truth(self, capsys, tmp_path):
        out = tmp_path / "synth"
        rc, _, _ = run(
            capsys,
            "posterior", "--synth-n", "100",
            "--prior-family", "ol-minus", "--prior-alphas", "10,2.5,5",
            "--m", "50", "--seed", "11", "--out", str(out),
        )
        assert rc == 0
        summary = json.loads((tmp_path / "synth.summary.json").read_text())
        assert summary["data"]["true_eta"] == pytest.approx(0.7733726476, abs=1e-9)
        assert summary["data"]["data"]["n1"] == 35
        assert 0 < summary["data"]["mean_eta"] < 1
        for suffix in (".weights.csv", ".grid.json", ".marginal_eta.csv", ".marginal_theta.csv"):
            assert (tmp_path / f"synth{suffix}").exists()

    def test_out_prefix_required(self, capsys):
        rc, _, err = run(
            capsys,
            "posterior", "--data", "0,0,0,0",
            "--prior-family", "indep", "--prior-alphas", "1,1,1,1",
        )
        assert rc == 2
        assert "--out" in json.loads(err.strip())["error"]

    def test_inconsistent_counts_rejected(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            "posterior", "--data", "10,5,6,0",
            "--prior-family", "indep", "--prior-alphas", "1,1,1,1",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "inconsistent" in json.loads(err.strip())["error"]

    @pytest.mark.parametrize("data", ["inf,1,1,1", "nan,1,1,1"])
    def test_non_finite_counts_rejected(self, capsys, tmp_path, data):
        rc, out, err = run(
            capsys,
            "posterior", "--data", data,
            "--prior-family", "indep", "--prior-alphas", "1,1,1,1",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2
        assert out == ""
        assert len(err.strip().split("\n")) == 1
        assert "--data" in json.loads(err)["error"]

    def test_counts_above_two_to_the_53_are_exact(self, capsys, tmp_path):
        """A count is parsed as an integer, not rounded through a double."""
        out = tmp_path / "big"
        rc, _, _ = run(
            capsys,
            "posterior", "--data", "9007199254740993,3,1,0",
            "--prior-family", "indep", "--prior-alphas", "1,1,1,1",
            "--m", "10", "--out", str(out),
        )
        assert rc == 0
        summary = json.loads((tmp_path / "big.summary.json").read_text())["data"]
        assert summary["data"] == {"n": 2**53 + 1, "n1": 3, "k1": 1, "k2": 0}

    @pytest.mark.parametrize("data", ["1e3,10.,5,0", " 1_000 ,+10,5.0e0,0"])
    def test_integer_valued_float_forms_accepted(self, capsys, tmp_path, data):
        rc, _, err = run(
            capsys,
            "posterior", "--data", data,
            "--prior-family", "indep", "--prior-alphas", "1,1,1,1",
            "--m", "10", "--out", str(tmp_path / "x"),
        )
        assert rc == 0, err
        summary = json.loads((tmp_path / "x.summary.json").read_text())["data"]
        assert summary["data"] == {"n": 1000, "n1": 10, "k1": 5, "k2": 0}

    @pytest.mark.parametrize("data", ["9007199254740993.5,1,1,1", "1e-999,0,0,0", "2.5,1,1,1"])
    def test_fractional_counts_rejected(self, capsys, tmp_path, data):
        """Values a double would round to an integer are still not integers."""
        rc, _, err = run(
            capsys,
            "posterior", "--data", data,
            "--prior-family", "indep", "--prior-alphas", "1,1,1,1",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "four integers" in json.loads(err)["error"]

    def test_underflowing_variance_product_has_a_correlation(self, capsys, tmp_path):
        """Both posterior variances are positive (one is 5e-324) but their product underflows to 0.0:
        the correlation is still defined, where the run once ended in a ZeroDivisionError traceback."""
        out = tmp_path / "post"
        rc, _, err = run(
            capsys,
            "posterior", "--data", "42527,42455,1520,3",
            "--prior-family", "ol-minus", "--prior-alphas", "1,1,1",
            "--m", "18", "--out", str(out),
        )
        assert rc == 0, err
        summary = json.loads((tmp_path / "post.summary.json").read_text())["data"]
        assert summary["correlation"] == 0.0

    def test_indep_grid_json_metadata(self, capsys, tmp_path):
        out = tmp_path / "post"
        rc, _, _ = run(
            capsys,
            "posterior", "--data", "10,5,3,2",
            "--prior-family", "indep", "--prior-alphas", "2,3,1,4",
            "--m", "10", "--out", str(out),
        )
        assert rc == 0
        meta = json.loads((tmp_path / "post.grid.json").read_text())["meta"]
        assert meta["prior_variant"] == "indep"
        assert meta["prior_alphas"] == [2.0, 3.0, 1.0, 4.0]
        assert not {"prior_beta_eta", "prior_beta_theta"} & set(meta)


class TestTables:
    def test_table4_values(self, capsys):
        rc, out, _ = run(capsys, "tables", "--table", "4")
        assert rc == 0
        header, rows = parse_csv_with_labels(out)
        surv = [round(r["system_survivability"], 3) for r in rows]
        assert surv == [0.333, 0.600, 0.835, 0.846, 0.866]

    def test_seeded_reruns_identical(self, capsys):
        args = ("tables", "--table", "6", "--seed", "1")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_table_bytes_ignore_seed(self, capsys):
        """Tables 5 and 6 are exact, so the seed does not enter them."""
        for table in ("5", "6"):
            outs = {run(capsys, "tables", "--table", table, "--seed", seed)[1] for seed in ("1", "2")}
            assert len(outs) == 1

    def test_mc_samples_flag_removed(self, capsys):
        rc, _, err = run(capsys, "tables", "--table", "5", "--mc-samples", "1000")
        assert rc == 2
        assert "--mc-samples" in json.loads(err.strip())["error"]

    def test_table6_first_row_survivability(self, capsys):
        rc, out, _ = run(capsys, "tables", "--table", "6", "--seed", "1")
        assert rc == 0
        _, rows = parse_csv_with_labels(out)
        assert rows[0]["distribution"] == "B(10.1,10.1)"
        assert rows[0]["system_survivability"] == pytest.approx(0.255, abs=0.005)


def parse_csv_with_labels(text):
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for cells in reader:
        row = {}
        for key, val in zip(header, cells):
            try:
                row[key] = float(val)
            except ValueError:
                row[key] = val
        rows.append(row)
    return header, rows


class TestClosureCheck:
    def test_ol_plus_y_reports_ol_minus(self, capsys):
        rc, out, _ = run(
            capsys,
            "closure-check", "--family", "ol-plus", "--alphas", "3,3,1",
            "--which", "y", "--seed", "5",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["data"]["complement"] == "ol-minus(3,3,1)"
        assert doc["data"]["involution"] is True
        assert doc["data"]["oracle_passed"] is True

    @pytest.mark.parametrize("which", ["x", "y", "both"])
    def test_an8_on_ol_support_is_involution(self, capsys, which):
        """The double complement lowers to OL; it is the same law as the AN8 input."""
        rc, out, _ = run(
            capsys,
            "closure-check", "--family", "an8", "--alphas", "10,0,0,2.5,0,0,0,5",
            "--which", which, "--seed", "5",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["data"]["double_complement"] == "ol-minus(10,2.5,5)"
        assert doc["data"]["involution"] is True

    def test_an8_on_indep_support_complements_to_indep(self, capsys):
        rc, out, _ = run(
            capsys,
            "closure-check", "--family", "an8", "--alphas", "2,1,3,4,0,0,0,0",
            "--which", "x", "--seed", "5",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["data"]["complement"] == "indep(3,2,1,4)"
        assert doc["data"]["double_complement"] == "indep(2,3,1,4)"
        assert doc["data"]["involution"] is True
        assert doc["data"]["oracle_passed"] is True

    def test_closure_bytes_ignore_seed(self, capsys):
        """The oracle is exact, so neither --seed nor --stream enters the output."""
        base = ("closure-check", "--family", "an8", "--alphas", "1,2,3,0.5,1.5,2.5,0.7,1.2",
                "--which", "both")
        outs = {run(capsys, *base, *extra)[1] for extra in ((), ("--seed", "7"), ("--stream", "3"))}
        assert len(outs) == 1
        doc = json.loads(outs.pop())
        assert doc["data"]["oracle_passed"] is True
        assert not {"seed", "stream", "mc_samples"} & set(doc["meta"])
        for check in doc["data"]["oracle"].values():
            assert set(check) == {"complemented_original", "returned_spec", "tolerance"}

    def test_indep_meta_records_marginals(self, capsys):
        rc, out, _ = run(
            capsys,
            "closure-check", "--family", "indep", "--alphas", "2,3,1,4", "--which", "y",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["meta"]["alphas"] == "2,3,1,4"
        assert not {"beta1", "beta2"} & set(doc["meta"])
        assert doc["data"]["complement"] == "indep(2,3,4,1)"
        assert doc["data"]["oracle_passed"] is True

    def test_an5_reports_not_closed(self, capsys):
        rc, _, err = run(
            capsys, "closure-check", "--family", "an5", "--alphas", "1,1,1,1,1"
        )
        assert rc == 2
        assert "not closed" in json.loads(err.strip())["error"]


class TestConfigFile:
    def test_config_fills_unset_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "ol-plus", "alphas": "1,1,1", "n": 5, "seed": 42}))
        rc, out, _ = run(capsys, "sample", "--config", str(cfg))
        assert rc == 0
        assert len(out.strip().split("\n")) == 6

    def test_explicit_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "ol-plus", "alphas": "1,1,1", "n": 5, "seed": 42}))
        rc, out, _ = run(capsys, "sample", "--config", str(cfg), "--n", "2")
        assert rc == 0
        assert len(out.strip().split("\n")) == 3

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_flag": 1}))
        rc, _, err = run(capsys, "sample", "--config", str(cfg))
        assert rc == 2

    def test_config_values_pass_through_flag_types(self, capsys, tmp_path):
        # string-encoded numbers in the config go through argparse coercion
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "ol-plus", "alphas": "1,1,1", "n": "4", "seed": "3"}))
        rc, out, _ = run(capsys, "sample", "--config", str(cfg))
        assert rc == 0
        assert len(out.strip().split("\n")) == 5

    def test_config_supplies_required_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"table": 5}))
        rc, out, err = run(capsys, "tables", "--config", str(cfg))
        assert (rc, err) == (0, "")
        assert out == run(capsys, "tables", "--table", "5")[1]
        rc, out, _ = run(capsys, "tables", "--config", str(cfg), "--table", "4")
        assert rc == 0 and "analytic" in out


class TestUsageErrors:
    """argparse usage errors follow the JSON error contract: rc 2, one JSON line."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("sample", "--n", "abc"), "--n"),
            (("sample", "--family", "not-a-family"), "--family"),
            (("sample", "--family", "ol-plus", "--alphas", "1,1,1", "--no-such-flag"),
             "--no-such-flag"),
            (("tables", "--table", "4", "--format", "json"), "--format"),
            (("posterior", "--data", "0,0,0,0", "--prior-family", "indep", "--prior-alphas",
              "1,1,1,1", "--out", "unused", "--format", "json"), "--format"),
            (("closure-check", "--family", "ol-plus", "--alphas", "1,1,1", "--format", "json"),
             "--format"),
            (("closure-check", "--family", "ol-plus", "--alphas", "1,1,1", "--mc-samples", "1000"),
             "--mc-samples"),
            (("sample", "--family", "indep", "--beta1", "1,1"), "--beta1"),
            (("density", "--family", "indep", "--beta1", "1,1"), "--beta1"),
            (("closure-check", "--family", "indep", "--beta1", "1,1"), "--beta1"),
            (("posterior", "--data", "0,0,0,0", "--prior-family", "indep", "--prior-beta1", "1,1",
              "--out", "unused"), "--prior-beta1"),
            (("sample", "--family", "indep", "--alphas", "1,1,1"), "4 alphas"),
        ],
        ids=[
            "bad_int", "bad_choice", "unknown_flag",
            "format_on_tables", "format_on_posterior", "format_on_closure_check",
            "mc_samples_on_closure_check",
            "beta1_on_sample", "beta1_on_density", "beta1_on_closure_check",
            "prior_beta1_on_posterior", "indep_three_alphas",
        ],
    )
    def test_usage_error_is_json(self, capsys, argv, named):
        """The error names the offending flag, so a case cannot pass on an earlier error."""
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert len(err.strip().split("\n")) == 1
        assert named in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sample", "--family", "ol-plus", "--alphas", "1,x,1"), "could not parse --alphas '1,x,1'"),
            (("posterior", "--data", "100,35,27,39", "--prior-family", "indep", "--prior-alphas", "1,1,1,1",
              "--pi-prior", "1,2,3", "--out", "{tmp}/post"), "--pi-prior needs exactly two values a,b"),
            (("sample", "--family", "ol-plus"), "family 'ol-plus' needs --alphas"),
            (("sample", "--family", "ol-plus", "--alphas", "1,1,1", "--n", "-3"), "--n must be >= 0, got -3"),
            (("posterior", "--prior-family", "indep", "--prior-alphas", "1,1,1,1", "--out", "{tmp}/post"),
             "posterior needs either --data n,n1,k1,k2 or --synth-n"),
            (("tables", "--table", "4", "--config", "{tmp}/missing.json"), "could not read --config"),
            (("tables", "--table", "4", "--config", "{tmp}/list.json"),
             "--config must contain a JSON object of flag values"),
        ],
        ids=["unparsable_alphas", "three_value_pi_prior", "family_without_alphas", "negative_n",
             "posterior_without_data", "unreadable_config", "config_not_an_object"],
    )
    def test_validation_error_is_json(self, capsys, tmp_path, argv, message):
        """Checks made by the subcommands, not by argparse, follow the same contract."""
        (tmp_path / "list.json").write_text("[1, 2]")
        rc, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert (rc, out) == (2, "")
        assert len(err.strip().split("\n")) == 1
        assert message in json.loads(err)["error"]
        assert not list(tmp_path.glob("post*"))

    def test_bad_config_value_is_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "ol-plus", "alphas": "1,1,1", "n": "abc"}))
        rc, _, err = run(capsys, "sample", "--config", str(cfg))
        assert rc == 2
        assert "--n" in json.loads(err.strip())["error"]

    def test_format_config_key_rejected_where_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        rc, _, err = run(capsys, "tables", "--table", "4", "--config", str(cfg))
        assert rc == 2
        assert "'format'" in json.loads(err.strip())["error"]

    def test_version_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("bibeta ")


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--family", "ol-minus", "--alphas", "10,2.5,5", "--n", "10"),
            ("sample", "--family", "ol-minus", "--alphas", "10,2.5,5", "--n", "10", "--format", "json"),
            ("density", "--family", "indep", "--alphas", "1,1,1,1", "--m", "5"),
            ("posterior", "--data", "10,4,3,5", "--prior-family", "indep", "--prior-alphas", "1,1,1,1",
             "--m", "10"),
            ("tables", "--table", "4"),
            ("closure-check", "--family", "ol-plus", "--alphas", "1,1,1"),
        ],
        ids=["sample", "sample_json", "density", "posterior", "tables", "closure_check"],
    )
    def test_missing_directory_is_json_error(self, capsys, tmp_path, argv):
        """An --out that cannot be opened exits 2 with one JSON line naming the path, no traceback."""
        out = tmp_path / "missing" / "result"
        rc, stdout, err = run(capsys, *argv, "--out", str(out))
        assert rc == 2
        assert stdout == ""
        assert len(err.strip().split("\n")) == 1
        assert str(tmp_path / "missing") in json.loads(err)["error"]
        assert not (tmp_path / "missing").exists()

    def test_posterior_missing_directory_fails_before_computing(self, capsys, monkeypatch, tmp_path):
        """A posterior prefix in a missing directory is refused before the prior grid is built."""
        def never(*args, **kwargs):
            raise AssertionError("joint_posterior ran")

        monkeypatch.setattr(inference, "joint_posterior", never)  # the handler imports it when it runs
        out = tmp_path / "missing" / "x"
        rc, stdout, err = run(capsys, "posterior", "--data", "10,4,3,5", "--prior-family", "an5",
                              "--prior-alphas", "5,5,5,5,1e-4", "--out", str(out))
        assert rc == 2
        assert stdout == ""
        assert len(err.strip().split("\n")) == 1
        assert str(tmp_path / "missing") in json.loads(err)["error"]


    @pytest.mark.parametrize(
        "out",
        ["/nonexistent/dir/x", pytest.param("/dev/full", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full on this platform"))],
        ids=["missing_dir", "dev_full"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--family", "ol-minus", "--alphas", "10,2.5,5", "--n", str(BLOCK + 1)),
            ("density", "--family", "indep", "--alphas", "1,1,1,1", "--m", "5"),
            ("tables", "--table", "4"),
        ],
        ids=["sample_streamed", "density", "tables"],
    )
    def test_write_error_is_json(self, capsys, argv, out):
        """A path that cannot be opened, or a device that is full (ENOSPC arrives mid-stream for
        the streamed sample), exits 2 with one JSON line naming the path."""
        rc, stdout, err = run(capsys, *argv, "--out", out)
        assert rc == 2
        assert stdout == ""
        assert len(err.strip().split("\n")) == 1
        assert json.loads(err)["error"].startswith(f"could not write {out!r}")

    @pytest.mark.parametrize("n, read", [(100, 0), (40 * BLOCK, 50)])
    def test_closed_pipe_ends_sample_at_once(self, n, read):
        """A reader that closes stdout early gets exit 2 and one JSON line on stderr, also from a
        buffered stdout whose last flush would fail at exit, and the blocks not yet made are
        cancelled: 40 blocks end in a few seconds, not after all of them are formatted."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        argv = ["sample", "--family", "ol-minus", "--alphas", "10,2.5,5", "--n", str(n), "--out", "-"]
        with subprocess.Popen([sys.executable, "-m", "bibeta", *argv], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
            start = time.monotonic()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 2, err
            assert time.monotonic() - start < 4.0
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("could not write stdout")


class TestGridTooLarge:
    @pytest.mark.parametrize("message", ["Unable to allocate 298. GiB for an array", ""])
    def test_memory_error_is_json(self, capsys, monkeypatch, message):
        """A grid too large to allocate exits 2 with one JSON line, not a traceback."""
        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(grids, "density_grid", too_large)  # the handler imports it when it runs
        rc, stdout, err = run(capsys, "density", "--family", "ol-minus", "--alphas", "10,2.5,5", "--m", "200000")
        assert rc == 2
        assert stdout == ""
        assert len(err.strip().split("\n")) == 1
        assert json.loads(err)["error"] == (message or "MemoryError")


# Fixed runs and the sha256 of their output bytes (a posterior's five files in
# POSTERIOR_FILES order).  A change that alters output bytes on purpose updates
# the digests here and says why in CHANGES.md.
GOLDEN_RUNS = {
    "sample_ol_plus": (
        "sample --family ol-plus --alphas 3,1,1 --n 20000 --seed 7",
        "b74775a09950e8cdf2eb9c65ca405a1871baa14218aea902346779b580380c51",
    ),
    "sample_ol_minus": (
        "sample --family ol-minus --alphas 10,2.5,5 --n 20000 --seed 7",
        "67336808a51618fa999340a2d9f391a3f9f0d08da05616ac9db269a776a48e6d",
    ),
    "sample_ol_star": (
        "sample --family ol-star --alphas 2,5,0.5 --n 20000 --seed 7",
        "e95a9965180f2cd87661aa1163b834b0e13e98a86b5dfe1b3df3dc72df414ee3",
    ),
    "sample_indep": (
        "sample --family indep --alphas 2,3,4,1 --n 20000 --seed 7",
        "2f9baeda9b35a5631b428b54d079d6880b5c71af93a73d54e21cd040bfe9a6d3",
    ),
    "sample_an5": (
        "sample --family an5 --alphas 5,5,5,5,1e-4 --n 20000 --seed 7",
        "fbda77bbe9c401d2b131377ae0d777919148a15ee7023a4d920edfd90306f63a",
    ),
    "sample_an5_zeros": (
        "sample --family an5 --alphas 1e-4,2,0,0,0.05 --n 20000 --seed 7",
        "e104874863bb896a956f056e7200719abef0cb3d13a26faa28b4596b382931ca",
    ),
    "sample_an8": (
        "sample --family an8 --alphas 1,2,3,0.5,1.5,2.5,0.7,1.2 --n 20000 --seed 7",
        "1ae4954a44c259d021bca10c697b4704e565c75f0d762140a5061b3a9065933f",
    ),
    "density_ol_plus": (
        "density --family ol-plus --alphas 3,1,1 --m 30 --format json",
        "4b2ebbf952931b63c9514349de9e630bf95459fde653c2c8560b489f3f69f809",
    ),
    "density_an8_exact": (
        "density --family an8 --alphas 10,0,0,2.5,0,0,0,5 --m 30 --format json",
        "a90bdc2e6d60eac2526cefd76a166ba17367d01336adb99e972789640fc2d0c1",
    ),
    "density_an5_histogram": (
        "density --family an5 --alphas 5,5,5,5,1e-4 --m 30 --mc-samples 100000 --seed 7 --format json",
        "2d4e73e3a8b965ad37355d32abf441f023512c41f78cc62a500bba2e65638e51",
    ),
    "posterior_ol_minus": (
        "posterior --prior-family ol-minus --prior-alphas 10,2.5,5 --data 100,35,28,50 --m 40",
        "807ab5db54caa53edba4922358f7def9313eea19a72a5575c8f4901093793c4a",
    ),
    "posterior_an8_exact": (
        "posterior --prior-family an8 --prior-alphas 10,0,0,2.5,0,0,0,5 --data 100,35,28,50 --m 40",
        "423db2f63b577ae53e87f32471deeb75cba4f3b403ceea3182aa68f9808ee429",
    ),
    "posterior_an5_histogram": (
        "posterior --prior-family an5 --prior-alphas 5,5,5,5,1e-4 --data 100,35,28,50 --m 40 "
        "--mc-samples 100000 --seed 7",
        "675cf16bd17ef22af372468d66031b402e56d3d1c6872fd5912bb3e61f7dab19",
    ),
    # n=10^4: +0.0 outside rows 27-56 and columns 22-47 of the 60x60 weights
    "posterior_ol_minus_concentrated": (
        "posterior --prior-family ol-minus --prior-alphas 10,2.5,5 --data 10000,3500,2707,3891 --m 60",
        "7b90e12679704e775bc55021aeaaf736fe2e8482a3384654a5e994461bdfdf79",
    ),
    # +0.0 outside cells 15-24 on both axes of 40
    "density_ol_minus_concentrated": (
        "density --family ol-minus --alphas 1e4,1e4,1e4 --m 40 --format json",
        "c1fe457aa00e8ca1e98d269265c471fc4660b8359b99e74f91d57b353699c06c",
    ),
    "tables_4": (
        "tables --table 4",
        "c5579726c3ea0fa79b85b86bfe7e1d9d63d0ced8f26e4e49fca84ca78b5bdc9e",
    ),
    "tables_5": (
        "tables --table 5",
        "d7a25e3bb79305fdf2816d810908b5c1fcf4afd92c45599336db92dbe379df67",
    ),
    "tables_6": (
        "tables --table 6",
        "76f906e0431a689e602f0786b14e245f8aa587c4524391727a7a405488b1025e",
    ),
    # AN5 and AN8 histograms at benchmark scale, 10^6 pairs; the two *_an5_histogram runs bin 10^5
    "posterior_an5_histogram_1e6": (
        "posterior --prior-family an5 --prior-alphas 5,5,5,5,1e-4 --data 100,35,28,50 --m 100 "
        "--mc-samples 1000000 --seed 7",
        "70f769571104141a27936368d0e087e6b10eeb3613cc94dbb90f500b8e0ff1db",
    ),
    "density_an8_histogram_1e6": (
        "density --family an8 --alphas 1,2,3,0.5,1.5,2.5,0.7,1.2 --m 300 --mc-samples 1000000 --seed 3 --format json",
        "170f9e16855db147dad5c17e90b36a3dc310972800254be686300136f7b5b9bf",
    ),
    "closure_check_ol_star": (
        "closure-check --family ol-star --alphas 2,5,0.5 --which x",
        "001d1272dc6da8e16776af15ae95afe699619020fc8186ee2aa5f1aca3faa296",
    ),
}
POSTERIOR_FILES = ("weights.csv", "grid.json", "marginal_eta.csv", "marginal_theta.csv", "summary.json")


def golden_output(capsys, tmp_path, argv: str) -> bytes:
    out = tmp_path / "out"
    rc, _, err = run(capsys, *argv.split(), "--out", str(out))
    assert rc == 0, err
    if argv.startswith("posterior"):
        return b"".join((tmp_path / f"out.{suffix}").read_bytes() for suffix in POSTERIOR_FILES)
    return out.read_bytes()


class TestGoldenBytes:
    """Every subcommand's output bytes for fixed flags: sampling, closed forms, exact
    cells, histograms, posteriors, tables and complementation."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_output_digest(self, capsys, tmp_path, name):
        argv, digest = GOLDEN_RUNS[name]
        assert hashlib.sha256(golden_output(capsys, tmp_path, argv)).hexdigest() == digest


SHAPE_SCALES = (1e-4, 1.0, 1e6, 1e12)


@st.composite
def regime_argv(draw):
    """A sample, density or posterior run: any variant, each shape at one of SHAPE_SCALES (or 0 in AN5/AN8
    slots), posterior n of 0, 10^2 or 10^8 with any split, and m of 10 or 37."""
    variant = draw(st.sampled_from(sorted(families.VARIANTS)))
    scales = SHAPE_SCALES + ((0.0,) if variant in ("an5", "an8") else ())
    k = len(families.STRUCTURE[variant])
    alphas = ",".join(f"{a:g}" for a in draw(st.lists(st.sampled_from(scales), min_size=k, max_size=k)))
    command = draw(st.sampled_from(["sample", "density", "posterior"]))
    if command == "sample":
        return ["sample", "--family", variant, "--alphas", alphas, "--n", "300",
                "--format", draw(st.sampled_from(["csv", "json"]))]
    grid = ["--m", str(draw(st.sampled_from([10, 37]))), "--mc-samples", "10000"]
    if command == "density":
        return ["density", "--family", variant, "--alphas", alphas, *grid,
                "--format", draw(st.sampled_from(["csv", "json"]))]
    n = draw(st.sampled_from([0, 10**2, 10**8]))
    share = st.sampled_from([0, 1, 35, 99, 100])  # percent
    n1 = n * draw(share) // 100
    data = [n, n1, n1 * draw(share) // 100, (n - n1) * draw(share) // 100]
    return ["posterior", "--prior-family", variant, "--prior-alphas", alphas, *grid,
            "--data", ",".join(map(str, data))]


def numbers_in(text: str) -> list:
    """The numbers of a JSON document (NaN and the infinities as nan), or the cells of a CSV text that float reads."""
    numbers = []
    if text.startswith("{"):
        json.loads(text, parse_float=lambda v: numbers.append(float(v)),
                   parse_constant=lambda v: numbers.append(math.nan))
        return numbers
    for cell in text.replace("\n", ",").split(","):
        try:
            numbers.append(float(cell))
        except ValueError:  # a header name, or the empty text after the last newline
            pass
    return numbers


class TestRegimeMatrix:
    """Runs over every variant and extreme shape, data size and grid either write only finite numbers
    or exit 2 with one JSON line on stderr: never a traceback, never a NaN or an infinity in a file."""

    @settings(max_examples=100, deadline=None)
    @given(argv=regime_argv())
    def test_runs_write_finite_numbers_or_one_json_error(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv + ["--seed", "5", "--out", os.path.join(tmp, "out")])
            if rc == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
                return
            assert rc == 0 and err.getvalue() == ""
            for name in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, name)) as fh:
                    numbers = numbers_in(fh.read())
                assert numbers and all(map(math.isfinite, numbers)), name
