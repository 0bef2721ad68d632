"""CLI behavior: reproducible bytes, validation errors, file outputs."""

import json

import numpy as np
import pytest

from bibeta import cli
from bibeta.cli import main


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

        monkeypatch.setattr(cli, "joint_posterior", never)
        out = tmp_path / "missing" / "x"
        rc, stdout, err = run(capsys, "posterior", "--data", "10,4,3,5", "--prior-family", "an5",
                              "--prior-alphas", "5,5,5,5,1e-4", "--out", str(out))
        assert rc == 2
        assert stdout == ""
        assert len(err.strip().split("\n")) == 1
        assert str(tmp_path / "missing") in json.loads(err)["error"]


class TestGridTooLarge:
    @pytest.mark.parametrize("message", ["Unable to allocate 298. GiB for an array", ""])
    def test_memory_error_is_json(self, capsys, monkeypatch, message):
        """A grid too large to allocate exits 2 with one JSON line, not a traceback."""
        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "density_grid", too_large)
        rc, stdout, err = run(capsys, "density", "--family", "ol-minus", "--alphas", "10,2.5,5", "--m", "200000")
        assert rc == 2
        assert stdout == ""
        assert len(err.strip().split("\n")) == 1
        assert json.loads(err)["error"] == (message or "MemoryError")
