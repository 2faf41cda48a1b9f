import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmqd
from gmqd.cli import main
from gmqd.output import CSV_HEADER

NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))
NEGATIVE = st.floats(max_value=-1e-12)
RATES = ("--rate-a", "--rate-b")

OUT_OF_DOMAIN_COMPUTE = st.one_of(
    st.tuples(
        st.sampled_from(("--b", "--c", "--gamma-a", "--gamma-b", "--time", *RATES)),
        NON_FINITE.map(repr),
    ),
    st.tuples(st.sampled_from(RATES), NEGATIVE.map(repr)),
    st.tuples(st.just("--oracle-restarts"), st.integers(max_value=0).map(str)),
)
OUT_OF_DOMAIN_SWEEP = st.one_of(
    st.tuples(st.sampled_from(("--b", "--c", "--t-max", *RATES)), NON_FINITE.map(repr)),
    st.tuples(st.sampled_from(("--t-max", *RATES)), NEGATIVE.map(repr)),
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_redirected(*argv):
    """Like run_cli, without the capsys fixture, which Hypothesis does not reset between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCompute:
    def test_multilocal_dephasing_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--b", "0.2", "--c", "0.1",
            "--channel", "dephasing", "--locality", "multi-local",
            "--gamma-a", "0.5", "--gamma-b", "0.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["d_closed"] == pytest.approx(0.00125, abs=1e-15)
        assert doc["d_numeric"] == pytest.approx(0.00125, abs=1e-8)
        assert doc["abs_err"] <= 1e-8
        assert doc["a"] == pytest.approx(0.15, abs=1e-15)
        assert doc["scenario"] == {"channel": "dephasing", "locality": "multi-local"}
        assert "seed" not in doc

    def test_degenerate_parameters_give_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--b", "0.25", "--c", "0.25",
            "--channel", "depolarizing", "--gamma-a", "0.3", "--gamma-b", "0.3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["d_closed"] == 0.0
        assert doc["d_numeric"] == pytest.approx(0.0, abs=1e-12)

    def test_unphysical_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--b", "0.5", "--c", "0.9")
        assert code == 2
        assert "gives a=" in err

    def test_time_flag_derives_strengths(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--b", "0.2", "--c", "0.1",
            "--time", "0.5", "--rate-a", "1.0", "--rate-b", "2.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma_a"] == pytest.approx(1 - np.exp(-0.5), abs=1e-15)
        assert doc["gamma_b"] == pytest.approx(1 - np.exp(-1.0), abs=1e-15)

    def test_time_conflicts_with_gammas(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--b", "0.2", "--c", "0.1",
            "--time", "0.5", "--gamma-a", "0.2",
        )
        assert code == 2
        assert "either" in err

    def test_oracle_field_optional(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--b", "0.2", "--c", "0.1",
            "--gamma-a", "0.2", "--gamma-b", "0.2",
            "--with-oracle", "--oracle-restarts", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["d_oracle"] == pytest.approx(doc["d_numeric"], abs=1e-8)

    def test_reports_clamp_and_degeneracy(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--b", "0.2", "--c", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert doc["clamped"] is False
        assert doc["argmax_degenerate"] is True
        assert (doc["argmax_theta"], doc["argmax_phi"]) == (0.0, 0.0)
        code, out, _ = run_cli(
            capsys, "compute", "--b", "0.2", "--c", "0.1",
            "--channel", "dephasing", "--gamma-a", "0.3", "--gamma-b", "0.3",
        )
        assert json.loads(out)["argmax_degenerate"] is False

    @settings(deadline=None)
    @given(bad=OUT_OF_DOMAIN_COMPUTE, timed=st.booleans())
    def test_out_of_domain_input_exits_2(self, bad, timed):
        # untimed, no rate is used; timed, --rate-b acts on the inactive side
        flag, value = bad
        values = {"--b": "0.2", "--c": "0.1"}
        if timed and flag not in ("--gamma-a", "--gamma-b"):
            values.update({"--locality": "qubit-only", "--time": "1.0"})
        values[flag] = value
        code, out, err = run_cli_redirected("compute", *(f"{k}={v}" for k, v in values.items()))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag", [("--a", "0.15"), ("--format", "json")], ids=["a", "format"])
    def test_removed_flags_exit_2(self, capsys, flag):
        # a follows from b and c, and JSON is compute's only format
        code, out, err = run_cli(capsys, "compute", "--b", "0.2", "--c", "0.1", *flag)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_derived_a_inside_the_weight_window_is_accepted(self, capsys):
        code, out, err = run_cli(capsys, "compute", "--b", "0.2", "--c", "0.4000000000015")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["a"] == pytest.approx(-7.5e-13, abs=1e-15)
        assert doc["d_numeric"] == pytest.approx(doc["d_closed"], abs=1e-12)

    def test_derived_a_outside_the_weight_window_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "compute", "--b", "0.2", "--c", "0.4000000000025")
        assert (code, out) == (2, "")
        assert err.startswith("error: 2a+3b+c=1 gives a=-1.25")

    def test_output_into_a_missing_directory_exits_3(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(capsys, "compute", "--b", "0.2", "--c", "0.1", "--output", str(target))
        assert (code, out) == (3, "")
        assert err.startswith("error:") and str(target) in err
        assert not target.parent.exists()


class TestSweep:
    def test_default_grid_row_count(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--b", "0.2", "--c", "0.1",
            "--channel", "depolarizing", "--locality", "multi-local",
            "--output", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        meta = [line for line in lines if line.startswith("#")]
        data = [line for line in lines if line and not line.startswith("#")]
        assert len(meta) == 2
        assert data[0] == CSV_HEADER
        assert len(data) == 1 + 101
        assert "seed=0" in meta[0]

    def test_phase_flip_endpoint_vanishes(self, capsys, tmp_path):
        out_file = tmp_path / "pf.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--b", "0.2", "--c", "0.1",
            "--channel", "phase-flip", "--locality", "multi-local",
            "--points", "11", "--output", str(out_file),
        )
        assert code == 0
        last = out_file.read_text().splitlines()[-1].split(",")
        assert abs(float(last[8])) <= 1e-12  # d_closed column

    def test_qutrit_trit_flip_endpoint_value(self, capsys, tmp_path):
        out_file = tmp_path / "tf.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--b", "0.2", "--c", "0.1",
            "--channel", "bit-flip", "--locality", "qutrit-only",
            "--points", "11", "--output", str(out_file),
        )
        assert code == 0
        last = out_file.read_text().splitlines()[-1].split(",")
        assert float(last[8]) == pytest.approx((0.1) ** 2 / 12.0, abs=1e-15)

    def test_gamma_axis_has_empty_time_column(self, capsys, tmp_path):
        out_file = tmp_path / "g.csv"
        run_cli(
            capsys, "sweep", "--b", "0.2", "--c", "0.1", "--points", "5",
            "--output", str(out_file),
        )
        for line in out_file.read_text().splitlines():
            if line.startswith("#") or line.startswith("t,"):
                continue
            assert line.startswith(",")

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        args = (
            "sweep", "--b", "0.2", "--c", "0.1", "--channel", "bit-phase-flip",
            "--locality", "multi-local", "--points", "7", "--seed", "5",
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *args, "--output", str(first))
        run_cli(capsys, *args, "--output", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--b", "0.2", "--c", "0.1", "--points", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert doc["channel"] == "dephasing"

    def test_csv_and_json_carry_the_same_sweep(self, capsys):
        args = (
            "sweep", "--b", "0.2", "--c", "0.1", "--channel", "bit-flip", "--axis", "time",
            "--coupling", "independent", "--rate-a", "0.7", "--rate-b", "1.9",
            "--points", "7", "--seed", "6",
        )
        _, csv_text, _ = run_cli(capsys, *args)
        _, json_text, _ = run_cli(capsys, *args, "--format", "json")
        doc = json.loads(json_text)
        json_rows = doc.pop("rows")

        comments = [line[2:] for line in csv_text.splitlines() if line.startswith("# ")]
        pairs = " ".join(comments).removeprefix("gmqd sweep ").split()
        csv_meta = dict(pair.split("=", 1) for pair in pairs)
        assert list(csv_meta) == list(doc)
        for key, value in doc.items():
            if isinstance(value, str):
                assert csv_meta[key] == value, key
            else:
                assert float(csv_meta[key]) == value, key

        csv_rows = list(csv.DictReader(line for line in csv_text.splitlines() if not line.startswith("#")))
        assert len(csv_rows) == len(json_rows) == 7
        for csv_row, json_row in zip(csv_rows, json_rows):
            for key, value in json_row.items():
                assert float(csv_row[key]) == value, key
            for key in ("channel", "locality"):
                assert csv_row[key] == doc[key]
            for key in ("b", "c"):
                assert float(csv_row[key]) == doc[key]
        # a time-axis row carries t, and the two rates give the sides distinct strengths
        assert json_rows[1]["t"] > 0.0 and json_rows[1]["gamma_a"] != json_rows[1]["gamma_b"]

    def test_time_axis_rows_ignore_coupling(self, capsys):
        args = (
            "sweep", "--b", "0.2", "--c", "0.1", "--axis", "time", "--rate-a", "0.7", "--rate-b", "1.9",
            "--points", "7", "--format", "json",
        )
        docs = {}
        for coupling in ("equal", "independent"):
            code, out, _ = run_cli(capsys, *args, "--coupling", coupling)
            assert code == 0
            docs[coupling] = json.loads(out)
        assert docs["equal"]["rows"] == docs["independent"]["rows"]
        assert docs["equal"]["coupling"] == "equal" and docs["independent"]["coupling"] == "independent"
        assert docs["equal"]["rows"][1]["gamma_a"] != docs["equal"]["rows"][1]["gamma_b"]

    def test_independent_surface_rows(self, capsys, tmp_path):
        out_file = tmp_path / "surface.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--b", "0.2", "--c", "0.1",
            "--coupling", "independent", "--points", "5", "--output", str(out_file),
        )
        assert code == 0
        data = [l for l in out_file.read_text().splitlines() if l and not l.startswith("#")]
        assert len(data) == 1 + 25

    @pytest.mark.parametrize("shape", [(), ("--coupling", "independent"), ("--axis", "time")],
                             ids=["gamma-line", "surface", "time-axis"])
    def test_negative_points_exit_2(self, capsys, shape):
        code, out, err = run_cli(capsys, "sweep", "--b", "0.2", "--c", "0.1", "--points", "-1", *shape)
        assert code == 2
        assert out == ""
        assert "grid point count must be >= 1, got -1" in err

    @pytest.mark.parametrize(
        "shape", [(), ("--coupling", "independent"), ("--axis", "time"), ("--format", "json")],
        ids=["gamma-line", "surface", "time-axis", "json"],
    )
    def test_negative_seed_exits_2(self, capsys, shape):
        # the seed only labels sweep output, and is held to verify's rule
        code, out, err = run_cli(
            capsys, "sweep", "--b", "0.2", "--c", "0.1", "--points", "2", "--seed", "-1", *shape,
        )
        assert code == 2
        assert out == ""
        assert "seed must be >= 0, got -1" in err

    @settings(deadline=None)
    @given(bad=OUT_OF_DOMAIN_SWEEP, axis=st.sampled_from(("gamma", "time")))
    def test_out_of_domain_input_exits_2(self, bad, axis):
        # on the gamma axis --t-max and the rates are unused, and still checked
        flag, value = bad
        values = {"--b": "0.2", "--c": "0.1", "--axis": axis, "--points": "3"}
        values[flag] = value
        code, out, err = run_cli_redirected("sweep", *(f"{k}={v}" for k, v in values.items()))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestConfigFile:
    def test_config_matches_explicit_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b 0.2\nc = 0.1\nchannel depolarizing\nlocality multi-local\npoints 5\n")
        from_cfg, explicit = tmp_path / "cfg.csv", tmp_path / "flags.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--output", str(from_cfg))
        assert code == 0
        run_cli(
            capsys, "sweep", "--b", "0.2", "--c", "0.1", "--channel", "depolarizing",
            "--locality", "multi-local", "--points", "5", "--output", str(explicit),
        )
        assert from_cfg.read_bytes() == explicit.read_bytes()

    def test_command_line_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b 0.2\nc 0.1\npoints 3\n")
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--points", "4", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["rows"]) == 4

    def test_non_utf8_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfeb 0.2\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "compute", "--b", "0.2", "--c", "0.1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(cfg) in err
        assert "Traceback" not in err

    def test_missing_config_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "nope.cfg"))
        assert code == 3
        assert "config" in err


    def test_blank_and_comment_lines_are_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# state\n\nb 0.2\n   \n  # the rest\nc 0.1\n")
        from_cfg = run_cli(capsys, "compute", "--config", str(cfg))
        assert from_cfg[0] == 0
        assert from_cfg == run_cli(capsys, "compute", "--b", "0.2", "--c", "0.1")

    def test_line_without_a_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b 0.2\n= 0.1\n")
        code, out, err = run_cli(capsys, "compute", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: bad config line: '= 0.1'\n"

    def test_config_flag_without_a_path_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "channels", "--config")
        assert (code, out, err) == (2, "", "error: --config needs a file path\n")

    def test_equals_form_matches_the_spaced_form(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b 0.2\nc 0.1\n")
        spaced = run_cli(capsys, "compute", "--config", str(cfg))
        assert spaced[0] == 0
        assert run_cli(capsys, "compute", f"--config={cfg}") == spaced

    @pytest.mark.parametrize("rest", [(), ("--c", "0.1", "compute")], ids=["nothing", "flag-first"])
    def test_config_before_anything_but_a_command_exits_2(self, capsys, tmp_path, rest):
        # the file's flags follow a command, so argparse never reads a config value as one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b 0.2\nc 0.1\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), *rest)
        assert (code, out) == (2, "")
        assert err == "error: --config needs a command to apply to: compute, sweep, verify or channels\n"


BAD_INPUT = {  # one rejected input per command that does work
    "compute": ("compute", "--b", "0.2", "--c", "nan"),
    "sweep": ("sweep", "--b", "0.5", "--c", "0.5", "--points", "3"),
    "verify": ("verify", "--quick", "--seed", "-1"),
}
GOOD_INPUT = {
    "compute": ("compute", "--b", "0.2", "--c", "0.1"),
    "sweep": ("sweep", "--b", "0.2", "--c", "0.1", "--points", "3"),
    "verify": ("verify", "--quick"),
}
WORK = {"compute": "apply_scenario", "sweep": "run_sweep", "verify": "run_verification"}


class TestOutputAfterInputsBeforeWork:
    @pytest.mark.parametrize("command", sorted(GOOD_INPUT))
    def test_unusable_output_fails_before_any_work(self, capsys, monkeypatch, tmp_path, command):
        def work(*args, **kwargs):
            raise AssertionError(f"{WORK[command]} ran before --output was opened")

        monkeypatch.setattr(gmqd.cli, WORK[command], work)
        target = tmp_path / "missing" / "out"
        code, out, err = run_cli(capsys, *GOOD_INPUT[command], "--output", str(target))
        assert (code, out) == (3, "")
        assert err.startswith("error:") and str(target) in err

    @pytest.mark.parametrize("earlier", [b"earlier run\n", None], ids=["existing-file", "new-path"])
    @pytest.mark.parametrize("command", sorted(BAD_INPUT))
    def test_rejected_input_leaves_the_output_path_as_it_was(self, capsys, tmp_path, command, earlier):
        target = tmp_path / "out"
        if earlier is not None:
            target.write_bytes(earlier)
        code, out, _ = run_cli(capsys, *BAD_INPUT[command], "--output", str(target))
        assert (code, out) == (2, "")
        assert (target.read_bytes() if target.exists() else None) == earlier


class TestOutputFile:
    @pytest.mark.parametrize("argv", [
        ("compute", "--b", "0.2", "--c", "0.1", "--gamma-a", "0.3", "--gamma-b", "0.6"),
        ("verify", "--quick"),
        ("channels", "--format", "json"),
        ("channels",),
        ("sweep", "--b", "0.2", "--c", "0.1", "--points", "5"),
        ("sweep", "--b", "0.2", "--c", "0.1", "--points", "5", "--format", "json"),
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv if not a[0].isdigit()))
    def test_file_bytes_equal_stdout_bytes(self, capsys, tmp_path, argv):
        code, stdout, _ = run_cli(capsys, *argv)
        target = tmp_path / "out"
        code_file, _, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == code_file == 0
        payload = target.read_bytes()
        assert payload.endswith(b"\n") and not payload.endswith(b"\n\n")
        # verify prints its check lines on stdout and writes only the report to the file
        assert stdout.encode().endswith(payload)


class TestChannelsCommand:
    def test_text_listing(self, capsys):
        code, out, _ = run_cli(capsys, "channels")
        assert code == 0
        for name in ("dephasing", "phase-flip", "bit-flip", "bit-phase-flip", "depolarizing"):
            assert name in out
        assert "multi-local" in out

    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "channels", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        counts = {entry["name"]: (entry["qubit_ops"], entry["qutrit_ops"]) for entry in doc["channels"]}
        assert counts["depolarizing"] == (4, 9)
        assert counts["bit-phase-flip"] == (2, 5)


class TestVerifyCommand:
    def test_quick_run_passes(self, capsys, tmp_path):
        report_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--quick", "--seed", "1", "--output", str(report_file),
        )
        assert code == 0
        assert "verification PASSED" in out
        report = json.loads(report_file.read_text())
        assert report["passed"] is True
        assert report["seed"] == 1
        assert all(check["points"] >= 1 for check in report["checks"])

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--quick", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be >= 0, got -1" in err

    def test_injected_fault_exits_1_and_names_check(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--quick", "--inject-fault")
        assert code == 1
        assert "coefficient-tables/bit-flip" in out
        assert "coefficient-tables/bit-flip" in err


class TestImport:
    def test_import_does_not_load_scipy(self):
        src = str(Path(gmqd.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        probe = "import sys, gmqd, gmqd.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestBadUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("--conf", "run.cfg", "channels"),
        ("--conf=run.cfg", "channels"),
        ("--b", "0.2", "compute", "--c", "0.1"),
        ("-x", "verify"),
    ], ids=["conf", "conf-equals", "command-flag", "short"])
    def test_an_option_before_the_command_is_named_as_unknown(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"gmqd: error: unrecognized arguments: {argv[0]}\n")
        assert "invalid choice" not in err

    def test_help_before_the_command_still_prints_help(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0 and "--config FILE" in out

    def test_missing_required_flag_exits_2(self, capsys):
        assert run_cli(capsys, "compute", "--b", "0.2")[0] == 2

    @pytest.mark.parametrize("command, removed", [("compute", ("--a ", "--format")), ("sweep", ("--a ",))])
    def test_help_omits_removed_flags(self, capsys, command, removed):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and "--b B" in out
        assert not any(flag in out for flag in removed)

    @pytest.mark.parametrize("argv, message", [
        (("sweep", "--b", "0.2", "--c", "0.1", "--a", "time"), "unrecognized arguments: --a time"),
        (("sweep", "--b", "0.2", "--c", "0.1", "--point", "3"), "unrecognized arguments: --point 3"),
        (("compute", "--b", "0.2", "--c", "0.1", "--with"), "unrecognized arguments: --with"),
        (("verify", "--qu"), "unrecognized arguments: --qu"),
        # --conf is no --config, and its value is not taken for the command
        (("--conf", "run.cfg", "channels"), "unrecognized arguments: --conf\n"),
    ], ids=["sweep-a", "sweep-point", "compute-with", "verify-qu", "conf"])
    def test_flag_prefixes_exit_2(self, capsys, argv, message):
        # a prefix is no abbreviation: --a once ran a time sweep as --axis
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err
