"""Command-line front-end: scenario parsing, CSV contracts, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fso_relay as fr
from fso_relay import cli, hop as hop_module

UNIT_SCENARIO = {
    "schema": 1,
    "hops": [{"mg": {"terms": [[1.0, 2.0, 1.0]]}, "xi_sq": 1.0, "A0": 1.0}],
    "protocols": ["df", "csi0", "csi1", "fixed"],
    "modulation": {"P": 0.5, "Q": 1.0},
    "gamma_th_db": 0.0,
    "sweep": {"start_db": 0.0, "stop_db": 0.0, "step_db": 5.0},
    "mc": {"samples": 120000, "seed": 1, "streams": 2},
}


@pytest.fixture
def unit_scenario(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(UNIT_SCENARIO))
    return str(path)


def write_scenario(tmp_path, **overrides):
    doc = dict(UNIT_SCENARIO)
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def rows_of(output: str):
    lines = output.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestFit:
    def test_mixture_on_stdout(self, capsys):
        assert cli.main(["fit", "--alpha", "4", "--beta", "2", "--L", "10"]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert len(doc["terms"]) == 10
        assert all(term[1] == 2.0 for term in doc["terms"])
        assert "max_rel_pdf_error=" in err

    def test_error_report_monotone_in_terms(self, capsys):
        def fit_err(L):
            cli.main(["fit", "--alpha", "4", "--beta", "2", "--L", str(L)])
            _, err = capsys.readouterr()
            return float(err.split("max_rel_pdf_error=")[1].split()[0])

        assert fit_err(1) > fit_err(10)

    def test_invalid_parameters_exit_2(self, capsys):
        assert cli.main(["fit", "--alpha", "0", "--beta", "2"]) == 2
        _, err = capsys.readouterr()
        assert "error" in err


class TestSweep:
    def test_unit_channel_df_row(self, unit_scenario, capsys):
        assert cli.main(["sweep", "--config", unit_scenario,
                         "--protocol", "df"]) == 0
        out, _ = capsys.readouterr()
        rows = rows_of(out)
        assert len(rows) == 1
        assert rows[0]["protocol"] == "df"
        assert float(rows[0]["outage"]) == pytest.approx(0.864664716763387,
                                                         rel=1e-9)
        assert float(rows[0]["aber"]) == pytest.approx(0.211324865405187,
                                                       rel=1e-9)
        assert rows[0]["method"] == "closed"
        assert rows[0]["bound_regime"] == "false"

    def test_protocol_ordering_every_row(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            hops=[{"alpha": 4, "beta": 2, "L": 10, "xi_sq": 1,
                   "r_over_wz": 0.1}],
            sweep={"start_db": 0.0, "stop_db": 30.0, "step_db": 10.0})
        assert cli.main(["sweep", "--config", path]) == 0
        out, _ = capsys.readouterr()
        rows = rows_of(out)
        by_point = {}
        for row in rows:
            by_point.setdefault(row["gamma_bar_db"], {})[row["protocol"]] = row
        assert len(by_point) == 4
        for point in by_point.values():
            assert float(point["df"]["outage"]) \
                <= float(point["csi0"]["outage"]) + 1e-12 \
                <= float(point["csi1"]["outage"]) + 2e-12
            assert float(point["df"]["aber"]) \
                <= float(point["csi0"]["aber"]) + 1e-12 \
                <= float(point["fixed"]["aber"]) + 2e-12

    def test_point_builds_each_hop_kernel_once(self, tmp_path, monkeypatch,
                                               capsys):
        """The four protocols' links of one point share its two hops, so
        the point builds two kernels, not one per hop and protocol."""
        built = []
        monkeypatch.setattr(hop_module, "auto_kernel",
                            lambda hop, build=hop_module.auto_kernel:
                            built.append(hop) or build(hop))
        spec = {"alpha": 4, "beta": 2, "L": 10, "xi_sq": 1, "r_over_wz": 0.1}
        path = write_scenario(
            tmp_path, hops=[spec, {**spec, "gamma_bar_offset_db": 3.0}],
            sweep={"start_db": 10.0, "stop_db": 10.0, "step_db": 5.0})
        assert cli.main(["sweep", "--config", path]) == 0
        assert len(built) == 2

    def test_empty_protocols_exit_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, protocols=[])
        assert cli.main(["sweep", "--config", path]) == 2

    def test_byte_identical_reruns(self, unit_scenario, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["sweep", "--config", unit_scenario, "--out", str(out1)])
        cli.main(["sweep", "--config", unit_scenario, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_stderr_reproducible_in_grid_order(self, tmp_path):
        # (8,6,1) fixed gain: the closed ABER's confluent U arguments include
        # ones where scipy's hyperu is non-finite; nothing reaches stderr
        path = write_scenario(
            tmp_path,
            hops=[{"alpha": 8, "beta": 6, "L": 10, "xi_sq": 1,
                   "r_over_wz": 0.1}],
            protocols=["fixed"],
            sweep={"start_db": 20.0, "stop_db": 30.0, "step_db": 10.0})
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        errs = [subprocess.run(
                    [sys.executable, "-m", "fso_relay.cli", "sweep",
                     "--config", path],
                    capture_output=True, env=env, check=True).stderr
                for _ in range(2)]
        assert errs == [b"", b""]

    def test_bound_regime_labeled(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            hops=[{"alpha": 4, "beta": 2, "L": 10, "xi_sq": 2,
                   "r_over_wz": 0.1}],
            protocols=["df"])
        assert cli.main(["sweep", "--config", path]) == 0
        out, _ = capsys.readouterr()
        assert rows_of(out)[0]["method"] == "bound"
        assert rows_of(out)[0]["bound_regime"] == "true"


class TestPointCommands:
    def test_pdf_values(self, unit_scenario, capsys):
        assert cli.main(["pdf", "--config", unit_scenario, "--hop", "1",
                         "--gamma-bar-db", "0", "--x-db", "0"]) == 0
        out, _ = capsys.readouterr()
        import math
        assert float(rows_of(out)[0]["pdf"]) == pytest.approx(math.exp(-1.0),
                                                              rel=1e-10)

    def test_cdf_range(self, unit_scenario, capsys):
        assert cli.main(["cdf", "--config", unit_scenario, "--protocol", "df",
                         "--gamma-bar-db", "0", "--x-db=-10:10:10"]) == 0
        out, _ = capsys.readouterr()
        rows = rows_of(out)
        assert len(rows) == 3
        vals = [float(r["cdf"]) for r in rows]
        assert vals == sorted(vals)

    def test_outage_threshold_override(self, unit_scenario, capsys):
        assert cli.main(["outage", "--config", unit_scenario,
                         "--protocol", "df", "--gamma-bar-db", "0",
                         "--gamma-th-db", "0"]) == 0
        out, _ = capsys.readouterr()
        assert float(rows_of(out)[0]["outage"]) == pytest.approx(
            0.864664716763387, rel=1e-9)

    def test_aber_command(self, unit_scenario, capsys):
        assert cli.main(["aber", "--config", unit_scenario,
                         "--protocol", "csi0", "--gamma-bar-db", "0"]) == 0
        out, _ = capsys.readouterr()
        assert float(rows_of(out)[0]["aber"]) == pytest.approx(
            0.243331153476390, rel=1e-8)


class TestCsvHeaders:
    @pytest.mark.parametrize("argv,header", [
        (["cdf", "--gamma-bar-db", "0", "--x-db", "0"],
         "protocol,x_db,cdf,method,bound_regime"),
        (["outage", "--gamma-bar-db", "0"],
         "gamma_bar_db,protocol,outage,method,bound_regime"),
        (["aber", "--gamma-bar-db", "0"],
         "gamma_bar_db,protocol,aber,method,bound_regime"),
        (["sweep"], "gamma_bar_db,protocol,outage,aber,method,bound_regime"),
        (["verify", "--samples", "10000"],
         "gamma_bar_db,protocol,metric,analytic,quadrature,mc,mc_std_err,"
         "mc_ci_low,mc_ci_high,method,bound_regime,passed"),
    ], ids=["cdf", "outage", "aber", "sweep", "verify"])
    def test_header_and_column_order(self, unit_scenario, capsys, argv, header):
        assert cli.main([argv[0], "--config", unit_scenario, "--protocol", "df",
                         *argv[1:]]) == 0
        out, _ = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == header
        assert len(lines) > 1
        assert all(len(line.split(",")) == len(header.split(","))
                   for line in lines[1:])


class TestFailureContext:
    """A numerical failure in any subcommand names its point and protocol."""

    @pytest.mark.parametrize("command,target", [
        (["aber", "--gamma-bar-db", "0"], "aber"),
        (["verify", "--samples", "10000"], "cdf_numeric"),
    ], ids=["aber", "verify"])
    def test_point_and_protocol_named(self, unit_scenario, monkeypatch, capsys,
                                      command, target):
        def boom(*args, **kwargs):
            raise fr.ConvergenceError("boom")

        monkeypatch.setattr(cli, target, boom)
        assert cli.main([command[0], "--config", unit_scenario,
                         "--protocol", "csi0", *command[1:]]) == 3
        _, err = capsys.readouterr()
        assert "at gamma_bar_db=0.0, protocol=csi0: boom" in err


class TestScenarioValidation:
    @pytest.mark.parametrize("patch", [
        {"schema": 2},
        {"hops": []},
        {"protocols": ["bogus"]},
        {"sweep": {"start_db": 10.0, "stop_db": 0.0, "step_db": 5.0}},
        {"sweep": {"start_db": 0.0, "stop_db": 10.0, "step_db": -1.0}},
        {"modulation": {"P": 0.5}},
        {"sweep": {"stop_db": 10.0, "step_db": 5.0}},
        {"hops": [{"mg": {}, "xi_sq": 1.0, "A0": 1.0}]},
        {"hops": [5]},
        {"mc": 5},
        {"mc": {"samples": None, "seed": 1}},
        {"protocols": 5},
        {"gamma_th_db": None},
        {"hops": [{"mg": {"terms": 5}, "xi_sq": 1.0, "A0": 1.0}]},
        {"hops": [{"mg": {"terms": [[1.0, 2.0, 1.0]]}, "xi_sq": None,
                   "A0": 1.0}]},
        {"sweep": {"start_db": 0.0, "stop_db": 0.0, "step_db": None}},
        {"sweep": {"start_db": 0.0, "stop_db": 30.0, "step_db": 1e-9}},
    ])
    def test_bad_configs_exit_2(self, tmp_path, patch, capsys):
        path = write_scenario(tmp_path, **patch)
        assert cli.main(["sweep", "--config", path]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv,patch", [
        (["outage", "--gamma-bar-db", "nan"], {}),
        (["outage", "--gamma-bar-db", "inf"], {}),
        (["outage", "--gamma-bar-db", "0", "--gamma-th-db", "nan"], {}),
        (["outage", "--gamma-bar-db", "0"], {"gamma_th_db": float("nan")}),
        (["sweep"], {"gamma_th_db": float("inf")}),
        (["cdf", "--gamma-bar-db", "0", "--x-db", "nan,inf"], {}),
        (["cdf", "--gamma-bar-db", "0", "--x-db", "0,nan"], {}),
        (["aber", "--gamma-bar-db", "0"],
         {"modulation": {"P": float("nan"), "Q": 1.0}}),
        (["sweep"], {"sweep": {"start_db": 0.0, "stop_db": float("inf")}}),
        (["outage", "--gamma-bar-db", "5000"], {}),
        (["cdf", "--gamma-bar-db", "0", "--x-db", "4000"], {}),
        (["pdf", "--gamma-bar-db", "0", "--x-db", "4000"], {}),
        (["outage", "--gamma-bar-db", "0", "--gamma-th-db", "4000"], {}),
        (["sweep"], {"gamma_th_db": 5000}),
        (["sweep"], {"hops": [{"mg": {"terms": [[1.0, 2.0, 1.0]]},
                               "xi_sq": 1.0, "A0": 1.0,
                               "gamma_bar_offset_db": 5000}]}),
        (["sweep"], {"sweep": {"start_db": 0.0, "stop_db": 5000}}),
    ], ids=["gamma-bar-nan", "gamma-bar-inf", "gamma-th-flag-nan",
            "gamma-th-json-nan", "gamma-th-json-inf", "x-db-nan-inf",
            "x-db-nan", "modulation-nan", "sweep-inf", "gamma-bar-overflow",
            "x-db-overflow", "pdf-x-db-overflow", "gamma-th-flag-overflow",
            "gamma-th-json-overflow", "offset-json-overflow",
            "sweep-overflow"])
    def test_non_finite_exit_2(self, tmp_path, argv, patch, capsys):
        """NaN, infinity and dB values whose linear value overflows, as
        flags or in the JSON, exit 2 with a message instead of reaching
        the numbers."""
        path = write_scenario(tmp_path, **patch)
        assert cli.main([argv[0], "--config", path, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv,patch,named", [
        (["outage", "--gamma-bar-db", "-4000"], {}, "--gamma-bar-db"),
        (["pdf", "--gamma-bar-db", "0", "--x-db", "-4000"], {}, "--x-db"),
        (["cdf", "--gamma-bar-db", "0", "--x-db", "-4000"], {}, "--x-db"),
        (["outage", "--gamma-bar-db", "0", "--gamma-th-db", "-4000"], {},
         "--gamma-th-db"),
        (["sweep"], {"gamma_th_db": -5000}, "gamma_th_db"),
        (["sweep"], {"sweep": {"start_db": -5000, "stop_db": 0.0}},
         "start_db"),
        (["sweep"], {"hops": [{"mg": {"terms": [[1.0, 2.0, 1.0]]},
                               "xi_sq": 1.0, "A0": 1.0,
                               "gamma_bar_offset_db": -5000}]}, "start_db"),
    ], ids=["gamma-bar", "pdf-x-db", "cdf-x-db", "gamma-th-flag",
            "gamma-th-json", "sweep-start", "offset-json"])
    def test_underflow_exit_2_naming_it(self, tmp_path, argv, patch, named,
                                        capsys):
        """A dB value whose linear value underflows to 0 exits 2 naming
        its option or key, instead of reaching the numbers as 0."""
        path = write_scenario(tmp_path, **patch)
        assert cli.main([argv[0], "--config", path, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and named in err

    @pytest.mark.parametrize("patch,key", [
        ({"hops": [{**UNIT_SCENARIO["hops"][0], "xi2": 2}]}, "xi2"),
        ({"gamma_th": 3}, "gamma_th"),
        ({"modulation": {"P": 0.5, "Q": 1.0, "M": 2}}, "M"),
        ({"sweep": {"start_db": 0.0, "stop_db": 0.0, "step": 5.0}}, "step"),
        ({"mc": {"samples": 120000, "seed": 1, "stream": 2}}, "stream"),
        ({"hops": [{**UNIT_SCENARIO["hops"][0],
                    "mg": {"terms": [[1.0, 2.0, 1.0]], "L": 1}}]}, "L"),
        ({"hops": [{**UNIT_SCENARIO["hops"][0], "alpha": 4, "beta": 2}]},
         "alpha"),
        ({"hops": [{"alpha": 4, "beta": 2, "L": True, "xi_sq": 1}]}, "L"),
        ({"hops": [{"alpha": 4, "beta": 2, "L": 10.7, "xi_sq": 1}]}, "L"),
        ({"mc": {"samples": 120000.5, "seed": 1}}, "samples"),
        ({"mc": {"samples": 120000, "seed": True}}, "seed"),
        ({"mc": {"samples": 120000, "seed": 1, "streams": 1.5}}, "streams"),
    ], ids=["hop-key", "top-key", "modulation-key", "sweep-key", "mc-key",
            "mg-key", "mg-and-alpha-beta", "L-bool", "L-fraction",
            "samples-fraction", "seed-bool", "streams-fraction"])
    def test_ignored_keys_and_values_exit_2_naming_them(self, tmp_path, patch,
                                                         key, capsys):
        """A key the parser would drop, or an integer field given as a
        boolean or a fraction, exits 2 naming the key instead of running
        with a default or a truncated value."""
        path = write_scenario(tmp_path, **patch)
        assert cli.main(["sweep", "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and key in err

    def test_integral_floats_and_documented_keys_accepted(self, tmp_path):
        hop = {**UNIT_SCENARIO["hops"][0], "gamma_bar_offset_db": 1.0}
        path = write_scenario(tmp_path, hops=[hop], fixed_gain=2.0,
                              mc={"samples": 2e5, "seed": 1.0, "streams": 2})
        scenario = cli.load_scenario(path)
        assert scenario.mc == {"samples": 200000, "seed": 1, "streams": 2}
        assert all(type(v) is int for v in scenario.mc.values())
        assert scenario.fixed.gain == 2.0
        assert scenario.hops[0].gamma_bar_offset_db == 1.0

    @pytest.mark.parametrize("mc", [5, {"samples": None, "seed": 1}])
    def test_bad_mc_block_exit_2_in_verify(self, tmp_path, mc, capsys):
        path = write_scenario(tmp_path, mc=mc)
        assert cli.main(["verify", "--config", path]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error: ")

    def test_grid_size_bounded(self):
        assert len(cli._grid(0.0, 9999.0, 1.0)) == 10_000
        with pytest.raises(cli.ScenarioError):
            cli._grid(0.0, 10_000.0, 1.0)

    def test_x_db_range_bounded(self, unit_scenario, capsys):
        # 0..30 dB in steps of 1e-9 would be a 3e10-point range
        started = time.perf_counter()
        assert cli.main(["cdf", "--config", unit_scenario, "--gamma-bar-db",
                         "0", "--x-db", "0:30:1e-9"]) == 2
        assert time.perf_counter() - started < 1.0
        _, err = capsys.readouterr()
        assert err.startswith("error: ")

    def test_unwritable_out_exit_2(self, unit_scenario, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        for argv in (["fit", "--alpha", "4", "--beta", "2"],
                     ["sweep", "--config", unit_scenario]):
            assert cli.main([*argv, "--out", str(out)]) == 2
            _, err = capsys.readouterr()
            assert err.startswith(f"error: cannot write {out}: ")
        assert not out.parent.exists()

    def test_unwritable_out_found_before_computing(self, unit_scenario,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        """verify checks --out before its first estimate; a directory is
        refused too."""
        def boom(*args):
            raise AssertionError("computed before checking --out")

        monkeypatch.setattr(cli, "estimate_outage", boom)
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert cli.main(["verify", "--config", unit_scenario,
                             "--out", str(out)]) == 2
            _, err = capsys.readouterr()
            assert err.startswith(f"error: cannot write {out}: ")

    def test_top_level_list_exit_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([UNIT_SCENARIO]))
        assert cli.main(["sweep", "--config", str(path)]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert cli.main(["sweep", "--config", "/nonexistent.json"]) == 2

    def test_hop_needs_channel_description(self, tmp_path):
        path = write_scenario(tmp_path, hops=[{"xi_sq": 1, "A0": 0.5}])
        assert cli.main(["sweep", "--config", path]) == 2


class TestVerify:
    def test_unit_scenario_passes(self, unit_scenario, capsys):
        assert cli.main(["verify", "--config", unit_scenario]) == 0
        out, err = capsys.readouterr()
        rows = rows_of(out)
        assert len(rows) == 8   # 4 protocols x 2 metrics x 1 grid point
        assert all(r["passed"] == "true" for r in rows)
        assert "8/8 checks passed" in err

    def test_byte_identical_across_runs_and_streams(self, tmp_path,
                                                    unit_scenario):
        outs = []
        for streams, name in ((1, "s1"), (4, "s4"), (16, "s16"), (1, "s1b")):
            doc = dict(UNIT_SCENARIO)
            doc["mc"] = {"samples": 120000, "seed": 1, "streams": streams}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"{name}.csv"
            assert cli.main(["verify", "--config", str(path),
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2] == outs[3]

    def test_bound_regime_one_sided(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            hops=[{"alpha": 4, "beta": 2, "L": 10, "xi_sq": 2,
                   "r_over_wz": 0.1}],
            protocols=["df"],
            sweep={"start_db": 10.0, "stop_db": 10.0, "step_db": 5.0},
            mc={"samples": 100000, "seed": 2})
        assert cli.main(["verify", "--config", path]) == 0
        out, _ = capsys.readouterr()
        rows = rows_of(out)
        for row in rows:
            assert row["bound_regime"] == "true"
            # one-sided acceptance: MC below the analytic upper bound
            assert float(row["mc"]) <= float(row["analytic"])

    def test_missing_mc_block_exit_2(self, tmp_path):
        doc = dict(UNIT_SCENARIO)
        del doc["mc"]
        path = tmp_path / "nomc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--config", str(path)]) == 2


class TestImport:
    def test_cli_import_leaves_out_scipy_integrate(self):
        """Every command pays for importing the CLI, and the package runs
        its own quadrature rule, so scipy.integrate is never loaded."""
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, fso_relay.cli; print(sorted(m for m in sys.modules"
                " if m.startswith('scipy.integrate')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True,
                             text=True).stdout
        assert out.strip() == "[]"
