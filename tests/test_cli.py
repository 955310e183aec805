"""CLI tests: exit-code taxonomy, config round-trips, override rules, and
byte-exact CSV output against committed golden files."""

import configparser
import csv
import time
from pathlib import Path

import pytest

from encoder_sim import bias_tuner, cli, sim_engine
from encoder_sim.cli import (
    apply_overrides,
    build_encoder,
    load_config,
    main,
    serialize_config,
)
from encoder_sim.neuron import NeuronConfig, tau_m

REPO = Path(__file__).resolve().parent.parent
DEFAULT_INI = str(REPO / "configs" / "default.ini")
TRIANGLE_INI = str(REPO / "configs" / "triangle_1na.ini")
GOLDEN = Path(__file__).resolve().parent / "golden"


def as_dict(cp):
    return {name: dict(cp[name]) for name in cp.sections()}


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["bogus", "--config", DEFAULT_INI]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["dc-sweep", "--config", "/no/such/file.ini"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_override(self, capsys):
        code = main(["dc-sweep", "--config", DEFAULT_INI, "--set", "garbage"])
        assert code == 2
        assert "section.key=value" in capsys.readouterr().err

    def test_undeclared_override_key(self, capsys):
        code = main(
            ["dc-sweep", "--config", DEFAULT_INI, "--set", "neuron.bogus_key=1"]
        )
        assert code == 3
        assert "undeclared" in capsys.readouterr().err

    def test_invalid_config_value(self, capsys):
        code = main(
            [
                "dc-sweep",
                "--config",
                DEFAULT_INI,
                "--set",
                "transconductor.i_ref_a=-5e-9",
            ]
        )
        assert code == 3
        assert "invalid configuration" in capsys.readouterr().err

    def test_missing_experiment_section(self):
        # the triangle config declares no [dc-sweep] section
        assert main(["dc-sweep", "--config", TRIANGLE_INI, "--quiet"]) == 3

    def test_runtime_failure_from_poisoned_tune_box(self, tmp_path, capsys):
        # i_g bounds entirely above i_r make every candidate invalid
        code = main(
            [
                "tune",
                "--config",
                DEFAULT_INI,
                "--out",
                str(tmp_path / "t.csv"),
                "--set",
                "tune.variables=i_g",
                "--set",
                "tune.i_g_lo_a=1e-9",
                "--set",
                "tune.i_g_hi_a=2e-9",
                "--set",
                "tune.budget=5",
            ]
        )
        assert code == 4
        assert "runtime failure" in capsys.readouterr().err

    def test_overflowing_node_equation_is_saturation(self, tmp_path, capsys):
        # a 0.1 mV thermal voltage puts sinh of the +/-0.5 V bracket end
        # beyond a double's range
        code = main(
            [
                "dc-sweep",
                "--config",
                DEFAULT_INI,
                "--out",
                str(tmp_path / "d.csv"),
                "--set",
                "device.u_t_v=1e-4",
            ]
        )
        assert code == 3
        assert "overflows" in capsys.readouterr().err

    def test_node_root_outside_the_half_volt_bracket(self, tmp_path):
        # at n = 3 the node root for +/-0.5 V lies past 0.5 V/(2*n*u_t)
        code = main(
            [
                "dc-sweep",
                "--config",
                DEFAULT_INI,
                "--out",
                str(tmp_path / "d.csv"),
                "--quiet",
                "--set",
                "device.n=3",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("v", ["0.5", "-0.5"])
    def test_mirror_inputs_saturate_alike(self, tmp_path, capsys, v):
        code = main(
            [
                "transient",
                "--config",
                DEFAULT_INI,
                "--out",
                str(tmp_path / "t.csv"),
                "--set",
                "device.n=3",
                "--set",
                "device.u_t_v=2e-4",
                "--set",
                "transient.kind=dc",
                "--set",
                "transient.amplitude_v=0",
                "--set",
                f"transient.offset_v={v}",
            ]
        )
        assert code == 3
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("u_t, code", [("1e-4", 3), ("3e-4", 0)])
    def test_thermal_voltage_verdict_agrees(self, tmp_path, u_t, code):
        # At 0.1 mV the 0.5 V half-width overflows sinh, so no command can
        # solve the devices; at 0.3 mV only the +/-cap bracket ends do, and
        # every command solves on the narrow bracket.
        codes = [
            main(
                [cmd, "--config", DEFAULT_INI, "--out", str(tmp_path / f"{cmd}.csv"), "--quiet"]
                + ["--set", f"device.u_t_v={u_t}", "--set", "transient.t_end_s=1e-3"]
            )
            for cmd in ("dc-sweep", "transient", "vf-curve")
        ]
        assert codes == [code] * 3

    def test_transient_over_the_step_budget(self, tmp_path, capsys):
        # about 5.6e9 steps: refused before the first one, not run for hours
        start = time.perf_counter()
        code = main(
            [
                "transient",
                "--config",
                DEFAULT_INI,
                "--out",
                str(tmp_path / "t.csv"),
                "--set",
                "transient.t_end_s=1e3",
            ]
        )
        assert code == 4
        assert time.perf_counter() - start < 1.0
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()


class TestConfigHandling:
    def test_round_trip(self, tmp_path):
        cp = load_config(DEFAULT_INI)
        text = serialize_config(cp)
        clone = configparser.ConfigParser(interpolation=None)
        clone.read_string(text)
        assert as_dict(clone) == as_dict(cp)

    def test_override_wins_and_serializes(self):
        cp = load_config(DEFAULT_INI)
        apply_overrides(cp, ["transconductor.i_ref_a=2e-9"])
        assert cp["transconductor"]["i_ref_a"] == "2e-9"
        assert "i_ref_a = 2e-9" in serialize_config(cp)
        assert build_encoder(cp).transconductor.i_ref == 2e-9

    def test_voltage_bias_block_converts(self):
        enc = build_encoder(load_config(TRIANGLE_INI))
        assert enc.transconductor.i_ref == 1e-9
        assert enc.neuron.i_g == pytest.approx(8e-12, rel=1e-3)
        assert enc.neuron.i_r == pytest.approx(0.2e-9, rel=1e-3)
        assert enc.neuron.i_th == pytest.approx(10.4e-12, rel=1e-3)

    def test_voltage_and_current_bias_conflict(self):
        cp = load_config(TRIANGLE_INI)
        cp.set("neuron", "i_g_a", "1e-11")
        with pytest.raises(ValueError, match="both"):
            build_encoder(cp)

    def test_partial_voltage_trio_rejected(self):
        cp = load_config(TRIANGLE_INI)
        cp.remove_option("neuron", "v_th_v")
        with pytest.raises(ValueError, match="all of"):
            build_encoder(cp)

    def test_neuron_takes_n_and_u_t_from_device(self, tmp_path, monkeypatch):
        built = []
        run = cli.transient

        def spy(enc, *args, **kwargs):
            built.append(enc)
            return run(enc, *args, **kwargs)

        monkeypatch.setattr(cli, "transient", spy)
        args = ["transient", "--config", DEFAULT_INI, "--out", str(tmp_path / "t.csv")]
        args += ["--quiet", "--set", "transient.t_end_s=1e-4"]
        assert main(args + ["--set", "device.n=1.3", "--set", "device.u_t_v=0.03"]) == 0
        neuron = built[0].neuron
        assert (neuron.n, neuron.u_t) == (1.3, 0.03)
        assert tau_m(neuron) == tau_m(NeuronConfig(n=1.3, u_t=0.03))

    def test_neuron_device_conflict(self, tmp_path, capsys):
        ini = tmp_path / "shared.ini"
        text = Path(DEFAULT_INI).read_text()
        ini.write_text(text.replace("[neuron]\n", "[neuron]\nn = 1.2\nu_t_v = 0.025\n"))
        out = ["--out", str(tmp_path / "d.csv"), "--quiet"]
        # repeating the device values is allowed
        assert main(["dc-sweep", "--config", str(ini)] + out) == 0
        for key, value in (("n", 1.3), ("u_t_v", 0.03)):
            code = main(["dc-sweep", "--config", str(ini), "--set", f"device.{key}={value}"] + out)
            assert code == 3
            # the message names the config key
            assert f"neuron.{key} = " in capsys.readouterr().err

    def test_unknown_section_key_rejected(self):
        cp = load_config(DEFAULT_INI)
        cp.set("neuron", "mystery", "1")
        with pytest.raises(ValueError, match="unknown keys"):
            build_encoder(cp)


class TestCsvOutput:
    def test_dc_sweep_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["dc-sweep", "--config", DEFAULT_INI, "--out", str(out)]) == 0
        assert "effective gm" in capsys.readouterr().out
        lines = out.read_text().split("\n")
        assert lines[0] == "v_id_v,i_out_a"
        assert lines[-1] == ""  # trailing LF
        assert len(lines) == 103  # header + 101 rows + final newline
        v_mid, i_mid = lines[51].split(",")
        assert float(v_mid) == 0.0
        assert float(i_mid) == 0.0

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert (
                main(["dc-sweep", "--config", DEFAULT_INI, "--out", str(out), "--quiet"])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        assert main(["freq", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_transient_writes_trace_and_spikes(self, tmp_path, capsys):
        out = tmp_path / "tr.csv"
        code = main(["transient", "--config", DEFAULT_INI, "--out", str(out)])
        assert code == 0
        assert "spikes" in capsys.readouterr().out
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t_s,v_id_v,i_in_a,i_mem_a"
        assert len(lines) > 100
        spike_times = [
            float(x) for x in (tmp_path / "tr.spikes").read_text().split()
        ]
        assert len(spike_times) > 10
        assert all(b > a for a, b in zip(spike_times, spike_times[1:]))

    def test_pwl_transient_via_overrides(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(
            [
                "transient",
                "--config",
                DEFAULT_INI,
                "--out",
                str(out),
                "--quiet",
                "--set",
                "transient.kind=pwl",
                "--set",
                "transient.pwl_points=0:0.25; 2e-3:0.25",
                "--set",
                "transient.t_end_s=2e-3",
            ]
        )
        assert code == 0
        assert (tmp_path / "p.spikes").read_text().count("\n") > 5

    def test_power_csv(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["power", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "f_spike_hz,power_w"
        powers = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(powers, powers[1:]))


class TestGoldenFiles:
    def test_dc_sweep_matches_golden(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["dc-sweep", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == (GOLDEN / "dc_sweep_default.csv").read_bytes()

    def test_thd_matches_golden(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["thd", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == (GOLDEN / "thd_default.csv").read_bytes()

    def test_vf_curve_matches_golden(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["vf-curve", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == (GOLDEN / "vf_curve_default.csv").read_bytes()


class TestDcRunsBuildNoTable:
    def test_dc_commands(self, tmp_path, monkeypatch):
        def no_table(cfg):
            raise AssertionError("a dc run built a node-argument table")

        monkeypatch.setattr(sim_engine, "node_arg_table", no_table)
        common = ["--config", DEFAULT_INI, "--quiet"]
        dc_transient = [
            "transient",
            "--out",
            str(tmp_path / "t.csv"),
            "--set",
            "transient.kind=dc",
            "--set",
            "transient.amplitude_v=0",
            "--set",
            "transient.t_end_s=1e-3",
        ]
        assert main(dc_transient + common) == 0
        assert main(["vf-curve", "--out", str(tmp_path / "v.csv")] + common) == 0
        tune = ["tune", "--out", str(tmp_path / "u.csv")]
        tune += ["--set", "tune.variables=i_th", "--set", "tune.budget=6"]
        assert main(tune + common) == 0


class TestTuneCommand:
    def test_tune_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            [
                "tune",
                "--config",
                DEFAULT_INI,
                "--out",
                str(out),
                "--set",
                "tune.variables=i_th",
                "--set",
                "tune.i_th_lo_a=50e-12",
                "--set",
                "tune.i_th_hi_a=120e-12",
                "--set",
                "tune.budget=6",
            ]
        )
        assert code == 0
        assert "best objective" in capsys.readouterr().out
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "evaluation,i_th,objective"
        # header plus at most budget evaluations, at least the simplex
        assert 3 <= len(lines) - 1 <= 6

    @pytest.mark.parametrize("poisoned", [False, True])
    def test_failed_evaluations_file(self, tmp_path, capsys, monkeypatch, poisoned):
        def objective(encoder):
            i_th = encoder.neuron.i_th
            if poisoned and i_th > 85e-12:
                raise ValueError(f"poisoned at {i_th!r}, here")
            return (i_th - 80e-12) ** 2 / 1e-22

        monkeypatch.setitem(bias_tuner._OBJECTIVE_FNS, "linearity_error", objective)
        out = tmp_path / "t.csv"
        args = ["tune", "--config", DEFAULT_INI, "--out", str(out)]
        for key, value in (("variables", "i_th"), ("i_th_lo_a", "50e-12"), ("budget", "12")):
            args += ["--set", f"tune.{key}={value}"]
        assert main(args) == 0
        failed = tmp_path / "t.csv.failures"
        assert failed.exists() == poisoned
        if not poisoned:
            assert "evaluations failed" not in capsys.readouterr().out
            return
        rows = list(csv.reader(failed.open(encoding="utf-8")))
        trace = list(csv.reader(out.open(encoding="utf-8")))[1:]
        assert rows[0] == ["evaluation", "i_th", "reason"]
        assert len(rows) > 1
        # each row names an evaluation that scored inf, its point and reason
        for k, i_th, reason in rows[1:]:
            assert trace[int(k)][1:] == [i_th, "inf"]
            point = float(reason.removeprefix("ValueError('poisoned at ").removesuffix(", here')"))
            assert point == pytest.approx(float(i_th), rel=1e-8)
        assert sum(row[2] == "inf" for row in trace) == len(rows) - 1
        assert f"{len(rows) - 1} evaluations failed" in capsys.readouterr().out
