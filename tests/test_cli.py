"""CLI tests: exit-code taxonomy, config round-trips, override rules, and
byte-exact CSV output against committed golden files."""

import ast
import configparser
import csv
import graphlib
import importlib
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from encoder_sim import bias_tuner, cli, sim_engine, transconductor
from encoder_sim.cli import (
    apply_overrides,
    build_encoder,
    load_config,
    main,
)
from encoder_sim.device_model import DeviceParams
from encoder_sim.neuron import NeuronConfig, tau_m
from encoder_sim.sim_engine import EncoderConfig, SolverConfig, Waveform
from encoder_sim.transconductor import TransconductorConfig

REPO = Path(__file__).resolve().parent.parent
DEFAULT_INI = str(REPO / "configs" / "default.ini")
TRIANGLE_INI = str(REPO / "configs" / "triangle_1na.ini")
GOLDEN = Path(__file__).resolve().parent / "golden"


def as_dict(cp):
    return {name: dict(cp[name]) for name in cp.sections()}


def shipped_keys() -> list[tuple[str, str, str]]:
    """(section, key, value) of every key that ``configs/default.ini`` sets."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    cp.read(DEFAULT_INI, encoding="utf-8")
    return [(section, key, cp[section][key]) for section in cp.sections() for key in cp[section]]


COMMANDS = ("dc-sweep", "thd", "transient", "vf-curve", "freq", "power", "tune")

# The sections that default.ini leaves out, each spelled out with valid values;
# a test sets one of their keys in a copy of default.ini that declares them.
UNSHIPPED = {
    "encoder": {"input_pole_capacitance_f": "2e-11"},
    "solver": {"dt_s": "1e-7", "event_tol_s": "1e-9"},
}


def declaring(section: str, tmp_path: Path) -> Path:
    """A copy of ``configs/default.ini`` that also declares an UNSHIPPED section."""
    path = tmp_path / f"{section}.ini"
    body = "".join(f"{key} = {value}\n" for key, value in UNSHIPPED[section].items())
    path.write_text(Path(DEFAULT_INI).read_text() + f"\n[{section}]\n{body}")
    return path


def written(cp, tmp_path: Path) -> Path:
    """cp written out by configparser, as a config file."""
    path = tmp_path / "written.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return path


class TestExitCodes:
    @given(
        command=st.sampled_from(COMMANDS),
        key=st.sampled_from(
            shipped_keys()
            + [(s, k, v) for s, section in UNSHIPPED.items() for k, v in section.items()]
        ),
        value=st.sampled_from([None, "0", "-1", "1e300", "1e-300", "nan", "inf", "garbage"]),
    )
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_every_key_and_value_exits_by_the_contract(self, tmp_path_factory, command, key, value):
        # one --set of a config key, at its valid value (None) or a hostile one
        section, name, shipped = key
        tmp = tmp_path_factory.mktemp("fuzz")
        config = declaring(section, tmp) if section in UNSHIPPED else DEFAULT_INI
        out = tmp / "o.csv"
        args = [command, "--config", str(config), "--out", str(out), "--quiet"]
        args += ["--set", f"{section}.{name}={shipped if value is None else value}"]
        if (section, name) != ("transient", "t_end_s"):
            args += ["--set", "transient.t_end_s=1e-4"]
        assert main(args) in (0, 2, 3, 4)

    @pytest.mark.parametrize(
        "section, key",
        [
            *[(s, "n_points") for s in ("dc-sweep", "vf-curve")],
            *[("thd", k) for k in ("points_per_period", "n_harmonics")],
            ("power", "k_static"),
            ("transient", "trace_every"),
            *[("tune", k) for k in ("budget", "seed")],
        ],
    )
    def test_a_400_digit_integer_exits_by_the_contract(self, tmp_path, section, key):
        # every integer key: grid and sample counts past the trace budget and
        # a k_static past the largest double are refused before any allocation
        refused = {"n_points", "points_per_period", "n_harmonics", "k_static"}
        args = [section, "--config", DEFAULT_INI, "--out", str(tmp_path / "o.csv"), "--quiet"]
        args += ["--set", f"{section}.{key}={'9' * 400}", "--set", "transient.t_end_s=1e-4"]
        assert main(args) == (3 if key in refused else 0)

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus", "--config", DEFAULT_INI]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["dc-sweep", "--config", "/no/such/file.ini"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        ini = tmp_path / "latin1.ini"
        ini.write_bytes(Path(DEFAULT_INI).read_bytes() + b"# \xff\n")
        assert main(["dc-sweep", "--config", str(ini), "--out", str(tmp_path / "o.csv")]) == 2
        assert "config parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_output_path(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
        assert main(["freq", "--config", DEFAULT_INI, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("name", ["x.spikes", "/"])
    def test_transient_out_that_is_its_own_spike_list(self, tmp_path, capsys, name):
        # refused before the run: x.spikes would be overwritten by its spike
        # list, and "/" has no name to give the spike list a suffix
        out = tmp_path / name
        args = ["transient", "--config", DEFAULT_INI, "--out", str(out)]
        assert main(args + ["--set", "transient.t_end_s=1e-4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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

    def test_negative_tune_seed(self, tmp_path, capsys):
        args = ["tune", "--config", DEFAULT_INI, "--out", str(tmp_path / "t.csv")]
        assert main(args + ["--set", "tune.seed=-1"]) == 3
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

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
        # a 0.1 mV thermal voltage puts the half-width 0.5 V/(2*n*u_t)
        # beyond the range of sinh
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
        # at n = 3 and 0.2 mV the input argument at 0.5 V, 833.3, is past
        # sinh's range: a dc run there and a sine that reaches it, whose
        # drive table spans +/-0.5 V, give the same refusal
        def run(*sets):
            args = ["transient", "--config", DEFAULT_INI, "--out", str(tmp_path / "t.csv")]
            for item in ("device.n=3", "device.u_t_v=2e-4") + sets:
                args += ["--set", item]
            return main(args), capsys.readouterr().err

        dc = run("transient.kind=dc", f"transient.offset_v={v}")
        sine = run(
            f"transient.offset_v={float(v) / 2}",
            "transient.amplitude_v=0.25",
            "transient.t_end_s=1e-4",
        )
        assert dc[0] == 3
        assert "overflows at the input argument 833.3" in dc[1]
        assert sine == dc

    @pytest.mark.parametrize(
        "device",
        [
            ("device.n=3", "device.u_t_v=2e-4"),  # input argument 833.3 at 0.5 V
            ("device.u_t_v=1e-4",),  # half-width 2083
            ("device.n=1.000000000001", "device.u_t_v=1.7e293"),  # too narrow to tabulate
        ],
        ids=["input-argument", "half-width", "narrow"],
    )
    def test_one_verdict_for_a_device_out_of_range(self, tmp_path, capsys, device):
        # the device's range is judged once, when the transconductor config
        # is built, so every command refuses it with one message, and so
        # does a dc transient whose bias is well inside the supply
        sets = [arg for item in device for arg in ("--set", item)]
        dc = ["--set", "transient.kind=dc", "--set", "transient.offset_v=0.3"]
        verdicts = set()
        for command, extra in [(c, []) for c in COMMANDS] + [("transient", dc)]:
            args = [command, "--config", DEFAULT_INI, "--out", str(tmp_path / "o.csv"), "--quiet"]
            code = main(args + sets + extra)
            verdicts.add((code, capsys.readouterr().err))
        assert len(verdicts) == 1
        code, err = verdicts.pop()
        assert code == 3
        refusal = r"invalid configuration: (node equation overflows|input argument) .*\n"
        assert re.fullmatch(refusal, err)

    @pytest.mark.parametrize("u_t, code", [("1e-4", 3), ("3e-4", 0)])
    def test_thermal_voltage_verdict_agrees(self, tmp_path, u_t, code):
        # At 0.1 mV the 0.5 V half-width overflows sinh, so no command can
        # solve the devices; at 0.3 mV it does not, and every command
        # solves them.
        codes = [
            main(
                [cmd, "--config", DEFAULT_INI, "--out", str(tmp_path / f"{cmd}.csv"), "--quiet"]
                + ["--set", f"device.u_t_v={u_t}", "--set", "transient.t_end_s=1e-3"]
            )
            for cmd in ("dc-sweep", "transient", "vf-curve")
        ]
        assert codes == [code] * 3

    @pytest.mark.parametrize(
        "command, config", [("dc-sweep", DEFAULT_INI), ("transient", TRIANGLE_INI)]
    )
    def test_tiny_drive_ratio_solves(self, tmp_path, command, config):
        # the node root near 1e-300 takes about 1,050 halvings to close, in
        # the scalar solve of dc-sweep and in the drive table of transient
        args = [command, "--config", config, "--out", str(tmp_path / "o.csv"), "--quiet"]
        assert main(args + ["--set", "transconductor.drive_ratio=1e-300"]) == 0

    def test_dc_transient_ignores_the_amplitude(self, tmp_path):
        # a dc input reads only its offset: the shipped 0.15 V amplitude
        # does not push a 0.4 V bias past the supply
        args = ["transient", "--config", DEFAULT_INI, "--quiet"]
        args += ["--set", "transient.kind=dc", "--set", "transient.offset_v=0.4"]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        zero = ["--set", "transient.amplitude_v=0", "--out", str(tmp_path / "z.csv")]
        assert main(args + zero) == 0
        for suffix in (".csv", ".spikes"):
            a, z = (tmp_path / (name + suffix) for name in ("a", "z"))
            assert a.read_bytes() == z.read_bytes()

    def test_unused_pwl_points_are_not_parsed(self, tmp_path):
        # only a pwl input reads pwl_points, so the shipped sine runs past garbage
        args = ["transient", "--config", DEFAULT_INI, "--out", str(tmp_path / "s.csv")]
        args += ["--quiet", "--set", "transient.pwl_points=garbage"]
        assert main(args + ["--set", "transient.t_end_s=1e-4"]) == 0
        assert main(args + ["--set", "transient.kind=pwl"]) == 3

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

    def test_vf_curve_window_too_long_to_count(self, tmp_path, capsys):
        # the closed-form count's rounding bound overflows to inf
        out = tmp_path / "v.csv"
        args = ["vf-curve", "--config", DEFAULT_INI, "--out", str(out)]
        assert main(args + ["--set", "vf-curve.measure_time_s=1e300"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and err.count("\n") == 1
        assert "too long" in err
        assert not out.exists()

    @pytest.mark.parametrize("n_points, fitted", [(3, 1), (4, 2)])
    def test_vf_curve_with_too_few_fitted_points(self, tmp_path, capsys, n_points, fitted):
        # one or two grid points in the 0.1-0.4 V window fix a line but no deviation
        out = tmp_path / "v.csv"
        args = ["vf-curve", "--config", DEFAULT_INI, "--out", str(out)]
        assert main(args + ["--set", f"vf-curve.n_points={n_points}"]) == 3
        err = capsys.readouterr().err
        assert f"needs 3 fitted in-window points, got {fitted}" in err
        assert not out.exists()
        assert main(args + ["--set", "vf-curve.n_points=5", "--quiet"]) == 0

    @pytest.mark.parametrize("top", ["0.6", "1e300", "inf"])
    def test_vf_curve_window_past_the_grid(self, tmp_path, capsys, top):
        # the deviation is normalized by the fit at the window top, which
        # past the 0.5 V grid end is an extrapolation
        out = tmp_path / "v.csv"
        args = ["vf-curve", "--config", DEFAULT_INI, "--out", str(out)]
        assert main(args + ["--set", f"vf-curve.window_hi_v={top}"]) == 3
        assert "lies past the last grid point 0.5 V" in capsys.readouterr().err
        assert not out.exists()

    def test_freq_past_weak_inversion(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        args = ["freq", "--config", DEFAULT_INI, "--out", str(out)]
        assert main(args + ["--set", "transconductor.i_ref_a=1e300"]) == 3
        assert "small-signal figures overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_power_past_weak_inversion(self, tmp_path, capsys):
        # 3.5e300 W is a double, but not in nW
        out = tmp_path / "p.csv"
        args = ["power", "--config", DEFAULT_INI, "--out", str(out)]
        assert main(args + ["--set", "transconductor.i_ref_a=1e300"]) == 3
        assert "power 3.5e+300 W at 0.0 Hz overflows in nW" in capsys.readouterr().err
        assert not out.exists()

    def test_tune_variable_that_is_not_tunable(self, tmp_path, capsys):
        args = ["tune", "--config", DEFAULT_INI, "--out", str(tmp_path / "t.csv")]
        assert main(args + ["--set", "tune.variables=0"]) == 3
        assert "tune.variables names '0', not one of" in capsys.readouterr().err

    def test_event_tol_too_fine_to_bisect_to(self, tmp_path, capsys):
        # a crossing's bisection cannot shrink below a few ulps of the step
        args = ["transient", "--config", str(declaring("solver", tmp_path))]
        args += ["--out", str(tmp_path / "t.csv"), "--set", "solver.event_tol_s=1e-300"]
        assert main(args + ["--set", "transient.t_end_s=1e-4"]) == 3
        assert "event_tol must be at least dt" in capsys.readouterr().err

    def test_refractory_too_many_steps_to_count(self, tmp_path, capsys):
        # t_rf/dt overflows a double in the dc count: exit 4, not a traceback
        args = ["vf-curve", "--config", str(declaring("solver", tmp_path))]
        args += ["--out", str(tmp_path / "v.csv"), "--set", "solver.dt_s=1e-9"]
        args += ["--set", "solver.event_tol_s=1e-10"]
        assert main(args + ["--set", "neuron.t_rf_s=1e300"]) == 4
        assert "too many steps to count" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_checks_the_solver(self, command, tmp_path, capsys):
        args = [command, "--config", str(declaring("solver", tmp_path))]
        args += ["--out", str(tmp_path / "o.csv"), "--set", "solver.dt_s=garbage"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "tune reads no [solver]" in err if command == "tune" else "'garbage'" in err
        assert not (tmp_path / "o.csv").exists()

    def test_tune_refuses_a_solver_section(self, tmp_path, capsys):
        # its evaluations never read one, so a valid [solver] would change nothing
        args = ["tune", "--config", str(declaring("solver", tmp_path))]
        assert main(args + ["--out", str(tmp_path / "t.csv")]) == 3
        err = capsys.readouterr().err
        assert "tune reads no [solver] section: each evaluation steps at tau_m/100 of" in err
        assert "within 1 ns..1 us" in err
        assert not (tmp_path / "t.csv").exists()

    def test_power_summary_has_bounded_width(self, tmp_path, capsys):
        args = ["power", "--config", DEFAULT_INI, "--out", str(tmp_path / "p.csv")]
        assert main(args + ["--set", "power.f_spikes_hz=1e300"]) == 0
        assert "power: 1.75e+296..1.75e+296 nW over 1 spike rates" in capsys.readouterr().out

    def test_input_pole_past_the_rk4_stability_limit(self, tmp_path, capsys):
        # omega*dt = 2.9 at the default dt: refused before the first step
        ini = tmp_path / "pole.ini"
        pole = "\n[encoder]\ninput_pole_capacitance_f = 3.956e-16\n"
        ini.write_text(Path(DEFAULT_INI).read_text() + pole)
        code = main(["transient", "--config", str(ini), "--out", str(tmp_path / "t.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert "input_pole_capacitance" in err and "dt = " in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["transient", "vf-curve"])
    def test_membrane_leak_past_the_rk4_stability_limit(self, tmp_path, capsys, command):
        # tau_m = 60 ps under the 1 ns step floor: RK4 would throw the
        # membrane into its zero trap state and report a silent neuron
        out = tmp_path / "o.csv"
        args = [command, "--config", DEFAULT_INI, "--out", str(out)]
        args += ["--set", "neuron.c_m_f=1e-18", "--set", "transient.t_end_s=1e-4"]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: tau_m = 6e-11 s") and err.count("\n") == 1
        assert "past RK4's stability limit" in err
        assert not out.exists()

    @pytest.mark.parametrize("frequency", ["1e300", "5.56e6"])
    def test_periodic_input_faster_than_the_step(self, tmp_path, capsys, frequency):
        # fewer than two steps a period would sample another input
        out = tmp_path / "t.csv"
        args = ["transient", "--config", DEFAULT_INI, "--out", str(out)]
        assert main(args + ["--set", f"transient.frequency_hz={frequency}"]) == 4
        err = capsys.readouterr().err
        assert "fewer than two steps a period" in err and err.count("\n") == 1
        assert not out.exists()


class TestConfigHandling:
    def test_round_trip(self, tmp_path):
        cp = load_config(DEFAULT_INI)
        assert as_dict(load_config(written(cp, tmp_path))) == as_dict(cp)

    def test_override_wins_and_serializes(self, tmp_path):
        cp = load_config(DEFAULT_INI)
        apply_overrides(cp, ["transconductor.i_ref_a=2e-9"])
        assert cp["transconductor"]["i_ref_a"] == "2e-9"
        assert load_config(written(cp, tmp_path))["transconductor"]["i_ref_a"] == "2e-9"
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
        enc = built[0]
        assert enc.neuron.dev is enc.transconductor.dev
        assert tau_m(enc.neuron) == 1.3 * 0.03 * enc.neuron.c_m / enc.neuron.i_r

    def test_unknown_section_key_rejected(self):
        cp = load_config(DEFAULT_INI)
        cp.set("neuron", "mystery", "1")
        with pytest.raises(ValueError, match="unknown keys"):
            build_encoder(cp)

    @pytest.mark.parametrize(
        "section, key, command",
        [
            # no code reads a linearity tolerance
            ("transconductor", "epsilon", "freq"),
            # the bias devices size themselves, so a device-wide ratio set nothing
            ("device", "w_over_l", "freq"),
            # the node equation is solved in normalized units, so no output
            # read the branch scale
            ("transconductor", "mirror_to_branch", "freq"),
            # the saturated DPI gain is i_g/i_r, below 1 since i_g < i_r
            ("neuron", "gain_convention", "freq"),
            # the transfer is memoryless, so one period holds every harmonic
            ("thd", "n_periods", "thd"),
            # the neuron's devices are [device]'s, so a copy could only repeat it
            ("neuron", "n", "freq"),
            ("neuron", "u_t_v", "freq"),
        ],
    )
    def test_a_removed_key_is_unknown(self, tmp_path, capsys, section, key, command):
        cp = load_config(DEFAULT_INI)
        cp.set(section, key, "1")
        args = [command, "--config", str(written(cp, tmp_path)), "--out", str(tmp_path / "o.csv")]
        assert main(args) == 3
        assert f"unknown keys [{key!r}]" in capsys.readouterr().err


# the INI keys of each config class's section, spelled out: the keys derived
# from the classes must be exactly these
CONFIG_KEYS = {
    "device": (DeviceParams, {"i_spec_a", "n", "u_t_v", "v_t0_v"}),
    "transconductor": (
        TransconductorConfig,
        {"i_ref_a", "mirror_to_output", "drive_ratio", "node_shunt_ratio"},
    ),
    "neuron": (
        NeuronConfig,
        {
            "c_m_f",
            "i_g_a",
            "i_r_a",
            "i_th_a",
            "i_reset_a",
            "t_rf_s",
            "mode",
            "i_pf_gain",
        },
    ),
    "encoder": (EncoderConfig, {"input_pole_capacitance_f"}),
    "solver": (SolverConfig, {"dt_s", "event_tol_s"}),
    "transient": (Waveform, {"kind", "amplitude_v", "offset_v", "frequency_hz"}),
}
# a valid value of every key, unlike its default, and the value its field reads
KEY_VALUES = {
    "i_spec_a": ("2e-7", 2e-7),
    "u_t_v": ("0.026", 0.026),
    "v_t0_v": ("0.3", 0.3),
    "i_ref_a": ("4e-9", 4e-9),
    "mirror_to_output": ("0.4", 0.4),
    "drive_ratio": ("5", 5.0),
    "node_shunt_ratio": ("0.5", 0.5),
    "c_m_f": ("1e-12", 1e-12),
    "i_g_a": ("20e-12", 20e-12),
    "i_r_a": ("0.6e-9", 0.6e-9),
    "i_th_a": ("80e-12", 80e-12),
    "i_reset_a": ("2e-12", 2e-12),
    "t_rf_s": ("10e-6", 10e-6),
    "n": ("1.3", 1.3),
    "mode": (" linear ", "linear"),
    "i_pf_gain": ("0.5", 0.5),
    "input_pole_capacitance_f": ("3e-11", 3e-11),
    "dt_s": ("2e-7", 2e-7),
    "event_tol_s": ("2e-9", 2e-9),
    "kind": (" triangle ", "triangle"),
    "amplitude_v": ("0.1", 0.1),
    "offset_v": ("0.2", 0.2),
    "frequency_hz": ("1e3", 1e3),
}


def configured(cp, section: str):
    """The config object that section [section] of cp sets."""
    if section == "solver":
        return cli._build_solver(cp)
    if section == "transient":
        return cli._build_waveform(cp)[0]
    enc = build_encoder(cp)
    return {
        "device": enc.transconductor.dev,
        "transconductor": enc.transconductor,
        "neuron": enc.neuron,
        "encoder": enc,
    }[section]


class TestDerivedKeys:
    def test_every_field_is_a_key_or_a_nested_config(self):
        nested = {}
        for cls, _ in CONFIG_KEYS.values():
            fields = cls.__annotations__
            keyed = set(cli._keys(cls).values())
            nested.update({f: kind for f, kind in fields.items() if f not in keyed})
        # a field of any other annotation would be dropped from its section;
        # a pwl input's breakpoints are read from the pwl_points key
        assert nested == {
            "dev": "DeviceParams",
            "transconductor": "TransconductorConfig",
            "neuron": "NeuronConfig",
            "breakpoints": "tuple[tuple[float, float], ...]",
        }

    def test_readme_unit_table_is_units(self):
        # the table under the README's "stated once in `cli._UNITS`" lists
        # exactly each suffix's fields
        text = (REPO / "README.md").read_text(encoding="utf-8")
        table = re.split(r"The\s+units,\s+stated\s+once\s+in\s+`cli\._UNITS`:\n\n", text)[1]
        rows = re.findall(r"^\| `_(\w+)` \| \w+ \| (.*) \|$", table.split("\n\n")[0], re.M)
        listed = {unit: set(re.findall(r"`(\w+)`", fields)) for unit, fields in rows}
        units = {}
        for field, unit in cli._UNITS.items():
            units.setdefault(unit, set()).add(field)
        assert len(rows) == len(listed)
        assert listed == units

    @pytest.mark.parametrize("section", CONFIG_KEYS)
    def test_key_set_is_unchanged(self, section):
        cls, keys = CONFIG_KEYS[section]
        assert set(cli._keys(cls)) == keys

    @pytest.mark.parametrize(
        "section, key", [(s, k) for s, (_, keys) in CONFIG_KEYS.items() for k in sorted(keys)]
    )
    def test_each_key_reaches_its_field(self, section, key):
        cls, _ = CONFIG_KEYS[section]
        cp = load_config(DEFAULT_INI)
        if section in UNSHIPPED:
            cp.read_dict({section: UNSHIPPED[section]})
        raw, value = KEY_VALUES[key]
        cp.set(section, key, raw)
        assert getattr(configured(cp, section), cli._keys(cls)[key]) == value


def changed(value: str) -> str:
    """A shipped INI value changed: a number times 1.1, or 0.1 where it is 0; a text flipped."""
    flipped = {"nonlinear": "linear", "linear": "nonlinear"}
    if value in flipped:
        return flipped[value]
    return repr(float(value) * 1.1 or 0.1)


# The shipped keys that move no output byte, each behind a gate the config
# leaves shut: [device] i_spec_a and v_t0_v are read only to turn the [neuron]
# voltage trio into currents.
GATED = {
    DEFAULT_INI: ["device.i_spec_a", "device.v_t0_v"],
    TRIANGLE_INI: [],
}


class TestKeyEffect:
    @pytest.mark.parametrize(
        "config, run",
        [
            (DEFAULT_INI, []),
            # half the triangle's period still fires enough to show every key
            (TRIANGLE_INI, ["--set", "transient.t_end_s=10e-3"]),
        ],
        ids=["default.ini", "triangle_1na.ini"],
    )
    def test_every_key_moves_an_output_unless_gated(self, tmp_path, capsys, config, run):
        # a key that changes no output file, stderr line or exit code of any
        # command simulates nothing; tune is left out for its run time
        def outcome(command, sets):
            for path in tmp_path.glob("o.*"):
                path.unlink()
            args = [command, "--config", config, "--out", str(tmp_path / "o.csv"), "--quiet"]
            code = main(args + run + sets)
            files = sorted((path.name, path.read_bytes()) for path in tmp_path.glob("o.*"))
            return code, capsys.readouterr().err, files

        commands = ("dc-sweep", "freq", "power", "thd", "vf-curve", "transient")
        shipped = {command: outcome(command, []) for command in commands}
        cp = load_config(config)
        inert = []
        for section in ("device", "transconductor", "neuron"):
            for key, value in cp[section].items():
                sets = ["--set", f"{section}.{key}={changed(value)}"]
                # all() stops at the first command that moves
                if all(outcome(command, sets) == shipped[command] for command in commands):
                    inert.append(f"{section}.{key}")
        assert inert == GATED[config]


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
        # a pwl input reads only its breakpoints: amplitude and offset past
        # the supply do not refuse it
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
                "--set",
                "transient.amplitude_v=0.4",
                "--set",
                "transient.offset_v=0.4",
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


def one_shot_csv(header, rows) -> bytes:
    """A CSV formatted in one piece, each float cell with ``format(x, ".8e")``."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else format(c, ".8e") for c in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


class TestChunkedWriter:
    """Files are written ``_CSV_CHUNK_ROWS`` lines at a time, with one-shot bytes."""

    CHUNK = cli._CSV_CHUNK_ROWS
    HEADER = ("t_s", "v_id_v", "i_in_a", "i_mem_a")

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_float_rows(self, tmp_path, n):
        cells = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0)
        rows = [(k * 1e-7, cells[k % 6], -cells[(k + 1) % 6], k + 0.5) for k in range(n)]
        trace = sim_engine.Trace(array("d", [x for row in rows for x in row]))
        for given_rows in (rows, trace):
            cli._write_csv(tmp_path / "t.csv", self.HEADER, given_rows)
            assert (tmp_path / "t.csv").read_bytes() == one_shot_csv(self.HEADER, rows)

    @pytest.mark.parametrize("n", [0, 1, CHUNK, CHUNK + 1])
    def test_str_cells(self, tmp_path, n):
        rows = [(str(k), k * 0.25, '"a ""b"""', -k * 1e300) for k in range(n)]
        header = ("evaluation", "x", "reason", "objective")
        cli._write_csv(tmp_path / "s.csv", header, rows)
        assert (tmp_path / "s.csv").read_bytes() == one_shot_csv(header, rows)

    @pytest.mark.parametrize("n", [0, 1, CHUNK, CHUNK + 1])
    def test_spike_lines(self, tmp_path, n):
        times = tuple(k * 1.25e-5 + 1e-9 for k in range(n))
        cli._write_lines(tmp_path / "x.spikes", map("%.8e".__mod__, times))
        want = "".join(format(t, ".8e") + "\n" for t in times).encode("ascii")
        assert (tmp_path / "x.spikes").read_bytes() == want

    def test_dense_transient_holds_few_bytes_a_row(self, tmp_path):
        # 8,902 trace rows; the trace takes 32 bytes a row and the writer a
        # chunk, where tuples and a one-shot CSV took about 400
        out = tmp_path / "dense.csv"
        argv = ["transient", "--config", TRIANGLE_INI, "--out", str(out), "--quiet"]
        argv += ["--set", "transient.trace_every=1", "--set", "transient.t_end_s=4e-3"]
        assert main(argv) == 0  # warm: imports, kernels and the drive table
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = out.read_bytes().count(b"\n") - 1
        assert rows == 8902
        assert peak < 128 * rows


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

    def test_freq_matches_golden(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["freq", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == (GOLDEN / "freq_default.csv").read_bytes()

    def test_power_matches_golden(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["power", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == (GOLDEN / "power_default.csv").read_bytes()

    def test_transient_matches_golden(self, tmp_path):
        out = tmp_path / "g.csv"
        args = ["transient", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]
        assert main(args + ["--set", "transient.t_end_s=1e-3"]) == 0
        assert out.read_bytes() == (GOLDEN / "transient_default.csv").read_bytes()
        spikes = out.with_suffix(".spikes").read_bytes()
        assert spikes == (GOLDEN / "transient_default.spikes").read_bytes()

    def test_tune_matches_golden(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["tune", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == (GOLDEN / "tune_default.csv").read_bytes()

    def test_summary_lines_match_golden(self, tmp_path, capsys):
        # each command's stdout on default.ini, with the transient golden's
        # t_end and the output directory written as OUT
        printed = []
        for command in COMMANDS:
            args = [command, "--config", DEFAULT_INI, "--out", str(tmp_path / f"{command}.csv")]
            if command == "transient":
                args += ["--set", "transient.t_end_s=1e-3"]
            assert main(args) == 0
            printed.append(capsys.readouterr().out.replace(str(tmp_path), "OUT"))
        assert "".join(printed) == (GOLDEN / "summaries_default.txt").read_text()


class TestThdEvenHarmonics:
    def test_are_projection_noise(self, tmp_path):
        # the transfer is odd, so a sine drive has no even harmonics; the
        # even cells hold only the rounding of the Fourier projections
        out = tmp_path / "t.csv"
        assert main(["thd", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        amps = {int(k): float(a) for k, a in rows}
        even = [amps[k] for k in amps if k % 2 == 0]
        assert len(even) == 5
        assert max(even) < 1e-12 * amps[1]


class TestGrid:
    @given(
        lo=st.floats(-1.0, 1.0),
        span=st.floats(0.0, 2.0, exclude_min=True),
        n=st.integers(2, 300),
    )
    @example(lo=0.0, span=1e-323, n=5)  # a subnormal step rounds to 0
    @example(lo=-0.0, span=0.5, n=2)
    @example(lo=-0.5, span=1.0, n=101)
    def test_is_linspace_bit_for_bit(self, lo, span, n):
        hi = lo + span
        if not hi > lo:
            return
        want = np.linspace(lo, hi, n).tolist()
        assert [v.hex() for v in cli._grid(lo, hi, n)] == [v.hex() for v in want]

    def test_refuses_more_points_than_the_trace_budget(self, monkeypatch):
        assert cli._TRACE_BUDGET == sim_engine._TRACE_BUDGET == 2**20
        monkeypatch.setattr(cli, "_TRACE_BUDGET", 8)
        assert len(cli._grid(0.0, 1.0, 8)) == 8
        for n in (9, 10**400):
            with pytest.raises(ValueError, match="n_points must be in 2..8"):
                cli._grid(0.0, 1.0, n)


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

    @pytest.mark.parametrize("unit, code", [("s", 0), ("a", 3)])
    def test_t_rf_bounds_are_in_seconds(self, tmp_path, unit, code):
        # t_rf's bound keys end in _s, the currents' in _a
        ini = tmp_path / "trf.ini"
        bounds = f"t_rf_lo_{unit} = 10e-6\nt_rf_hi_{unit} = 30e-6\n"
        bounds += "i_ref_lo_a = 4e-9\ni_ref_hi_a = 9e-9\n"
        text = Path(DEFAULT_INI).read_text().replace("i_g_lo_a", bounds + "i_g_lo_a")
        ini.write_text(text)
        sets = ["--set", "tune.variables=t_rf, i_ref", "--set", "tune.budget=7"]
        out = tmp_path / "t.csv"
        assert main(["tune", "--config", str(ini), "--out", str(out), "--quiet"] + sets) == code
        if code == 0:
            assert out.read_text().split("\n")[0] == "evaluation,i_ref,t_rf,objective"

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
        failed = tmp_path / "t.csv.failures"
        failed.write_text("a list left by an earlier search\n")
        assert main(args) == 0
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

    def test_a_search_leaves_no_file_of_an_earlier_one(self, tmp_path, capsys):
        out, failed = tmp_path / "t.csv", tmp_path / "t.csv.failures"
        args = ["tune", "--config", DEFAULT_INI, "--out", str(out), "--quiet"]
        args += ["--set", "tune.i_g_hi_a=2e-9"]
        assert main(args + ["--set", "tune.budget=13"]) == 0
        assert out.exists() and failed.exists()
        # a search in which every evaluation fails
        for key, value in (("variables", "i_g"), ("i_g_lo_a", "1e-9"), ("budget", "5")):
            args += ["--set", f"tune.{key}={value}"]
        capsys.readouterr()
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: all 5 evaluations failed: ")
        assert err.count("\n") == 1
        # the failed search's every evaluation, and no trace of the first search
        assert not out.exists()
        rows = list(csv.reader(failed.open(encoding="utf-8")))
        assert rows[0] == ["evaluation", "i_g", "reason"]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2", "3", "4"]
        # a stale file that cannot be removed is a usage error
        out.mkdir()
        (out / "kept").touch()
        assert main(args) == 2
        assert "cannot remove" in capsys.readouterr().err

    def test_i_ref_tune_solves_each_normalized_point_once(self, tmp_path, monkeypatch):
        # the node equation does not read i_ref, so 40 evaluations of the
        # 7-point linearity grid solve 7 node equations
        cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
        cp.read(DEFAULT_INI, encoding="utf-8")
        cp["tune"]["variables"] = "i_ref, i_g, i_th"
        cp["tune"]["i_ref_lo_a"], cp["tune"]["i_ref_hi_a"] = "2e-9", "27e-9"
        config = tmp_path / "tune_iref.ini"
        with open(config, "w", encoding="utf-8") as fh:
            cp.write(fh)
        calls = []

        def counted(cfg, v_id):
            calls.append(v_id)
            return transconductor.neuron_input_current(cfg, v_id)

        monkeypatch.setattr(sim_engine, "neuron_input_current", counted)
        memo = transconductor._memo_node_root
        memo.cache_clear()
        args = ["tune", "--config", str(config), "--out", str(tmp_path / "t.csv"), "--quiet"]
        assert main(args) == 0
        assert len(calls) == 280
        assert memo.cache_info()[:2] == (273, 7)


LAYERS = (
    "cli",
    "bias_tuner",
    "analysis",
    "sim_engine",
    "neuron",
    "transconductor",
    "device_model",
)


def fresh_python(code: str, cwd: Path) -> str:
    """stdout of ``code`` run by a new interpreter that imports the package from src."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class ReadNames(ast.NodeVisitor):
    """Every name that code reads, outside the def or class of that name.

    Imports, docstrings and ``__all__`` entries are not ``Name`` or
    ``Attribute`` nodes, so they read nothing.
    """

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.inside: list[str] = []

    def visit_FunctionDef(self, node) -> None:
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node) -> None:
        if node.id not in self.inside:
            self.names.add(node.id)

    def visit_Attribute(self, node) -> None:
        if node.attr not in self.inside:
            self.names.add(node.attr)
        self.generic_visit(node)


class TestImports:
    MODULES = ["encoder_sim"] + [f"encoder_sim.{layer}" for layer in LAYERS]

    def test_every_public_name_resolves(self):
        # the package and every layer: no deletion leaves a stale export
        for module in map(importlib.import_module, self.MODULES):
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            assert missing == [], module.__name__

    def test_every_public_name_is_read(self):
        # an export that only tests read is code that no command runs
        reader = ReadNames()
        for path in [*(REPO / "src").rglob("*.py"), *(REPO / "perfbench").rglob("*.py")]:
            reader.visit(ast.parse(path.read_text(encoding="utf-8")))
        unread = {}
        for module in map(importlib.import_module, self.MODULES):
            names = [name for name in module.__all__ if name not in reader.names]
            if names:
                unread[module.__name__] = names
        assert unread == {}

    def test_every_kernel_is_requested(self):
        # each make_<name> of the kernel text is built by a _neuron_kernel(..., "<name>") in src/
        requested = set()
        for path in (REPO / "src").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and len(node.args) == 2:
                    called, name = ast.unparse(node.func).split(".")[-1], node.args[1]
                    if called == "_neuron_kernel" and isinstance(name, ast.Constant):
                        requested.add(name.value)
        kernels = re.findall(r"^def make_(\w+)\(", sim_engine._KERNEL_TEXT, re.MULTILINE)
        assert sorted(kernels) == ["full_steps", "step"]
        assert set(kernels) <= requested

    def test_package_imports_form_no_cycle(self):
        # every relative import of src/, in a function or under TYPE_CHECKING too
        graph = {}
        for path in (REPO / "src" / "encoder_sim").glob("*.py"):
            imported = graph.setdefault(path.stem, set())
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    imported.update([node.module] if node.module else [a.name for a in node.names])
        assert set(LAYERS) <= set(graph)
        # raises CycleError on a cycle
        assert sorted(graphlib.TopologicalSorter(graph).static_order()) == sorted(graph)

    def test_oracle_imports_only_types(self):
        # the Euler oracle reads the configs' fields but calls no production code
        imported = []
        for node in ast.walk(ast.parse((REPO / "tests" / "oracle.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "encoder_sim":
                module = importlib.import_module(node.module)
                imported += [(node.module, a.name, getattr(module, a.name)) for a in node.names]
        assert imported
        assert [(m, name) for m, name, obj in imported if not isinstance(obj, type)] == []

    def test_cli_imports_every_layer(self, tmp_path):
        # a traced run wraps all seven layers once the CLI is imported
        code = "import sys, encoder_sim.cli; print(*sorted(sys.modules))"
        loaded = fresh_python(code, tmp_path).split()
        assert [layer for layer in LAYERS if f"encoder_sim.{layer}" not in loaded] == []

    def test_tune_leaves_numpy_random_unloaded(self, tmp_path):
        code = (
            "import sys\n"
            "from encoder_sim.cli import main\n"
            f"args = ['tune', '--config', {DEFAULT_INI!r}, '--out', 't.csv', '--quiet']\n"
            "args += ['--set', 'tune.variables=i_th', '--set', 'tune.budget=6']\n"
            "assert main(args) == 0\n"
            "print('numpy.random' in sys.modules)\n"
        )
        assert fresh_python(code, tmp_path).split() == ["False"]

    def test_dc_commands_leave_numpy_unloaded(self, tmp_path):
        # every command but a time-varying transient runs on floats
        commands = ["dc-sweep", "vf-curve", "thd", "freq", "power", "tune", "transient"]
        code = (
            "import sys\n"
            "from encoder_sim.cli import main\n"
            f"for command in {commands!r}:\n"
            f"    args = [command, '--config', {DEFAULT_INI!r}, '--out', 'o.csv', '--quiet']\n"
            "    args += ['--set', 'tune.variables=i_th', '--set', 'tune.budget=6']\n"
            "    args += ['--set', 'transient.kind=dc', '--set', 'transient.t_end_s=1e-4']\n"
            "    assert main(args) == 0, command\n"
            "    print(command, 'numpy' in sys.modules)\n"
        )
        assert fresh_python(code, tmp_path).split() == [
            word for command in commands for word in (command, "False")
        ]

    def test_numpy_is_imported_only_by_the_drive_blocks(self):
        # the modules and functions of src/ that import numpy: a
        # time-varying transient's block code, and the loader that the CLI
        # calls for it; an import under TYPE_CHECKING only names types
        found = set()

        def imports_numpy(node):
            if isinstance(node, ast.Import):
                return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
            return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"

        def visit(node, module, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, module, child.name)
                elif isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                    visit(child, module, "TYPE_CHECKING")
                elif imports_numpy(child):
                    found.add(f"{module}.{where}")
                else:
                    visit(child, module, where)

        for path in (REPO / "src").rglob("*.py"):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
        assert found == {
            "cli._load_numpy",
            "sim_engine.TYPE_CHECKING",
            "sim_engine._waveform_eval_bulk",
            "sim_engine._input_currents_bulk",
            "sim_engine._make_stage_drive",
        }

    @pytest.mark.parametrize(
        "command, sets, at_build",
        [
            ("transient", ["transient.t_end_s=1e-4"], ["True", "1"]),
            # thd runs on floats: numpy is loaded neither before nor after
            ("thd", [], ["False", "-"]),
        ],
        ids=["transient", "thd"],
    )
    def test_array_commands_load_numpy_before_the_encoder(self, tmp_path, command, sets, at_build):
        # the run from the encoder's build to its output holds no import,
        # and OpenBLAS starts no helper thread to spin beside it
        code = (
            "import os, sys\n"
            "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            "from encoder_sim import cli\n"
            "build = cli.build_encoder\n"
            "def marked(cp):\n"
            "    enc = build(cp)\n"
            "    print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS', '-'))\n"
            "    return enc\n"
            "cli.build_encoder = marked\n"
            f"args = [{command!r}, '--config', {DEFAULT_INI!r}, '--out', 'o.csv', '--quiet']\n"
            f"for item in {sets!r}:\n"
            "    args += ['--set', item]\n"
            "assert cli.main(args) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        assert fresh_python(code, tmp_path).split() == at_build + at_build[:1]
