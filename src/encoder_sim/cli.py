"""Command-line front end: INI-configured experiments, fixed-format CSV out.

One experiment per invocation. The config file carries the full encoder
description plus one section per experiment; ``--set section.key=value``
patches any declared key. Physical quantities carry their SI unit as a
key suffix (``i_ref_a``, ``c_m_f``, ``t_rf_s``) so a config can never be
misread by three decades.

Exit codes: 0 success, 2 usage or config-parse trouble, 3 invalid
configuration values, 4 solver or simulation failure. CSV cells are
written as 9-significant-digit scientific notation with LF endings, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import os
import sys
from pathlib import Path

from .analysis import power_estimate, small_signal, thd, vf_curve
from .bias_tuner import _STEPS_PER_TAU, _TUNABLE, TunerError, TuneSpec, tune
from .device_model import DeviceParams, SaturationError
from .neuron import NeuronConfig, neuron_biases_from_voltages
from .sim_engine import (
    _DT_RANGE,
    _TRACE_BUDGET,
    EncoderConfig,
    SolverConfig,
    Waveform,
    _event_tol,
    transient,
)
from .transconductor import (
    TransconductorConfig,
    dc_sweep,
    effective_gm,
    output_current,
    raw_pair_output_current,
)

__all__ = [
    "main",
    "load_config",
    "apply_overrides",
    "build_encoder",
]

_COMMANDS = ("dc-sweep", "transient", "vf-curve", "thd", "freq", "power", "tune")

# A config field's SI unit: amperes, volts, farads, seconds or hertz. Its INI
# key is the field's name plus this suffix (i_ref_a, c_m_f, t_rf_s); a field
# with no unit is its own key.
_UNITS = {
    **dict.fromkeys(("i_spec", "i_ref", "i_g", "i_r", "i_th", "i_reset"), "a"),
    **dict.fromkeys(("u_t", "v_t0", "amplitude", "offset"), "v"),
    **dict.fromkeys(("c_m", "input_pole_capacitance"), "f"),
    **dict.fromkeys(("t_rf", "dt", "event_tol"), "s"),
    "frequency": "hz",
}
# a config field is a key when annotated with one of these: the key's parser
_KINDS = {"float": float, "float | None": float, "str": str}
_VOLTAGE_BIAS_KEYS = ("v_tu_v", "v_lk_v", "v_th_v")
# [transient]'s keys beyond Waveform's fields: the run, and a pwl input's points
_TRANSIENT_RUN_KEYS = {"t_end_s": float, "trace_every": int, "pwl_points": str}
# Output files are formatted and written this many lines at a time, so that
# writing a long trace holds no second copy of it.
_CSV_CHUNK_ROWS = 1024


class UsageError(Exception):
    """Malformed invocation: bad flags, unreadable or unparseable config, unwritable output."""


def load_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"config parse error in {path!r}: {exc}") from exc
    return cp


def apply_overrides(cp: configparser.ConfigParser, overrides) -> None:
    """Patch declared keys in place; undeclared targets are rejected."""
    for item in overrides:
        target, sep, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not sep or not dot or not section or not key:
            raise UsageError(f"override {item!r} is not of the form section.key=value")
        if not cp.has_section(section):
            raise ValueError(f"override targets unknown section {section!r}")
        if not cp.has_option(section, key):
            raise ValueError(f"override targets undeclared key {section}.{key}")
        cp.set(section, key, value)


def _read_section(cp, name: str, schema: dict[str, type], required=None) -> dict:
    """Typed view of one section; unknown keys and bad literals error out.

    ``required`` names the keys the section must set: every key by default.
    """
    raw = dict(cp[name]) if cp.has_section(name) else {}
    unknown = set(raw) - set(schema)
    if unknown:
        raise ValueError(f"section [{name}] has unknown keys {sorted(unknown)!r}")
    missing = [k for k in (schema if required is None else required) if k not in raw]
    if missing:
        raise ValueError(f"section [{name}] is missing required keys {missing!r}")
    out = {}
    for key, raw_value in raw.items():
        kind = schema[key]
        try:
            if kind is str:
                out[key] = raw_value.strip()
            else:
                out[key] = kind(raw_value)
        except ValueError as exc:
            raise ValueError(
                f"key {name}.{key}: cannot parse {raw_value!r} as {kind.__name__}"
            ) from exc
    return out


def _given(sec: dict, **keys: str) -> dict:
    """{parameter: sec[key]} for the keys the section sets; a library default holds for the rest."""
    return {param: sec[key] for param, key in keys.items() if key in sec}


def _key(field: str) -> str:
    return f"{field}_{_UNITS[field]}" if field in _UNITS else field


def _keys(cls) -> dict[str, str]:
    """INI key -> field of every number or text field of a config class."""
    return {_key(f): f for f, kind in cls.__annotations__.items() if kind in _KINDS}


def _read_config(cp, name: str, cls, extra=None, required=()) -> dict:
    """Keywords of ``cls`` from section [name]; the ``extra`` keys {key: type} keep their names."""
    keys = _keys(cls)
    schema = {k: _KINDS[cls.__annotations__[f]] for k, f in keys.items()}
    raw = _read_section(cp, name, schema | (extra or {}), required=required)
    return {keys.get(k, k): v for k, v in raw.items()}


def build_encoder(cp: configparser.ConfigParser) -> EncoderConfig:
    dev = DeviceParams(**_read_config(cp, "device", DeviceParams))
    tc = TransconductorConfig(dev=dev, **_read_config(cp, "transconductor", TransconductorConfig))

    kw = _read_config(cp, "neuron", NeuronConfig, dict.fromkeys(_VOLTAGE_BIAS_KEYS, float))
    voltage_keys = [k for k in _VOLTAGE_BIAS_KEYS if k in kw]
    if voltage_keys:
        if len(voltage_keys) != len(_VOLTAGE_BIAS_KEYS):
            raise ValueError(
                f"voltage-domain neuron bias needs all of {_VOLTAGE_BIAS_KEYS}, "
                f"got only {voltage_keys!r}"
            )
        currents = ("i_g", "i_r", "i_th")
        conflicts = [_key(f) for f in currents if f in kw]
        if conflicts:
            raise ValueError(
                f"neuron bias given both as voltages and as currents: {conflicts!r}"
            )
        volts = [kw.pop(k) for k in _VOLTAGE_BIAS_KEYS]
        kw.update(zip(currents, neuron_biases_from_voltages(dev, *volts)))
    neuron = NeuronConfig(dev=dev, **kw)
    return EncoderConfig(
        transconductor=tc, neuron=neuron, **_read_config(cp, "encoder", EncoderConfig)
    )


def _build_solver(cp) -> SolverConfig | None:
    kw = _read_config(cp, "solver", SolverConfig)
    if not kw:
        return None
    if "dt" not in kw:
        raise ValueError(f"section [solver] needs {_key('dt')} when present")
    kw.setdefault("event_tol", _event_tol(kw["dt"]))
    return SolverConfig(**kw)


def _fmt(x: float) -> str:
    return format(float(x), ".8e")


def _write_lines(path: Path, lines) -> None:
    """Write each line with an LF ending, ``_CSV_CHUNK_ROWS`` lines at a time."""
    lines = iter(lines)
    try:
        with open(path, "wb") as fh:
            while chunk := list(itertools.islice(lines, _CSV_CHUNK_ROWS)):
                fh.write(("\n".join(chunk) + "\n").encode("ascii"))
    except OSError as exc:
        raise UsageError(f"cannot write {str(path)!r}: {exc}") from exc


def _csv_lines(header, rows):
    """The header line, then one line per row."""
    yield ",".join(header)
    # "%.8e" % x == _fmt(x) for every float, nan and inf included
    floats = ",".join(["%.8e"] * len(header))
    for row in rows:
        try:
            yield floats % tuple(row)
        except TypeError:  # a row holding a str
            yield ",".join(c if isinstance(c, str) else _fmt(c) for c in row)


def _write_csv(path: Path, header, rows) -> None:
    _write_lines(path, _csv_lines(header, rows))


def _remove(path: Path) -> None:
    """Remove the file at path, if there is one."""
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot remove {str(path)!r}: {exc}") from exc


def _out_path(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(args.command.replace("-", "_") + ".csv")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _load_numpy() -> None:
    """Load numpy for a time-varying transient's drive blocks; call it before ``build_encoder``.

    Those blocks are the only code that uses numpy. Loaded before the
    encoder is built, its import is start-up, and the run from build to
    output holds only the experiment. No block makes a BLAS call that
    threads would speed up, so OpenBLAS gets one thread unless the
    environment says otherwise: a helper thread spins for about 50 ms of
    CPU after numpy loads, doing nothing.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy  # noqa: F401


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n)`` bit for bit, as floats; n at most ``_TRACE_BUDGET``."""
    if not 2 <= n <= _TRACE_BUDGET:
        raise ValueError(f"n_points must be in 2..{_TRACE_BUDGET}, got {n}")
    if not hi > lo:
        raise ValueError(f"grid needs v_stop > v_start, got {lo!r}, {hi!r}")
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0.0:  # a subnormal span: linspace scales by it, not by the step
        return [lo + i / (n - 1) * delta for i in range(n - 1)] + [hi]
    return [lo + i * step for i in range(n - 1)] + [hi]


def _cmd_dc_sweep(cp, args) -> int:
    enc = build_encoder(cp)
    _build_solver(cp)  # checked, though no step is taken
    sec = _read_section(
        cp,
        "dc-sweep",
        {"v_start_v": float, "v_stop_v": float, "n_points": int},
    )
    grid = _grid(sec["v_start_v"], sec["v_stop_v"], sec["n_points"])
    points = dc_sweep(enc.transconductor, grid)
    out = _out_path(args)
    _write_csv(out, ("v_id_v", "i_out_a"), points)
    gm = effective_gm(enc.transconductor)
    _say(args, f"dc-sweep: {len(points)} points, effective gm {gm:.4e} A/V -> {out}")
    return 0


def _build_waveform(cp) -> tuple[Waveform, float, dict]:
    """[transient]'s input, its end time and the ``transient`` keywords it sets."""
    kw = _read_config(cp, "transient", Waveform, _TRANSIENT_RUN_KEYS, required=("t_end_s",))
    t_end = kw.pop("t_end_s")
    run = {"trace_every": kw.pop("trace_every")} if "trace_every" in kw else {}
    points = kw.pop("pwl_points", "")
    if kw.get("kind") == "pwl":  # only a pwl input reads its semicolon-separated t:v points
        breakpoints = []
        for chunk in filter(None, (p.strip() for p in points.split(";"))):
            t_raw, colon, v_raw = chunk.partition(":")
            if not colon:
                raise ValueError(f"pwl point {chunk!r} is not of the form t:v")
            breakpoints.append((float(t_raw), float(v_raw)))
        kw["breakpoints"] = tuple(breakpoints)
    return Waveform(**kw), t_end, run


def _cmd_transient(cp, args) -> int:
    out = _out_path(args)
    if not out.name or out.suffix == ".spikes":
        raise UsageError(f"--out {args.out!r} must name a file, with a suffix other than .spikes")
    spikes_path = out.with_suffix(".spikes")
    wave, t_end, run = _build_waveform(cp)
    if wave.kind != "dc":
        _load_numpy()  # for the drive blocks of a time-varying input
    enc = build_encoder(cp)
    res = transient(enc, wave, t_end, solver=_build_solver(cp), **run)
    _write_csv(out, ("t_s", "v_id_v", "i_in_a", "i_mem_a"), res.trace)
    _write_lines(spikes_path, map("%.8e".__mod__, res.spikes.times))
    n = len(res.spikes)
    mean_rate = n / t_end
    _say(
        args,
        f"transient: {n} spikes over {t_end:.4e} s "
        f"(mean rate {mean_rate:.4e} Hz) -> {out}, {spikes_path}",
    )
    return 0


def _cmd_vf_curve(cp, args) -> int:
    enc = build_encoder(cp)
    sec = _read_section(
        cp,
        "vf-curve",
        {
            "v_start_v": float,
            "v_stop_v": float,
            "n_points": int,
            "settle_time_s": float,
            "measure_time_s": float,
            "window_lo_v": float,
            "window_hi_v": float,
        },
    )
    window = (sec["window_lo_v"], sec["window_hi_v"])
    curve = vf_curve(
        enc,
        _grid(sec["v_start_v"], sec["v_stop_v"], sec["n_points"]),
        sec["settle_time_s"],
        sec["measure_time_s"],
        window,
        solver=_build_solver(cp),
    )
    flagged = set(curve.flagged)
    # a line through two points has no deviation to measure
    fitted = [v for v, _ in curve.points if window[0] <= v <= window[1] and v not in flagged]
    if len(fitted) < 3:
        raise ValueError(f"vf-curve needs 3 fitted in-window points, got {len(fitted)}")
    rows = [
        (v, r, "1" if window[0] <= v <= window[1] else "0", "1" if v in flagged else "0")
        for v, r in curve.points
    ]
    out = _out_path(args)
    _write_csv(out, ("v_in_v", "rate_hz", "in_window", "flagged"), rows)
    in_rates = [r for v, r in curve.points if window[0] <= v <= window[1]]
    _say(
        args,
        f"vf-curve: max deviation {100.0 * curve.max_deviation_fraction:.3f} % over "
        f"({window[0]:g}, {window[1]:g}) V, fit {curve.fit_slope:.4e} Hz/V, "
        f"window rates {min(in_rates):.4e}..{max(in_rates):.4e} Hz, "
        f"{len(curve.flagged)} flagged -> {out}",
    )
    return 0


def _cmd_thd(cp, args) -> int:
    enc = build_encoder(cp)
    _build_solver(cp)  # checked, though no step is taken
    sec = _read_section(
        cp,
        "thd",
        {"amplitude_v": float, "offset_v": float, "points_per_period": int, "n_harmonics": int},
        required=("amplitude_v", "points_per_period"),
    )
    amp = sec["amplitude_v"]
    offset = sec.get("offset_v", 0.0)
    ppp = sec["points_per_period"]
    harmonics = _given(sec, n_harmonics="n_harmonics")
    if not 2 <= ppp <= _TRACE_BUDGET:
        raise ValueError(f"points_per_period must be in 2..{_TRACE_BUDGET}, got {ppp}")

    # The transfer is memoryless, so one period holds every harmonic and the
    # drive frequency is immaterial: sample one period at f0 = 1 Hz and
    # fs = points_per_period.
    v_in = [offset + amp * math.sin(2.0 * math.pi * (m / ppp)) for m in range(ppp)]
    linearized = [output_current(enc.transconductor, v) for v in v_in]
    raw = [raw_pair_output_current(enc.transconductor, v) for v in v_in]
    report = thd(linearized, 1.0, float(ppp), **harmonics)
    report_raw = thd(raw, 1.0, float(ppp), **harmonics)

    rows = [("1", report.fundamental_amplitude)]
    rows += [
        (str(k + 2), h) for k, h in enumerate(report.harmonic_amplitudes)
    ]
    out = _out_path(args)
    _write_csv(out, ("harmonic_index", "amplitude_a"), rows)
    _say(
        args,
        f"thd: {100.0 * report.thd_fraction:.4f} % linearized, "
        f"{100.0 * report_raw.thd_fraction:.4f} % raw pair at "
        f"{amp:g} V amplitude -> {out}",
    )
    return 0


def _cmd_freq(cp, args) -> int:
    enc = build_encoder(cp)
    _build_solver(cp)  # checked, though no step is taken
    sec = _read_section(
        cp,
        "freq",
        {"r_out_ohm": float, "c_load_f": float},
    )
    gain_db, f_unity = small_signal(enc.transconductor, sec["r_out_ohm"], sec["c_load_f"])
    out = _out_path(args)
    _write_csv(
        out,
        ("quantity", "value"),
        [
            ("dc_gain_db", gain_db),
            ("f_unity_hz", f_unity),
            ("effective_gm_a_per_v", effective_gm(enc.transconductor)),
        ],
    )
    _say(args, f"freq: {gain_db:.2f} dB dc gain, unity gain at {f_unity:.4e} Hz -> {out}")
    return 0


def _cmd_power(cp, args) -> int:
    enc = build_encoder(cp)
    _build_solver(cp)  # checked, though no step is taken
    sec = _read_section(
        cp,
        "power",
        {"f_spikes_hz": str, "k_static": int, "c_dyn_f": float},
        required=("f_spikes_hz",),
    )
    try:
        f_spikes = [float(x) for x in sec["f_spikes_hz"].split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"power.f_spikes_hz: {exc}") from exc
    if not f_spikes:
        raise ValueError("power.f_spikes_hz lists no frequencies")
    kw = _given(sec, k_static="k_static", c_dyn="c_dyn_f")
    rows = [(f, power_estimate(enc, f, **kw)) for f in f_spikes]
    for f, p in rows:
        if not math.isfinite(p * 1e9):
            raise SaturationError(f"power {p!r} W at {f!r} Hz overflows in nW")
    out = _out_path(args)
    _write_csv(out, ("f_spike_hz", "power_w"), rows)
    powers = [p for _, p in rows]
    _say(
        args,
        f"power: {min(powers) * 1e9:.6g}..{max(powers) * 1e9:.6g} nW over "
        f"{len(rows)} spike rates -> {out}",
    )
    return 0


def _bound_keys(name: str) -> tuple[str, str]:
    """The keys of a tune variable's bounds, in the variable's unit."""
    return f"{name}_lo_{_UNITS[name]}", f"{name}_hi_{_UNITS[name]}"


def _cmd_tune(cp, args) -> int:
    enc = build_encoder(cp)
    if cp.has_section("solver"):
        raise ValueError(
            f"tune reads no [solver] section: each evaluation steps at tau_m/{_STEPS_PER_TAU:g} "
            f"of the neuron it evaluates, within {_DT_RANGE[0] / 1e-9:g} ns.."
            f"{_DT_RANGE[1] / 1e-6:g} us"
        )
    if not cp.has_section("tune"):
        raise ValueError("section [tune] is required for the tune command")
    raw = dict(cp["tune"])
    names = [v.strip() for v in raw.get("variables", "").split(",") if v.strip()]
    if not names:
        raise ValueError("tune.variables must list at least one parameter")
    # bounds keys for every tunable are declarable; only the selected
    # variables' bounds are required
    schema = {"variables": str, "objective": str, "budget": int, "seed": int}
    for name in _TUNABLE:
        schema.update(dict.fromkeys(_bound_keys(name), float))
    sec = _read_section(cp, "tune", schema, required=("variables", "budget"))
    variables = {}
    for name in names:
        if name not in _TUNABLE:
            raise ValueError(f"tune.variables names {name!r}, not one of {_TUNABLE}")
        lo_key, hi_key = _bound_keys(name)
        if lo_key not in sec or hi_key not in sec:
            raise ValueError(f"tune needs {lo_key} and {hi_key} for variable {name!r}")
        variables[name] = (sec[lo_key], sec[hi_key])
    spec = TuneSpec(
        variables=variables,
        budget=sec["budget"],
        **_given(sec, objective="objective", seed="seed"),
    )
    order = sorted(variables)
    out = _out_path(args)
    failed = out.with_name(out.name + ".failures")

    def write_failures(failures) -> None:
        rows = [
            (str(k), *(point[name] for name in order), '"' + reason.replace('"', '""') + '"')
            for k, point, reason in failures
        ]
        _write_csv(failed, ("evaluation", *order, "reason"), rows)
        _say(args, f"tune: {len(failures)} evaluations failed -> {failed}")

    # files an earlier search to the same --out left are removed or rewritten
    try:
        result = tune(enc, spec)
    except TunerError as exc:
        _remove(out)
        write_failures(exc.failures)
        raise
    rows = [
        (str(k), *(point[name] for name in order), value)
        for k, (point, value) in enumerate(result.trace)
    ]
    _write_csv(out, ("evaluation", *order, "objective"), rows)
    best = ", ".join(f"{name}={result.best_point[name]:.4e}" for name in order)
    _say(
        args,
        f"tune: best objective {result.best_objective:.6f} after "
        f"{result.evaluations} evaluations at {best} -> {out}",
    )
    if result.failures:
        write_failures(result.failures)
    else:
        _remove(failed)
    return 0


_COMMAND_FNS = {
    "dc-sweep": _cmd_dc_sweep,
    "transient": _cmd_transient,
    "vf-curve": _cmd_vf_curve,
    "thd": _cmd_thd,
    "freq": _cmd_freq,
    "power": _cmd_power,
    "tune": _cmd_tune,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="encoder-sim",
        description="Spike-encoder experiments: DC transfer, distortion, "
        "transient encoding, rate curves, small-signal figures, power, "
        "and bias tuning.",
    )
    parser.add_argument("command", choices=_COMMANDS, help="experiment to run")
    parser.add_argument("--config", required=True, help="INI experiment description")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a declared config key (repeatable)",
    )
    parser.add_argument("--out", help="output CSV path (default: <command>.csv)")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cp = load_config(args.config)
        apply_overrides(cp, args.set)
        return _COMMAND_FNS[args.command](cp, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
