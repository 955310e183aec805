"""Per-call cost of each layer's public functions: ``layers.py SEED``.

Every timing uses the ``configs/default.ini`` encoder (``cli.config_build_ms``
uses ``configs/triangle_1na.ini``) and reports the median over a few rounds
of a fixed amount of work, divided by the work done. SEED draws the random
inputs of the device, node-solve and membrane timings. Prints one JSON
object: the metrics and a list of failed sanity checks on the simulated
results, which must be empty.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from encoder_sim.analysis import thd  # noqa: E402
from encoder_sim.bias_tuner import objective_linearity  # noqa: E402
from encoder_sim.cli import build_encoder, load_config  # noqa: E402
from encoder_sim.device_model import drain_current  # noqa: E402
from encoder_sim.neuron import NeuronState, membrane_derivative  # noqa: E402
from encoder_sim.sim_engine import Waveform, default_solver_config, transient  # noqa: E402
from encoder_sim.transconductor import dc_sweep, output_current, solve_operating_point  # noqa: E402

N_SCALAR = 5000  # calls per round for the sub-10-microsecond functions
SILENT_SINE = dict(kind="sine", offset=-0.25, amplitude=0.15, frequency=2000.0)


def _median_per_unit(work, rounds: int) -> float:
    """Median over rounds of (seconds for one ``work()``) / (units it reports)."""
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        units = work()
        samples.append((time.perf_counter() - t0) / units)
    return statistics.median(samples)


def measure(seed: int) -> tuple[dict[str, float], list[str]]:
    rng = random.Random(seed)
    enc = build_encoder(load_config(ROOT / "configs" / "default.ini"))
    tc, neuron = enc.transconductor, enc.neuron
    dt = default_solver_config(neuron).dt
    failures: list[str] = []
    metrics: dict[str, float] = {}

    biases = [(rng.uniform(0.1, 0.4), rng.uniform(-0.25, 0.25)) for _ in range(N_SCALAR)]

    def device():
        for v_sg, v_sb in biases:
            drain_current(tc.dev, v_sg, v_sb)
        return len(biases)

    metrics["device_model.drain_current_us"] = 1e6 * _median_per_unit(device, 7)

    v_cold = [rng.uniform(-0.5, 0.5) for _ in range(N_SCALAR // 5)]

    def solve_cold():
        for v in v_cold:
            solve_operating_point(tc, v)
        return len(v_cold)

    metrics["transconductor.solve_cold_us"] = 1e6 * _median_per_unit(solve_cold, 7)

    grid = [-0.5 + k * 1e-3 for k in range(1001)]
    metrics["transconductor.dc_sweep_point_us"] = 1e6 * _median_per_unit(
        lambda: len(dc_sweep(tc, grid)), 5
    )

    states = [
        (NeuronState(i_mem=rng.uniform(0.0, neuron.i_th)), rng.uniform(0.0, 20e-9))
        for _ in range(N_SCALAR)
    ]

    def membrane():
        for state, i_in in states:
            membrane_derivative(neuron, state, i_in)
        return len(states)

    metrics["neuron.membrane_derivative_us"] = 1e6 * _median_per_unit(membrane, 7)

    def sim(encoder, wave: Waveform, t_end: float, per_spike: bool):
        res = transient(encoder, wave, t_end, trace_every=10**9)
        n = len(res.spikes)
        if per_spike and n == 0:
            failures.append(f"{wave} fired no spike in {t_end} s")
        if not per_spike and n != 0:
            failures.append(f"{wave} fired {n} spikes, expected a silent run")
        return (n if per_spike else t_end / dt) or 1

    silent_dc = Waveform(kind="dc", offset=-0.3)
    metrics["sim_engine.dc_step_us"] = 1e6 * _median_per_unit(
        lambda: sim(enc, silent_dc, 10e-3, False), 5
    )
    sine = Waveform(**SILENT_SINE)
    metrics["sim_engine.varying_step_us"] = 1e6 * _median_per_unit(
        lambda: sim(enc, sine, 1e-3, False), 5
    )
    pole_enc = dataclasses.replace(enc, input_pole_capacitance=20e-12)
    metrics["sim_engine.pole_step_us"] = 1e6 * _median_per_unit(
        lambda: sim(pole_enc, sine, 1e-3, False), 5
    )
    firing_dc = Waveform(kind="dc", offset=0.25)
    metrics["sim_engine.dc_spike_us"] = 1e6 * _median_per_unit(
        lambda: sim(enc, firing_dc, 10e-3, True), 5
    )

    # The 64-sample record the CLI's thd command builds from default.ini.
    record = [
        output_current(tc, 0.25 * math.sin(2.0 * math.pi * k / 64)) for k in range(64)
    ]

    def distortion():
        for _ in range(100):
            report = thd(record, 1.0, 64.0, n_harmonics=9)
        if not 0.0 < report.thd_fraction < 1.0:
            failures.append(f"thd fraction {report.thd_fraction!r} out of (0, 1)")
        return 100

    metrics["analysis.thd_us"] = 1e6 * _median_per_unit(distortion, 7)

    def objective():
        value = objective_linearity(enc)
        if not math.isfinite(value):
            failures.append(f"objective_linearity returned {value!r}")
        return 1

    metrics["bias_tuner.objective_ms"] = 1e3 * _median_per_unit(objective, 3)

    triangle = ROOT / "configs" / "triangle_1na.ini"

    def config_build():
        for _ in range(50):
            build_encoder(load_config(triangle))
        return 50

    metrics["cli.config_build_ms"] = 1e3 * _median_per_unit(config_build, 5)
    return metrics, failures


if __name__ == "__main__":
    found, failed = measure(int(sys.argv[1]))
    print(json.dumps({"metrics": found, "failures": failed}))
