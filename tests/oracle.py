"""Independent references for the tests: a forward-Euler encoder and the node residual.

``oracle_transient`` is a deliberately naive forward-Euler integrator with
per-sample threshold checks. It shares nothing with the RK4 path except the
model equations, which is what makes it useful as a cross-check in tests;
it is orders of magnitude slower and not meant for production runs. It
lives with the tests, outside the package, so no production path can
come to share its code.

``node_residual`` evaluates the transconductor's node equation in units of
the node diodes' quiescent current over scalars or arrays, for dense scans
against the node solver.

``analytic_rate`` is the closed-form firing rate of the linear-mode neuron
under a dc drive; it shares no code with RK4 or with the Euler oracle.
"""

from __future__ import annotations

import math

import numpy as np

from encoder_sim.device_model import SaturationError
from encoder_sim.neuron import NeuronConfig
from encoder_sim.sim_engine import (
    EncoderConfig,
    SimResult,
    SimulationError,
    SpikeTrain,
    Waveform,
)
from encoder_sim.transconductor import TransconductorConfig


def node_residual(cfg: TransconductorConfig, v_id, v_node_diff):
    """KCL imbalance at the correction nodes, in units of the diodes' quiescent current.

    Positive residual means the diode-plus-shunt side sinks more than the
    driving pair supplies at the trial node differential ``v_node_diff``.
    Accepts scalars or numpy arrays, so a dense-grid scan evaluates many
    trial points at once.
    """
    dev = cfg.dev
    node_arg = np.asarray(v_node_diff) / (2.0 * dev.n * dev.u_t)
    input_arg = (dev.n - 1.0) * np.asarray(v_id) / (2.0 * dev.n * dev.u_t)
    residual = (
        np.sinh(node_arg)
        + cfg.node_shunt_ratio * node_arg
        - cfg.drive_ratio * np.sinh(input_arg - node_arg)
    )
    if residual.ndim == 0:
        return float(residual)
    return residual


def analytic_rate(cfg: NeuronConfig, i_in: float) -> float:
    """Closed-form firing rate of the linear-mode neuron, Hz.

    Valid only in linear mode, where the membrane relaxes exponentially
    toward gain*i_in; the integration time from the reset floor to the
    threshold then has a logarithmic closed form. Subthreshold drive
    (gain*i_in <= i_th) returns 0 by contract.
    """
    if cfg.mode != "linear":
        raise ValueError("analytic_rate applies to linear mode only")
    if not math.isfinite(i_in) or i_in < 0.0:
        raise ValueError(f"i_in must be nonnegative and finite, got {i_in!r}")
    target = cfg.i_g / cfg.i_r * i_in
    if target <= cfg.i_th:
        return 0.0
    tau = cfg.dev.n * cfg.dev.u_t * cfg.c_m / cfg.i_r
    t_int = tau * math.log((target - cfg.i_reset) / (target - cfg.i_th))
    return 1.0 / (cfg.t_rf + t_int)


def _waveform_eval_array(w: Waveform, t: np.ndarray) -> np.ndarray:
    """Vectorized ``waveform_eval`` for the oracle's precomputed input."""
    if w.kind == "dc":
        return np.full_like(t, w.offset)
    if w.kind == "sine":
        phase = t * w.frequency
        phase -= np.floor(phase)
        return w.offset + w.amplitude * np.sin(2.0 * np.pi * phase)
    if w.kind == "triangle":
        phase = t * w.frequency
        phase -= np.floor(phase)
        shape = np.where(
            phase < 0.25,
            4.0 * phase,
            np.where(phase < 0.75, 2.0 - 4.0 * phase, 4.0 * phase - 4.0),
        )
        return w.offset + w.amplitude * shape
    times = np.array([bp[0] for bp in w.breakpoints])
    volts = np.array([bp[1] for bp in w.breakpoints])
    if np.any(t < times[0]):
        raise ValueError("time grid precedes the first pwl breakpoint")
    return np.interp(t, times, volts)


def _vectorized_input_current(
    encoder: EncoderConfig, input_wave: Waveform, times: np.ndarray
) -> np.ndarray:
    """Neuron drive current at every time sample, solved in bulk.

    Pure bisection on the internal node equation, vectorized over all
    samples: 80 halvings of the bracket take the node differential below
    1e-12 V, well inside the comparison tolerances of the oracle tests.
    Where sinh overflows at the ends of the +/-cap bracket but not at the
    half-width 0.5 V/(2*n*u_t), a sample is bracketed on
    [min(0, b), max(0, b)] instead. A residual that overflows a double
    raises ``SaturationError``.
    """
    tc = encoder.transconductor
    dev = tc.dev
    v = _waveform_eval_array(input_wave, times)
    input_arg = (dev.n - 1.0) * v / (2.0 * dev.n * dev.u_t)
    s = tc.node_shunt_ratio
    d = tc.drive_ratio
    # the root lies between 0 and input_arg, past the 0.5 V end when n > 2
    half_width = 0.5 / (2.0 * dev.n * dev.u_t)
    arg_cap = np.maximum(half_width, np.abs(input_arg))
    with np.errstate(over="ignore"):
        narrow = np.isfinite(np.sinh(half_width)) & ~np.isfinite(
            np.sinh(arg_cap + np.abs(input_arg))
        )
    lo = np.where(narrow, np.minimum(input_arg, 0.0), -arg_cap)
    hi = np.where(narrow, np.maximum(input_arg, 0.0), arg_cap)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.sinh(mid) + s * mid - d * np.sinh(input_arg - mid)
        if not np.all(np.isfinite(r)):
            raise SaturationError("oracle node equation overflows a double")
        below = r <= 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    node_arg = 0.5 * (lo + hi)
    out_arg = input_arg - node_arg
    i_in = tc.output_quiescent * (1.0 + np.sinh(out_arg))
    return np.maximum(i_in, 0.0)


def oracle_transient(
    encoder: EncoderConfig,
    input_wave: Waveform,
    t_end: float,
    dt_fine: float,
    trace_every: int = 10_000,
) -> SimResult:
    """Brute-force forward-Euler reference integration.

    Threshold is checked per sample and the refractory period is rounded up
    to whole samples, so systematic spike-time bias is bounded by one fine
    step per spike. Intended only as an independent cross-check of
    ``transient``; it deliberately avoids the production code paths.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if not (math.isfinite(dt_fine) and dt_fine > 0.0):
        raise ValueError(f"dt_fine must be positive, got {dt_fine!r}")
    if encoder.input_pole_capacitance is not None:
        raise ValueError("oracle_transient does not model the optional input pole")

    neuron = encoder.neuron
    n_steps = int(math.ceil(t_end / dt_fine))
    times = np.arange(n_steps + 1) * dt_fine
    clipped = np.minimum(times, t_end)
    drive_arr = _vectorized_input_current(encoder, input_wave, clipped)
    wave_v = _waveform_eval_array(input_wave, clipped)
    drive = drive_arr.tolist()

    i_g = neuron.i_g
    i_r = neuron.i_r
    tau = neuron.dev.n * neuron.dev.u_t * neuron.c_m / i_r
    gain = i_g / i_r
    pf = neuron.i_pf_gain
    i_th = neuron.i_th
    i_reset = neuron.i_reset
    linear = neuron.mode == "linear"
    refr_quantum = int(math.ceil(neuron.t_rf / dt_fine))

    i_mem = i_reset
    refr_steps = 0
    spikes: list[float] = []
    trace: list[tuple[float, float, float, float]] = []

    for k in range(n_steps):
        if k % trace_every == 0:
            trace.append((float(times[k]), float(wave_v[k]), drive[k], i_mem))
        if refr_steps > 0:
            refr_steps -= 1
            i_mem = i_reset
            continue
        if i_mem >= i_th:
            spikes.append(float(times[k]))
            i_mem = i_reset
            refr_steps = refr_quantum
            continue
        i_inj = drive[k]
        if linear:
            d_i = (gain * i_inj - i_mem) / tau
        else:
            d_i = (
                i_inj * (i_mem / i_r) / (1.0 + i_mem / i_g) - i_mem * (1.0 - pf * i_mem / i_r)
            ) / tau
        i_mem = i_mem + dt_fine * d_i
        if not math.isfinite(i_mem):
            raise SimulationError("non-finite membrane current in oracle", float(times[k]))
        if i_mem < 0.0:
            i_mem = 0.0

    trace.append((float(clipped[n_steps]), float(wave_v[n_steps]), drive[n_steps], i_mem))
    return SimResult(trace=tuple(trace), spikes=SpikeTrain(times=tuple(spikes)))
