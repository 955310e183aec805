"""Tests for waveforms, the RK4 transient engine and the Euler oracle.

The spiking tests run a linear-mode neuron because its firing rate has a
closed form to compare against; the nonlinear mode is cross-checked via the
independent Euler oracle instead.
"""

import ast
import configparser
import inspect
import linecache
import math
import random
import re
import string
import struct
import warnings
from array import array
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    _vectorized_input_current,
    _waveform_eval_array,
    analytic_rate,
    oracle_transient,
)

from encoder_sim import cli, sim_engine
from encoder_sim.analysis import vf_curve
from encoder_sim.bias_tuner import _cheap_solver
from encoder_sim.device_model import DeviceParams, SaturationError
from encoder_sim.neuron import (
    DERIVATIVE_CONSTANTS,
    DERIVATIVES,
    NeuronConfig,
    NeuronState,
    derivative_variant,
    membrane_derivative,
    tau_m,
)
from encoder_sim.sim_engine import (
    EncoderConfig,
    SimulationError,
    SolverConfig,
    SpikeTrain,
    Trace,
    Waveform,
    _dc_drive,
    _make_stage_drive,
    _neuron_kernel,
    default_solver_config,
    spike_count_dc,
    transient,
    waveform_eval,
)
from encoder_sim.transconductor import (
    TransconductorConfig,
    effective_gm,
    neuron_input_current,
    node_arg_table,
)

TC = TransconductorConfig()  # quiescent output 4 nA

# Linear-mode neuron driven by the transconductor's quiescent current:
# gain * i_in = 0.01 * 4 nA = 40 pA against a 30 pA threshold.
LIN = NeuronConfig(
    c_m=0.6e-12,
    i_g=10e-12,
    i_r=1e-9,
    i_th=30e-12,
    i_reset=1e-12,
    t_rf=0.0,
    mode="linear",
)
LIN_RF = NeuronConfig(
    c_m=0.6e-12,
    i_g=10e-12,
    i_r=1e-9,
    i_th=30e-12,
    i_reset=1e-12,
    t_rf=20e-6,
    mode="linear",
)


def lin_encoder(neuron=LIN):
    return EncoderConfig(transconductor=TC, neuron=neuron)


def scalar_drive(encoder, wave):
    """The drive current at t, one call per time: the reference of every drive the engine builds."""
    if wave.kind == "dc":
        i_dc = neuron_input_current(encoder.transconductor, wave.offset)
        return lambda t: i_dc
    current = node_arg_table(encoder.transconductor).input_current
    return lambda t: current(waveform_eval(wave, t))


def scalar_stages(drive):
    """Stage drives of an RK4 step from ``drive`` alone: at t, twice at t + h/2, at t + h."""
    return lambda t, h: (drive(t), *[drive(t + 0.5 * h)] * 2, drive(t + h))


class TestWaveformEval:
    def test_dc(self):
        w = Waveform(kind="dc", offset=0.12)
        assert waveform_eval(w, 0.0) == 0.12
        assert waveform_eval(w, 1.0) == 0.12

    def test_sine_anchor_points(self):
        w = Waveform(kind="sine", amplitude=0.2, offset=0.05, frequency=100.0)
        assert waveform_eval(w, 0.0) == 0.05
        assert waveform_eval(w, 2.5e-3) == pytest.approx(0.25, abs=1e-12)
        assert waveform_eval(w, 7.5e-3) == pytest.approx(-0.15, abs=1e-12)

    def test_sine_exact_periodicity_on_dyadic_grid(self):
        # Frequency and sample times chosen so t * f is exact in binary;
        # the phase reduction then reproduces the same float.
        w = Waveform(kind="sine", amplitude=0.3, offset=0.0, frequency=64.0)
        for t in (3.0 / 256.0, 7.0 / 512.0, 1.0 / 64.0):
            for periods in (1, 5, 1000):
                assert waveform_eval(w, t + periods / 64.0) == waveform_eval(w, t)

    def test_triangle_anchor_points(self):
        w = Waveform(kind="triangle", amplitude=0.3, offset=0.1, frequency=100.0)
        t4 = 2.5e-3
        assert waveform_eval(w, 0.0) == 0.1
        assert waveform_eval(w, t4) == pytest.approx(0.4, abs=1e-15)
        assert waveform_eval(w, 2 * t4) == pytest.approx(0.1, abs=1e-15)
        assert waveform_eval(w, 3 * t4) == pytest.approx(-0.2, abs=1e-15)
        assert waveform_eval(w, 0.5 * t4) == pytest.approx(0.25, abs=1e-15)

    def test_triangle_slope_sign_by_quarter(self):
        w = Waveform(kind="triangle", amplitude=0.3, offset=0.0, frequency=1.0)
        eps = 1e-6
        assert waveform_eval(w, 0.1 + eps) > waveform_eval(w, 0.1)
        assert waveform_eval(w, 0.5 + eps) < waveform_eval(w, 0.5)
        assert waveform_eval(w, 0.9 + eps) > waveform_eval(w, 0.9)

    def test_pwl_interp_and_hold(self):
        w = Waveform(kind="pwl", breakpoints=((1e-3, 0.0), (2e-3, 0.2), (4e-3, -0.1)))
        assert waveform_eval(w, 1e-3) == 0.0
        assert waveform_eval(w, 1.5e-3) == pytest.approx(0.1, abs=1e-15)
        assert waveform_eval(w, 3e-3) == pytest.approx(0.05, abs=1e-15)
        assert waveform_eval(w, 4e-3) == -0.1
        assert waveform_eval(w, 1.0) == -0.1

    def test_pwl_rejects_time_before_first_breakpoint(self):
        w = Waveform(kind="pwl", breakpoints=((1e-3, 0.0), (2e-3, 0.2)))
        with pytest.raises(ValueError, match="precedes"):
            waveform_eval(w, 0.5e-3)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            waveform_eval(Waveform(kind="dc", offset=0.1), -1e-9)

    def test_vectorized_matches_scalar(self):
        waves = [
            Waveform(kind="dc", offset=0.07),
            Waveform(kind="sine", amplitude=0.2, offset=0.1, frequency=321.0),
            Waveform(kind="triangle", amplitude=0.25, offset=-0.05, frequency=87.0),
            Waveform(kind="pwl", breakpoints=((0.0, 0.0), (1e-3, 0.3), (5e-3, -0.2))),
        ]
        ts = np.linspace(0.0, 8e-3, 257)
        for w in waves:
            arr = _waveform_eval_array(w, ts)
            for t, v in zip(ts, arr):
                assert v == pytest.approx(waveform_eval(w, float(t)), rel=1e-12, abs=1e-15)


class TestWaveformValidation:
    def test_supply_bound(self):
        with pytest.raises(ValueError, match="supply"):
            Waveform(kind="sine", amplitude=0.3, offset=0.3, frequency=10.0)

    def test_supply_bounds_only_what_the_kind_reads(self):
        # a dc input reads only its offset, so an amplitude never refuses it
        Waveform(kind="dc", offset=0.4, amplitude=0.15)
        for kind in ("sine", "triangle"):
            with pytest.raises(ValueError, match="supply"):
                Waveform(kind=kind, offset=0.4, amplitude=0.15, frequency=10.0)
        with pytest.raises(ValueError, match="supply"):
            Waveform(kind="dc", offset=-0.6)
        # a pwl input reads only its breakpoints
        Waveform(kind="pwl", amplitude=0.4, offset=0.4, breakpoints=((0.0, 0.5),))

    @pytest.mark.parametrize("kind", ["dc", "sine", "triangle", "pwl"])
    def test_every_kind_needs_a_finite_amplitude_and_offset(self, kind):
        bp = ((0.0, 0.1),)
        for bad in ({"amplitude": math.nan}, {"offset": math.inf}):
            with pytest.raises(ValueError, match="finite"):
                Waveform(kind=kind, frequency=10.0, breakpoints=bp, **bad)

    def test_periodic_needs_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            Waveform(kind="sine", amplitude=0.1)
        with pytest.raises(ValueError, match="frequency"):
            Waveform(kind="triangle", amplitude=0.1, frequency=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Waveform(kind="square", amplitude=0.1, frequency=10.0)

    def test_pwl_breakpoints(self):
        with pytest.raises(ValueError):
            Waveform(kind="pwl")
        with pytest.raises(ValueError, match="increasing"):
            Waveform(kind="pwl", breakpoints=((1e-3, 0.0), (1e-3, 0.1)))
        with pytest.raises(ValueError, match="supply"):
            Waveform(kind="pwl", breakpoints=((0.0, 0.7),))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, event_tol=1e-12)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-7, event_tol=1e-7)

    def test_event_tol_too_fine_to_bisect_to(self):
        # below a few ulps of the step the crossing's bisection never ends
        with pytest.raises(ValueError, match=r"at least dt \* 2\*\*-40"):
            SolverConfig(dt=1e-7, event_tol=1e-300)
        SolverConfig(dt=1e-7, event_tol=1e-7 * 2.0**-40)

    def test_one_event_tol_rule(self):
        # at these steps dt/10 and 0.1*dt differ in the last bit; every
        # default tolerance is min(1e-9, dt/10)
        neuron = NeuronConfig(c_m=0.6e-12, i_g=10e-12, i_r=2.4e-8, i_th=30e-12, i_reset=1e-12)
        cp = configparser.ConfigParser()
        cp.read_string("[solver]\ndt_s = 2.3e-9\n")
        solvers = [default_solver_config(neuron), _cheap_solver(neuron), cli._build_solver(cp)]
        for solver in solvers:
            assert solver.dt / 10.0 != 0.1 * solver.dt
            assert solver.event_tol == solver.dt / 10.0

    def test_default_tracks_time_constant(self):
        cfg = default_solver_config(LIN)  # tau = 18 us
        assert cfg.dt == pytest.approx(tau_m(LIN) / 200.0, rel=1e-12)
        assert cfg.event_tol < cfg.dt

    def test_tune_steps_at_a_hundredth_of_tau(self):
        # the step that tune's refusal of a [solver] section states
        assert _cheap_solver(LIN).dt == tau_m(LIN) / 100.0

    def test_default_clamps(self):
        fast = NeuronConfig(
            c_m=0.6e-12, i_g=10e-12, i_r=9e-8, i_th=30e-12, i_reset=1e-12, mode="linear"
        )
        slow = NeuronConfig(
            c_m=0.6e-12, i_g=10e-12, i_r=5e-11, i_th=30e-12, i_reset=1e-12, mode="linear"
        )
        assert default_solver_config(fast).dt == 1e-9
        assert default_solver_config(slow).dt == 1e-6


class TestSpikeTrain:
    def test_ordering_enforced(self):
        SpikeTrain(times=(1e-6, 2e-6))
        with pytest.raises(ValueError):
            SpikeTrain(times=(2e-6, 1e-6))
        with pytest.raises(ValueError):
            SpikeTrain(times=(1e-6, 1e-6))

    def test_len(self):
        assert len(SpikeTrain()) == 0
        assert len(SpikeTrain(times=(1.0, 2.0))) == 2


class TestTrace:
    ROWS = (
        (0.0, 0.1, 4e-9, 1e-12),
        (1e-7, -0.0, math.nan, math.inf),
        (2e-7, -math.inf, 5e-324, -1e-300),
    )
    FINITE = ((0.0, 0.1, 4e-9, 1e-12), (1e-7, -0.5, 5e-324, -1e-300), (2e-7, 0.2, 3e-9, 0.0))

    def trace(self, rows=ROWS):
        return Trace(array("d", [x for row in rows for x in row]))

    def test_len_index_and_iteration(self):
        trace = self.trace()
        assert len(trace) == 3 and len(self.trace(())) == 0
        assert trace[0] == self.ROWS[0] and trace[-1] == self.ROWS[2]
        assert trace[-3] == self.ROWS[0]
        for k in (3, -4):
            with pytest.raises(IndexError):
                trace[k]
        assert all(type(row) is tuple and len(row) == 4 for row in trace)
        assert [row[0] for row in trace] == [0.0, 1e-7, 2e-7]

    def test_slices(self):
        rows = self.FINITE
        trace = self.trace(rows)
        assert trace[1:] == rows[1:] and trace[::-2] == (rows[2], rows[0])
        assert trace[5:] == () and trace[:] == rows
        assert type(trace[:1]) is tuple

    def test_equality_both_ways(self):
        rows = self.FINITE
        trace = self.trace(rows)
        assert trace == rows and rows == trace and hash(trace) == hash(rows)
        assert trace == list(map(list, rows)) and trace == self.trace(rows)
        assert trace != rows[:2] and rows[:2] != trace
        changed = (*rows[:2], (2e-7, 0.2, 3e-9, -0.0))
        assert trace == changed  # -0.0 == 0.0, as between tuples
        changed = (*rows[:2], (2e-7, 0.2, 3e-9, 1e-300))
        assert trace != changed and changed != trace and trace != self.trace(changed)
        assert trace != 3 and trace != "abcd"

    def test_cells_keep_their_bits(self):
        bits = [struct.pack("<d", x) for row in self.ROWS for x in row]
        got = [struct.pack("<d", x) for row in self.trace() for x in row]
        assert got == bits
        assert [struct.pack("<d", x) for x in self.trace()[1]] == bits[4:8]


class TestTransientLinear:
    def test_rate_matches_closed_form(self):
        res = transient(lin_encoder(), Waveform(kind="dc", offset=0.0), 2e-3)
        i_in = neuron_input_current(TC, 0.0)
        expect = analytic_rate(LIN, i_in)
        gaps = np.diff(res.spikes.times)
        assert len(res.spikes) > 50
        assert np.max(np.abs(gaps - 1.0 / expect)) / (1.0 / expect) < 5e-3

    def test_rate_with_refractory(self):
        res = transient(lin_encoder(LIN_RF), Waveform(kind="dc", offset=0.0), 2e-3)
        i_in = neuron_input_current(TC, 0.0)
        expect = analytic_rate(LIN_RF, i_in)
        gaps = np.diff(res.spikes.times)
        assert np.all(gaps > LIN_RF.t_rf)
        assert np.max(np.abs(gaps - 1.0 / expect)) / (1.0 / expect) < 5e-3

    def test_subthreshold_settles_silently(self):
        quiet = NeuronConfig(
            c_m=0.6e-12, i_g=10e-12, i_r=1e-9, i_th=50e-12, i_reset=1e-12, mode="linear"
        )
        res = transient(lin_encoder(quiet), Waveform(kind="dc", offset=0.0), 2e-3)
        assert len(res.spikes) == 0
        i_in = neuron_input_current(TC, 0.0)
        assert res.trace[-1][3] == pytest.approx(quiet.gain * i_in, rel=1e-2)

    def test_determinism_bitwise(self):
        wave = Waveform(kind="sine", amplitude=0.1, offset=0.0, frequency=1000.0)
        a = transient(lin_encoder(), wave, 1e-3)
        b = transient(lin_encoder(), wave, 1e-3)
        assert a.spikes.times == b.spikes.times
        assert a.trace == b.trace

    def test_constant_pwl_matches_dc_path(self):
        # A flat pwl exercises the generic integration path with the same
        # drive the fast dc path sees; spike times must agree closely.
        dc = transient(lin_encoder(), Waveform(kind="dc", offset=0.1), 1e-3)
        flat = transient(
            lin_encoder(),
            Waveform(kind="pwl", breakpoints=((0.0, 0.1), (1.0, 0.1))),
            1e-3,
        )
        assert len(dc.spikes) == len(flat.spikes)
        for ta, tb in zip(dc.spikes.times, flat.spikes.times):
            assert tb == pytest.approx(ta, rel=1e-6)

    def test_initial_state_above_threshold_spikes_at_zero(self):
        res = transient(
            lin_encoder(LIN_RF),
            Waveform(kind="dc", offset=0.0),
            1e-4,
            initial_state=NeuronState(i_mem=40e-12),
        )
        assert res.spikes.times[0] == 0.0

    def test_initial_refractory_delays_first_spike(self):
        plain = transient(lin_encoder(LIN_RF), Waveform(kind="dc", offset=0.0), 5e-4)
        held = transient(
            lin_encoder(LIN_RF),
            Waveform(kind="dc", offset=0.0),
            5e-4,
            initial_state=NeuronState(i_mem=LIN_RF.i_reset, refractory_remaining=50e-6),
        )
        assert held.spikes.times[0] == pytest.approx(plain.spikes.times[0] + 50e-6, rel=1e-9)

    def test_trace_shape_and_final_time(self):
        t_end = 1e-4
        res = transient(lin_encoder(), Waveform(kind="dc", offset=0.0), t_end, trace_every=1)
        times = [row[0] for row in res.trace]
        assert times[0] == 0.0
        assert times[-1] == t_end
        assert all(b >= a for a, b in zip(times, times[1:]))
        dense = len(res.trace)
        sparse = len(transient(lin_encoder(), Waveform(kind="dc", offset=0.0), t_end).trace)
        assert dense > 5 * sparse

    def test_spikes_inside_interval(self):
        res = transient(lin_encoder(), Waveform(kind="dc", offset=0.2), 3e-4)
        assert all(0.0 <= t <= 3e-4 for t in res.spikes.times)

    def test_counts_stable_under_step_refinement(self):
        results = []
        tau = tau_m(LIN)
        for div in (5, 20, 100):
            solver = SolverConfig(dt=tau / div, event_tol=1e-12)
            results.append(transient(lin_encoder(), Waveform(kind="dc", offset=0.0), 1e-3, solver))
        counts = [len(r.spikes) for r in results]
        assert counts[0] == counts[1] == counts[2]
        coarse = results[0].spikes.times[-1]
        fine = results[2].spikes.times[-1]
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_validation(self):
        enc = lin_encoder()
        wave = Waveform(kind="dc", offset=0.0)
        with pytest.raises(ValueError):
            transient(enc, wave, 0.0)
        with pytest.raises(ValueError):
            transient(enc, wave, 1e-3, trace_every=0)

    def test_encoder_config_validation(self):
        with pytest.raises(ValueError, match="input_pole_capacitance"):
            EncoderConfig(transconductor=TC, neuron=LIN, input_pole_capacitance=0.0)

    @pytest.mark.parametrize(
        "field, value", [("i_spec", 2e-7), ("n", 1.3), ("u_t", 0.026), ("v_t0", 0.3)]
    )
    def test_neuron_shares_the_device(self, field, value):
        tc = TransconductorConfig(dev=DeviceParams(**{field: value}))
        differs = r"neuron\.dev = .* differs from transconductor\.dev = "
        with pytest.raises(ValueError, match=differs):
            EncoderConfig(transconductor=tc, neuron=LIN)
        # an equal device is the same device, whichever object holds it
        EncoderConfig(transconductor=tc, neuron=replace(LIN, dev=DeviceParams(**{field: value})))

    def test_step_and_trace_budget(self, monkeypatch):
        enc, wave = lin_encoder(), Waveform(kind="dc", offset=0.0)
        dt = 2.0**-24  # t_end/dt is exact
        solver = SolverConfig(dt=dt, event_tol=dt / 64)
        monkeypatch.setattr(sim_engine, "_STEP_BUDGET", 1000)
        monkeypatch.setattr(sim_engine, "_TRACE_BUDGET", 11)
        transient(enc, wave, 1000 * dt, solver, trace_every=100)  # 1000 steps, 11 rows
        with pytest.raises(SimulationError, match="budget of 1000 steps") as err:
            transient(enc, wave, 1000.5 * dt, solver, trace_every=10**9)
        assert err.value.t == 0.0
        with pytest.raises(SimulationError, match="12 trace rows"):
            transient(enc, wave, 1000 * dt, solver, trace_every=99)
        with pytest.raises(SimulationError, match="budget of 1000 steps"):
            transient(enc, wave, 1e300, SolverConfig(dt=1e-300, event_tol=1e-301))


    def test_loop_budget(self, monkeypatch):
        # t_rf = 0 and i_th = 1.5 pA fire many times per dt, and every spike
        # adds loop steps and trace rows that the nominal check does not count
        enc, wave = lin_encoder(replace(LIN, i_th=1.5e-12)), Waveform(kind="dc", offset=0.0)
        dt = 2.0**-18
        solver = SolverConfig(dt=dt, event_tol=dt / 64)
        assert len(transient(enc, wave, 100 * dt, solver, trace_every=10**9).spikes) > 400
        monkeypatch.setattr(sim_engine, "_STEP_BUDGET", 100)
        over = "loop steps overran 4 times the budget of 100"
        with pytest.raises(SimulationError, match=over) as err:
            transient(enc, wave, 100 * dt, solver, trace_every=10**9)
        assert 0.0 < err.value.t < 100 * dt
        monkeypatch.setattr(sim_engine, "_STEP_BUDGET", 10**6)
        monkeypatch.setattr(sim_engine, "_TRACE_BUDGET", 11)
        # kernels built under the patched budget, past the cache
        monkeypatch.setattr(sim_engine, "_neuron_kernel", sim_engine._neuron_kernel.__wrapped__)
        # 11 rows nominal; at trace_every 1 every spike adds a row, so the
        # rows overrun before the spikes do
        with pytest.raises(SimulationError, match="trace rows overran 4 times the budget of 11"):
            transient(enc, wave, 10 * dt, solver, trace_every=1)

    def test_spike_budget(self, monkeypatch):
        # t_rf = 0 fires many spikes per dt and adds few trace rows; the
        # spikes count against four times the trace budget
        enc, wave = lin_encoder(replace(LIN, i_th=1.5e-12)), Waveform(kind="dc", offset=0.0)
        dt = 2.0**-18
        solver = SolverConfig(dt=dt, event_tol=dt / 64)
        monkeypatch.setattr(sim_engine, "_TRACE_BUDGET", 100)
        over = "^401 spikes overran 4 times the budget of 100$"
        with pytest.raises(SimulationError, match=over) as err:
            transient(enc, wave, 100 * dt, solver, trace_every=10**9)
        assert 0.0 < err.value.t < 100 * dt

    @pytest.mark.parametrize(
        "wave",
        [Waveform(kind="dc", offset=0.0), Waveform(kind="triangle", amplitude=0.1, frequency=1e3)],
        ids=["dc", "triangle"],
    )
    def test_full_steps_stop_at_the_caps(self, monkeypatch, wave):
        # with the nominal check off, a silent run of 1000 full steps meets
        # each cap inside one call of the loop, which stops there exactly
        enc = lin_encoder(replace(LIN, i_th=1e-6))
        dt = 2.0**-24  # sums of dt are exact
        solver = SolverConfig(dt=dt, event_tol=dt / 64)
        monkeypatch.setattr(sim_engine, "_check_budget", lambda *args: None)
        monkeypatch.setattr(sim_engine, "_STEP_BUDGET", 100)
        over = "^401 loop steps overran 4 times the budget of 100$"
        with pytest.raises(SimulationError, match=over) as err:
            transient(enc, wave, 1000 * dt, solver, trace_every=10**9)
        assert err.value.t == 400 * dt
        monkeypatch.setattr(sim_engine, "_STEP_BUDGET", 10**6)
        monkeypatch.setattr(sim_engine, "_TRACE_BUDGET", 10)
        # kernels built under the patched budget, past the cache
        monkeypatch.setattr(sim_engine, "_neuron_kernel", sim_engine._neuron_kernel.__wrapped__)
        over = "^41 trace rows overran 4 times the budget of 10$"
        with pytest.raises(SimulationError, match=over) as err:
            transient(enc, wave, 1000 * dt, solver, trace_every=1)
        assert err.value.t == 40 * dt


class TestOracleAgreement:
    def test_linear_constant_drive(self):
        enc = lin_encoder(LIN_RF)
        wave = Waveform(kind="dc", offset=0.0)
        t_end = 2.5e-4
        dt = tau_m(LIN_RF) / 50.0
        rk = transient(enc, wave, t_end, SolverConfig(dt=dt, event_tol=dt * 1e-5))
        eu = oracle_transient(enc, wave, t_end, dt_fine=dt / 500.0)
        assert len(rk.spikes) == len(eu.spikes) > 5
        for ta, tb in zip(rk.spikes.times, eu.spikes.times):
            assert abs(ta - tb) <= 1e-3 * tb

    def test_nonlinear_sine_drive(self):
        neuron = NeuronConfig(
            c_m=0.6e-12,
            i_g=10e-12,
            i_r=0.5e-9,
            i_th=43e-12,
            i_reset=1e-12,
            t_rf=20e-6,
            mode="nonlinear",
        )
        enc = EncoderConfig(transconductor=TC, neuron=neuron)
        wave = Waveform(kind="sine", amplitude=0.15, offset=0.15, frequency=2000.0)
        t_end = 3e-4
        dt = tau_m(neuron) / 50.0
        rk = transient(enc, wave, t_end, SolverConfig(dt=dt, event_tol=dt * 1e-5))
        eu = oracle_transient(enc, wave, t_end, dt_fine=dt / 500.0)
        assert len(rk.spikes) == len(eu.spikes) > 3
        for ta, tb in zip(rk.spikes.times, eu.spikes.times):
            assert abs(ta - tb) <= 1e-3 * tb

    def test_oracle_drive_matches_exact_solve(self):
        # n = 3 puts the node root for |v| near 0.5 V past 0.5 V/(2*n*u_t)
        for n in (1.2, 3.0):
            tc = TransconductorConfig(dev=DeviceParams(n=n))
            enc = EncoderConfig(transconductor=tc, neuron=replace(LIN, dev=tc.dev))
            wave = Waveform(kind="pwl", breakpoints=((0.0, -0.5), (1.0, 0.5)))
            times = np.linspace(0.0, 1.0, 21)
            drive = _vectorized_input_current(enc, wave, times)
            for t, got in zip(times, drive):
                want = neuron_input_current(tc, float(t) - 0.5)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12 * tc.output_quiescent)

    def test_oracle_drive_on_the_narrow_bracket(self):
        # at 0.3 mV sinh overflows at the +/-cap bracket ends for |v| above
        # about 0.1 V, but not at the 0.5 V half-width: both solvers then
        # bracket on [min(0, b), max(0, b)]
        tc = TransconductorConfig(dev=DeviceParams(u_t=3e-4))
        enc = EncoderConfig(transconductor=tc, neuron=replace(LIN, dev=tc.dev))
        wave = Waveform(kind="pwl", breakpoints=((0.0, -0.5), (1.0, 0.5)))
        times = np.linspace(0.0, 1.0, 21)
        drive = _vectorized_input_current(enc, wave, times)
        assert np.max(drive) > 1e15
        for t, got in zip(times, drive):
            want = neuron_input_current(tc, float(t) - 0.5)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12 * tc.output_quiescent)

    def test_oracle_overflow_is_saturation(self):
        # at 1 mV the input argument of a 0.2 V peak is 16.7, and a drive
        # ratio of 1e300 times its sinh overflows inside the oracle's
        # bisection; that must be a typed error, not a numpy warning
        tc = TransconductorConfig(dev=DeviceParams(u_t=1e-3), drive_ratio=1e300)
        enc = EncoderConfig(transconductor=tc, neuron=replace(LIN, dev=tc.dev))
        wave = Waveform(kind="sine", amplitude=0.2, offset=0.0, frequency=1e4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SaturationError, match="oracle node equation overflows"):
                oracle_transient(enc, wave, 1e-4, 1e-7)

    def test_oracle_rejects_pole(self):
        enc = EncoderConfig(transconductor=TC, neuron=LIN, input_pole_capacitance=1e-12)
        with pytest.raises(ValueError, match="pole"):
            oracle_transient(enc, Waveform(kind="dc", offset=0.0), 1e-4, 1e-9)


class TestInputPole:
    def test_fast_pole_changes_little(self):
        base = transient(lin_encoder(), Waveform(kind="dc", offset=0.0), 3e-4)
        fast = transient(
            EncoderConfig(transconductor=TC, neuron=LIN, input_pole_capacitance=1e-15),
            Waveform(kind="dc", offset=0.0),
            3e-4,
        )
        assert len(base.spikes) == len(fast.spikes)
        assert fast.spikes.times[0] == pytest.approx(base.spikes.times[0], rel=1e-2)

    def test_slow_pole_delays_nothing_here_but_runs(self):
        # With a dc input the filter starts settled at the drive and stays
        # there bit for bit, however fast or slow the pole.
        wave = Waveform(kind="dc", offset=0.2)
        for c in (1e-15, 1e-11, 1e-19):
            for neuron in (LIN_RF, NeuronConfig()):
                for refr in (0.0, 7.3e-6):
                    state = NeuronState(i_mem=2e-11, refractory_remaining=refr)
                    plain = EncoderConfig(transconductor=TC, neuron=neuron)
                    pole = replace(plain, input_pole_capacitance=c)
                    got = transient(pole, wave, 5e-4, initial_state=state, trace_every=7)
                    want = transient(plain, wave, 5e-4, initial_state=state, trace_every=7)
                    assert got.spikes == want.spikes
                    assert got.trace == want.trace
                    assert len(want.spikes) >= 3

    def test_pole_past_the_rk4_stability_limit_is_refused(self):
        # omega*dt = 2.9 at the default dt: RK4 would grow the filtered
        # drive to about 1e187 A
        enc = EncoderConfig(input_pole_capacitance=3.956e-16)
        with pytest.raises(SimulationError, match=r"input_pole_capacitance = 3\.956e-16 F.* dt = "):
            transient(enc, Waveform("sine", 0.15, 0.25, 2000.0), 5e-4)
        # a dc input keeps the filter settled, so the same pole simulates
        dc = Waveform(kind="dc", offset=0.25)
        assert transient(enc, dc, 5e-4) == transient(EncoderConfig(), dc, 5e-4)

    def test_slow_pole_attenuates_fast_sine(self):
        # A 50 kHz swing through a sub-kHz pole barely modulates the drive,
        # so spike timing collapses to the dc-equivalent pattern; without
        # the filter the modulation shifts the spikes measurably.
        wave = Waveform(kind="sine", amplitude=0.25, offset=0.0, frequency=5e4)
        strong = transient(lin_encoder(), wave, 4e-4)
        filtered = transient(
            EncoderConfig(transconductor=TC, neuron=LIN, input_pole_capacitance=1e-8),
            wave,
            4e-4,
        )
        flat = transient(lin_encoder(), Waveform(kind="dc", offset=0.0), 4e-4)
        assert filtered.spikes.times[0] == pytest.approx(flat.spikes.times[0], rel=1e-3)
        assert abs(strong.spikes.times[0] - flat.spikes.times[0]) > 1e-3 * flat.spikes.times[0]


class TestDrive:
    def test_varying_drive_is_a_pure_function_of_time(self):
        # the stage drive reuses values between steps; no call order changes one
        enc = lin_encoder()
        wave = Waveform(kind="triangle", amplitude=0.3, offset=0.1, frequency=750.0)
        times = [k * 1.37e-6 for k in range(400)]
        stage_drive = _make_stage_drive(TC, wave, 1e-6, 1.0)[0]
        in_order = [stage_drive(t, 1.37e-6) for t in times]
        assert in_order == [scalar_stages(scalar_drive(enc, wave))(t, 1.37e-6) for t in times]
        shuffled = list(enumerate(times))
        random.Random(3).shuffle(shuffled)
        stage_drive = _make_stage_drive(TC, wave, 1e-6, 1.0)[0]
        again = {k: stage_drive(t, 1.37e-6) for k, t in shuffled}
        assert [again[k] for k in range(len(times))] == in_order

    def test_trace_reports_the_drive_it_integrates(self):
        enc = lin_encoder()
        wave = Waveform(kind="sine", amplitude=0.2, offset=0.05, frequency=3000.0)
        res = transient(enc, wave, 4e-4, trace_every=3)
        drive = scalar_drive(enc, wave)
        assert [row[2] for row in res.trace] == [drive(row[0]) for row in res.trace]

    def test_varying_step_is_plain_rk4(self):
        # The step reuses the drive at its start when the previous step
        # ended there; any call order must give the textbook RK4 bits.
        neuron = NeuronConfig(i_pf_gain=0.5)
        enc = EncoderConfig(transconductor=TC, neuron=neuron)
        wave = Waveform(kind="sine", amplitude=0.3, frequency=4e3)
        drive = scalar_drive(enc, wave)
        # too few steps in a row to read a block
        stage_drive = _make_stage_drive(TC, wave, 1e-6, 1.0)[0]
        step = _neuron_kernel(neuron, "step")

        def f(t, y):
            return membrane_derivative(neuron, NeuronState(i_mem=max(y, 0.0)), drive(t))

        def rk4(t, y, h):
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        calls = [(0.0, 1e-12, 1e-6), (1e-6, 9e-12, 1e-6), (1e-6, 9e-12, 3e-7), (1e-6, 9e-12, 1e-6)]
        calls += [(2e-6, 3e-11, 1e-6), (5e-6, 0.0, 2e-6), (7e-6, 7e-11, 1e-6)]
        for t, y, h in calls:
            assert step(stage_drive, t, y, h) == rk4(t, y, h)

    def test_block_step_is_plain_rk4(self):
        # a long run of full steps, bisection substeps after it, a jump in
        # t and a final step cut short
        neuron = NeuronConfig(i_pf_gain=0.5)
        enc = EncoderConfig(transconductor=TC, neuron=neuron)
        wave = Waveform(kind="triangle", amplitude=0.3, offset=0.1, frequency=4e3)
        drive = scalar_drive(enc, wave)
        dt, t_end = 1e-7, 8.2e-6
        stage_drive = _make_stage_drive(TC, wave, dt, t_end)[0]
        kernel = _neuron_kernel(neuron, "step")

        def step(t, y, h):
            return kernel(stage_drive, t, y, h)

        def f(t, y):
            return membrane_derivative(neuron, NeuronState(i_mem=max(y, 0.0)), drive(t))

        def rk4(t, y, h):
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        def run(t, n):
            for _ in range(n):
                assert step(t, 2e-11, dt) == rk4(t, 2e-11, dt)
                t += dt
            return t

        t = run(0.0, 50)
        for s in (dt, 0.5 * dt, 0.75 * dt, 0.625 * dt):
            assert step(t, 2e-11, s) == rk4(t, 2e-11, s)
        t = run(run(t, 1) + 0.3 * dt, 30)
        assert 0.0 < t_end - t < dt
        assert step(t, 2e-11, t_end - t) == rk4(t, 2e-11, t_end - t)

    def test_dc_drive_is_the_exact_solve(self, monkeypatch):
        def no_table(cfg):
            raise AssertionError("a dc drive built a node-argument table")

        monkeypatch.setattr(sim_engine, "node_arg_table", no_table)
        enc = lin_encoder(LIN_RF)
        res = transient(enc, Waveform(kind="dc", offset=0.2), 3e-4)
        assert {row[1:3] for row in res.trace} == {(0.2, neuron_input_current(TC, 0.2))}
        assert len(res.spikes) > 3
        assert spike_count_dc(enc, 0.2, 1e-4, 3e-4) > 0


def block_times(t0, dt, n):
    """The times of n full steps from t0 and their midpoints, as blocks sum them."""
    steps = np.full(n + 1, dt)
    steps[0] = t0
    steps = np.add.accumulate(steps)
    return np.concatenate((steps, steps[:-1] + 0.5 * dt))


def pwl_wave(knots, volts):
    return Waveform(kind="pwl", breakpoints=tuple(zip(knots, volts)))


class TestDriveBlock:
    @given(
        t0=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        dt=st.floats(min_value=1e-9, max_value=1e-5),
    )
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    def test_block_times_are_the_loop_times(self, t0, dt):
        t, loop = t0, [t0]
        for _ in range(5000):
            t += dt
            loop.append(t)
        assert block_times(t0, dt, 5000)[:5001].tolist() == loop

    @given(
        n=st.floats(min_value=1.0, max_value=3.0, exclude_min=True),
        u_t=st.floats(min_value=5e-3, max_value=40e-3),
        drive_ratio=st.floats(min_value=0.05, max_value=200.0),
        node_shunt_ratio=st.floats(min_value=0.0, max_value=100.0),
        kind=st.sampled_from(["sine", "triangle", "pwl"]),
        amplitude=st.floats(min_value=-0.3, max_value=0.3),
        offset=st.floats(min_value=-0.2, max_value=0.2),
        frequency=st.floats(min_value=1.0, max_value=1e5),
        knots=st.lists(st.floats(min_value=1e-6, max_value=2e-3), min_size=1, max_size=6),
        t0=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3e-3)),
        dt=st.floats(min_value=1e-9, max_value=2e-6),
        steps=st.integers(min_value=1, max_value=300),
    )
    @example(1.2, 25e-3, 6.368, 1.0, "pwl", 0.0, 0.0, 1.0, [1e-6, 2e-6, 3e-6], 0.0, 5e-7, 8)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_bulk_drive_is_the_scalar_drive(
        self, n, u_t, drive_ratio, node_shunt_ratio, kind, amplitude, offset, frequency,
        knots, t0, dt, steps,
    ):
        tc = TransconductorConfig(
            dev=DeviceParams(n=n, u_t=u_t),
            drive_ratio=drive_ratio,
            node_shunt_ratio=node_shunt_ratio,
        )
        enc = EncoderConfig(transconductor=tc, neuron=replace(LIN, dev=tc.dev))
        times = block_times(t0, dt, steps)
        if kind == "pwl":
            # times exactly on every breakpoint and past the last one
            knots = sorted(set(knots))
            volts = [0.5 * math.sin(7.0 * k + amplitude) for k in range(len(knots))]
            wave = pwl_wave([0.0] + knots, [offset] + volts)
            times = np.concatenate((times, knots, [knots[-1] + dt, 1.0]))
        else:
            wave = Waveform(kind=kind, amplitude=amplitude, offset=offset, frequency=frequency)
        # a block's input and drive, as ``_make_stage_drive`` reads them
        volts = sim_engine._waveform_eval_bulk(wave, times)
        assert volts.tolist() == [waveform_eval(wave, t) for t in times.tolist()]
        table = node_arg_table(tc)
        cols = [np.array(col) for col in zip(*table.coeffs)]
        drive = scalar_drive(enc, wave)
        currents = sim_engine._input_currents_bulk(table, cols, volts)
        assert currents.tolist() == [drive(t) for t in times.tolist()]
        # the bulk lookup at the supply ends, zero and inside
        v = np.concatenate((volts, [0.5, -0.5, 0.0, -0.0, 5e-324, -1e-300]))
        currents = sim_engine._input_currents_bulk(table, cols, v)
        assert currents.tolist() == [table.input_current(x) for x in v.tolist()]

    def test_dc_has_no_block(self, monkeypatch):
        def no_block(w, times):
            raise AssertionError("a dc run evaluated a drive block")

        monkeypatch.setattr(sim_engine, "_waveform_eval_bulk", no_block)
        assert len(transient(FIRING, DC_EDGE, 1.5e-3).spikes) >= 3

    def test_pwl_before_the_first_breakpoint(self):
        wave = pwl_wave([1e-3, 2e-3], [0.0, 0.1])
        with pytest.raises(ValueError, match="precedes"):
            sim_engine._waveform_eval_bulk(wave, np.array([1e-3, 5e-4]))


# The rate of the stock nonlinear neuron swings with the input across the
# drive's range, so a spike lands inside blocks as well as at their ends.
FIRING = EncoderConfig(transconductor=TC, neuron=NeuronConfig())
FIRING_POLE = EncoderConfig(transconductor=TC, neuron=NeuronConfig(), input_pole_capacitance=3e-13)
FIRING_DT = default_solver_config(FIRING.neuron).dt
RAMPS = Waveform(kind="triangle", amplitude=0.3, offset=0.1, frequency=900.0)
SINE = Waveform(kind="sine", amplitude=0.1, offset=0.2, frequency=3e3)


class TestBlockPathChangesNothing:
    """``transient`` reading drive blocks equals the stepwise references under the scalar drive."""

    @pytest.mark.parametrize(
        "encoder, wave, t_end, min_spikes",
        [
            (FIRING, RAMPS, 3e-3, 10),
            (FIRING_POLE, SINE, 2e-3, 10),
            # t_end falls mid-block, in the first block and in a later one
            (FIRING, SINE, 77.3 * FIRING_DT, 0),
            (FIRING, SINE, 2901.7 * FIRING_DT, 3),
            (FIRING, pwl_wave([0.0, 4e-4, 9e-4, 1.3e-3], [0.3, -0.1, 0.4, 0.25]), 2e-3, 10),
        ],
        ids=["triangle", "input-pole", "end-in-first-block", "end-mid-block", "pwl"],
    )
    def test_equals_the_scalar_drive(self, monkeypatch, encoder, wave, t_end, min_spikes):
        bulk = sim_engine._waveform_eval_bulk
        blocks = []

        def counted(w, times):
            blocks.append(len(times))
            return bulk(w, times)

        monkeypatch.setattr(sim_engine, "_waveform_eval_bulk", counted)
        got = transient(encoder, wave, t_end, trace_every=7)
        pole = encoder.input_pole_capacitance is not None
        reference = stepwise_pole_transient if pole else stepwise_transient
        want = reference(encoder, wave, t_end, trace_every=7)
        assert blocks
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        assert len(want.spikes) >= min_spikes


# The stock neuron crosses threshold on the last step of a block under
# both inputs: the 256th step of a dc row, and a varying block's last step
# with trace_every 7 or 10**9.
DC_EDGE = Waveform(kind="dc", offset=0.236)
TRI_EDGE = Waveform(kind="triangle", amplitude=0.3, offset=-0.0305, frequency=900.0)
FIRING_PF = EncoderConfig(transconductor=TC, neuron=NeuronConfig(i_pf_gain=0.5))
FIRING_LIN = lin_encoder(LIN_RF)
# Under this input the stock neuron crosses threshold on a row step with
# trace_every 20 in the 3 ms run, twice, each inside a call of the loop.
ROW_SPIKE_WAVE = Waveform(kind="triangle", amplitude=0.3, offset=0.15, frequency=1500.0)


def locate_crossing(crossed, h, event_tol):
    """The bisection of a crossing step, the reference of ``sim_engine._crossing``.

    ``crossed(s)`` tells whether a substep of length s ends at or above
    threshold; bisects [0, h] and returns the upper end.
    """
    lo, hi = 0.0, h
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return hi


def stepwise_transient(encoder, wave, t_end, solver=None, initial_state=None, trace_every=10):
    """``transient`` as one plain RK4 step per loop iteration, the reference.

    The event loop ``transient`` had before full steps ran in one loop,
    with every step the generated ``step`` under the scalar drive.
    """
    neuron = encoder.neuron
    solver = solver or default_solver_config(neuron)
    drive = scalar_drive(encoder, wave)
    kernel, stages = _neuron_kernel(neuron, "step"), scalar_stages(drive)

    def step(t, y, h):
        return kernel(stages, t, y, h)

    state = initial_state or NeuronState(i_mem=neuron.i_reset)
    i_mem, refr = state.i_mem, state.refractory_remaining
    dt, time_eps = solver.dt, sim_engine._time_eps(t_end)
    t, step_index, trace, spikes = 0.0, 0, [], []
    while t < t_end - time_eps:
        if step_index % trace_every == 0:
            t_c = min(t, t_end)
            trace.append((t, waveform_eval(wave, t_c), drive(t_c), i_mem))
        step_index += 1
        if refr > 0.0:
            consume = min(refr, dt, t_end - t)
            t += consume
            refr -= consume
            refr = 0.0 if refr < time_eps else refr
            i_mem = neuron.i_reset
            continue
        if i_mem >= neuron.i_th:
            spikes.append(t)
            i_mem, refr = neuron.i_reset, neuron.t_rf
            continue
        h = min(dt, t_end - t)
        i_new = step(t, i_mem, h)
        if i_new >= neuron.i_th:
            t0, m0 = t, i_mem
            t += locate_crossing(lambda s: step(t0, m0, s) >= neuron.i_th, h, solver.event_tol)
            spikes.append(t)
            i_mem, refr = neuron.i_reset, neuron.t_rf
        else:
            t += h
            i_mem = i_new if i_new > 0.0 else 0.0
    trace.append((t_end, waveform_eval(wave, t_end), drive(t_end), i_mem))
    return sim_engine.SimResult(trace=tuple(trace), spikes=SpikeTrain(times=tuple(spikes)))


def log_full_steps(monkeypatch):
    """A log of the full-step loop of every later ``transient`` call.

    The log has one entry per call of the loop: the blocks it was handed,
    as (entries, block length, whether the entries end the block), its
    arguments ``steps`` and ``row``, and what it returned: ``t``,
    ``taken`` and the refused step's result ``refused``.
    """
    kernel = sim_engine._neuron_kernel
    log = []

    def logged(neuron, name):
        full_steps = kernel(neuron, name)
        if name != "full_steps":
            return full_steps

        def run(take_block, dt, every, t, y, steps, row, trace):
            blocks = []

            def take(t, steps):
                at, mid, volts, j, stop = block = take_block(t, steps)
                blocks.append((stop - j, len(at) - 1, stop == len(at) - 1))
                return block

            out = full_steps(take, dt, every, t, y, steps, row, trace)
            log.append(
                SimpleNamespace(
                    blocks=blocks, steps=steps, row=row, t=out[0], taken=out[2], refused=out[3]
                )
            )
            return out

        return run

    monkeypatch.setattr(sim_engine, "_neuron_kernel", logged)
    return log


def with_and_without_full_steps(monkeypatch, encoder, wave, t_end, **kwargs):
    """``transient``, ``stepwise_transient`` and the log of ``log_full_steps``."""
    log = log_full_steps(monkeypatch)
    got = transient(encoder, wave, t_end, **kwargs)
    return got, stepwise_transient(encoder, wave, t_end, **kwargs), log


def handed(call, blocks=slice(None)):
    """The entries the blocks of a logged call held, all or a slice of them."""
    return sum(entries for entries, _, _ in call.blocks[blocks])


class TestFullStepsChangeNothing:
    """``transient`` equals ``stepwise_transient`` bit for bit."""

    @pytest.mark.parametrize("trace_every", [1, 7, 10**9])
    @pytest.mark.parametrize("wave", [DC_EDGE, TRI_EDGE], ids=["dc", "triangle"])
    @pytest.mark.parametrize(
        "encoder", [FIRING, FIRING_PF, FIRING_LIN], ids=["nonlinear", "pf", "linear"]
    )
    def test_equals_single_steps(self, monkeypatch, encoder, wave, trace_every):
        t_end = 1.5e-3
        got, want, log = with_and_without_full_steps(
            monkeypatch, encoder, wave, t_end, trace_every=trace_every
        )
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        assert len(want.spikes) >= 3
        dt = default_solver_config(encoder.neuron).dt
        assert sum(call.taken for call in log) > 0.25 * t_end / dt

    @pytest.mark.parametrize("trace_every", [7, 10**9])
    @pytest.mark.parametrize(
        "wave, t_end",
        [
            (TRI_EDGE, 75.3 * FIRING_DT),
            (TRI_EDGE, 2901.7 * FIRING_DT),
            (DC_EDGE, 2901.7 * FIRING_DT),
        ],
        ids=["triangle-end-in-first-block", "triangle-end-mid-block", "dc-end-mid-row"],
    )
    def test_end_mid_block(self, monkeypatch, wave, t_end, trace_every):
        scalar_steps = []

        def logged_step(neuron, name):
            kernel = _neuron_kernel(neuron, name)
            if name != "step":
                return kernel
            return lambda stages, t, y, h: scalar_steps.append((t, h)) or kernel(stages, t, y, h)

        monkeypatch.setattr(sim_engine, "_neuron_kernel", logged_step)
        got, want, log = with_and_without_full_steps(
            monkeypatch, FIRING, wave, t_end, trace_every=trace_every
        )
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        # the planned stop excludes the cut step: a call without a crossing
        # steps every entry it was handed
        assert all(call.taken == handed(call) for call in log if call.refused is None)
        # and the scalar step takes it
        last = log[-1]
        assert last.refused is None and last.taken < last.steps
        assert 0.0 < t_end - last.t < FIRING_DT
        assert scalar_steps[-1] == (last.t, t_end - last.t)

    @pytest.mark.parametrize("trace_every", [7, 10**9])
    @pytest.mark.parametrize("wave", [DC_EDGE, TRI_EDGE], ids=["dc", "triangle"])
    def test_refractory_pending(self, monkeypatch, wave, trace_every):
        refr = 123.4 * FIRING_DT
        got, want, _ = with_and_without_full_steps(
            monkeypatch, FIRING, wave, 1e-3,
            initial_state=NeuronState(i_mem=5e-11, refractory_remaining=refr),
            trace_every=trace_every,
        )
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        assert want.spikes.times[0] > refr

    @pytest.mark.parametrize(
        "wave, trace_every",
        [(DC_EDGE, 10**9), (TRI_EDGE, 10**9), (TRI_EDGE, 7)],
        ids=["dc", "triangle", "triangle-traced"],
    )
    def test_crossing_on_the_last_step_of_a_block(self, monkeypatch, wave, trace_every):
        got, want, log = with_and_without_full_steps(
            monkeypatch, FIRING, wave, 1.5e-3, trace_every=trace_every
        )
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        # the refused step reads the last entry of a block of many steps
        assert any(
            call.refused is not None
            and call.blocks[-1][1] > 1
            and call.blocks[-1][2]
            and call.taken - handed(call, slice(-1)) == call.blocks[-1][0] - 1
            for call in log
        )

    def test_runs_after_a_long_block_read_blocks_from_their_second_step(self, monkeypatch):
        # The first run takes _DRIVE_BLOCK_MIN one-step blocks before its
        # first block. A later run, with the last block at least twice that
        # long, takes its first step alone and starts a block of at least
        # half the last one at its second, which its second handout reads
        # whole from entry 0. No other handout is a one-step block.
        log = log_full_steps(monkeypatch)
        res = transient(FIRING, RAMPS, 3e-3, trace_every=10**9)
        min_block = sim_engine._DRIVE_BLOCK_MIN
        assert len(res.spikes) >= 10
        assert [length for _, length, _ in log[0].blocks[:min_block]] == [1] * min_block
        assert all(call.blocks[1][0] == call.blocks[1][1] >= min_block for call in log[1:])
        assert all([length for _, length, _ in call.blocks].count(1) == 1 for call in log[1:])

    def test_one_loop_call_per_stretch_between_events(self, monkeypatch):
        # the loop writes the trace rows itself, so the rows change no call
        calls, results = [], []
        for trace_every in (1, 20, 10**9):
            log = log_full_steps(monkeypatch)
            results.append(transient(FIRING, RAMPS, 3e-3, trace_every=trace_every))
            calls.append(len(log))
        spikes = len(results[0].spikes)
        assert spikes >= 10
        assert all(res.spikes == results[0].spikes for res in results)
        assert calls[0] == calls[1] == calls[2] <= 2 * (spikes + 1)

    def test_rows_written_in_the_loop(self, monkeypatch):
        trace_every = 20
        got, want, log = with_and_without_full_steps(
            monkeypatch, FIRING, ROW_SPIKE_WAVE, 3e-3, trace_every=trace_every
        )
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        assert len(got.trace) > 3e-3 / FIRING_DT / trace_every
        # a crossing step that is a row step inside a call: the loop wrote
        # its row before refusing it
        assert any(
            call.refused is not None
            and call.taken >= call.row
            and (call.taken - call.row) % trace_every == 0
            for call in log
        )


def stepwise_pole_transient(encoder, wave, t_end, solver=None, initial_state=None, trace_every=10):
    """``transient`` of an encoder with an input pole, the reference.

    The membrane and the filtered drive f, f' = omega*(drive - f), as one
    plain two-state RK4 step per loop iteration under the scalar drive,
    each stage reading both states clamped at zero. The filter advances
    over a refractory period and up to a located crossing, and the trace's
    drive column is f.
    """
    neuron = encoder.neuron
    solver = solver or default_solver_config(neuron)
    drive = scalar_drive(encoder, wave)
    omega = effective_gm(encoder.transconductor) / encoder.input_pole_capacitance

    def deriv(m, f):
        return membrane_derivative(
            neuron, NeuronState(i_mem=m if m > 0.0 else 0.0), f if f > 0.0 else 0.0
        )

    def step2(t, m, f, h):
        half = 0.5 * h
        k1m, k1f = deriv(m, f), omega * (drive(t) - f)
        m2, f2 = m + half * k1m, f + half * k1f
        k2m, k2f = deriv(m2, f2), omega * (drive(t + 0.5 * h) - f2)
        m3, f3 = m + half * k2m, f + half * k2f
        k3m, k3f = deriv(m3, f3), omega * (drive(t + 0.5 * h) - f3)
        m4, f4 = m + h * k3m, f + h * k3f
        k4m, k4f = deriv(m4, f4), omega * (drive(t + h) - f4)
        return (
            m + (h / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m),
            f + (h / 6.0) * (k1f + 2.0 * k2f + 2.0 * k3f + k4f),
        )

    state = initial_state or NeuronState(i_mem=neuron.i_reset)
    i_mem, refr, f = state.i_mem, state.refractory_remaining, drive(0.0)
    dt, time_eps = solver.dt, sim_engine._time_eps(t_end)
    t, step_index, trace, spikes = 0.0, 0, [], []
    while t < t_end - time_eps:
        if step_index % trace_every == 0:
            trace.append((t, waveform_eval(wave, t), f, i_mem))
        step_index += 1
        if refr > 0.0:
            consume = min(refr, dt, t_end - t)
            f = step2(t, i_mem, f, consume)[1]
            t += consume
            refr -= consume
            refr = 0.0 if refr < time_eps else refr
            i_mem = neuron.i_reset
            continue
        if i_mem >= neuron.i_th:
            spikes.append(t)
            i_mem, refr = neuron.i_reset, neuron.t_rf
            continue
        h = min(dt, t_end - t)
        m_new, f_new = step2(t, i_mem, f, h)
        if m_new >= neuron.i_th:
            t0, m0, f0 = t, i_mem, f
            hi = locate_crossing(
                lambda s: step2(t0, m0, f0, s)[0] >= neuron.i_th, h, solver.event_tol
            )
            f = step2(t0, m0, f0, hi)[1]
            t += hi
            spikes.append(t)
            i_mem, refr = neuron.i_reset, neuron.t_rf
        else:
            t += h
            i_mem, f = (m_new if m_new > 0.0 else 0.0), f_new
    trace.append((t_end, waveform_eval(wave, t_end), f, i_mem))
    return sim_engine.SimResult(trace=tuple(trace), spikes=SpikeTrain(times=tuple(spikes)))


POLE_WAVES = {
    "dc": DC_EDGE,
    "sine": SINE,
    "triangle": TRI_EDGE,
    "pwl": pwl_wave([0.0, 4e-4, 9e-4, 1.3e-3], [0.3, -0.1, 0.4, 0.25]),
}


class TestPolePathChangesNothing:
    """``transient`` with an input pole equals ``stepwise_pole_transient`` bit for bit."""

    @pytest.mark.parametrize("trace_every", [1, 7, 10**9])
    @pytest.mark.parametrize("kind", sorted(POLE_WAVES))
    def test_equals_the_two_state_rk4(self, kind, trace_every):
        got = transient(FIRING_POLE, POLE_WAVES[kind], 1.5e-3, trace_every=trace_every)
        want = stepwise_pole_transient(
            FIRING_POLE, POLE_WAVES[kind], 1.5e-3, trace_every=trace_every
        )
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        assert len(want.spikes) >= 3

    @pytest.mark.parametrize("kind", ["dc", "sine"])
    def test_refractory_pending(self, kind):
        refr = 123.4 * FIRING_DT
        state = NeuronState(i_mem=5e-11, refractory_remaining=refr)
        got = transient(FIRING_POLE, POLE_WAVES[kind], 1e-3, initial_state=state, trace_every=7)
        want = stepwise_pole_transient(
            FIRING_POLE, POLE_WAVES[kind], 1e-3, initial_state=state, trace_every=7
        )
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        assert want.spikes.times[0] > refr

    @pytest.mark.parametrize("trace_every", [7, 10**9])
    def test_end_mid_block(self, trace_every):
        t_end = 2901.7 * FIRING_DT
        got = transient(FIRING_POLE, SINE, t_end, trace_every=trace_every)
        want = stepwise_pole_transient(FIRING_POLE, SINE, t_end, trace_every=trace_every)
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        assert len(want.spikes) >= 3

    def test_reads_the_blocks_of_the_run_without_a_pole(self, monkeypatch):
        # a silent run takes every step but the last whole, so with or
        # without the pole its full steps form the same runs and blocks
        bulk = sim_engine._waveform_eval_bulk
        blocks = []

        def logged(w, times):
            blocks.append(times.tolist())
            return bulk(w, times)

        monkeypatch.setattr(sim_engine, "_waveform_eval_bulk", logged)
        wave = Waveform(kind="sine", amplitude=0.15, offset=-0.25, frequency=2000.0)
        read = []
        for pole in (None, 20e-12):
            blocks.clear()
            assert not transient(EncoderConfig(input_pole_capacitance=pole), wave, 1e-3).spikes
            read.append(list(blocks))
        assert len(read[0]) > 10
        assert read[1] == read[0]


class TestFullStepsKernel:
    @pytest.mark.parametrize(
        "mode, i_pf_gain",
        [("linear", 0.0), ("nonlinear", 0.0), ("nonlinear", -0.0), ("nonlinear", 0.5)],
    )
    @given(
        y0=st.floats(min_value=0.0, max_value=72e-12),
        drives=st.lists(st.floats(min_value=0.0, max_value=2e-8), min_size=3, max_size=41),
        dt_over_tau=st.floats(min_value=1e-3, max_value=20.0),
        c_m=st.floats(min_value=1e-14, max_value=1e-11),
        i_r=st.floats(min_value=1e-11, max_value=1e-8),
        g_over_r=st.floats(min_value=1e-3, max_value=0.999),
    )
    @example(  # decay below zero
        y0=5e-11, drives=[0.0, 0.0, 0.0], dt_over_tau=4.0, c_m=0.6e-12, i_r=5e-10, g_over_r=0.02
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_steps_are_the_scalar_steps(
        self, mode, i_pf_gain, y0, drives, dt_over_tau, c_m, i_r, g_over_r
    ):
        # Every variant of the kernel: linear, nonlinear with feedback and
        # without, at i_pf_gain 0.0 and -0.0. Steps up to 20 tau long drive
        # stage values below zero, so every clamp decides some bits.
        neuron = NeuronConfig(
            mode=mode, i_pf_gain=i_pf_gain, c_m=c_m, i_r=i_r, i_g=g_over_r * i_r
        )
        dt = dt_over_tau * tau_m(neuron)
        n = (len(drives) - 1) // 2
        at, mid = drives[: n + 1], drives[n + 1 : 2 * n + 1]
        # a row reads the input of its step's entry; one is due before
        # steps 2, 5, 8, ...
        volts, every, row = [0.01 * k for k in range(n + 1)], 3, 2
        def take_block(t, steps):
            return at, mid, volts, 0, min(steps, n)

        # the kernel extends the flat trace by four doubles a row
        trace = array("d")
        got = _neuron_kernel(neuron, "full_steps")(take_block, dt, every, 0.0, y0, n, row, trace)
        step = _neuron_kernel(neuron, "step")
        t, y, rows, k = 0.0, y0, array("d"), 0
        while k < n:
            if k % every == row:
                rows.extend((t, volts[k], at[k], y))
            i_new = step(lambda t, h: (at[k], mid[k], mid[k], at[k + 1]), t, y, dt)
            if not -math.inf < i_new < neuron.i_th:
                assert got[:3] == (t, y, k)
                assert got[3] == i_new or math.isnan(got[3]) and math.isnan(i_new)
                assert trace.tobytes() == rows.tobytes()
                return
            t += dt
            y = i_new if i_new > 0.0 else 0.0
            k += 1
        assert got == (t, y, n, None)
        assert trace.tobytes() == rows.tobytes()

    def test_step_budget_and_row_cap(self, monkeypatch):
        monkeypatch.setattr(sim_engine, "_TRACE_BUDGET", 2)
        at = [1e-9] * 41
        # built past the cache, under the patched budget
        kernel = sim_engine._neuron_kernel.__wrapped__(NeuronConfig(), "full_steps")

        def take_block(t, steps):
            return at, at, at, 0, min(steps, 40)

        def full_steps(t, y, steps, row, trace):
            return kernel(take_block, 1e-7, 1, t, y, steps, row, trace)

        # the step budget is exact
        assert full_steps(0.0, 1e-12, 5, 10**9, [])[2] == 5
        # 7 rows of four doubles
        trace = [0.0] * 28
        with pytest.raises(SimulationError, match="9 trace rows overran 4 times the budget of 2"):
            full_steps(0.0, 1e-12, 40, 1, trace)
        assert len(trace) == 36


def walked_steps(t, steps, dt, t_end):
    """Full steps from t that start before t_last and end by t_end, summed as the loop does."""
    t_last, k = t_end - sim_engine._time_eps(t_end), 0
    while k < steps and t < t_last and t_end - t >= dt:
        t += dt
        k += 1
    return k


class TestTakeBlock:
    """A block hands out exactly the steps that the run takes whole."""

    @given(
        t_end=st.floats(min_value=1e-9, max_value=1e3),
        log2_steps=st.floats(min_value=0.0, max_value=52.0),
        left=st.one_of(st.floats(min_value=0.0, max_value=300.0), st.integers(0, 300)),
        shift=st.sampled_from([0.0, 1e-16, -1e-16, 1e-12, -1e-12]),
        steps=st.integers(min_value=1, max_value=400),
    )
    # dt is 1.52 ulps of t, so every t += dt rounds up by about a third of it
    @example(t_end=2.0, log2_steps=52.4, left=270, shift=0.0, steps=256)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_dc(self, t_end, log2_steps, left, shift, steps):
        dt = t_end / 2.0**log2_steps
        t = max(t_end - left * dt * (1.0 + shift), 0.0)
        take_block = _dc_drive(1e-9, 0.1, dt, t_end)[1]
        at, mid, volts, first, stop = take_block(t, steps)
        assert first == 0
        assert stop == walked_steps(t, min(steps, sim_engine._DRIVE_BLOCK_STEPS), dt, t_end)

    @pytest.mark.parametrize("wave", [DC_EDGE, TRI_EDGE], ids=["dc", "triangle"])
    @pytest.mark.parametrize(
        "shift",
        [0.0, 0.5e-15, 2e-15, -0.5e-15, -2e-15, 0.5 * FIRING_DT],
        ids=["edge", "within-eps-above", "above", "within-eps-below", "below", "mid"],
    )
    @pytest.mark.parametrize("steps", [40, 300])
    def test_end_at_a_step_edge(self, wave, shift, steps):
        # t_end on a step edge, off it by less or more than the time
        # tolerance of 1e-15 s, or between edges
        t_end = steps * FIRING_DT + shift
        for trace_every in (1, 10**9):
            got = transient(FIRING, wave, t_end, trace_every=trace_every)
            want = stepwise_transient(FIRING, wave, t_end, trace_every=trace_every)
            assert got.spikes == want.spikes
            assert got.trace == want.trace


def variant_deriv(variant, neuron):
    """``DERIVATIVES[variant]`` as a function of (m, i_in) under the neuron's constants."""
    expression = DERIVATIVES[variant].format(m="m", i_in="i_in")
    return eval(f"lambda m, i_in: {expression}", derivative_variant(neuron)[1])


def same_bits(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


# the neuron of each derivative variant, all firing at 0.25 V
VARIANT_NEURONS = {
    "linear": LIN,
    "nonlinear": NeuronConfig(i_pf_gain=0.5),
    "nonlinear_no_feedback": NeuronConfig(),
}


class TestGeneratedKernels:
    @pytest.mark.parametrize("pf", [0.0, -0.0])
    @given(
        m=st.sampled_from([0.0, -0.0, 5e-324, "i_th", 1e300, math.inf, math.nan]),
        i_in=st.one_of(
            st.sampled_from([0.0, 5e-324, 1e300]), st.floats(min_value=0.0, max_value=1e-6)
        ),
        c_m=st.floats(min_value=1e-14, max_value=1e-11),
        i_r=st.floats(min_value=1e-11, max_value=1e-8),
        g_over_r=st.floats(min_value=1e-3, max_value=0.999),
    )
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_no_feedback_fold_is_exact(self, pf, m, i_in, c_m, i_r, g_over_r):
        # the loss m*(1 - pf*m/i_r) folded to m gives the general form's bits
        neuron = NeuronConfig(c_m=c_m, i_r=i_r, i_g=g_over_r * i_r, i_pf_gain=pf)
        m = neuron.i_th if m == "i_th" else m
        assert derivative_variant(neuron)[0] == "nonlinear_no_feedback"
        folded = variant_deriv("nonlinear_no_feedback", neuron)
        assert same_bits(folded(m, i_in), variant_deriv("nonlinear", neuron)(m, i_in))

    @pytest.mark.parametrize("variant", sorted(VARIANT_NEURONS))
    def test_generated_source_is_readable(self, monkeypatch, variant):
        neuron = VARIANT_NEURONS[variant]
        # a pole run steps, and bisects its crossings, with the generated step only
        built = []

        def recorded(cfg, name):
            built.append(_neuron_kernel(cfg, name))
            return built[-1]

        monkeypatch.setattr(sim_engine, "_neuron_kernel", recorded)
        enc = EncoderConfig(transconductor=TC, neuron=neuron, input_pole_capacitance=3e-13)
        transient(enc, SINE, 1e-5)
        assert [k.__name__ for k in built] == ["step"]
        assert derivative_variant(neuron)[0] == variant
        names = ("step", "full_steps")
        kernels = {name: _neuron_kernel(neuron, name) for name in names}
        # the derivative written out with each kernel's argument names
        arguments = {
            "step": [("m", i_in) for i_in in ("i0", "i2", "i3", "i1")],
            "full_steps": [("y", "i1"), ("m", "im"), ("m", "i1")],
        }
        f = DERIVATIVES[variant]
        # one text, compiled once, holds both kernels
        filename = f"<rk4: {variant}>"
        text = "".join(linecache.getlines(filename))
        for name, kernel in kernels.items():
            assert kernel.__code__.co_filename == filename
            source = inspect.getsource(kernel)
            for m, i_in in arguments[name]:
                assert f.format(m=m, i_in=i_in) in source
            assert source in text
            assert f"def make_{name}(" in text
        # only the variant with feedback writes pf out
        assert (re.search(r"\bpf\b", f) is None) == (variant != "nonlinear")

    @pytest.mark.parametrize("variant", sorted(VARIANT_NEURONS))
    @given(
        y=st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(-1e-10, 2e-10)),
        drives=st.lists(st.floats(min_value=0.0, max_value=1e-6), min_size=3, max_size=3),
        h_over_tau=st.floats(min_value=1e-4, max_value=20.0),
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_step_is_rk4_of_the_derivative(self, variant, y, drives, h_over_tau):
        # the generated step against RK4 written out around the derivative
        neuron = VARIANT_NEURONS[variant]
        deriv = variant_deriv(variant, neuron)
        h = h_over_tau * tau_m(neuron)
        i_start, i_mid, i_stop = drives
        k1 = deriv(y if y > 0.0 else 0.0, i_start)
        y2 = y + 0.5 * h * k1
        k2 = deriv(y2 if y2 > 0.0 else 0.0, i_mid)
        y3 = y + 0.5 * h * k2
        k3 = deriv(y3 if y3 > 0.0 else 0.0, i_mid)
        y4 = y + h * k3
        k4 = deriv(y4 if y4 > 0.0 else 0.0, i_stop)
        want = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        stages = (i_start, i_mid, i_mid, i_stop)
        assert same_bits(_neuron_kernel(neuron, "step")(lambda t, h: stages, 0.0, y, h), want)

    def test_each_variant_compiles_once(self, monkeypatch):
        compiled = []

        def counted(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        sim_engine._compile_kernels.cache_clear()
        sim_engine._neuron_kernel.cache_clear()
        monkeypatch.setattr(sim_engine, "compile", counted, raising=False)
        vf_curve(EncoderConfig(), [0.1, 0.25, 0.4], 1e-3, 6e-3, (0.1, 0.4))
        rng = random.Random(11)
        for k in range(40):
            neuron = replace(list(VARIANT_NEURONS.values())[k % 3], c_m=rng.uniform(5e-13, 7e-13))
            enc = EncoderConfig(transconductor=TC, neuron=neuron)
            assert spike_count_dc(enc, 0.25, 0.0, 1e-3) > 0
        # dc counts compile the kernel text, full-step loop and scalar step, once a variant
        assert sorted(compiled) == sorted(f"<rk4: {v}>" for v in VARIANT_NEURONS)
        compiled.clear()
        for neuron in VARIANT_NEURONS.values():
            for pole in (3e-13, None):
                enc = EncoderConfig(transconductor=TC, neuron=neuron, input_pole_capacitance=pole)
                assert len(transient(enc, SINE, 1e-3).spikes) > 0
        # time-varying runs share them and compile nothing
        assert compiled == []

    def test_one_encoder_builds_its_dc_kernels_once(self, monkeypatch):
        built = []
        compile_kernels = sim_engine._compile_kernels

        def logged(variant):
            makers = compile_kernels(variant)

            def maker(name):
                return lambda **constants: built.append(name) or makers[f"make_{name}"](**constants)

            return {f"make_{name}": maker(name) for name in ("step", "full_steps")}

        sim_engine._neuron_kernel.cache_clear()
        monkeypatch.setattr(sim_engine, "_compile_kernels", logged)
        enc = EncoderConfig(transconductor=TC, neuron=NeuronConfig(c_m=0.61e-12))
        biases = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
        assert all(spike_count_dc(enc, v, 0.0, 2e-3) > 0 for v in biases)
        assert sorted(built) == ["full_steps", "step"]

    def test_a_second_run_builds_no_kernel(self):
        enc = EncoderConfig(transconductor=TC, neuron=NeuronConfig(c_m=0.62e-12))
        pole = replace(enc, input_pole_capacitance=3e-13)
        info = sim_engine._neuron_kernel.cache_info
        misses = [info().misses]
        for run in (
            lambda: vf_curve(enc, [0.1, 0.25, 0.4], 1e-3, 6e-3, (0.1, 0.4)),
            lambda: transient(enc, SINE, 1e-3),
            lambda: transient(pole, SINE, 1e-3),
        ):
            run()
            misses.append(info().misses)
            run()
            misses.append(info().misses)
        # vf_curve builds full_steps and step, which the sine and pole runs reuse
        m = misses[0]
        assert misses == [m, m + 2, m + 2, m + 2, m + 2, m + 2, m + 2]

    @pytest.mark.parametrize("variant", sorted(DERIVATIVES))
    def test_expression_reads_only_placeholders_and_constants(self, variant):
        f = DERIVATIVES[variant]
        placeholders = {name for _, name, _, _ in string.Formatter().parse(f) if name is not None}
        assert placeholders == {"m", "i_in"}
        tree = ast.parse(f.format(m="m", i_in="i_in"), mode="eval")
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert names - placeholders <= set(DERIVATIVE_CONSTANTS)
        assert not any(isinstance(node, (ast.Attribute, ast.Call)) for node in ast.walk(tree))


def counted_steps(monkeypatch):
    """The substep lengths of every later call of a neuron's generated ``step``."""
    kernel, lengths = sim_engine._neuron_kernel, []

    def counted(neuron, name):
        step = kernel(neuron, name)
        if name != "step":
            return step
        return lambda stage_drive, t, y, h: lengths.append(h) or step(stage_drive, t, y, h)

    monkeypatch.setattr(sim_engine, "_neuron_kernel", counted)
    return lengths


class TestCrossing:
    """``_crossing`` calls ``step`` ceil(log2(h/event_tol)) times, once per halving."""

    def test_a_full_step_at_the_default_dt_takes_eight_halvings(self, monkeypatch):
        solver = default_solver_config(FIRING.neuron)
        assert solver.dt == pytest.approx(0.18e-6, rel=1e-12) and solver.event_tol == 1e-9
        lengths = counted_steps(monkeypatch)
        i_dc = neuron_input_current(TC, 0.25)
        args = (i_dc, FIRING.neuron.i_reset, solver.dt, 1e-3, solver.event_tol)
        assert sim_engine._first_interval(FIRING.neuron, *args)[0] == "crossed"
        # a dc count steps its first interval in full steps and bisects only the crossing
        assert len(lengths) == 8 == math.ceil(math.log2(180))
        assert lengths[0] == 0.5 * solver.dt

    @given(
        k=st.integers(0, 40),
        frac=st.floats(0.01, 1.0),
        h=st.floats(1e-9, 1e-6),
        below=st.floats(0.0, 1.0),
    )
    # h/event_tol exactly 2**k: the last halving leaves a span of exactly event_tol
    @example(k=0, frac=1.0, h=0.18e-6, below=0.5)  # h == event_tol: no halving
    @example(k=8, frac=1.0, h=0.18e-6, below=0.01)
    @example(k=40, frac=1.0, h=1e-6, below=0.01)
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_halvings_are_the_ceil_of_log2_of_the_ratio(self, k, frac, h, below):
        # h/event_tol lies above 2**(k - 1) and at most at 2**k
        event_tol = h / (2.0 ** (k - 1) * (1.0 + frac))
        neuron = FIRING.neuron
        step = _neuron_kernel(neuron, "step")
        stages = (neuron_input_current(TC, 0.25),) * 4
        lengths = []

        def counted(stage_drive, t, y, mid):
            lengths.append(mid)
            return step(stage_drive, t, y, mid)

        y = neuron.i_th * (1.0 - below**4)
        hi = sim_engine._crossing(counted, lambda t, h: stages, 0.0, y, h, event_tol, neuron.i_th)
        assert len(lengths) == k == math.ceil(math.log2(h / event_tol))
        assert 0.0 < hi <= h

    def test_a_substep_that_ends_at_i_th_reaches_it(self):
        # a membrane rising at 1 A/s from 0 reaches i_th = 0.5 A after 0.5 s
        def step(stage_drive, t, y, h):
            return y + h

        assert sim_engine._crossing(step, None, 0.0, 0.0, 1.0, 0.25, 0.5) == 0.5


def first_interval_by_steps(neuron, i_in, y, dt, t_end, event_tol):
    """The first interval of ``spike_count_dc``, one scalar step at a time: the reference.

    ``step`` under the constant drive, in chunks of 256 steps that
    ``_whole_steps`` cuts near t_end, and ``locate_crossing`` around the
    crossing step, with the verdicts of ``_first_interval``.
    """
    chunk = sim_engine._DRIVE_BLOCK_STEPS
    kernel, stages = _neuron_kernel(neuron, "step"), (i_in,) * 4

    def step(t, y, h):
        return kernel(lambda _t, _h: stages, t, y, h)

    t, n_steps = 0.0, 0
    while True:
        y_start = y
        n = sim_engine._whole_steps(t, chunk, dt, t_end)
        for _ in range(n):
            i_new = step(t, y, dt)
            if not math.isfinite(i_new):
                return "non-finite", t, y, n_steps
            if i_new >= neuron.i_th:
                t0, y0 = t, y
                t += locate_crossing(lambda s: step(t0, y0, s) >= neuron.i_th, dt, event_tol)
                return "crossed", t, y, n_steps
            t += dt
            y = i_new if i_new > 0.0 else 0.0
            n_steps += 1
        if n < chunk:
            return "window end", t, y, n_steps
        if y <= y_start:
            return "silent", t, y, n_steps


def first_interval_case(variant, i_in, start, dt_over_tau, steps, tol_over_dt=1 / 180):
    """The arguments of ``_first_interval`` and of its reference for one case."""
    neuron = VARIANT_NEURONS[variant]
    dt = dt_over_tau * tau_m(neuron)
    return neuron, (i_in, start * neuron.i_th, dt, steps * dt, tol_over_dt * dt)


class TestDcFirst:
    """The first interval of a dc count (``_first_interval``) gives the scalar
    step's verdict, state and step count, and its spike time the bisection of
    the scalar step."""

    @pytest.mark.parametrize(
        "verdict, variant, i_in, start, dt_over_tau, steps",
        [
            ("crossed", "nonlinear_no_feedback", 8e-9, 0.01, 0.005, 1e4),
            ("crossed", "linear", 8e-9, 0.01, 0.005, 1e4),
            # a crossing in the fourth chunk
            ("crossed", "nonlinear", 4e-9, 0.01, 0.005, 1e4),
            # the equilibrium lies below i_th: after 30 chunks the membrane
            # stops rising, or it falls from above the equilibrium at once
            ("silent", "nonlinear_no_feedback", 4e-9, 0.01, 0.005, 1e4),
            ("silent", "linear", 1e-9, 0.9, 0.005, 1e4),
            # the window closes inside the first and the third chunk, on
            # the last step of the second, and before a whole step
            ("window end", "nonlinear_no_feedback", 8e-9, 0.01, 0.005, 100.5),
            ("window end", "nonlinear", 4e-9, 0.01, 0.005, 600.0),
            ("window end", "nonlinear", 4e-9, 0.01, 0.005, 512.0),
            ("window end", "linear", 8e-9, 0.01, 0.005, 0.7),
            # RK4 past its stability limit, and a drive that overflows
            ("non-finite", "linear", 1e-9, 0.01, 1e300, 1e4),
            ("non-finite", "nonlinear_no_feedback", 1e308, 0.5, 0.005, 1e4),
        ],
    )
    def test_verdicts(self, verdict, variant, i_in, start, dt_over_tau, steps):
        neuron, args = first_interval_case(variant, i_in, start, dt_over_tau, steps)
        got = sim_engine._first_interval(neuron, *args)
        assert got == first_interval_by_steps(neuron, *args)
        assert got[0] == verdict

    @pytest.mark.parametrize("variant", sorted(VARIANT_NEURONS))
    @given(
        i_in=st.floats(0.0, 2e-8),
        start=st.floats(0.0, 1.0),
        dt_over_tau=st.one_of(st.floats(1e-3, 3.0), st.sampled_from([0.005, 0.01])),
        steps=st.one_of(st.floats(0.0, 700.0), st.integers(0, 700), st.just(1e6)),
        tol=st.sampled_from([1 / 180, 0.1, 0.3, 1e-6]),  # event_tol over dt
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_equals_the_full_step_loop(self, variant, i_in, start, dt_over_tau, steps, tol):
        neuron, args = first_interval_case(variant, i_in, start, dt_over_tau, steps, tol)
        got = sim_engine._first_interval(neuron, *args)
        want = first_interval_by_steps(neuron, *args)
        assert got[0] == want[0] and got[3] == want[3]
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])


class TestSimulationErrorType:
    def test_carries_timestamp(self):
        err = SimulationError("boom", 1.5e-6)
        assert err.t == 1.5e-6
        assert isinstance(err, RuntimeError)


def stepped_count(encoder, v, t0, t1, solver=None):
    """The reference: a full transient over [0, t1], filtered to [t0, t1)."""
    res = transient(encoder, Waveform(kind="dc", offset=v), t1, solver, trace_every=10**9)
    return sum(t0 <= t < t1 for t in res.spikes.times)


# Stock nonlinear neuron (fires about 9 kHz at 0.25 V, silent at 0 V).
NONLIN = NeuronConfig()


def equilibrium(neuron, i_in):
    """The dc fixed point of the membrane, from the model equation."""
    if neuron.mode == "linear":
        return neuron.gain * i_in
    pf, i_g, i_r = neuron.i_pf_gain, neuron.i_g, neuron.i_r
    if pf == 0.0:
        return i_g * (i_in / i_r - 1.0)
    # the smaller root of pf*I**2 + (pf*i_g - i_r)*I + (i_in - i_r)*i_g
    b, c = pf * i_g - i_r, (i_in - i_r) * i_g
    return (-b - math.sqrt(b * b - 4.0 * pf * c)) / (2.0 * pf)


def slope_bound(neuron, i_in):
    """L, the bound on |df/dI| over [0, i_th] that the silent-bias guard uses."""
    if neuron.mode == "linear":
        return 1.0 / tau_m(neuron)
    return (i_in / neuron.i_r + 1.0 + 2.0 * neuron.i_pf_gain * neuron.i_th / neuron.i_r) / tau_m(
        neuron
    )


# Silent at 0 V: equilibria of 70, 40 and 76.6 pA against these thresholds.
SILENT = {
    "nonlinear": NONLIN,
    "linear": replace(LIN, i_th=50e-12),
    "feedback": replace(NONLIN, i_pf_gain=0.5, i_th=80e-12),
}


@pytest.fixture(scope="module")
def long_train():
    enc = EncoderConfig(transconductor=TC, neuron=NONLIN)
    t1 = 15e-3
    return enc, t1, transient(enc, Waveform(kind="dc", offset=0.25), t1).spikes.times


class TestSpikeCountDc:
    @given(
        mode=st.sampled_from(["linear", "nonlinear"]),
        i_th=st.floats(min_value=20e-12, max_value=150e-12),
        i_pf_gain=st.sampled_from([0.0, 0.5, 2.0]),
        t_rf=st.sampled_from([0.0, 5e-6, 20e-6, 100e-6]),
        pole=st.sampled_from([None, 1e-12]),
        cheap=st.booleans(),
        v=st.floats(min_value=-0.5, max_value=0.5),
        t1=st.floats(min_value=3e-4, max_value=1.5e-3),
        t0_frac=st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=0.9), st.floats(0.97, 0.999)
        ),
        dt_scale=st.sampled_from([1, 20, 100, 300]),
    )
    @example("nonlinear", 72e-12, 0.0, 20e-6, None, False, 0.0, 1e-3, 0.2, 1)  # silent bias
    @example("linear", 30e-12, 0.0, 0.0, None, False, 0.0, 1e-3, 0.0, 1)  # t_rf = 0, t0 = 0
    @example("nonlinear", 72e-12, 2.0, 20e-6, 1e-12, True, 0.3, 1.2e-3, 0.98, 1)  # pole, short
    @example("nonlinear", 72e-12, 0.0, 20e-6, None, False, 0.0, 1e-3, 0.2, 300)  # silent, coarse
    @example("nonlinear", 72e-12, 0.0, 20e-6, None, True, 0.25, 1e-3, 0.0, 300)  # 3 tau_m
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_matches_stepping_loop(
        self, mode, i_th, i_pf_gain, t_rf, pole, cheap, v, t1, t0_frac, dt_scale
    ):
        neuron = NeuronConfig(i_th=i_th, i_pf_gain=i_pf_gain, t_rf=t_rf, mode=mode)
        enc = EncoderConfig(transconductor=TC, neuron=neuron, input_pole_capacitance=pole)
        base = _cheap_solver(neuron) if cheap else default_solver_config(neuron)
        solver = SolverConfig(dt=base.dt * dt_scale, event_tol=base.event_tol)
        t0 = t0_frac * t1
        if solver.dt / tau_m(neuron) > sim_engine._RK4_STABLE:
            # the cheap step at 300 times is 3 tau_m: both refuse before a step
            for count in (spike_count_dc, stepped_count):
                with pytest.raises(SimulationError, match="past RK4's stability limit"):
                    count(enc, v, t0, t1, solver)
            return
        assert spike_count_dc(enc, v, t0, t1, solver) == stepped_count(enc, v, t0, t1, solver)

    def test_silent_bias_counts_zero(self):
        enc = EncoderConfig(transconductor=TC, neuron=NONLIN)
        assert stepped_count(enc, 0.0, 0.0, 2e-3) == 0
        assert spike_count_dc(enc, 0.0, 0.0, 2e-3) == 0
        assert spike_count_dc(enc, -0.5, 0.0, 1.0) == 0

    def test_long_window_matches_stepping_loop(self):
        enc = EncoderConfig(transconductor=TC, neuron=NONLIN)
        assert spike_count_dc(enc, 0.25, 2e-3, 22e-3) == stepped_count(enc, 0.25, 2e-3, 22e-3)

    @pytest.mark.parametrize("offset_tols", [0.0, 0.25, 0.5, 0.999, 1.0])
    @pytest.mark.parametrize("k", [0, 2, 9])
    def test_window_end_within_event_tol_after_a_spike(self, k, offset_tols):
        # Tie rule at t1: the stepped final periods give the stepping
        # loop's own verdict on a spike cut by the last, truncated step.
        enc = EncoderConfig(transconductor=TC, neuron=NONLIN)
        solver = default_solver_config(NONLIN)
        times = transient(enc, Waveform(kind="dc", offset=0.25), 1.5e-3, solver).spikes.times
        t1 = times[k] + offset_tols * solver.event_tol
        assert spike_count_dc(enc, 0.25, 0.0, t1, solver) == stepped_count(enc, 0.25, 0.0, t1, solver)

    @pytest.mark.parametrize("k", [0, 1, 40, 120, -1])
    def test_window_start_on_a_spike_counts_it(self, k, long_train):
        # Tie rule at t0: a spike at exactly t0, as transient reports it,
        # lies inside the window, whether its time comes from the stepped
        # first interval, the closed form or the stepped final periods.
        enc, t1, times = long_train
        assert len(times) > 130
        t0 = times[k]
        expected = len(times) - k % len(times)
        assert stepped_count(enc, 0.25, t0, t1) == expected
        assert spike_count_dc(enc, 0.25, t0, t1) == expected

    @pytest.mark.parametrize("kind", SILENT)
    def test_silent_bias_under_the_guard_takes_no_step(self, monkeypatch, kind):
        neuron = SILENT[kind]
        enc = EncoderConfig(transconductor=TC, neuron=neuron)
        i_in = neuron_input_current(TC, 0.0)
        assert equilibrium(neuron, i_in) < neuron.i_th
        assert default_solver_config(neuron).dt * slope_bound(neuron, i_in) <= 0.5
        assert stepped_count(enc, 0.0, 0.0, 2e-3) == 0

        def no_step(*args):
            raise AssertionError("a silent bias under the guard took a step")

        monkeypatch.setattr(sim_engine, "_neuron_kernel", no_step)
        assert spike_count_dc(enc, 0.0, 0.0, 2e-3) == 0
        assert spike_count_dc(enc, 0.0, 0.0, 10.0) == 0
        assert spike_count_dc(enc, -0.5, 0.0, 10.0) == 0

    @pytest.mark.parametrize("dt_scale", [20, 100, 300])
    @pytest.mark.parametrize(
        "neuron, v", [(NONLIN, 0.0), (NONLIN, 0.25), (SILENT["feedback"], 0.0)]
    )
    def test_past_the_guard_matches_stepping_loop(self, neuron, v, dt_scale):
        base = default_solver_config(neuron)
        solver = SolverConfig(dt=base.dt * dt_scale, event_tol=base.event_tol)
        assert solver.dt * slope_bound(neuron, neuron_input_current(TC, v)) > 0.5
        enc = EncoderConfig(transconductor=TC, neuron=neuron)
        assert spike_count_dc(enc, v, 0.0, 2e-3, solver) == stepped_count(enc, v, 0.0, 2e-3, solver)

    def test_silent_bias_past_the_guard_stops_stepping(self, monkeypatch):
        # a chunk of steps that does not raise the membrane ends the count,
        # long before a 1 s window would hand its end to transient
        base = default_solver_config(NONLIN)
        solver = SolverConfig(dt=20 * base.dt, event_tol=base.event_tol)
        enc = EncoderConfig(transconductor=TC, neuron=NONLIN)

        def no_transient(*args, **kwargs):
            raise AssertionError("stepped a silent bias to the window end")

        monkeypatch.setattr(sim_engine, "transient", no_transient)
        assert spike_count_dc(enc, 0.0, 0.0, 1.0, solver) == 0

    @pytest.mark.parametrize("i_reset, fires", [(150e-12, False), (250e-12, True)])
    def test_feedback_reset_between_or_above_the_roots(self, i_reset, fires):
        # with i_pf_gain = 1.5 at 0 V the derivative vanishes at 108.7 and
        # 215 pA: from between them the membrane falls, from above it grows
        neuron = NeuronConfig(i_pf_gain=1.5, i_reset=i_reset, i_th=300e-12)
        enc = EncoderConfig(transconductor=TC, neuron=neuron)
        count = stepped_count(enc, 0.0, 0.0, 2e-3)
        assert (count > 0) == fires
        assert spike_count_dc(enc, 0.0, 0.0, 2e-3) == count

    @pytest.mark.parametrize("eps", [1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12, 0.0])
    @pytest.mark.parametrize(
        "neuron",
        [NONLIN, replace(NONLIN, mode="linear"), replace(NONLIN, i_pf_gain=0.5)],
        ids=["nonlinear", "linear", "feedback"],
    )
    def test_threshold_at_the_equilibrium(self, neuron, eps):
        # i_th = I*(1 + eps): on either side of the guard's margin, and on
        # the fixed point itself, the count is the stepping loop's
        i_in = neuron_input_current(TC, 0.0)
        neuron = replace(neuron, i_th=equilibrium(neuron, i_in) * (1.0 + eps))
        enc = EncoderConfig(transconductor=TC, neuron=neuron)
        assert spike_count_dc(enc, 0.0, 0.0, 3e-3) == stepped_count(enc, 0.0, 0.0, 3e-3)

    @pytest.mark.parametrize("k", [0, 1, 40, 120])
    def test_window_end_far_from_spikes_runs_no_transient(self, monkeypatch, k, long_train):
        enc, _, times = long_train

        def no_transient(*args, **kwargs):
            raise AssertionError("transient ran for a window end far from every spike")

        monkeypatch.setattr(sim_engine, "transient", no_transient)
        t1 = 0.5 * (times[k] + times[k + 1])
        assert spike_count_dc(enc, 0.25, 0.0, t1) == k + 1
        if k > 0:
            assert spike_count_dc(enc, 0.25, 0.5 * (times[0] + times[1]), t1) == k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_window_of_one_spike_cut_by_t1(self, k):
        # t1 cuts the crossing step of the spike at t0 and moves it below t0
        neuron = NeuronConfig(i_th=7.5081753161587e-11, t_rf=5e-6, i_pf_gain=2.0)
        enc, v = EncoderConfig(transconductor=TC, neuron=neuron), -0.09043415378772257
        tol = default_solver_config(neuron).event_tol
        t0 = transient(enc, Waveform(kind="dc", offset=v), 1e-3).spikes.times[k]
        spans = (0.5, 1.5, 2.5, 5.0, 400.0)  # in event_tol; dt is 180
        counts = [stepped_count(enc, v, t0, t0 + f * tol) for f in spans]
        assert 0 in counts and 1 in counts
        for f, count in zip(spans, counts):
            assert spike_count_dc(enc, v, t0, t0 + f * tol) == count

    def test_periods_shorter_than_a_step(self):
        # t_rf = 0 and dt = 2 tau: several crossing steps reach past t1, and
        # each step t1 cuts short moves its spike and every later one
        neuron = NeuronConfig(i_th=2.1813486126177943e-11, t_rf=0.0, mode="linear")
        enc, v = EncoderConfig(transconductor=TC, neuron=neuron), -0.07607940729329993
        solver = SolverConfig(dt=2.0 * tau_m(neuron), event_tol=1e-9)
        times = transient(enc, Waveform(kind="dc", offset=v), 1e-3, solver).spikes.times
        assert times[1] - times[0] < solver.dt / 4
        for t_s in times[60:64]:
            for f in (0.5, 1.0, 1.07, 1.5, 2.1, 3.0):
                t1 = t_s + f * solver.event_tol
                want = stepped_count(enc, v, 0.0, t1, solver)
                assert spike_count_dc(enc, v, 0.0, t1, solver) == want

    def test_spike_of_transient_at_t1_counts(self):
        # The tie rule's edge at t1: transient puts a spike exactly at t1,
        # which the stepping loop leaves out of [0, t1). The count hands the
        # last period to transient on a span rounded from t1, which puts
        # that spike inside the window, as the docstring states.
        neuron = NeuronConfig(i_th=3.474149480825686e-11, t_rf=2e-5)
        enc, v = EncoderConfig(transconductor=TC, neuron=neuron), 0.005927826526606991
        t1 = 1.1108000000000084e-4
        times = transient(enc, Waveform(kind="dc", offset=v), t1).spikes.times
        assert len(times) == 2 and times[-1] == t1
        assert stepped_count(enc, v, 0.0, t1) == 1
        assert spike_count_dc(enc, v, 0.0, t1) == 2

    @pytest.mark.parametrize("t0, t1", [(0.0, 0.0), (2e-3, 1e-3), (-1e-3, 1e-3), (0.0, math.inf)])
    def test_rejects_bad_window(self, t0, t1):
        with pytest.raises(ValueError, match="window"):
            spike_count_dc(lin_encoder(), 0.0, t0, t1)

    def test_rejects_euler_method(self):
        # rk4 is the only integrator, and the config names no other
        with pytest.raises(TypeError, match="method"):
            SolverConfig(1e-7, 1e-9, method="euler-oracle")

    def test_window_too_long_to_count(self):
        # the closed form's rounding bound overflows: refused, not a traceback
        with pytest.raises(SimulationError, match="too long"):
            spike_count_dc(EncoderConfig(), 0.25, 2e-3, 1e300)


    def test_refractory_too_many_steps_to_count(self):
        # t_rf/dt overflows a double: refused, not an OverflowError
        neuron = NeuronConfig(t_rf=1e300)
        with pytest.raises(SimulationError, match="too many steps"):
            spike_count_dc(EncoderConfig(neuron=neuron), 0.25, 0.0, 1e-4, SolverConfig(1e-9, 1e-10))

    @pytest.mark.parametrize("v", [0.0, 0.25])  # a silent bias under the guard, a firing one
    def test_refractory_refused_before_a_step(self, monkeypatch, v):
        def no_step(*args, **kwargs):
            raise AssertionError("the refusal took a step")

        monkeypatch.setattr(sim_engine, "_neuron_kernel", no_step)
        monkeypatch.setattr(sim_engine, "transient", no_step)
        enc = EncoderConfig(neuron=NeuronConfig(t_rf=1e300))
        with pytest.raises(SimulationError, match="too many steps"):
            spike_count_dc(enc, v, 0.0, 1e-3, SolverConfig(1e-10, 1e-11))


# A draw for a number field: within three decades of its shipped value, or
# an extreme double, so that the config classes' own checks decide what is
# accepted.
EXTREMES = st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308])


def near(value):
    decades = st.floats(-3.0, 3.0).map(lambda e: value * 10.0**e)
    return st.one_of(decades, decades, decades, EXTREMES)  # one draw in four extreme


def near_or_zero(value):
    return st.just(0.0) | near(value)


@st.composite
def accepted_configs(draw):
    """(encoder, solver or None, v, steps), or None where a config class refuses the draw."""
    try:
        dev = DeviceParams(n=1.0 + draw(near(0.2)), u_t=draw(near(0.025)))
        tc = TransconductorConfig(
            dev=dev,
            i_ref=draw(near(8e-9)),
            mirror_to_output=draw(near(0.5)),
            drive_ratio=draw(near(6.368)),
            node_shunt_ratio=draw(near_or_zero(1.0)),
        )
        i_g, i_r = sorted((draw(near(10e-12)), draw(near(0.5e-9))))
        i_reset, i_th = sorted((draw(near(1e-12)), draw(near(72e-12))))
        neuron = NeuronConfig(
            c_m=draw(near(0.6e-12)),
            i_g=i_g,
            i_r=i_r,
            i_th=i_th,
            i_reset=i_reset,
            t_rf=draw(near_or_zero(20e-6)),
            dev=dev,
            mode=draw(st.sampled_from(["nonlinear", "linear"])),
            i_pf_gain=draw(near_or_zero(0.1)),
        )
        enc = EncoderConfig(tc, neuron, draw(st.none() | near(20e-12)))
        dt = draw(st.none() | near(1.8e-7))
        solver = None if dt is None else SolverConfig(dt, dt * draw(st.floats(2.0**-40, 0.5)))
    except ValueError:
        return None
    return enc, solver, draw(st.floats(-0.5, 0.5)), draw(st.integers(1, 48))


class TestAcceptedConfigsSimulate:
    @given(case=accepted_configs())
    # t_rf/dt overflows in spike_count_dc: with a first spike inside the
    # window, and as first seen, with the first spike past it
    @example(
        case=(
            EncoderConfig(neuron=NeuronConfig(t_rf=1e305, i_th=1.1e-12)),
            SolverConfig(1e-7, 1e-8),
            0.25,
            48,
        )
    )
    @example(case=(EncoderConfig(neuron=NeuronConfig(t_rf=1e300)), SolverConfig(1e-10, 1e-11), 0.25, 48))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_short_runs_simulate_or_raise_typed(self, case):
        # every config the classes accept runs a few dozen steps of a dc
        # and a sine transient and a dc count, or raises ValueError or
        # RuntimeError, never another exception
        if case is None:
            return
        enc, solver, v, steps = case
        t_end = steps * (solver or default_solver_config(enc.neuron)).dt
        runs = (
            lambda: transient(enc, Waveform(kind="dc", offset=v), t_end, solver),
            lambda: transient(
                enc, Waveform(kind="sine", amplitude=0.5 - abs(v), offset=v, frequency=0.5 / t_end),
                t_end,
                solver,
            ),
            lambda: spike_count_dc(enc, v, 0.0, t_end, solver),
        )
        for run in runs:
            try:
                run()
            except (ValueError, RuntimeError):
                pass
