"""Tests for waveforms, the RK4 transient engine and the Euler oracle.

The spiking tests run a linear-mode neuron because its firing rate has a
closed form to compare against; the nonlinear mode is cross-checked via the
independent Euler oracle instead.
"""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from encoder_sim import sim_engine
from encoder_sim.bias_tuner import _cheap_solver
from encoder_sim.device_model import DeviceParams, SaturationError
from encoder_sim.neuron import (
    NeuronConfig,
    NeuronState,
    analytic_rate,
    membrane_derivative,
    tau_m,
)
from encoder_sim.sim_engine import (
    EncoderConfig,
    SimulationError,
    SolverConfig,
    SpikeTrain,
    Waveform,
    _make_drive,
    _make_stage_drive,
    _make_step,
    _vectorized_input_current,
    _waveform_eval_array,
    default_solver_config,
    oracle_transient,
    spike_count_dc,
    transient,
    waveform_eval,
)
from encoder_sim.transconductor import TransconductorConfig, neuron_input_current, node_arg_table

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
        with pytest.raises(ValueError, match="method"):
            SolverConfig(dt=1e-7, event_tol=1e-9, method="rk45")

    def test_default_tracks_time_constant(self):
        cfg = default_solver_config(LIN)  # tau = 18 us
        assert cfg.dt == pytest.approx(tau_m(LIN) / 200.0, rel=1e-12)
        assert cfg.event_tol < cfg.dt

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
        with pytest.raises(ValueError, match="method"):
            transient(enc, wave, 1e-3, SolverConfig(dt=1e-7, event_tol=1e-9, method="euler-oracle"))

    def test_encoder_config_validation(self):
        with pytest.raises(ValueError, match="input_pole_capacitance"):
            EncoderConfig(transconductor=TC, neuron=LIN, input_pole_capacitance=0.0)

    @pytest.mark.parametrize("field, key, value", [("n", "n", 1.3), ("u_t", "u_t_v", 0.026)])
    def test_neuron_shares_the_device(self, field, key, value):
        # the message names the config key
        tc = TransconductorConfig(dev=DeviceParams(**{field: value}))
        with pytest.raises(ValueError, match=rf"neuron\.{key} = .* differs from device\.{key} = "):
            EncoderConfig(transconductor=tc, neuron=LIN)
        EncoderConfig(transconductor=tc, neuron=replace(LIN, **{field: value}))

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
        with pytest.raises(SimulationError, match="trace rows overran 4 times the budget of 11"):
            transient(enc, wave, 100 * dt, solver, trace_every=10)  # 11 rows nominal


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
            enc = EncoderConfig(transconductor=tc, neuron=replace(LIN, n=n))
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
        enc = EncoderConfig(transconductor=tc, neuron=replace(LIN, u_t=3e-4))
        wave = Waveform(kind="pwl", breakpoints=((0.0, -0.5), (1.0, 0.5)))
        times = np.linspace(0.0, 1.0, 21)
        drive = _vectorized_input_current(enc, wave, times)
        assert np.max(drive) > 1e15
        for t, got in zip(times, drive):
            want = neuron_input_current(tc, float(t) - 0.5)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12 * tc.output_quiescent)

    def test_oracle_overflow_is_saturation(self):
        # a 0.1 mV thermal voltage overflows sinh inside the oracle's
        # bisection; that must be a typed error, not a numpy warning
        tc = TransconductorConfig(dev=DeviceParams(u_t=1e-4))
        enc = EncoderConfig(transconductor=tc, neuron=replace(LIN, u_t=1e-4))
        wave = Waveform(kind="sine", amplitude=0.2, offset=0.0, frequency=1e4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SaturationError, match="overflows"):
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
        # With a dc input the filter starts settled, so even a slow pole
        # leaves the drive constant; this exercises the two-state path.
        slow = transient(
            EncoderConfig(transconductor=TC, neuron=LIN, input_pole_capacitance=1e-11),
            Waveform(kind="dc", offset=0.0),
            3e-4,
        )
        base = transient(lin_encoder(), Waveform(kind="dc", offset=0.0), 3e-4)
        assert len(slow.spikes) == len(base.spikes)

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
        enc = lin_encoder()
        wave = Waveform(kind="triangle", amplitude=0.3, offset=0.1, frequency=750.0)
        times = [k * 1.37e-6 for k in range(400)]
        drive = _make_drive(enc, wave)
        in_order = [drive(t) for t in times]
        shuffled = list(enumerate(times))
        random.Random(3).shuffle(shuffled)
        drive = _make_drive(enc, wave)
        again = {k: drive(t) for k, t in shuffled}
        assert [again[k] for k in range(len(times))] == in_order

    def test_trace_reports_the_drive_it_integrates(self):
        enc = lin_encoder()
        wave = Waveform(kind="sine", amplitude=0.2, offset=0.05, frequency=3000.0)
        res = transient(enc, wave, 4e-4, trace_every=3)
        drive = _make_drive(enc, wave)
        assert [row[2] for row in res.trace] == [drive(row[0]) for row in res.trace]

    def test_varying_step_is_plain_rk4(self):
        # The step reuses the drive at its start when the previous step
        # ended there; any call order must give the textbook RK4 bits.
        neuron = NeuronConfig(i_pf_gain=0.5)
        enc = EncoderConfig(transconductor=TC, neuron=neuron)
        drive = _make_drive(enc, Waveform(kind="sine", amplitude=0.3, frequency=4e3))
        step = _make_step(neuron, _make_stage_drive(drive, None, math.nan, 0.0)[0])

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
            assert step(t, y, h) == rk4(t, y, h)

    def test_block_step_is_plain_rk4(self):
        # runs long enough to read blocks, bisection substeps inside a
        # block, a jump in t and a final step cut short
        neuron = NeuronConfig(i_pf_gain=0.5)
        enc = EncoderConfig(transconductor=TC, neuron=neuron)
        wave = Waveform(kind="triangle", amplitude=0.3, offset=0.1, frequency=4e3)
        drive = _make_drive(enc, wave)
        dt, t_end = 1e-7, 8.2e-6
        stage_drive, _ = _make_stage_drive(drive, sim_engine._make_drive_block(enc, wave), dt, t_end)
        step = _make_step(neuron, stage_drive)

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
        assert _make_drive(enc, Waveform(kind="dc", offset=0.2))(1e-3) == (
            neuron_input_current(TC, 0.2)
        )
        assert len(transient(enc, Waveform(kind="dc", offset=0.2), 3e-4).spikes) > 3
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
        enc = EncoderConfig(transconductor=tc, neuron=replace(LIN, n=n, u_t=u_t))
        times = block_times(t0, dt, steps)
        if kind == "pwl":
            # times exactly on every breakpoint and past the last one
            knots = sorted(set(knots))
            volts = [0.5 * math.sin(7.0 * k + amplitude) for k in range(len(knots))]
            wave = pwl_wave([0.0] + knots, [offset] + volts)
            times = np.concatenate((times, knots, [knots[-1] + dt, 1.0]))
        else:
            wave = Waveform(kind=kind, amplitude=amplitude, offset=offset, frequency=frequency)
        volts = sim_engine._waveform_eval_bulk(wave, times)
        assert volts.tolist() == [waveform_eval(wave, t) for t in times.tolist()]
        drive = _make_drive(enc, wave)
        bulk = sim_engine._make_drive_block(enc, wave)(times)
        assert bulk.tolist() == [drive(t) for t in times.tolist()]
        # the table's array method at the supply ends, zero and inside
        table = node_arg_table(tc)
        v = np.concatenate((volts, [0.5, -0.5, 0.0, -0.0, 5e-324, -1e-300]))
        assert table.input_currents(v).tolist() == [table.input_current(x) for x in v.tolist()]

    def test_dc_has_no_block(self):
        assert sim_engine._make_drive_block(lin_encoder(), Waveform(kind="dc")) is None

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
    """``transient`` with drive blocks equals ``transient`` without them."""

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
        make_block = sim_engine._make_drive_block
        blocks = []

        def counted(enc, w):
            bulk = make_block(enc, w)
            return lambda times: blocks.append(len(times)) or bulk(times)

        monkeypatch.setattr(sim_engine, "_make_drive_block", counted)
        got = transient(encoder, wave, t_end, trace_every=7)
        monkeypatch.setattr(sim_engine, "_make_drive_block", lambda enc, w: None)
        want = transient(encoder, wave, t_end, trace_every=7)
        assert blocks
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        assert len(want.spikes) >= min_spikes


# The stock neuron crosses threshold on the last step of a block under
# both inputs: the 256th step of a dc row, and a varying block's last step
# with trace_every 7 or 10**9.
DC_EDGE = Waveform(kind="dc", offset=0.236)
TRI_EDGE = Waveform(kind="triangle", amplitude=0.3, offset=-0.03, frequency=900.0)
FIRING_PF = EncoderConfig(transconductor=TC, neuron=NeuronConfig(i_pf_gain=0.5))
FIRING_LIN = lin_encoder(LIN_RF)


def stepwise_transient(encoder, wave, t_end, solver=None, initial_state=None, trace_every=10):
    """``transient`` as one plain RK4 step per loop iteration, the reference.

    The event loop ``transient`` had before full steps ran in one loop,
    with every step a ``_make_step`` step under the scalar drive.
    """
    neuron = encoder.neuron
    solver = solver or default_solver_config(neuron)
    drive = _make_drive(encoder, wave)
    step = _make_step(neuron, lambda t, h: (drive(t), drive(t + 0.5 * h), drive(t + h)))
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
            t += sim_engine._locate_crossing(
                lambda s: step(t0, m0, s) >= neuron.i_th, h, solver.event_tol
            )
            spikes.append(t)
            i_mem, refr = neuron.i_reset, neuron.t_rf
        else:
            t += h
            i_mem = i_new if i_new > 0.0 else 0.0
    trace.append((t_end, waveform_eval(wave, t_end), drive(t_end), i_mem))
    return sim_engine.SimResult(trace=tuple(trace), spikes=SpikeTrain(times=tuple(spikes)))


def with_and_without_full_steps(monkeypatch, encoder, wave, t_end, **kwargs):
    """``transient``, ``stepwise_transient`` and a log of the full-step loop.

    The log has one entry per call of the loop: (the blocks it was handed,
    as (entries, block length, whether the entries end the block), steps
    taken, refused step).
    """
    make = sim_engine._make_full_steps
    log = []

    def logged(neuron, take_block, dt, t_end):
        handed = []

        def take(t, steps):
            at, mid, j, stop = block = take_block(t, steps)
            handed.append((stop - j, len(at) - 1, stop == len(at) - 1))
            return block

        full_steps = make(neuron, take, dt, t_end)

        def run(t, y, steps):
            handed.clear()
            out = full_steps(t, y, steps)
            log.append((list(handed), out[2], out[3]))
            return out

        return run

    monkeypatch.setattr(sim_engine, "_make_full_steps", logged)
    got = transient(encoder, wave, t_end, **kwargs)
    return got, stepwise_transient(encoder, wave, t_end, **kwargs), log


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
        assert sum(taken for _, taken, _ in log) > 0.25 * t_end / dt

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
        got, want, log = with_and_without_full_steps(
            monkeypatch, FIRING, wave, t_end, trace_every=trace_every
        )
        assert got.spikes == want.spikes
        assert got.trace == want.trace
        # a call stops short of its entries without a crossing: at t_end
        assert any(
            refused is None and taken < sum(entries for entries, _, _ in blocks)
            for blocks, taken, refused in log
        )

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
            refused is not None
            and blocks[-1][1] > 1
            and blocks[-1][2]
            and taken - sum(entries for entries, _, _ in blocks[:-1]) == blocks[-1][0] - 1
            for blocks, taken, refused in log
        )


class TestFullStepsKernel:
    @pytest.mark.parametrize("mode, i_pf_gain", [("linear", 0.0), ("nonlinear", 0.0), ("nonlinear", 0.5)])
    @given(
        y0=st.floats(min_value=0.0, max_value=72e-12),
        drives=st.lists(st.floats(min_value=0.0, max_value=2e-8), min_size=3, max_size=41),
        dt_over_tau=st.floats(min_value=1e-3, max_value=20.0),
    )
    @example(y0=5e-11, drives=[0.0, 0.0, 0.0], dt_over_tau=4.0)  # decay below zero
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_steps_are_the_scalar_steps(self, mode, i_pf_gain, y0, drives, dt_over_tau):
        # Both loops of the kernel, the nonlinear one with and without
        # feedback. Steps up to 20 tau long drive stage values below zero,
        # so every clamp decides some bits.
        neuron = NeuronConfig(mode=mode, i_pf_gain=i_pf_gain)
        dt = dt_over_tau * tau_m(neuron)
        n = (len(drives) - 1) // 2
        at, mid = drives[: n + 1], drives[n + 1 : 2 * n + 1]
        full_steps = sim_engine._make_full_steps(
            neuron, lambda t, steps: (at, mid, 0, min(steps, n)), dt, 1e3 * n * dt
        )
        got = full_steps(0.0, y0, n)
        k = 0
        step = _make_step(neuron, lambda t, h: (at[k], mid[k], at[k + 1]))
        t, y = 0.0, y0
        while k < n:
            i_new = step(t, y, dt)
            if not -math.inf < i_new < neuron.i_th:
                assert got[:3] == (t, y, k)
                assert got[3] == i_new or math.isnan(got[3]) and math.isnan(i_new)
                return
            t += dt
            y = i_new if i_new > 0.0 else 0.0
            k += 1
        assert got == (t, y, n, None)


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
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_matches_stepping_loop(
        self, mode, i_th, i_pf_gain, t_rf, pole, cheap, v, t1, t0_frac, dt_scale
    ):
        neuron = NeuronConfig(i_th=i_th, i_pf_gain=i_pf_gain, t_rf=t_rf, mode=mode)
        enc = EncoderConfig(transconductor=TC, neuron=neuron, input_pole_capacitance=pole)
        base = _cheap_solver(neuron) if cheap else default_solver_config(neuron)
        solver = SolverConfig(dt=base.dt * dt_scale, event_tol=base.event_tol)
        t0 = t0_frac * t1
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

        monkeypatch.setattr(sim_engine, "_make_full_steps", no_step)
        monkeypatch.setattr(sim_engine, "_make_step", no_step)
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

    @pytest.mark.parametrize("t0, t1", [(0.0, 0.0), (2e-3, 1e-3), (-1e-3, 1e-3), (0.0, math.inf)])
    def test_rejects_bad_window(self, t0, t1):
        with pytest.raises(ValueError, match="window"):
            spike_count_dc(lin_encoder(), 0.0, t0, t1)

    def test_rejects_euler_method(self):
        with pytest.raises(ValueError, match="method"):
            spike_count_dc(
                lin_encoder(), 0.0, 0.0, 1e-3, SolverConfig(1e-7, 1e-9, method="euler-oracle")
            )

