"""Unit tests for the current-mode neuron dynamics and bias mapping."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import analytic_rate

from encoder_sim import neuron, sim_engine
from encoder_sim.device_model import DeviceParams, drain_current
from encoder_sim.neuron import (
    DERIVATIVES,
    NeuronConfig,
    NeuronState,
    derivative_variant,
    membrane_derivative,
    neuron_biases_from_voltages,
    tau_m,
)

# Reference configuration used across tests; i_th is set high so derivative
# tests never sit near the spiking boundary by accident.
LIN = NeuronConfig(
    c_m=0.6e-12,
    i_g=10e-12,
    i_r=1e-9,
    i_th=50e-12,
    i_reset=1e-12,
    t_rf=0.0,
    mode="linear",
)
NL = NeuronConfig(
    c_m=0.6e-12,
    i_g=10e-12,
    i_r=1e-9,
    i_th=50e-12,
    i_reset=1e-12,
    t_rf=0.0,
    mode="nonlinear",
)


class TestTimeConstant:
    def test_reference_value(self):
        # 1.2 * 25 mV * 0.6 pF / 1 nA = 18 us
        assert tau_m(LIN) == pytest.approx(18e-6, rel=1e-12)

    def test_inverse_in_leak_current(self):
        fast = NeuronConfig(
            c_m=0.6e-12, i_g=10e-12, i_r=2e-9, i_th=50e-12, i_reset=1e-12, mode="linear"
        )
        assert tau_m(fast) == pytest.approx(tau_m(LIN) / 2.0, rel=1e-12)

    def test_linear_in_capacitance(self):
        big = NeuronConfig(
            c_m=1.2e-12, i_g=10e-12, i_r=1e-9, i_th=50e-12, i_reset=1e-12, mode="linear"
        )
        assert tau_m(big) == pytest.approx(2.0 * tau_m(LIN), rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [{"c_m": 5e-324}, {"c_m": 1e300, "i_g": 5e-324, "i_r": 1e-300, "i_reset": 5e-324}],
        ids=["underflows", "overflows"],
    )
    def test_must_be_positive_and_finite(self, kwargs):
        # the RK4 kernels divide by it
        with pytest.raises(ValueError, match="membrane time constant"):
            NeuronConfig(**kwargs)


class TestLinearMode:
    def test_zero_input_pure_decay(self):
        state = NeuronState(i_mem=30e-12)
        d = membrane_derivative(LIN, state, 0.0)
        assert d == -state.i_mem / tau_m(LIN)

    def test_steady_state_matches_gain_times_input(self):
        # Integrate far past the transient; the fixed point is gain * i_in,
        # with the saturated DPI gain i_g/i_r.
        i_in = 5e-9
        assert LIN.gain == LIN.i_g / LIN.i_r
        target = LIN.gain * i_in
        tau = tau_m(LIN)
        dt = tau / 20.0
        i_mem = LIN.i_reset
        for _ in range(400):  # 20 tau
            k1 = membrane_derivative(LIN, NeuronState(i_mem=i_mem), i_in)
            k2 = membrane_derivative(LIN, NeuronState(i_mem=i_mem + 0.5 * dt * k1), i_in)
            k3 = membrane_derivative(LIN, NeuronState(i_mem=i_mem + 0.5 * dt * k2), i_in)
            k4 = membrane_derivative(LIN, NeuronState(i_mem=i_mem + dt * k3), i_in)
            i_mem += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert i_mem == pytest.approx(target, rel=1e-4)


class TestNonlinearMode:
    @pytest.mark.parametrize("mode", ["nonlinear", "linear"])
    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_feedback_gives_the_same_bits(self, mode, first):
        # configs differing only in the sign of a zero i_pf_gain compare
        # equal and give the bits of their DERIVATIVES expression, whichever
        # was evaluated first
        membrane_derivative(NeuronConfig(mode=mode, i_pf_gain=first), NeuronState(1e-12), 1e-9)
        for pf in (0.0, -0.0):
            cfg = NeuronConfig(mode=mode, i_pf_gain=pf)
            variant, constants = derivative_variant(cfg)
            assert variant == ("linear" if mode == "linear" else "nonlinear_no_feedback")
            for i_mem, i_in in ((0.0, 0.0), (1e-12, 1e-9), (5e-11, 3e-9), (1e-9, 0.0)):
                expression = DERIVATIVES[variant].format(m="i_mem", i_in="i_in")
                want = eval(expression, dict(constants, i_mem=i_mem, i_in=i_in))
                got = membrane_derivative(cfg, NeuronState(i_mem), i_in)
                assert got.hex() == want.hex()

    def test_matches_linear_deep_in_saturation(self):
        # Once the membrane sits far above the gain current the input term
        # saturates and the two modes agree; the residual mismatch is
        # 1/(1 + i_mem/i_g) on the drive term.
        for x in (50.0, 80.0, 150.0, 500.0):
            i_mem = x * NL.i_g
            i_in = 100.0 * i_mem / NL.gain
            d_nl = membrane_derivative(NL, NeuronState(i_mem=i_mem), i_in)
            d_lin = membrane_derivative(LIN, NeuronState(i_mem=i_mem), i_in)
            assert d_nl == pytest.approx(d_lin, rel=0.02)

    def test_steady_state_closed_form(self):
        # The fixed point of the full dynamics: i_g * (i_in/i_r - 1).
        for i_in in (2e-9, 5e-9, 20e-9):
            i_ss = NL.i_g * (i_in / NL.i_r - 1.0)
            d = membrane_derivative(NL, NeuronState(i_mem=i_ss), i_in)
            scale = (i_in + i_ss) / tau_m(NL)
            assert abs(d) <= 1e-12 * scale

    def test_sign_structure_around_fixed_point(self):
        i_in = 5e-9
        i_ss = NL.i_g * (i_in / NL.i_r - 1.0)
        assert membrane_derivative(NL, NeuronState(i_mem=0.5 * i_ss), i_in) > 0.0
        assert membrane_derivative(NL, NeuronState(i_mem=2.0 * i_ss), i_in) < 0.0

    def test_subleak_input_always_decays(self):
        # i_in below the leak current cannot sustain any membrane level.
        i_in = 0.9 * NL.i_r
        for i_mem in (1e-12, 10e-12, 100e-12, 10e-9):
            assert membrane_derivative(NL, NeuronState(i_mem=i_mem), i_in) < 0.0

    def test_zero_membrane_is_stationary(self):
        assert membrane_derivative(NL, NeuronState(i_mem=0.0), 5e-9) == 0.0

    def test_positive_feedback_reduces_loss(self):
        fb = NeuronConfig(
            c_m=0.6e-12,
            i_g=10e-12,
            i_r=1e-9,
            i_th=50e-12,
            i_reset=1e-12,
            mode="nonlinear",
            i_pf_gain=0.5,
        )
        state = NeuronState(i_mem=100e-12)
        assert membrane_derivative(fb, state, 2e-9) > membrane_derivative(NL, state, 2e-9)

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            membrane_derivative(NL, NeuronState(i_mem=1e-12), -1e-12)
        with pytest.raises(ValueError):
            membrane_derivative(NL, NeuronState(i_mem=1e-12), float("nan"))

    @given(
        i_in=st.floats(min_value=1.5e-9, max_value=50e-9),
        ratio=st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_derivative_sign_tracks_fixed_point(self, i_in, ratio):
        i_ss = NL.i_g * (i_in / NL.i_r - 1.0)
        i_mem = ratio * i_ss
        d = membrane_derivative(NL, NeuronState(i_mem=i_mem), i_in)
        if ratio < 0.999:
            assert d > 0.0
        elif ratio > 1.001:
            assert d < 0.0


def spikes_from(cfg, initial_state, t_end=1e-4, v=0.0):
    """Spike times and trace rows of the engine from ``initial_state`` at a dc input."""
    enc = sim_engine.EncoderConfig(neuron=cfg)
    wave = sim_engine.Waveform(kind="dc", offset=v)
    res = sim_engine.transient(enc, wave, t_end, initial_state=initial_state, trace_every=1)
    return res.spikes.times, res.trace


# The engine applies the spiking rule: a spike when the membrane reaches
# i_th outside refractory time, then i_reset held for t_rf.
RF = NeuronConfig(c_m=0.6e-12, i_g=10e-12, i_r=0.5e-9, i_th=50e-12, i_reset=2e-12, t_rf=20e-6)


class TestSpikingPrimitives:
    def test_threshold_boundary_inclusive(self):
        assert spikes_from(LIN, NeuronState(i_mem=LIN.i_th))[0][0] == 0.0
        assert spikes_from(LIN, NeuronState(i_mem=2.0 * LIN.i_th))[0][0] == 0.0
        assert spikes_from(LIN, NeuronState(i_mem=0.999 * LIN.i_th))[0][:1] != (0.0,)

    def test_refractory_masks_threshold(self):
        times, trace = spikes_from(RF, NeuronState(i_mem=2.0 * RF.i_th, refractory_remaining=1e-6))
        assert times[:1] != (0.0,)
        # refractory time holds the membrane at the floor instead of spiking
        assert all(row[3] == RF.i_reset for row in trace[1:] if row[0] <= 1e-6)

    def test_reset_state(self):
        times, trace = spikes_from(RF, NeuronState(i_mem=80e-12), v=0.25)
        assert times[0] == 0.0
        held = [row[3] for row in trace if 0.0 < row[0] <= RF.t_rf]
        assert held and all(i == RF.i_reset for i in held)

    def test_reset_not_spiking(self):
        times, _ = spikes_from(RF, NeuronState(i_mem=80e-12), v=0.25)
        assert len(times) >= 2
        assert all(b - a > RF.t_rf for a, b in zip(times, times[1:]))


class TestAnalyticRate:
    def test_subthreshold_is_silent(self):
        i_at_threshold = LIN.i_th / LIN.gain
        assert analytic_rate(LIN, i_at_threshold * (1.0 - 1e-9)) == 0.0
        assert analytic_rate(LIN, 0.0) == 0.0

    def test_log_two_reference_point(self):
        # Drive parked at twice the threshold with a negligible reset floor
        # and no refractory time: the period is exactly tau * ln 2.
        cfg = NeuronConfig(
            c_m=0.6e-12,
            i_g=10e-12,
            i_r=1e-9,
            i_th=50e-12,
            i_reset=1e-30,
            t_rf=0.0,
            mode="linear",
        )
        i_in = 2.0 * cfg.i_th / cfg.gain
        expect = 1.0 / (tau_m(cfg) * math.log(2.0))
        assert analytic_rate(cfg, i_in) == pytest.approx(expect, rel=1e-9)

    def test_refractory_ceiling(self):
        cfg = NeuronConfig(
            c_m=0.6e-12,
            i_g=10e-12,
            i_r=1e-9,
            i_th=50e-12,
            i_reset=1e-12,
            t_rf=20e-6,
            mode="linear",
        )
        rate = analytic_rate(cfg, 1000.0 * cfg.i_th / cfg.gain)
        assert rate < 1.0 / cfg.t_rf
        assert rate > 0.95 / cfg.t_rf

    def test_monotone_in_drive(self):
        rates = [analytic_rate(LIN, f * LIN.i_th / LIN.gain) for f in (1.5, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_nonlinear_mode_rejected(self):
        with pytest.raises(ValueError):
            analytic_rate(NL, 1e-9)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            analytic_rate(LIN, -1e-9)


class TestConfigValidation:
    def test_gain_current_must_sit_below_leak(self):
        with pytest.raises(ValueError, match="i_g"):
            NeuronConfig(i_g=2e-9, i_r=1e-9)

    def test_reset_must_sit_below_threshold(self):
        with pytest.raises(ValueError, match="i_reset"):
            NeuronConfig(i_th=10e-12, i_reset=10e-12)

    def test_mode_strings(self):
        with pytest.raises(ValueError, match="mode"):
            NeuronConfig(mode="adaptive")

    def test_scalar_bounds(self):
        with pytest.raises(ValueError):
            NeuronConfig(c_m=0.0)
        with pytest.raises(ValueError):
            NeuronConfig(t_rf=-1e-6)
        with pytest.raises(ValueError):
            NeuronConfig(i_pf_gain=-0.1)

    def test_state_bounds(self):
        with pytest.raises(ValueError):
            NeuronState(i_mem=-1e-12)
        with pytest.raises(ValueError):
            NeuronState(i_mem=1e-12, refractory_remaining=-1e-6)


class TestBiasMapping:
    DEV = DeviceParams()

    def test_published_voltage_settings(self):
        i_g, i_r, i_th = neuron_biases_from_voltages(self.DEV, 0.25, 0.10, 0.25)
        assert i_g == pytest.approx(8e-12, rel=1e-3)
        assert i_r == pytest.approx(0.2e-9, rel=1e-3)
        assert i_th == pytest.approx(10.4e-12, rel=1e-3)

    def test_aspect_ratio_passthrough(self):
        # each role's current is the device law at that role's aspect ratio
        i_g, i_r, i_th = neuron_biases_from_voltages(self.DEV, 0.25, 0.10, 0.30)
        ratios = (neuron._W_OVER_L_GAIN, neuron._W_OVER_L_LEAK, neuron._W_OVER_L_THRESHOLD)
        for got, ratio, v in zip((i_g, i_r, i_th), ratios, (0.25, 0.10, 0.30)):
            assert got == drain_current(self.DEV, v, 0.0, ratio)

    def test_monotone_in_gate_voltage(self):
        lo = neuron_biases_from_voltages(self.DEV, 0.25, 0.08, 0.25)
        hi = neuron_biases_from_voltages(self.DEV, 0.25, 0.12, 0.25)
        assert hi[1] > lo[1]
