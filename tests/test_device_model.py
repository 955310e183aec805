"""Device law tests."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from encoder_sim.device_model import DeviceParams, SaturationError, drain_current

DEV = DeviceParams()


class TestDrainCurrent:
    def test_reference_point(self):
        # v_sg = v_t0, v_sb = 0 puts the exponent at zero exactly.
        assert drain_current(DEV, DEV.v_t0, 0.0) == pytest.approx(DEV.i_spec)

    def test_gate_doubling_voltage(self):
        # One factor of 2 in current per n*u_t*ln(2) of gate drive.
        dv = DEV.n * DEV.u_t * math.log(2.0)
        i0 = drain_current(DEV, 0.30, 0.0)
        i1 = drain_current(DEV, 0.30 + dv, 0.0)
        assert i1 / i0 == pytest.approx(2.0, rel=1e-12)

    def test_bulk_drive_is_attenuated_gate_drive(self):
        # Moving the bulk by dv must equal moving the gate by (n-1)*dv.
        dv = 0.05
        via_bulk = drain_current(DEV, 0.30, dv)
        via_gate = drain_current(DEV, 0.30 + (DEV.n - 1.0) * dv, 0.0)
        assert via_bulk == pytest.approx(via_gate, rel=1e-12)

    @given(
        v1=st.floats(min_value=0.0, max_value=0.5),
        v2=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=200)
    def test_log_linearity_in_gate_voltage(self, v1, v2):
        # Slope estimates from nearly coincident points are ill conditioned.
        assume(abs(v2 - v1) > 1e-4)
        i1 = drain_current(DEV, v1, 0.0)
        i2 = drain_current(DEV, v2, 0.0)
        slope = (math.log(i2) - math.log(i1)) / (v2 - v1)
        assert slope == pytest.approx(1.0 / (DEV.n * DEV.u_t), rel=1e-9)

    @given(v_sb=st.floats(min_value=-0.2, max_value=0.4))
    @settings(max_examples=200)
    def test_log_linearity_in_bulk_voltage(self, v_sb):
        i0 = drain_current(DEV, 0.30, 0.0)
        i1 = drain_current(DEV, 0.30, v_sb)
        expected = (DEV.n - 1.0) * v_sb / (DEV.n * DEV.u_t)
        assert math.log(i1 / i0) == pytest.approx(expected, abs=1e-12)

    def test_scales_with_aspect_ratio(self):
        assert drain_current(DEV, 0.30, 0.0, 8.0) == pytest.approx(
            8.0 * drain_current(DEV, 0.30, 0.0), rel=1e-12
        )


class TestErrorHandling:
    def test_exponent_overflow_raises(self):
        # 700 * n * u_t = 21 V of normalized drive.
        with pytest.raises(SaturationError):
            drain_current(DEV, DEV.v_t0 + 701.0 * DEV.n * DEV.u_t, 0.0)

    def test_exponent_underflow_raises(self):
        with pytest.raises(SaturationError):
            drain_current(DEV, DEV.v_t0 - 701.0 * DEV.n * DEV.u_t, 0.0)

    def test_exponent_just_inside_limit_is_fine(self):
        i = drain_current(DEV, DEV.v_t0 + 699.0 * DEV.n * DEV.u_t, 0.0)
        assert math.isfinite(i) and i > 0.0

    def test_saturation_error_is_a_value_error(self):
        # Callers that catch ValueError must also see saturation faults.
        assert issubclass(SaturationError, ValueError)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_gate_voltage_rejected(self, bad):
        with pytest.raises(ValueError):
            drain_current(DEV, bad, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_bulk_voltage_rejected(self, bad):
        with pytest.raises(ValueError):
            drain_current(DEV, 0.3, bad)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DeviceParams(i_spec=0.0)
        with pytest.raises(ValueError):
            DeviceParams(n=1.0)
        with pytest.raises(ValueError):
            DeviceParams(u_t=-0.025)
        with pytest.raises(ValueError):
            DeviceParams(v_t0=math.nan)
