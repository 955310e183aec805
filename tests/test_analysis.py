"""Tests for the measurement post-processing routines.

THD and linearity tests use constructed signals with known spectra or
known residual patterns, so expected values are identities rather than
regression snapshots.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encoder_sim.analysis import (
    ThdReport,
    VFCurve,
    _curve_from_rates,
    _fit_line,
    power_estimate,
    small_signal,
    thd,
    vf_curve,
)
from encoder_sim.device_model import SaturationError
from encoder_sim.neuron import NeuronConfig
from encoder_sim.sim_engine import EncoderConfig
from encoder_sim.transconductor import TransconductorConfig, effective_gm


def sampled(f0, fs, periods, fn):
    t = np.arange(int(round(fs / f0)) * periods) / fs
    return fn(t)


class TestThd:
    F0 = 1000.0
    FS = 64000.0

    def test_pure_sine_is_clean(self):
        s = sampled(self.F0, self.FS, 4, lambda t: np.sin(2 * np.pi * self.F0 * t))
        assert thd(s, self.F0, self.FS).thd_fraction < 1e-9

    def test_known_third_harmonic(self):
        s = sampled(
            self.F0,
            self.FS,
            4,
            lambda t: np.sin(2 * np.pi * self.F0 * t)
            + 0.02 * np.sin(2 * np.pi * 3 * self.F0 * t),
        )
        report = thd(s, self.F0, self.FS)
        assert report.thd_fraction == pytest.approx(0.02, abs=1e-6)
        assert report.fundamental_amplitude == pytest.approx(1.0, abs=1e-9)
        # harmonic_amplitudes[k] is harmonic k+2
        assert report.harmonic_amplitudes[1] == pytest.approx(0.02, abs=1e-9)

    def test_phase_and_offset_do_not_leak(self):
        s = sampled(
            self.F0,
            self.FS,
            3,
            lambda t: 0.7 + 0.5 * np.cos(2 * np.pi * self.F0 * t + 1.1),
        )
        report = thd(s, self.F0, self.FS)
        assert report.thd_fraction < 1e-9
        assert report.fundamental_amplitude == pytest.approx(0.5, abs=1e-9)

    def test_amplitude_invariance(self):
        def fn(t):
            return np.sin(2 * np.pi * self.F0 * t) + 0.03 * np.sin(2 * np.pi * 2 * self.F0 * t)

        a = thd(sampled(self.F0, self.FS, 4, fn), self.F0, self.FS)
        b = thd(5.0 * sampled(self.F0, self.FS, 4, fn), self.F0, self.FS)
        assert a.thd_fraction == pytest.approx(b.thd_fraction, rel=1e-12)

    def test_harmonic_count(self):
        s = sampled(self.F0, self.FS, 2, lambda t: np.sin(2 * np.pi * self.F0 * t))
        assert len(thd(s, self.F0, self.FS, n_harmonics=9).harmonic_amplitudes) == 9
        assert len(thd(s, self.F0, self.FS, n_harmonics=4).harmonic_amplitudes) == 4

    def test_preconditions(self):
        s = np.sin(2 * np.pi * np.arange(640) / 64.0)
        with pytest.raises(ValueError, match="integer"):
            thd(s, 1000.0, 63500.0)
        with pytest.raises(ValueError, match="undersamples"):
            thd(s[:18], 1000.0, 18000.0)
        with pytest.raises(ValueError, match="whole periods"):
            thd(s[:100], 1000.0, 64000.0)
        with pytest.raises(ValueError, match="fundamental"):
            thd(np.zeros(128), 1000.0, 64000.0)
        # a typed refusal, not a TypeError from the projections
        with pytest.raises(ValueError, match="nonempty 1-d"):
            thd([], 1000.0, 64000.0)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            thd([[x] for x in s[:64].tolist()], 1000.0, 64000.0)

    def test_report_validation(self):
        for h1 in (-1.0, 0.0, -0.0):
            with pytest.raises(ValueError, match="fundamental"):
                ThdReport(fundamental_amplitude=h1, harmonic_amplitudes=())
        with pytest.raises(ValueError, match="nonnegative"):
            ThdReport(fundamental_amplitude=1.0, harmonic_amplitudes=(-0.1,))
        assert ThdReport(2.0, (0.3, 0.4)).thd_fraction == 0.25


def make_curve(points):
    nan = float("nan")
    return VFCurve(points=tuple(points), fit_slope=nan, fit_intercept=nan, max_deviation_fraction=0.0)


def curve_of(points, window, dead=()):
    """``_curve_from_rates`` of (v, rate) points; a dead point counts 0, any other 100."""
    grid = [v for v, _ in points]
    counts = [0 if v in dead else 100 for v in grid]
    return _curve_from_rates(grid, [r for _, r in points], counts, window)


class TestLinearityError:
    def test_collinear_points_are_exact(self):
        pts = [(v, 1000.0 + 5000.0 * v) for v in (0.1, 0.2, 0.3, 0.4)]
        curve = curve_of(pts, (0.1, 0.4))
        assert curve.max_deviation_fraction == pytest.approx(0.0, abs=1e-12)

    def test_window_edge_outlier_against_stored_fit(self):
        # Residuals +d, -d, -d, +d are orthogonal to 1 and to v on the
        # equally spaced grid, so the fit is the clean baseline and the
        # outliers at the window edges, +10% of the fit at v_hi, read 0.10.
        slope, intercept = 5000.0, 1000.0
        d = 0.10 * (slope * 0.4 + intercept)
        signs = {0.1: 1, 0.2: -1, 0.3: -1, 0.4: 1}
        pts = [(v, slope * v + intercept + e * d) for v, e in signs.items()]
        curve = curve_of(pts, (0.1, 0.4))
        assert curve.fit_slope == pytest.approx(slope, rel=1e-12)
        assert curve.fit_intercept == pytest.approx(intercept, rel=1e-12)
        assert curve.max_deviation_fraction == pytest.approx(0.10, abs=1e-6)

    def test_quadratic_bow(self):
        # Residual constructed orthogonal to {1, v} on the grid, so the
        # least-squares fit returns the base line and the bow height is
        # the deviation itself.
        vs = np.linspace(0.1, 0.4, 7)
        slope, intercept = 40e3, 2e3
        base = slope * vs + intercept
        x = vs - np.mean(vs)
        bow = x**2 - np.mean(x**2)  # orthogonal to 1 and to x (symmetric grid)
        fit_hi = slope * 0.4 + intercept
        bow *= 0.05 * fit_hi / np.max(np.abs(bow))
        pts = list(zip(vs.tolist(), (base + bow).tolist()))
        curve = curve_of(pts, (0.1, 0.4))
        assert curve.max_deviation_fraction == pytest.approx(0.05, abs=0.005)

    def test_points_on_fit_never_increase_metric(self):
        # Points on the least-squares line leave it the least-squares line
        # of the larger set, so they add no deviation.
        pts = [(0.1, 1550.0), (0.2, 2000.0), (0.3, 2500.0)]
        curve = curve_of(pts, (0.1, 0.4))
        base = curve.max_deviation_fraction
        assert base > 0.0
        on_fit = [(v, curve.fit_slope * v + curve.fit_intercept) for v in (0.25, 0.4)]
        denser = curve_of(sorted(pts + on_fit), (0.1, 0.4))
        assert denser.max_deviation_fraction <= base * (1.0 + 1e-12)

    def test_needs_three_in_window_points(self):
        # Two fitted points lie on their own line, and with fewer no line
        # is fitted: the deviation reads 0 and measures nothing.
        two = curve_of([(0.1, 1000.0), (0.4, 3000.0)], (0.1, 0.4))
        assert two.max_deviation_fraction == pytest.approx(0.0, abs=1e-12)
        one = curve_of([(0.1, 0.0), (0.25, 2000.0), (0.4, 0.0)], (0.1, 0.4), dead=(0.1, 0.4))
        assert one.max_deviation_fraction == 0.0
        assert math.isnan(one.fit_slope) and math.isnan(one.fit_intercept)
        assert one.flagged == (0.1, 0.4)

    def test_flagged_points_excluded(self):
        slope, intercept = 5000.0, 1000.0
        pts = [(v, slope * v + intercept) for v in (0.1, 0.2, 0.3, 0.4)]
        pts[0] = (0.1, 0.0)  # dead point, flagged
        curve = curve_of(pts, (0.1, 0.4), dead=(0.1,))
        assert curve.flagged == (0.1,)
        assert curve.max_deviation_fraction == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_refit_rejected(self):
        # all points below the window
        with pytest.raises(ValueError, match="no grid points"):
            curve_of([(0.0, 1.0), (0.05, 2.0)], (0.1, 0.4))
        # a falling line that reaches zero before the window top
        with pytest.raises(ValueError, match="nonpositive"):
            curve_of([(0.1, 3000.0), (0.25, 1500.0), (0.4, 0.0)], (0.1, 0.4))


class TestFitLine:
    @given(
        n=st.integers(3, 12),
        first=st.integers(-100, 100),
        exponent=st.integers(0, 12),
        slope=st.integers(-(10**6), 10**6),
        intercept=st.integers(1, 10**6),
    )
    def test_exact_on_exactly_linear_data(self, n, first, exponent, slope, intercept):
        # an equally spaced dyadic grid and integer coefficients make every
        # sum and product exact, so the fit is exact and every deviation 0
        vs = [(first + k) * 2.0**-exponent for k in range(n)]
        rates = [slope * v + intercept for v in vs]
        assert _fit_line(vs, rates) == (slope, intercept)
        if slope * vs[-1] + intercept > 0.0:
            curve = curve_of(list(zip(vs, rates)), (vs[0], vs[-1]))
            assert curve.max_deviation_fraction == 0.0

    @given(
        lo=st.floats(0.0, 0.3),
        step=st.floats(0.01, 0.05),
        n=st.integers(3, 12),
        slope=st.floats(1e3, 1e5),
        intercept=st.floats(0.0, 1e4),
        noise=st.lists(st.floats(-0.05, 0.05), min_size=12, max_size=12),
    )
    def test_agrees_with_lstsq_on_noisy_data(self, lo, step, n, slope, intercept, noise):
        # fitted values within a few ulps of the rates both of numpy's
        # lstsq and, closer, of the least-squares line in exact rationals
        vs = [lo + k * step for k in range(n)]
        rates = [slope * v + intercept + e * slope * step for v, e in zip(vs, noise)]
        got_slope, got_intercept = _fit_line(vs, rates)
        got = [got_slope * v + got_intercept for v in vs]
        a = np.vstack([vs, np.ones(n)]).T
        ls_slope, ls_intercept = np.linalg.lstsq(a, np.array(rates), rcond=None)[0]
        ulp = math.ulp(max(map(abs, rates)))
        assert max(abs(g - (ls_slope * v + ls_intercept)) for g, v in zip(got, vs)) <= 16 * ulp
        v_mean = sum(map(Fraction, vs)) / n
        r_mean = sum(map(Fraction, rates)) / n
        dv = [Fraction(v) - v_mean for v in vs]
        exact_slope = sum(d * (Fraction(r) - r_mean) for d, r in zip(dv, rates)) / sum(
            d * d for d in dv
        )
        exact = [exact_slope * (Fraction(v) - v_mean) + r_mean for v in vs]
        assert max(abs(Fraction(g) - e) for g, e in zip(got, exact)) <= 4 * Fraction(ulp)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            _fit_line([0.2, 0.2, 0.2], [1.0, 2.0, 3.0])


class TestVfCurveValidation:
    def test_curve_type_invariants(self):
        with pytest.raises(ValueError, match="sorted"):
            make_curve([(0.2, 1.0), (0.1, 2.0)])
        # the curve keeps no window: its measurement checks it
        with pytest.raises(ValueError, match="window"):
            vf_curve(EncoderConfig(), [0.1, 0.25, 0.4], 1e-3, 6e-3, (0.4, 0.1))

    def test_grid_validation(self):
        enc = EncoderConfig()
        with pytest.raises(ValueError, match="increasing"):
            vf_curve(enc, [0.2, 0.1], 1e-3, 1e-3, (0.1, 0.4))
        with pytest.raises(ValueError, match="supply"):
            vf_curve(enc, [0.1, 0.6], 1e-3, 1e-3, (0.1, 0.4))
        with pytest.raises(ValueError, match="two points"):
            vf_curve(enc, [0.1], 1e-3, 1e-3, (0.1, 0.4))

    def test_window_top_past_the_grid(self):
        with pytest.raises(ValueError, match="past the last grid point 0.4 V"):
            vf_curve(EncoderConfig(), [0.1, 0.25, 0.4], 1e-3, 6e-3, (0.1, 0.45))

    def test_underpowered_measure_window_rejected(self):
        # Microsecond gate at ~10 kHz rates cannot reach 20 spikes.
        with pytest.raises(ValueError, match="measure_time too short"):
            vf_curve(EncoderConfig(), [0.1, 0.25, 0.4], 0.0, 50e-6, (0.1, 0.4))


class TestVfCurveMeasured:
    def test_default_encoder_window(self):
        curve = vf_curve(
            EncoderConfig(),
            [0.1, 0.175, 0.25, 0.325, 0.4],
            settle_time=1e-3,
            measure_time=6e-3,
            window=(0.1, 0.4),
        )
        rates = [r for _, r in curve.points]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert curve.flagged == ()
        assert math.isfinite(curve.fit_slope) and curve.fit_slope > 0.0
        assert 0.0 <= curve.max_deviation_fraction < 0.06

    def test_silent_point_flagged_and_excluded(self):
        # v = -0.3 V sits far below the firing onset of the default encoder.
        curve = vf_curve(
            EncoderConfig(),
            [-0.3, 0.1, 0.25, 0.4],
            settle_time=1e-3,
            measure_time=6e-3,
            window=(-0.3, 0.4),
        )
        assert curve.flagged == (-0.3,)
        assert curve.points[0][1] == 0.0
        assert math.isfinite(curve.fit_slope)


class TestSmallSignal:
    def test_unity_gain_frequency_identity(self):
        cfg = TransconductorConfig()
        gain_db, f_u = small_signal(cfg, 1e9, 20e-12)
        gm = effective_gm(cfg)
        assert f_u == pytest.approx(gm / (2 * math.pi * 20e-12), rel=1e-12)
        assert gain_db == pytest.approx(20 * math.log10(gm * 1e9), rel=1e-12)

    def test_bench_low_end(self):
        # Scale the reference current so gm lands at 5.9 nA/V; into 20 pF
        # the unity-gain frequency comes out near 47 Hz.
        base = TransconductorConfig()
        gm0 = effective_gm(base)
        cfg = TransconductorConfig(i_ref=base.i_ref * 5.9e-9 / gm0)
        gm = effective_gm(cfg)
        assert gm == pytest.approx(5.9e-9, rel=1e-3)
        _, f_u = small_signal(cfg, 1e9, 20e-12)
        assert f_u == pytest.approx(46.95, rel=2e-3)

    def test_thirty_db_point(self):
        cfg = TransconductorConfig()
        gm = effective_gm(cfg)
        r_out = 10 ** (30.0 / 20.0) / gm  # gm * r_out = 31.6228
        gain_db, _ = small_signal(cfg, r_out, 20e-12)
        assert gain_db == pytest.approx(30.0, abs=1e-9)

    def test_f_unity_scales_inversely_with_load(self):
        cfg = TransconductorConfig()
        _, f1 = small_signal(cfg, 1e9, 10e-12)
        _, f2 = small_signal(cfg, 1e9, 20e-12)
        assert f1 == pytest.approx(2.0 * f2, rel=1e-12)

    def test_figures_past_weak_inversion_are_saturation(self):
        # gm * r_out overflows a double, and so does the gain in dB
        with pytest.raises(SaturationError, match="overflow"):
            small_signal(TransconductorConfig(i_ref=1e300), 1e9, 20e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_signal(TransconductorConfig(), 0.0, 20e-12)
        with pytest.raises(ValueError):
            small_signal(TransconductorConfig(), 1e9, 0.0)


class TestPowerEstimate:
    def test_static_term_decomposition(self):
        enc = EncoderConfig()
        p0 = power_estimate(enc, 0.0)
        expected = 0.5 * (7 * enc.transconductor.i_ref + enc.neuron.i_r + enc.neuron.i_g)
        assert p0 == pytest.approx(expected, rel=1e-12)

    def test_dynamic_increment_identity(self):
        enc = EncoderConfig()
        f = 25e3
        inc = power_estimate(enc, 2 * f) - power_estimate(enc, f)
        assert inc == pytest.approx((enc.neuron.c_m + 0.1e-12) * 0.25 * f, rel=1e-12)

    def test_monotone_in_i_ref_and_f_spike(self):
        refs = [2e-9, 5e-9, 8e-9, 14e-9, 27e-9]
        neuron = NeuronConfig()
        powers = [
            power_estimate(
                EncoderConfig(transconductor=TransconductorConfig(i_ref=i), neuron=neuron), 25e3
            )
            for i in refs
        ]
        assert all(b > a for a, b in zip(powers, powers[1:]))
        fs = [0.0, 10e3, 20e3, 40e3]
        enc = EncoderConfig()
        by_f = [power_estimate(enc, f) for f in fs]
        assert all(b > a for a, b in zip(by_f, by_f[1:]))

    def test_calibration_knobs(self):
        enc = EncoderConfig()
        assert power_estimate(enc, 0.0, k_static=5) < power_estimate(enc, 0.0, k_static=7)
        assert power_estimate(enc, 1e4, c_dyn=0.0) < power_estimate(enc, 1e4)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_estimate(EncoderConfig(), -1.0)
        with pytest.raises(ValueError):
            power_estimate(EncoderConfig(), 1e4, k_static=0)
        with pytest.raises(ValueError):
            power_estimate(EncoderConfig(), 1e4, c_dyn=-1e-12)
