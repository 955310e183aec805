"""Transconductor operating-point and transfer tests.

Expected values fall in three groups: exact structural identities (odd
symmetry, branch-current relations), solver contracts checked against the
independently evaluated node residual, and published-band checks for the
small-signal gain. Frozen numeric spot values were produced by the dense
residual scan, not by the solver under test.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from encoder_sim import transconductor
from encoder_sim.device_model import DeviceParams, SaturationError
from encoder_sim.transconductor import (
    LinearizationSolution,
    SolverError,
    TransconductorConfig,
    dc_sweep,
    effective_gm,
    linearity_constraint_margin,
    neuron_input_current,
    node_arg_table,
    node_residual,
    output_current,
    raw_pair_output_current,
    solve_node_args,
    solve_operating_point,
)

CFG = TransconductorConfig()


class TestConfigValidation:
    def test_epsilon_boundaries_accepted(self):
        TransconductorConfig(epsilon=0.03)
        TransconductorConfig(epsilon=0.1)

    @pytest.mark.parametrize("eps", [0.029, 0.101, 0.0, -0.05, 1.0])
    def test_epsilon_outside_band_rejected(self, eps):
        with pytest.raises(ValueError):
            TransconductorConfig(epsilon=eps)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"i_ref": 0.0},
            {"i_ref": -1e-9},
            {"i_ref": math.nan},
            {"mirror_to_branch": 0.0},
            {"mirror_to_output": -0.5},
            {"drive_ratio": 0.0},
            {"node_shunt_ratio": -0.1},
        ],
    )
    def test_bad_ratios_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TransconductorConfig(**kwargs)


class TestSolveOperatingPoint:
    def test_zero_input_is_fully_symmetric(self):
        sol = solve_operating_point(CFG, 0.0)
        assert sol.v_b - sol.v_a == 0.0
        assert sol.alpha == 0.0
        assert sol.i_out_diff == 0.0
        assert sol.i_3a == sol.i_3b
        assert sol.i_4a == sol.i_4b

    def test_output_pair_relation_holds(self):
        # The defining identity of the solution type.
        for v in (-0.45, -0.2, -0.03, 0.07, 0.25, 0.5):
            sol = solve_operating_point(CFG, v)
            expect = 2.0 * CFG.output_quiescent * math.sinh(sol.alpha)
            assert sol.i_out_diff == pytest.approx(expect, rel=1e-12)

    def test_arguments_partition_the_input(self):
        # Node tracking plus output residue reconstructs the input argument.
        dev = CFG.dev
        for v in (-0.4, -0.1, 0.15, 0.3):
            sol = solve_operating_point(CFG, v)
            node_arg = (sol.v_b - sol.v_a) / (2.0 * dev.n * dev.u_t)
            assert node_arg + sol.alpha == pytest.approx(sol.beta, rel=1e-9, abs=1e-15)

    def test_residual_small_at_solution(self):
        for v in np.linspace(-0.5, 0.5, 101):
            sol = solve_operating_point(CFG, float(v))
            x = sol.v_b - sol.v_a
            r = node_residual(CFG, float(v), x)
            node_arg = x / (2.0 * CFG.dev.n * CFG.dev.u_t)
            scale = CFG.branch_quiescent * (
                abs(math.sinh(node_arg))
                + CFG.node_shunt_ratio * abs(node_arg)
                + CFG.drive_ratio * abs(math.sinh(sol.beta - node_arg))
            )
            assert abs(r) <= 1e-9 * scale + 1e-30

    def test_dense_grid_oracle_agreement(self):
        # Independent check: the minimizer of |residual| over a fine scan of
        # the node differential must land in the same cell as the solver.
        grid = np.linspace(-0.5, 0.5, 10**5)
        cell = grid[1] - grid[0]
        for v in (-0.35, -0.08, 0.12, 0.42):
            res = np.abs(node_residual(CFG, v, grid))
            best = grid[int(np.argmin(res))]
            sol = solve_operating_point(CFG, v)
            assert abs((sol.v_b - sol.v_a) - best) <= cell

    def test_odd_symmetry(self):
        for v in np.linspace(0.002, 0.5, 60):
            pos = solve_operating_point(CFG, float(v))
            neg = solve_operating_point(CFG, float(-v))
            assert neg.v_b - neg.v_a == pytest.approx(-(pos.v_b - pos.v_a), rel=1e-12)
            assert neg.i_out_diff == pytest.approx(-pos.i_out_diff, rel=1e-12)
            assert neg.i_3a == pytest.approx(pos.i_3b, rel=1e-12)
            assert neg.i_4a == pytest.approx(pos.i_4b, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.51, -0.6, math.nan, math.inf])
    def test_out_of_range_input_rejected(self, bad):
        with pytest.raises(ValueError):
            solve_operating_point(CFG, bad)

    @pytest.mark.parametrize("v", [0.5, 0.3, 0.1, 0.05])
    def test_narrow_bracket_where_the_wide_one_overflows(self, v):
        # at 0.3 mV sinh overflows at the +/-cap bracket ends (cap = 694)
        # for |b| above 16, but the root lies on [0, b]; the narrow bracket
        # keeps the transfer odd and the node equation balanced
        cfg = TransconductorConfig(dev=DeviceParams(u_t=3e-4))
        sol = solve_operating_point(cfg, v)
        assert solve_operating_point(cfg, -v).i_out_diff == -sol.i_out_diff
        assert 0.0 < sol.beta - sol.alpha < sol.beta
        assert abs(node_residual(cfg, v, sol.v_b - sol.v_a)) <= 1e-9 * cfg.branch_quiescent * (
            math.sinh(sol.beta - sol.alpha) * cfg.drive_ratio
        )

    @pytest.mark.parametrize("v", [0.5, -0.5, 0.0])
    def test_overflowing_node_equation_is_saturation(self, v):
        # a 0.1 mV thermal voltage puts the +/-0.5 V bracket end far past
        # the range of sinh
        cfg = TransconductorConfig(dev=DeviceParams(u_t=1e-4))
        with pytest.raises(SaturationError, match="overflows"):
            solve_operating_point(cfg, v)

    @given(v=st.floats(min_value=-0.5, max_value=0.5), i_ref=st.floats(min_value=1e-10, max_value=1e-7))
    @settings(max_examples=150, deadline=None)
    def test_branch_currents_always_positive(self, v, i_ref):
        cfg = TransconductorConfig(i_ref=i_ref)
        sol = solve_operating_point(cfg, v)
        assert sol.i_3a > 0 and sol.i_3b > 0
        assert sol.i_4a > 0 and sol.i_4b > 0


class TestOutputCurrent:
    def test_zero_at_zero(self):
        assert output_current(CFG, 0.0) == 0.0

    def test_gain_band_matches_published_range(self):
        # Published small-signal gain runs 1.56 to 22 nA/V over the tuning
        # range; the calibrated model must land within 20% at both ends.
        gm_lo = effective_gm(TransconductorConfig(i_ref=2e-9))
        gm_hi = effective_gm(TransconductorConfig(i_ref=27e-9))
        assert gm_lo == pytest.approx(1.56e-9, rel=0.20)
        assert gm_hi == pytest.approx(22e-9, rel=0.20)

    def test_gain_monotone_in_reference_current(self):
        gms = [effective_gm(TransconductorConfig(i_ref=i)) for i in
               (2e-9, 5e-9, 8e-9, 14e-9, 20e-9, 27e-9)]
        assert all(b > a for a, b in zip(gms, gms[1:]))

    def test_small_signal_tracking_within_two_percent(self):
        gm = effective_gm(CFG)
        for v in (0.02, 0.05, 0.1, 0.15, 0.2):
            i = output_current(CFG, v)
            assert abs(i - gm * v) <= 0.02 * abs(gm * v)

    def test_probe_step_sign_irrelevant(self):
        # The centered difference is even in the probe step by construction;
        # this pins the implementation to a symmetric difference.
        gm = effective_gm(CFG)
        sol_p = output_current(CFG, 1e-3)
        sol_m = output_current(CFG, -1e-3)
        assert gm == pytest.approx((sol_p - sol_m) / 2e-3, rel=1e-12)

    def test_monotone_increasing_transfer(self):
        vs = np.linspace(-0.5, 0.5, 201)
        i = [output_current(CFG, float(v)) for v in vs]
        assert all(b > a for a, b in zip(i, i[1:]))


class TestNeuronInputCurrent:
    def test_quiescent_at_zero_input(self):
        assert neuron_input_current(CFG, 0.0) == pytest.approx(CFG.output_quiescent, rel=1e-12)

    def test_half_swing_offset(self):
        for v in (-0.3, 0.2):
            sol = solve_operating_point(CFG, v)
            expect = CFG.output_quiescent + 0.5 * sol.i_out_diff
            assert neuron_input_current(CFG, v) == pytest.approx(expect, rel=1e-12)

    def test_never_negative(self):
        for v in np.linspace(-0.5, 0.5, 41):
            assert neuron_input_current(CFG, float(v)) >= 0.0


class TestRawPair:
    def test_zero_at_zero(self):
        assert raw_pair_output_current(CFG, 0.0) == 0.0

    def test_small_signal_slope_analytic(self):
        dev = CFG.dev
        expect = 2.0 * CFG.output_quiescent * (dev.n - 1.0) / (2.0 * dev.n * dev.u_t)
        step = 1e-6
        slope = (raw_pair_output_current(CFG, step) - raw_pair_output_current(CFG, -step)) / (2 * step)
        assert slope == pytest.approx(expect, rel=1e-6)

    def test_raw_exceeds_linearized_at_large_swing(self):
        # The correction network compresses the transfer, so the bare pair
        # must overshoot it at the swing extremes.
        assert raw_pair_output_current(CFG, 0.4) > output_current(CFG, 0.4)

    def test_odd(self):
        for v in (0.1, 0.3, 0.5):
            assert raw_pair_output_current(CFG, -v) == -raw_pair_output_current(CFG, v)


class TestLinearityConstraintMargin:
    def test_infinite_at_zero_input(self):
        assert linearity_constraint_margin(CFG, 0.0) == math.inf

    def test_positive_inside_linear_region(self):
        assert linearity_constraint_margin(CFG, 0.1) > 0.0

    def test_negative_outside(self):
        assert linearity_constraint_margin(CFG, 0.25) < 0.0
        assert linearity_constraint_margin(CFG, 0.4) < 0.0

    def test_even_in_input_sign(self):
        for v in (0.05, 0.15, 0.3):
            m_pos = linearity_constraint_margin(CFG, v)
            m_neg = linearity_constraint_margin(CFG, -v)
            assert m_neg == pytest.approx(m_pos, rel=1e-12)

    def test_strictly_decreasing_in_magnitude(self):
        vs = np.linspace(0.01, 0.5, 50)
        ms = [linearity_constraint_margin(CFG, float(v)) for v in vs]
        assert all(b < a for a, b in zip(ms, ms[1:]))

    def test_where_margin_holds_argument_is_small(self):
        # At every tested amplitude where the sufficient condition holds,
        # the realized output-pair argument stays within epsilon.
        for v in (0.1, 0.25, 0.4):
            if linearity_constraint_margin(CFG, v) >= 0.0:
                sol = solve_operating_point(CFG, v)
                assert abs(sol.alpha) <= CFG.epsilon


class TestSmallArgumentBound:
    def test_sinh_deviation_bound_on_grid(self):
        # Quadratic leading-term bound for the near-linear region. The exact
        # Taylor remainder is x^2/6*(1 + x^2/20 + ...), so the x^2/6 figure
        # is honored with a 0.1% allowance and the absolute cap is checked
        # as stated.
        for x in np.linspace(1e-4, 0.1, 500):
            rel_dev = (math.sinh(x) - x) / x
            assert rel_dev <= (x * x / 6.0) * 1.001
            assert rel_dev <= 1.67e-3

    def test_bound_applies_at_solved_points(self):
        for v in np.linspace(0.005, 0.5, 100):
            m = linearity_constraint_margin(CFG, float(v))
            sol = solve_operating_point(CFG, float(v))
            x = abs(sol.alpha)
            if m >= 0.0 and x <= CFG.epsilon:
                rel_dev = (math.sinh(x) - x) / x
                assert rel_dev <= (x * x / 6.0) * 1.001
                assert rel_dev <= 1.67e-3


class TestDcSweep:
    def test_antisymmetric_triple(self):
        pts = dc_sweep(CFG, [-0.25, 0.0, 0.25])
        assert pts[1][1] == 0.0
        assert pts[0][1] == pytest.approx(-pts[2][1], rel=1e-9)

    def test_matches_pointwise_calls(self):
        grid = [-0.4, -0.1, 0.0, 0.2, 0.35]
        pts = dc_sweep(CFG, grid)
        for (v, i) in pts:
            assert i == output_current(CFG, v)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            dc_sweep(CFG, [0.1, -0.1, 0.2])

    def test_out_of_range_point_reports_voltage(self):
        with pytest.raises(ValueError, match="0.7"):
            dc_sweep(CFG, [0.0, 0.7])


@given(v=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=150, deadline=None)
def test_property_odd_transfer(v):
    assert output_current(CFG, -v) == pytest.approx(-output_current(CFG, v), rel=1e-9, abs=1e-27)


@given(v=st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=150, deadline=None)
def test_property_solution_internally_consistent(v):
    sol = solve_operating_point(CFG, v)
    # Diode currents reconstruct the node differential; driver currents
    # reconstruct the output argument.
    two_nut = 2.0 * CFG.dev.n * CFG.dev.u_t
    node_arg = (sol.v_b - sol.v_a) / two_nut
    assert sol.i_3a == pytest.approx(CFG.branch_quiescent * math.exp(node_arg), rel=1e-9)
    assert sol.i_3b == pytest.approx(CFG.branch_quiescent * math.exp(-node_arg), rel=1e-9)
    i_drv = CFG.drive_ratio * CFG.branch_quiescent
    assert sol.i_4a == pytest.approx(i_drv * math.exp(sol.alpha), rel=1e-9)
    assert sol.i_4b == pytest.approx(i_drv * math.exp(-sol.alpha), rel=1e-9)


def _input_arg(cfg, v):
    return (cfg.dev.n - 1.0) * v / (2.0 * cfg.dev.n * cfg.dev.u_t)


class TestSolveNodeArgs:
    def test_matches_scalar_solver_and_is_odd(self):
        v = np.linspace(-0.5, 0.5, 41)
        beta = _input_arg(CFG, v)
        alpha = solve_node_args(CFG, beta)
        assert np.array_equal(solve_node_args(CFG, -beta), -alpha)
        assert alpha[20] == 0.0
        for vk, bk, ak in zip(v, beta, alpha):
            sol = solve_operating_point(CFG, float(vk))
            assert ak == pytest.approx(bk - sol.alpha, rel=1e-9, abs=1e-15)
            if bk:
                assert 0.0 < ak / bk < 1.0  # the root lies between 0 and beta

    def test_root_to_adjacent_doubles(self):
        # bisection runs until the bracket cannot shrink, so the residual
        # changes sign within one ulp of the returned root
        beta = np.array([1e-6, 0.3, 1.7, 20.0])
        alpha = solve_node_args(CFG, beta)
        s, d = CFG.node_shunt_ratio, CFG.drive_ratio
        for b, a in zip(beta, alpha):
            lo, hi = np.nextafter(a, -np.inf), np.nextafter(a, np.inf)
            r = lambda x: math.sinh(x) + s * x - d * math.sinh(b - x)  # noqa: E731
            assert r(lo) <= 0.0 <= r(hi)

    def test_overflow_is_saturation(self):
        with pytest.raises(SaturationError, match="overflows"):
            solve_node_args(CFG, np.array([0.1, 3000.0]))


class TestNodeArgTable:
    def test_default_config_needs_the_starting_grid(self):
        table = node_arg_table(CFG)
        assert len(table.coeffs) == 256
        assert node_arg_table(CFG) is table

    def test_drive_overflow_is_saturation(self):
        # n = 3 at 0.1 mV puts beta near 1667 at 0.5 V, and the root near
        # beta/2 is past sinh's range
        cfg = TransconductorConfig(dev=DeviceParams(n=3.0, u_t=1e-4))
        with pytest.raises(SaturationError, match="overflows"):
            node_arg_table(cfg)

    def test_bound_never_met_is_solver_error(self, monkeypatch):
        monkeypatch.setattr(transconductor, "_TABLE_TOL", 0.0)
        cfg = TransconductorConfig(i_ref=7e-9)
        node_arg_table.cache_clear()
        try:
            with pytest.raises(SolverError, match="65536 intervals"):
                node_arg_table(cfg)
        finally:
            node_arg_table.cache_clear()

    @given(
        n=st.floats(min_value=1.0, max_value=3.0, exclude_min=True),
        u_t=st.floats(min_value=5e-3, max_value=40e-3),
        drive_ratio=st.floats(min_value=0.05, max_value=200.0),
        node_shunt_ratio=st.floats(min_value=0.0, max_value=100.0),
        v=st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=8, max_size=8),
    )
    @example(3.0, 5e-3, 0.05, 0.0, [0.5, 0.31, 0.02, -1e-9, 0.0, -0.25, 0.49, -0.37])
    @example(3.0, 5e-3, 200.0, 100.0, [0.5, 0.31, 0.02, -1e-9, 0.0, -0.25, 0.49, -0.37])
    @example(2.5, 5e-3, 6.368, 1.0, [0.5, 0.31, 0.02, -1e-9, 0.0, -0.25, 0.49, -0.37])
    @example(1.2, 25e-3, 6.368, 1.0, [0.3, -0.3, 0.15, -0.1, 1e-3, 0.0, 0.45, -0.05])
    @example(2.0, 0.0234375, 1.0, 0.0, [0.0] * 7 + [5e-324])  # subnormal input, no shunt
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_property_table_accuracy(self, n, u_t, drive_ratio, node_shunt_ratio, v):
        cfg = TransconductorConfig(
            dev=DeviceParams(n=n, u_t=u_t),
            drive_ratio=drive_ratio,
            node_shunt_ratio=node_shunt_ratio,
        )
        table = node_arg_table(cfg)
        i_q = cfg.output_quiescent
        beta = _input_arg(cfg, np.array(v + [0.5, -0.5]))
        exact = np.sinh(beta - solve_node_args(cfg, beta))
        for vk, bk, ek in zip(v + [0.5, -0.5], beta.tolist(), exact.tolist()):
            a = table.node_arg(bk)
            # odd to the last bit, in node argument
            assert table.node_arg(-bk) == -a
            # the hot-loop lookup is the node_arg formula, bit for bit
            got = table.input_current(vk)
            assert got == max(i_q + i_q * math.sinh(bk - a), 0.0)
            # within the table's own bound of the vectorized root, and of
            # the scalar solver, whose 1e-9 residual tolerance dominates
            scale = max(1.0, abs(ek))
            assert abs(math.sinh(bk - a) - ek) <= 1e-10 * scale
            assert abs(got - neuron_input_current(cfg, vk)) <= 1e-8 * i_q * scale
