"""Transconductor operating-point and transfer tests.

Expected values fall in three groups: exact structural identities (odd
symmetry, the split of the input argument), solver contracts checked
against the independently evaluated node residual, and published-band
checks for the small-signal gain. Frozen numeric spot values were produced by the dense
residual scan, not by the solver under test.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import node_residual

from encoder_sim import transconductor
from encoder_sim.cli import build_encoder, load_config
from encoder_sim.device_model import DeviceParams, SaturationError
from encoder_sim.transconductor import (
    SolverError,
    TransconductorConfig,
    dc_sweep,
    effective_gm,
    neuron_input_current,
    node_arg_table,
    output_current,
    raw_pair_output_current,
    solve_operating_point,
)

CFG = TransconductorConfig()
# Dimensionless linearity tolerance: the output-pair sinh argument is
# "small enough" when its magnitude stays below this.
EPSILON = 0.1
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _input_arg(cfg, v):
    """The input argument beta, the sinh argument the raw pair sees."""
    return (cfg.dev.n - 1.0) * v / (2.0 * cfg.dev.n * cfg.dev.u_t)


def node_arg(cfg: TransconductorConfig, v_id: float) -> float:
    """The node argument, the part of beta that the correction nodes track."""
    return _input_arg(cfg, v_id) - solve_operating_point(cfg, v_id)


def node_voltage(cfg: TransconductorConfig, v_id: float) -> float:
    """The differential node voltage v_b - v_a, V."""
    return node_arg(cfg, v_id) * (2.0 * cfg.dev.n * cfg.dev.u_t)


def linearity_constraint_margin(cfg: TransconductorConfig, v_id: float) -> float:
    """Slack of the sufficient linearity condition at ``v_id``.

    The condition compares the normalized imbalance of the node-diode
    currents against (|b| + EPSILON)/(2*|sinh b|) where b is the
    input-proportional argument; the margin is the right side minus the
    left side, so nonnegative means the sufficient condition holds. At
    v_id = 0 the right side is the (infinite) limit value. The diode
    currents, relative to their quiescent value, are exp(+/-node_arg).
    """
    beta = _input_arg(cfg, v_id)
    i_3a, i_3b = math.exp(node_arg(cfg, v_id)), math.exp(-node_arg(cfg, v_id))
    lhs = abs(i_3b - i_3a) / (i_3b + i_3a)
    if beta == 0.0:
        return math.inf
    rhs = (abs(beta) + EPSILON) / (2.0 * abs(math.sinh(beta)))
    return rhs - lhs


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"i_ref": 0.0},
            {"i_ref": -1e-9},
            {"i_ref": math.nan},
            {"mirror_to_output": -0.5},
            {"drive_ratio": 0.0},
            {"drive_ratio": math.inf},
            {"node_shunt_ratio": -0.1},
        ],
    )
    def test_bad_ratios_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TransconductorConfig(**kwargs)

    @pytest.mark.parametrize(
        "dev, message",
        [
            # a 0.1 mV thermal voltage puts the half-width 0.5 V/(2*n*u_t)
            # far past the range of sinh
            (DeviceParams(u_t=1e-4), "at the half-width argument 2083; "),
            # at n = 3 and 0.2 mV the half-width 416.7 is within sinh's
            # range, but the input argument at 0.5 V, 833.3, is not
            (DeviceParams(n=3.0, u_t=2e-4), "at the input argument 833.3; "),
            # the input argument at 0.5 V, 1.5e-306, splits into no 2**16
            # intervals of nonzero width
            (DeviceParams(n=1.000000000001, u_t=1.7e293), "1.471e-306 at 0.5 V is too narrow"),
        ],
        ids=["half-width", "input-argument", "narrow"],
    )
    def test_device_out_of_range(self, monkeypatch, dev, message):
        # the range is judged when the config is built, before any root
        monkeypatch.setattr(transconductor, "_bisect_node", None)
        monkeypatch.setattr(transconductor, "_memo_node_root", None)
        with pytest.raises(SaturationError, match=message):
            TransconductorConfig(dev=dev)


class TestSolveOperatingPoint:
    def test_zero_input_is_fully_symmetric(self):
        assert solve_operating_point(CFG, 0.0) == 0.0
        assert node_voltage(CFG, 0.0) == 0.0
        assert output_current(CFG, 0.0) == 0.0

    def test_output_pair_relation_holds(self):
        # The output pair turns its argument into the differential current.
        for v in (-0.45, -0.2, -0.03, 0.07, 0.25, 0.5):
            expect = 2.0 * CFG.output_quiescent * math.sinh(solve_operating_point(CFG, v))
            assert output_current(CFG, v) == pytest.approx(expect, rel=1e-12)

    def test_arguments_partition_the_input(self):
        # Node tracking and output residue each take a part of the input
        # argument, with its sign.
        for v in (-0.4, -0.1, 0.15, 0.3):
            beta = _input_arg(CFG, v)
            alpha = solve_operating_point(CFG, v)
            assert 0.0 < alpha / beta < 1.0
            assert 0.0 < node_arg(CFG, v) / beta < 1.0

    def test_residual_small_at_solution(self):
        for v in np.linspace(-0.5, 0.5, 101):
            x = node_voltage(CFG, float(v))
            r = node_residual(CFG, float(v), x)
            a = x / (2.0 * CFG.dev.n * CFG.dev.u_t)
            scale = (
                abs(math.sinh(a))
                + CFG.node_shunt_ratio * abs(a)
                + CFG.drive_ratio * abs(math.sinh(_input_arg(CFG, float(v)) - a))
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
            assert abs(node_voltage(CFG, v) - best) <= cell

    def test_odd_symmetry(self):
        for v in np.linspace(0.002, 0.5, 60):
            v = float(v)
            assert solve_operating_point(CFG, -v) == -solve_operating_point(CFG, v)
            assert node_voltage(CFG, -v) == -node_voltage(CFG, v)
            assert output_current(CFG, -v) == -output_current(CFG, v)

    @pytest.mark.parametrize("bad", [0.51, -0.6, math.nan, math.inf])
    def test_out_of_range_input_rejected(self, bad):
        with pytest.raises(ValueError):
            solve_operating_point(CFG, bad)

    @pytest.mark.parametrize("v", [0.5, 0.3, 0.1, 0.05])
    def test_narrow_bracket_where_the_wide_one_overflows(self, v):
        # at 0.3 mV the half-width 0.5 V/(2*n*u_t) is 694, near the range
        # of sinh, yet the root on [0, b] is in range: the transfer stays
        # odd and the node equation balanced
        cfg = TransconductorConfig(dev=DeviceParams(u_t=3e-4))
        assert output_current(cfg, -v) == -output_current(cfg, v)
        assert 0.0 < node_arg(cfg, v) < _input_arg(cfg, v)
        residual = node_residual(cfg, v, node_voltage(cfg, v))
        assert abs(residual) <= 1e-9 * math.sinh(node_arg(cfg, v)) * cfg.drive_ratio

    @pytest.mark.parametrize("v", [0.5, -0.5, 0.0])
    def test_overflowing_node_equation_is_saturation(self, monkeypatch, v):
        # a 0.1 mV thermal voltage puts the +/-0.5 V bracket end far past
        # the range of sinh; the config is refused when it is built, so no
        # v reaches a root
        monkeypatch.setattr(transconductor, "_bisect_node", None)
        monkeypatch.setattr(transconductor, "_memo_node_root", None)
        with pytest.raises(SaturationError, match="overflows"):
            solve_operating_point(TransconductorConfig(dev=DeviceParams(u_t=1e-4)), v)


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
            alpha = solve_operating_point(CFG, v)
            expect = CFG.output_quiescent + CFG.output_quiescent * math.sinh(alpha)
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
        # the realized output-pair argument stays within EPSILON.
        for v in (0.1, 0.25, 0.4):
            if linearity_constraint_margin(CFG, v) >= 0.0:
                assert abs(solve_operating_point(CFG, v)) <= EPSILON


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
            x = abs(solve_operating_point(CFG, float(v)))
            if m >= 0.0 and x <= EPSILON:
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

    def test_unsorted_grid_gives_the_one_point_values(self):
        # the sweep never warm-starts, so the grid's order changes no bit
        grid = [0.1, -0.1, 0.2, -0.45, 0.0, -0.0, 0.1, 0.5]
        swept = dc_sweep(CFG, grid)
        alone = []
        for v in grid:
            transconductor._memo_node_root.cache_clear()
            alone.append(dc_sweep(CFG, [v])[0])
        assert [tuple(map(float.hex, p)) for p in swept] == [
            tuple(map(float.hex, p)) for p in alone
        ]

    def test_out_of_range_point_reports_voltage(self):
        with pytest.raises(ValueError, match="0.7"):
            dc_sweep(CFG, [0.0, 0.7])


@given(v=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=150, deadline=None)
def test_property_odd_transfer(v):
    assert output_current(CFG, -v) == pytest.approx(-output_current(CFG, v), rel=1e-9, abs=1e-27)


class TestNodeSolveMemo:
    @given(
        v=st.floats(min_value=-0.5, max_value=0.5),
        i_refs=st.lists(st.floats(min_value=1e-9, max_value=3e-8), min_size=2, max_size=2),
        drive_ratio=st.sampled_from([6.368, 2.0, 15.0]),
        shunts=st.sampled_from([(1.0, 1.0), (3.5, 3.5), (0.0, -0.0), (-0.0, 0.0)]),
    )
    @example(v=0.0, i_refs=[2e-9, 8e-9], drive_ratio=6.368, shunts=(0.0, -0.0))
    @example(v=-0.0, i_refs=[2e-9, 8e-9], drive_ratio=6.368, shunts=(-0.0, 0.0))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_hit_is_the_uncached_solve(self, v, i_refs, drive_ratio, shunts):
        # configs that differ only in i_ref, or in the sign of a zero shunt
        # ratio, share the normalized root, and so do mirror inputs
        memo = transconductor._memo_node_root
        a, b = (
            TransconductorConfig(i_ref=i_ref, drive_ratio=drive_ratio, node_shunt_ratio=s)
            for i_ref, s in zip(i_refs, shunts)
        )
        memo.cache_clear()
        solve_operating_point(a, v)
        hit = solve_operating_point(b, -v)
        assert memo.cache_info()[:2] == (1, 1)
        memo.cache_clear()
        assert hit.hex() == solve_operating_point(b, -v).hex()

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_keeps_its_sign(self, first):
        # the memo is keyed on |input_arg|, so both zeros share one root and
        # the sign is applied after the lookup
        memo = transconductor._memo_node_root
        memo.cache_clear()
        output_current(CFG, first)
        assert output_current(CFG, 0.0).hex() == "0x0.0p+0"
        assert output_current(CFG, -0.0).hex() == "-0x0.0p+0"
        assert memo.cache_info()[:2] == (2, 1)

    def test_errors_are_not_kept(self, monkeypatch):
        # one halving cannot close the bracket [0, |beta|] at 0.3 V
        monkeypatch.setattr(transconductor, "_MAX_HALVINGS", 1)
        memo = transconductor._memo_node_root
        memo.cache_clear()
        for _ in range(2):
            with pytest.raises(SolverError, match="within 1 halvings"):
                output_current(CFG, 0.3)
        assert memo.cache_info()[1:] == (2, 256, 0)


def closing_bisection(b, s, d):
    """The rule for the node root at b >= 0: bisect [0, b] to adjacent doubles."""
    lo, hi = 0.0, b
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if math.sinh(mid) + s * mid - d * math.sinh(b - mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return mid


class TestScalarNodeRoot:
    @given(
        s=st.floats(min_value=0.0, max_value=100.0),
        d=st.floats(min_value=1e-300, max_value=1e3),
        n=st.floats(min_value=1.0, max_value=3.0, exclude_min=True),
        u_t=st.floats(min_value=4e-4, max_value=40e-3),  # half-width below 710.5
        v=st.floats(min_value=-0.5, max_value=0.5),
    )
    @example(s=1.0, d=6.368, n=1.2, u_t=0.025, v=0.0)
    @example(s=-0.0, d=6.368, n=1.2, u_t=0.025, v=-0.0)
    @example(s=0.0, d=1.0, n=3.0, u_t=0.025, v=5e-324)  # subnormal input argument
    @example(s=1.0, d=6.368, n=3.0, u_t=4e-4, v=0.5)
    @example(s=1.0, d=6.368, n=3.0, u_t=4e-4, v=-0.5)
    @example(s=0.0, d=1e-300, n=1.2, u_t=0.025, v=-0.5)  # root near 1e-300
    @example(s=0.0, d=1e3, n=3.0, u_t=4e-4, v=0.5)  # root near |beta|
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_is_the_adjacent_doubles_root(self, s, d, n, u_t, v):
        cfg = TransconductorConfig(
            dev=DeviceParams(n=n, u_t=u_t), drive_ratio=d, node_shunt_ratio=s
        )
        beta = _input_arg(cfg, v)
        root = transconductor._solve_node_arg(cfg, beta)
        b, a = abs(beta), abs(root)
        assert root.hex() == (-a if beta < 0.0 else a).hex()  # beta's sign, if negative
        assert a.hex() == closing_bisection(b, s, d).hex()
        assert 0.0 <= a <= b  # the root lies on the bracket [0, |beta|]
        if b > 0.0:
            # the residual changes sign between the root and its neighbour
            # on the side it points to
            r = lambda x: math.sinh(x) + s * x - d * math.sinh(b - x)  # noqa: E731
            other = math.nextafter(a, b if r(a) <= 0.0 else 0.0)
            assert r(min(a, other)) <= 0.0 < r(max(a, other))


def table_node_arg(table, beta):
    """The table's node argument at beta: interpolated at |beta|, with beta's sign."""
    x = abs(beta) * table.scale
    k = min(int(x), len(table.coeffs) - 1)
    u = x - k
    c0, c1, c2, c3 = table.coeffs[k]
    a = c0 + u * (c1 + u * (c2 + u * c3))
    return -a if beta < 0.0 else a


class TestNodeArgTable:
    def test_default_config_needs_the_starting_grid(self):
        table = node_arg_table(CFG)
        assert len(table.coeffs) == 256
        assert node_arg_table(CFG) is table

    @pytest.mark.parametrize(
        "cfg",
        [
            build_encoder(load_config(CONFIGS / "default.ini")).transconductor,
            build_encoder(load_config(CONFIGS / "triangle_1na.ini")).transconductor,
            TransconductorConfig(dev=DeviceParams(n=3.0, u_t=5e-3), drive_ratio=0.05),
            TransconductorConfig(
                dev=DeviceParams(n=3.0, u_t=5e-3), drive_ratio=200.0, node_shunt_ratio=100.0
            ),
            TransconductorConfig(dev=DeviceParams(n=2.5, u_t=5e-3)),
            TransconductorConfig(
                dev=DeviceParams(n=2.0, u_t=0.0234375), drive_ratio=1.0, node_shunt_ratio=0.0
            ),
        ],
        ids=["default.ini", "triangle_1na.ini", "d=0.05", "d=200", "n=2.5", "no-shunt"],
    )
    def test_solves_are_the_scalar_roots(self, monkeypatch, cfg):
        solved = []
        bisect = transconductor._bisect_node

        def recording(s, d, b):
            a = bisect(s, d, b)
            solved.append((b, a))
            return a

        monkeypatch.setattr(transconductor, "_bisect_node", recording)
        table = node_arg_table.__wrapped__(cfg)
        monkeypatch.undo()
        n = len(table.coeffs)
        beta_max = _input_arg(cfg, 0.5)
        # once each, the nodes and the midpoints of the final grid
        assert sorted(b for b, _ in solved) == [k * (beta_max / (2 * n)) for k in range(2 * n + 1)]
        for b, a in solved:
            assert a.hex() == transconductor._solve_node_arg(cfg, b).hex()
        assert [c[0].hex() for c in table.coeffs] == [
            transconductor._solve_node_arg(cfg, k * (beta_max / n)).hex() for k in range(n)
        ]

    def test_build_leaves_the_memo_alone(self):
        memo = transconductor._memo_node_root
        memo.cache_clear()
        output_current(CFG, 0.25)
        before = memo.cache_info()
        node_arg_table.__wrapped__(CFG)
        assert memo.cache_info() == before

    def test_drive_overflow_is_saturation(self, monkeypatch):
        # n = 3 at 0.1 mV puts the half-width near 833, past sinh's range;
        # the config is refused when it is built, before the table solves
        # any node
        monkeypatch.setattr(transconductor, "_bisect_node", None)
        with pytest.raises(SaturationError, match="overflows"):
            node_arg_table(TransconductorConfig(dev=DeviceParams(n=3.0, u_t=1e-4)))

    def test_bound_never_met_is_solver_error(self, monkeypatch):
        # a cap of 2**10 runs the doubling to its cap at a sixty-fourth of
        # the scalar solves of the shipped 2**16
        monkeypatch.setattr(transconductor, "_TABLE_TOL", 0.0)
        monkeypatch.setattr(transconductor, "_TABLE_MAX_INTERVALS", 2**10)
        cfg = TransconductorConfig(i_ref=7e-9)
        node_arg_table.cache_clear()
        try:
            with pytest.raises(SolverError, match="1024 intervals"):
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
        for vk in v + [0.5, -0.5]:
            bk = _input_arg(cfg, vk)
            ek = math.sinh(bk - transconductor._solve_node_arg(cfg, bk))
            a = table_node_arg(table, bk)
            # the hot-loop lookup is the Hermite interpolation, bit for bit
            got = table.input_current(vk)
            assert got == max(i_q + i_q * math.sinh(bk - a), 0.0)
            # odd to the last bit, in node argument
            assert table.input_current(-vk) == max(i_q + i_q * math.sinh(a - bk), 0.0)
            # within the table's own bound of the root, which the scalar
            # solve gives and the drive current forms with its own rounding
            scale = max(1.0, abs(ek))
            assert abs(math.sinh(bk - a) - ek) <= 1e-10 * scale
            assert abs(got - neuron_input_current(cfg, vk)) <= 2e-10 * i_q * scale
