"""Tests for the bias search: spec validation, simplex behavior on
synthetic objectives with known optima, and the measurement-backed
objectives on real encoder configs."""

import math

import pytest

from encoder_sim.analysis import linearity_error, power_estimate, vf_curve
from encoder_sim.bias_tuner import (
    TuneResult,
    TuneSpec,
    TunerError,
    _cheap_solver,
    objective_linearity,
    objective_negative_linear_range,
    objective_power_weighted,
    tune,
)
from encoder_sim.neuron import NeuronConfig
from encoder_sim.sim_engine import EncoderConfig
from encoder_sim.transconductor import TransconductorConfig


def param_of(encoder, name):
    if name == "i_ref":
        return encoder.transconductor.i_ref
    return getattr(encoder.neuron, name)


def quadratic(targets, spans):
    """Separable quadratic with known minimum, normalized per axis."""

    def fn(encoder):
        return sum(
            ((param_of(encoder, name) - target) / spans[name]) ** 2
            for name, target in targets.items()
        )

    return fn


BOX2 = {"i_g": (5e-12, 50e-12), "i_th": (20e-12, 200e-12)}
SPANS2 = {k: hi - lo for k, (lo, hi) in BOX2.items()}
TARGETS2 = {"i_g": 23e-12, "i_th": 77e-12}


class TestTuneSpecValidation:
    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variables"):
            TuneSpec(variables={"c_m": (1e-13, 1e-12)})

    def test_reversed_bounds(self):
        with pytest.raises(ValueError, match="ordered"):
            TuneSpec(variables={"i_g": (2e-11, 1e-11)})

    def test_nonfinite_bounds(self):
        with pytest.raises(ValueError, match="finite"):
            TuneSpec(variables={"i_g": (1e-11, math.inf)})

    def test_bad_objective_name(self):
        with pytest.raises(ValueError, match="objective"):
            TuneSpec(variables={"i_g": (1e-11, 2e-11)}, objective="thd")

    def test_budget_floor(self):
        box = {"i_g": (1e-11, 2e-11), "i_th": (4e-11, 8e-11)}
        with pytest.raises(ValueError, match="budget"):
            TuneSpec(variables=box, budget=6)
        TuneSpec(variables=box, budget=7)

    def test_empty_variables(self):
        with pytest.raises(ValueError, match="at least one"):
            TuneSpec(variables={})

    def test_seed_type(self):
        with pytest.raises(ValueError, match="seed"):
            TuneSpec(variables={"i_g": (1e-11, 2e-11)}, seed=1.5)


class TestTuneResultValidation:
    def test_trace_length_mismatch(self):
        with pytest.raises(ValueError, match="trace length"):
            TuneResult(
                best_point={"i_g": 1e-11},
                best_objective=0.5,
                evaluations=2,
                trace=(({"i_g": 1e-11}, 0.5),),
            )

    def test_best_must_be_min(self):
        with pytest.raises(ValueError, match="minimum"):
            TuneResult(
                best_point={"i_g": 1e-11},
                best_objective=0.7,
                evaluations=1,
                trace=(({"i_g": 1e-11}, 0.5),),
            )

    def test_empty_trace(self):
        with pytest.raises(ValueError, match="nonempty"):
            TuneResult(best_point={}, best_objective=0.0, evaluations=0, trace=())


class TestCollapsedBox:
    def test_single_point_box_evaluates_once(self):
        calls = []

        def hook(encoder):
            calls.append(encoder.neuron.i_g)
            return 42.0

        spec = TuneSpec(variables={"i_g": (1e-11, 1e-11)}, budget=10, seed=3)
        result = tune(EncoderConfig(), spec, objective_fn=hook)
        assert result.evaluations == 1
        assert len(calls) == 1
        assert result.best_point == {"i_g": 1e-11}
        assert result.best_objective == 42.0

    def test_mixed_frozen_and_free(self):
        spec = TuneSpec(
            variables={"i_g": (1e-11, 1e-11), "i_th": (2e-11, 2e-10)},
            budget=60,
            seed=0,
        )
        result = tune(
            EncoderConfig(), spec, objective_fn=quadratic(TARGETS2, SPANS2)
        )
        assert all(p["i_g"] == 1e-11 for p, _ in result.trace)
        assert abs(result.best_point["i_th"] - TARGETS2["i_th"]) < 1e-3 * SPANS2["i_th"]


class TestSyntheticSearch:
    def test_recovers_known_optimum(self):
        spec = TuneSpec(variables=BOX2, budget=200, seed=7)
        result = tune(EncoderConfig(), spec, objective_fn=quadratic(TARGETS2, SPANS2))
        for name, target in TARGETS2.items():
            assert abs(result.best_point[name] - target) < 1e-3 * SPANS2[name]

    def test_bounds_safety(self):
        spec = TuneSpec(variables=BOX2, budget=120, seed=11)
        result = tune(EncoderConfig(), spec, objective_fn=quadratic(TARGETS2, SPANS2))
        for point, _ in result.trace:
            for name, (lo, hi) in BOX2.items():
                assert lo <= point[name] <= hi

    def test_deterministic(self):
        spec = TuneSpec(variables=BOX2, budget=80, seed=5)
        fn = quadratic(TARGETS2, SPANS2)
        a = tune(EncoderConfig(), spec, objective_fn=fn)
        b = tune(EncoderConfig(), spec, objective_fn=fn)
        assert a == b

    def test_running_best_nonincreasing_and_budget(self):
        spec = TuneSpec(variables=BOX2, budget=90, seed=2)
        result = tune(EncoderConfig(), spec, objective_fn=quadratic(TARGETS2, SPANS2))
        assert 3 <= result.evaluations <= 90
        running = math.inf
        bests = []
        for _, value in result.trace:
            running = min(running, value)
            bests.append(running)
        assert all(b <= a for a, b in zip(bests, bests[1:]))
        assert result.best_objective == bests[-1]

    def test_never_worse_than_template(self):
        spec = TuneSpec(variables=BOX2, budget=40, seed=9)
        fn = quadratic(TARGETS2, SPANS2)
        result = tune(EncoderConfig(), spec, objective_fn=fn)
        # template point, projected into the box, is evaluated first
        # (up to float round-trip through the normalized coordinates)
        template = EncoderConfig()
        clipped = {
            name: min(max(param_of(template, name), lo), hi)
            for name, (lo, hi) in BOX2.items()
        }
        for name, value in clipped.items():
            assert result.trace[0][0][name] == pytest.approx(value, rel=1e-12)
        assert result.best_objective <= result.trace[0][1]

    def test_collapse_restart_terminates_under_budget(self):
        spec = TuneSpec(variables={"i_g": (1e-11, 2e-11)}, budget=500, seed=4)
        fn = quadratic({"i_g": 1.37e-11}, {"i_g": 1e-11})
        result = tune(EncoderConfig(), spec, objective_fn=fn)
        assert result.evaluations < 500
        assert abs(result.best_point["i_g"] - 1.37e-11) < 1e-14


class TestFailureHandling:
    def test_all_failures_raise(self):
        def hook(encoder):
            raise ValueError("no bias point")

        spec = TuneSpec(variables={"i_g": (1e-11, 2e-11)}, budget=20, seed=0)
        with pytest.raises(TunerError, match="no bias point"):
            tune(EncoderConfig(), spec, objective_fn=hook)

    def test_partial_failures_tolerated(self):
        def hook(encoder):
            if encoder.neuron.i_g > 1.5e-11:
                raise ValueError("upper half poisoned")
            return (encoder.neuron.i_g - 1.2e-11) ** 2 / 1e-22

        spec = TuneSpec(variables={"i_g": (1e-11, 2e-11)}, budget=60, seed=1)
        result = tune(EncoderConfig(), spec, objective_fn=hook)
        assert math.isfinite(result.best_objective)
        assert abs(result.best_point["i_g"] - 1.2e-11) < 1e-13
        assert any(math.isinf(v) for _, v in result.trace)

    def test_failures_name_each_failed_evaluation(self):
        def hook(encoder):
            if encoder.neuron.i_g > 1.5e-11:
                raise ValueError("upper half poisoned")
            return (encoder.neuron.i_g - 1.2e-11) ** 2 / 1e-22

        spec = TuneSpec(variables={"i_g": (1e-11, 2e-11)}, budget=30, seed=1)
        result = tune(EncoderConfig(), spec, objective_fn=hook)
        failed = [k for k, (_, value) in enumerate(result.trace) if math.isinf(value)]
        assert failed and [k for k, _, _ in result.failures] == failed
        for k, point, reason in result.failures:
            assert point == result.trace[k][0]
            assert reason == "ValueError('upper half poisoned')"
        clean = tune(EncoderConfig(), spec, objective_fn=lambda enc: enc.neuron.i_g * 1e11)
        assert clean.failures == ()

    def test_nan_objective_counts_as_failure(self):
        def hook(encoder):
            return float("nan")

        spec = TuneSpec(variables={"i_g": (1e-11, 2e-11)}, budget=20, seed=0)
        with pytest.raises(TunerError):
            tune(EncoderConfig(), spec, objective_fn=hook)


class TestObjectiveLinearity:
    def test_perfect_synthetic_rate_model(self):
        value = objective_linearity(
            EncoderConfig(), rate_model=lambda v: 2e3 + 30e3 * v
        )
        assert value < 1e-9

    def test_dead_point_costs_one(self):
        def model(v):
            return 0.0 if v < 0.12 else 2e3 + 30e3 * v

        value = objective_linearity(EncoderConfig(), rate_model=model)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_never_firing_encoder_is_penalty_dominated(self):
        neuron = NeuronConfig(i_th=5e-9)
        value = objective_linearity(EncoderConfig(neuron=neuron))
        assert value >= 1.0

    def test_matches_linearity_error_exactly(self):
        enc = EncoderConfig()
        value = objective_linearity(enc)
        grid = [0.1 + 0.05 * k for k in range(7)]
        curve = vf_curve(
            enc, grid, 2e-3, 10e-3, (0.1, 0.4), solver=_cheap_solver(enc.neuron)
        )
        assert curve.flagged == ()
        assert value == linearity_error(curve)


class TestObjectiveNegativeLinearRange:
    def test_default_encoder_has_wide_range(self):
        value = objective_negative_linear_range(EncoderConfig())
        assert -0.45 <= value <= -0.25

    def test_dead_encoder_scores_zero(self):
        value = objective_negative_linear_range(
            EncoderConfig(neuron=NeuronConfig(i_th=5e-9))
        )
        assert value == 0.0


class TestObjectivePowerWeighted:
    def test_decomposition(self):
        enc = EncoderConfig()
        combined = objective_power_weighted(enc)
        expected = objective_linearity(enc) + power_estimate(enc, 25e3) / 500e-9
        assert combined == expected

    def test_power_weight_scales_only_the_power_term(self):
        enc = EncoderConfig()
        single = objective_power_weighted(enc, power_weight=1.0)
        double = objective_power_weighted(enc, power_weight=2.0)
        assert double - single == pytest.approx(
            power_estimate(enc, 25e3) / 500e-9, rel=1e-12
        )


class TestTuneOnEncoder:
    def test_improves_default_encoder(self):
        spec = TuneSpec(
            variables={
                "i_g": (5e-12, 30e-12),
                "i_r": (0.2e-9, 1.2e-9),
                "i_th": (30e-12, 200e-12),
            },
            objective="linearity_error",
            budget=40,
            seed=1,
        )
        result = tune(EncoderConfig(), spec)
        untuned = result.trace[0][1]
        assert result.best_objective < untuned
        for point, _ in result.trace:
            for name, (lo, hi) in spec.variables.items():
                assert lo <= point[name] <= hi
