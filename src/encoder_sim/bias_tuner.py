"""Derivative-free search over encoder bias currents.

The encoder's linear range is set by the interplay of the reference
current, the neuron's gain and leak currents and the firing threshold.
None of these admit a useful analytic gradient once the objective is a
simulated rate measurement, so the tuner runs a bounded Nelder-Mead
simplex over a declared box, projecting candidates back inside and
restarting once if the simplex collapses.

Search variables live in the current domain rather than the gate-voltage
domain: the exponential voltage-to-current map makes voltage boxes
wildly anisotropic, while current boxes keep the simplex steps
comparably scaled. Voltage-domain setpoints can be converted up front
with neuron_biases_from_voltages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    UndersampledError,
    _curve_from_rates,
    power_estimate,
    vf_curve,
)
from .neuron import tau_m
from .sim_engine import EncoderConfig, SolverConfig, spike_count_dc

__all__ = [
    "TuneSpec",
    "TuneResult",
    "TunerError",
    "tune",
    "objective_linearity",
    "objective_negative_linear_range",
    "objective_power_weighted",
]

_TUNABLE = ("i_ref", "i_g", "i_r", "i_th", "t_rf")
_NEURON_FIELDS = frozenset(("i_g", "i_r", "i_th", "t_rf"))
_OBJECTIVES = ("linearity_error", "negative_linear_range", "power_weighted")

# Standard linearity window and measurement grid. The 10 ms gate keeps a
# single objective evaluation cheap enough for a few hundred of them;
# rate quantization at that gate is 100 Hz, well under the deviations
# the search needs to resolve.
_LINEARITY_WINDOW = (0.1, 0.4)
_LINEARITY_GRID = tuple(0.1 + 0.05 * k for k in range(7))
_RANGE_GRID = tuple(0.05 * k for k in range(1, 11))
_SETTLE_TIME = 2e-3
_MEASURE_TIME = 10e-3

_COLLAPSE_FRACTION = 1e-6


class TunerError(RuntimeError):
    """No evaluation produced a usable objective value."""


@dataclass(frozen=True)
class TuneSpec:
    """Search definition: boxed variables, objective name, budget, seed.

    variables maps a subset of {i_ref, i_g, i_r, i_th, t_rf} to (lo, hi)
    bounds. A collapsed bound (lo == hi) pins that variable. The budget
    counts objective evaluations, including failed ones.
    """

    variables: dict[str, tuple[float, float]]
    objective: str = "linearity_error"
    budget: int = 120
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("variables must name at least one tunable parameter")
        unknown = set(self.variables) - set(_TUNABLE)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)!r}; allowed: {_TUNABLE}")
        for name, (lo, hi) in self.variables.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bounds for {name!r} must be finite, got {(lo, hi)!r}")
            if lo > hi:
                raise ValueError(f"bounds for {name!r} must be ordered, got {(lo, hi)!r}")
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}, got {self.objective!r}")
        v = len(self.variables)
        min_budget = v * (v + 1) + 1
        if self.budget < min_budget:
            raise ValueError(
                f"budget {self.budget} too small for {v} variables; need >= {min_budget}"
            )
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class TuneResult:
    """Best point found plus the full evaluation record.

    ``failures`` holds (evaluation index, point, reason) for every
    evaluation that failed and scored +inf in the trace.
    """

    best_point: dict[str, float]
    best_objective: float
    evaluations: int
    trace: tuple[tuple[dict[str, float], float], ...]
    failures: tuple[tuple[int, dict[str, float], str], ...] = ()

    def __post_init__(self) -> None:
        if self.evaluations != len(self.trace):
            raise ValueError("evaluations must equal the trace length")
        if not self.trace:
            raise ValueError("trace must be nonempty")
        if self.best_objective != min(f for _, f in self.trace):
            raise ValueError("best_objective must be the minimum over the trace")


def _cheap_solver(neuron) -> SolverConfig:
    """Coarser-than-default step for objective evaluations.

    Rate counting tolerates more step error than spike-time comparisons,
    so the tuner trades timing accuracy for a ~2x speedup per point.
    """
    tau = tau_m(neuron)
    dt = min(max(tau / 100.0, 1e-9), 1e-6)
    return SolverConfig(dt=dt, event_tol=min(1e-9, 0.1 * dt))


def objective_linearity(
    encoder: EncoderConfig,
    settle_time: float = _SETTLE_TIME,
    measure_time: float = _MEASURE_TIME,
    solver: SolverConfig | None = None,
    rate_model=None,
) -> float:
    """Window linearity deviation plus 1.0 per dead in-window point.

    Delegates the fit and deviation metric to the curve machinery, so on
    a curve with no dead points this equals linearity_error of the same
    measurement exactly. An encoder that cannot drive the midpoint to a
    countable rate gets the all-points-dead penalty instead of an error,
    which keeps the search surface finite over hostile corners of the
    box. rate_model substitutes a synthetic v -> Hz map for the
    simulation; tests use it to pin the metric's identities.
    """
    grid = list(_LINEARITY_GRID)
    try:
        if rate_model is None:
            curve = vf_curve(
                encoder,
                grid,
                settle_time,
                measure_time,
                _LINEARITY_WINDOW,
                solver=solver if solver is not None else _cheap_solver(encoder.neuron),
            )
        else:
            rates = [float(rate_model(v)) for v in grid]
            counts = [r * measure_time for r in rates]
            curve = _curve_from_rates(grid, rates, counts, _LINEARITY_WINDOW)
    except UndersampledError:
        return float(len(grid))
    return curve.max_deviation_fraction + float(len(curve.flagged))


def objective_negative_linear_range(
    encoder: EncoderConfig,
    settle_time: float = _SETTLE_TIME,
    measure_time: float = _MEASURE_TIME,
    solver: SolverConfig | None = None,
    max_deviation: float = 0.05,
) -> float:
    """Negated width of the widest contiguous span that fits a line.

    Rates are measured once over a fixed 0.05..0.5 V grid; every
    contiguous run of at least three well-sampled points gets its own
    fit, and a run qualifies when its deviation (normalized by the fit at
    the run's top) stays within max_deviation. Returns 0.0 when nothing
    qualifies, so wider linear ranges always score lower.
    """
    solver = solver if solver is not None else _cheap_solver(encoder.neuron)
    t_end = settle_time + measure_time
    counts = [spike_count_dc(encoder, v, settle_time, t_end, solver) for v in _RANGE_GRID]
    rates = [n / measure_time for n in counts]
    best = 0.0
    n = len(_RANGE_GRID)
    for i in range(n):
        for j in range(i + 2, n):
            if any(c < 5 for c in counts[i : j + 1]):
                continue
            try:
                sub = _curve_from_rates(
                    list(_RANGE_GRID[i : j + 1]),
                    rates[i : j + 1],
                    list(counts[i : j + 1]),
                    (_RANGE_GRID[i], _RANGE_GRID[j]),
                )
            except ValueError:
                # undersampled midpoint or a degenerate fit disqualifies
                # the span without poisoning the whole evaluation
                continue
            if sub.max_deviation_fraction <= max_deviation:
                best = max(best, _RANGE_GRID[j] - _RANGE_GRID[i])
    return -best


def objective_power_weighted(
    encoder: EncoderConfig,
    settle_time: float = _SETTLE_TIME,
    measure_time: float = _MEASURE_TIME,
    solver: SolverConfig | None = None,
    power_weight: float = 1.0,
    f_spike_ref: float = 25e3,
    power_scale: float = 500e-9,
) -> float:
    """Linearity objective plus normalized supply power at a nominal rate."""
    base = objective_linearity(encoder, settle_time, measure_time, solver)
    return base + power_weight * power_estimate(encoder, f_spike_ref) / power_scale


_OBJECTIVE_FNS = {
    "linearity_error": objective_linearity,
    "negative_linear_range": objective_negative_linear_range,
    "power_weighted": objective_power_weighted,
}


def _template_value(template: EncoderConfig, name: str) -> float:
    if name == "i_ref":
        return template.transconductor.i_ref
    return getattr(template.neuron, name)


def _apply_point(template: EncoderConfig, point: dict[str, float]) -> EncoderConfig:
    tc = template.transconductor
    if "i_ref" in point:
        tc = replace(tc, i_ref=point["i_ref"])
    neuron_updates = {k: v for k, v in point.items() if k in _NEURON_FIELDS}
    neuron = replace(template.neuron, **neuron_updates) if neuron_updates else template.neuron
    return replace(template, transconductor=tc, neuron=neuron)


class _BudgetExhausted(Exception):
    pass


class _Evaluator:
    """Budgeted objective wrapper: clips, logs, and absorbs failures."""

    def __init__(self, template, names, lo, span, frozen, objective_fn, budget):
        self.template = template
        self.names = names
        self.lo = lo
        self.span = span
        self.frozen = frozen
        self.objective_fn = objective_fn
        self.budget = budget
        self.trace: list[tuple[dict[str, float], float]] = []
        self.failures: list[tuple[int, dict[str, float], str]] = []

    def __call__(self, z: np.ndarray) -> float:
        if len(self.trace) >= self.budget:
            raise _BudgetExhausted
        z = np.clip(z, 0.0, 1.0)
        x = self.lo + z * self.span
        point = {
            name: float(self.frozen[name]) if name in self.frozen else float(x[k])
            for k, name in enumerate(self.names)
        }
        try:
            value = float(self.objective_fn(_apply_point(self.template, point)))
            if math.isnan(value):
                raise ValueError("objective returned NaN")
        except (ValueError, RuntimeError, OverflowError) as exc:
            self.failures.append((len(self.trace), point, repr(exc)))
            value = math.inf
        self.trace.append((point, value))
        return value


def tune(encoder_template: EncoderConfig, spec: TuneSpec, objective_fn=None) -> TuneResult:
    """Bounded Nelder-Mead over the spec's box, seeded and deterministic.

    The template's own operating point (projected into the box) is the
    first vertex, so the result can never be worse than the starting
    configuration as scored by the objective. Failed evaluations (invalid
    configs, solver breakdowns) score +inf and stay in the trace, with
    their reasons in ``failures``; the search only errors out when nothing
    at all evaluated cleanly.
    objective_fn overrides the named objective, mainly for tests; it
    receives a fully-built EncoderConfig.
    """
    if objective_fn is None:
        objective_fn = _OBJECTIVE_FNS[spec.objective]

    names = sorted(spec.variables)
    lo = np.array([spec.variables[n][0] for n in names])
    hi = np.array([spec.variables[n][1] for n in names])
    span = hi - lo
    free = [k for k in range(len(names)) if span[k] > 0.0]
    frozen = {names[k]: lo[k] for k in range(len(names)) if span[k] == 0.0}
    # Guard the frozen dims against 0/0 in the z -> x map.
    safe_span = np.where(span > 0.0, span, 1.0)

    evaluate = _Evaluator(
        encoder_template, names, lo, span, frozen, objective_fn, spec.budget
    )
    rng = np.random.default_rng(spec.seed)

    template_x = np.array([_template_value(encoder_template, n) for n in names])
    z0_full = np.clip((template_x - lo) / safe_span, 0.0, 1.0)

    def finish() -> TuneResult:
        if not evaluate.trace:
            raise TunerError("search ended before any evaluation")
        best_point, best_value = min(evaluate.trace, key=lambda entry: entry[1])
        if not math.isfinite(best_value):
            log = "; ".join(f"{p} -> {msg}" for _, p, msg in evaluate.failures[:8])
            raise TunerError(f"all {len(evaluate.trace)} evaluations failed: {log}")
        return TuneResult(
            best_point=dict(best_point),
            best_objective=best_value,
            evaluations=len(evaluate.trace),
            trace=tuple((dict(p), f) for p, f in evaluate.trace),
            failures=tuple((k, dict(p), msg) for k, p, msg in evaluate.failures),
        )

    d = len(free)
    if d == 0:
        try:
            evaluate(z0_full)
        except _BudgetExhausted:
            pass
        return finish()

    def lift(z_free: np.ndarray) -> np.ndarray:
        z = z0_full.copy()
        z[free] = z_free
        return z

    def initial_simplex(center: np.ndarray) -> list[np.ndarray]:
        verts = [center.copy()]
        for k in range(d):
            step = 0.25 + 0.25 * rng.random()
            z = center.copy()
            z[k] = z[k] + step if z[k] + step <= 1.0 else z[k] - step
            verts.append(np.clip(z, 0.0, 1.0))
        return verts

    restarted = False
    try:
        verts = initial_simplex(z0_full[free])
        values = [evaluate(lift(z)) for z in verts]
        while True:
            order = sorted(range(d + 1), key=lambda k: (values[k], k))
            verts = [verts[k] for k in order]
            values = [values[k] for k in order]

            diameter = max(
                float(np.max(np.abs(a - b))) for a in verts for b in verts
            )
            if diameter < _COLLAPSE_FRACTION:
                if restarted:
                    break
                restarted = True
                verts = initial_simplex(verts[0])
                values = [values[0]] + [evaluate(lift(z)) for z in verts[1:]]
                continue

            centroid = np.mean(verts[:-1], axis=0)
            reflected = np.clip(centroid + (centroid - verts[-1]), 0.0, 1.0)
            f_r = evaluate(lift(reflected))
            if values[0] <= f_r < values[-2]:
                verts[-1], values[-1] = reflected, f_r
            elif f_r < values[0]:
                expanded = np.clip(centroid + 2.0 * (reflected - centroid), 0.0, 1.0)
                f_e = evaluate(lift(expanded))
                if f_e < f_r:
                    verts[-1], values[-1] = expanded, f_e
                else:
                    verts[-1], values[-1] = reflected, f_r
            else:
                if f_r < values[-1]:
                    contracted = np.clip(centroid + 0.5 * (reflected - centroid), 0.0, 1.0)
                else:
                    contracted = np.clip(centroid + 0.5 * (verts[-1] - centroid), 0.0, 1.0)
                f_c = evaluate(lift(contracted))
                if f_c < min(f_r, values[-1]):
                    verts[-1], values[-1] = contracted, f_c
                else:
                    for k in range(1, d + 1):
                        verts[k] = np.clip(verts[0] + 0.5 * (verts[k] - verts[0]), 0.0, 1.0)
                        values[k] = evaluate(lift(verts[k]))
    except _BudgetExhausted:
        pass
    return finish()
