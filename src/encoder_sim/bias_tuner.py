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

from .analysis import (
    UndersampledError,
    _curve_from_rates,
    power_estimate,
    vf_curve,
)
from .sim_engine import EncoderConfig, SolverConfig, _solver_per_tau, spike_count_dc

__all__ = [
    "TuneSpec",
    "TuneResult",
    "TunerError",
    "tune",
    "objective_linearity",
    "objective_negative_linear_range",
    "objective_power_weighted",
]

# i_ref is the transconductor's; every other tunable is a NeuronConfig field
_TUNABLE = ("i_ref", "i_g", "i_r", "i_th", "t_rf")

# Standard linearity window and measurement grid. The 10 ms gate keeps a
# single objective evaluation cheap enough for a few hundred of them, but
# counts rates in 100 Hz steps, too coarse to rank: 13 of the 40 rows of
# tests/golden/tune_default.csv score exactly 0 (ROADMAP item 2).
_LINEARITY_WINDOW = (0.1, 0.4)
_LINEARITY_GRID = tuple(0.1 + 0.05 * k for k in range(7))
_RANGE_GRID = tuple(0.05 * k for k in range(1, 11))
_SETTLE_TIME = 2e-3
_MEASURE_TIME = 10e-3
_MAX_DEVIATION = 0.05  # the deviation a span may have and count as linear
_F_SPIKE_REF = 25e3  # objective_power_weighted prices power at this spike rate,
_POWER_SCALE = 500e-9  # in units of this many watts

_COLLAPSE_FRACTION = 1e-6
_STEPS_PER_TAU = 100.0  # an objective evaluation steps at tau_m over this


class TunerError(RuntimeError):
    """No evaluation produced a usable objective value; ``failures`` is as ``TuneResult``'s."""

    def __init__(self, message: str, failures: tuple = ()) -> None:
        super().__init__(message)
        self.failures = failures


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
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name, (lo, hi) in self.variables.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bounds for {name!r} must be finite, got {(lo, hi)!r}")
            if lo > hi:
                raise ValueError(f"bounds for {name!r} must be ordered, got {(lo, hi)!r}")
        if self.objective not in _OBJECTIVE_FNS:
            raise ValueError(
                f"objective must be one of {tuple(_OBJECTIVE_FNS)}, got {self.objective!r}"
            )
        v = len(self.variables)
        min_budget = v * (v + 1) + 1
        if self.budget < min_budget:
            raise ValueError(
                f"budget {self.budget} too small for {v} variables; need >= {min_budget}"
            )


@dataclass(frozen=True)
class TuneResult:
    """The full evaluation record, and the best point it holds.

    ``trace`` holds (point, objective) for every evaluation, in order.
    ``failures`` holds (evaluation index, point, reason) for every
    evaluation that failed and scored +inf in the trace. ``best_point`` is
    the first point of least objective.
    """

    trace: tuple[tuple[dict[str, float], float], ...]
    failures: tuple[tuple[int, dict[str, float], str], ...] = ()

    def __post_init__(self) -> None:
        if not self.trace:
            raise ValueError("trace must be nonempty")

    @property
    def evaluations(self) -> int:
        return len(self.trace)

    @property
    def best_objective(self) -> float:
        return min(f for _, f in self.trace)

    @property
    def best_point(self) -> dict[str, float]:
        return min(self.trace, key=lambda entry: entry[1])[0]


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_uniforms(seed: int):
    """Yield the draws of ``numpy.random.default_rng(seed).random()``, bit for bit.

    numpy's ``SeedSequence`` hashes the seed's 32-bit words into a pool of
    four and expands the pool into the 128-bit state and increment of
    PCG64: a 128-bit LCG whose output is the xor of the state's halves,
    rotated right by its top 6 bits (O'Neill, HMC-CS-2014-0905). Written
    out here, a tune imports no ``numpy.random``, and its stream does not
    depend on the numpy version.
    """
    entropy = [seed >> 32 * k & _M32 for k in range((seed.bit_length() + 31) // 32 or 1)]
    h = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * 0x931E8875 & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = 0x8B51F9DD
    words = []
    for k in range(8):
        value = pool[k % 4] ^ h
        h = h * 0x58F38DED & _M32
        value = value * h & _M32
        words.append(value ^ value >> 16)
    # four little-endian uint64: the state's high and low half, then the increment's
    u = [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]
    inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
    state = ((inc + (u[0] << 64 | u[1])) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        yield (((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0**-53


def _cheap_solver(neuron) -> SolverConfig:
    """Coarser-than-default step for objective evaluations.

    Rate counting tolerates more step error than spike-time comparisons,
    so the tuner trades timing accuracy for a ~2x speedup per point.
    """
    return _solver_per_tau(neuron, _STEPS_PER_TAU)


def objective_linearity(encoder: EncoderConfig) -> float:
    """Window linearity deviation plus 1.0 per dead in-window point.

    Delegates the fit and deviation metric to the curve machinery, so on
    a curve with no dead points this equals the ``max_deviation_fraction``
    of the same ``vf_curve`` measurement exactly. An encoder that cannot
    drive the midpoint to a countable rate gets the all-points-dead
    penalty instead of an error, which keeps the search surface finite
    over hostile corners of the box.
    """
    grid = list(_LINEARITY_GRID)
    try:
        curve = vf_curve(
            encoder,
            grid,
            _SETTLE_TIME,
            _MEASURE_TIME,
            _LINEARITY_WINDOW,
            solver=_cheap_solver(encoder.neuron),
        )
    except UndersampledError:
        return float(len(grid))
    return curve.max_deviation_fraction + float(len(curve.flagged))


def objective_negative_linear_range(encoder: EncoderConfig) -> float:
    """Negated width of the widest contiguous span that fits a line.

    Rates are measured once over a fixed 0.05..0.5 V grid; every
    contiguous run of at least three well-sampled points gets its own
    fit, and a run qualifies when its deviation (normalized by the fit at
    the run's top) stays within ``_MAX_DEVIATION``. Returns 0.0 when
    nothing qualifies, so wider linear ranges always score lower.
    """
    solver = _cheap_solver(encoder.neuron)
    t_end = _SETTLE_TIME + _MEASURE_TIME
    counts = [spike_count_dc(encoder, v, _SETTLE_TIME, t_end, solver) for v in _RANGE_GRID]
    rates = [n / _MEASURE_TIME for n in counts]
    best = 0.0
    n = len(_RANGE_GRID)
    for i in range(n):
        for j in range(i + 2, n):
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
            if not sub.flagged and sub.max_deviation_fraction <= _MAX_DEVIATION:
                best = max(best, _RANGE_GRID[j] - _RANGE_GRID[i])
    return -best


def objective_power_weighted(encoder: EncoderConfig) -> float:
    """Linearity objective plus normalized supply power at a nominal rate."""
    return objective_linearity(encoder) + power_estimate(encoder, _F_SPIKE_REF) / _POWER_SCALE


_OBJECTIVE_FNS = {
    "linearity_error": objective_linearity,
    "negative_linear_range": objective_negative_linear_range,
    "power_weighted": objective_power_weighted,
}


def _apply_point(template: EncoderConfig, point: dict[str, float]) -> EncoderConfig:
    tc = template.transconductor
    if "i_ref" in point:
        tc = replace(tc, i_ref=point["i_ref"])
    neuron_updates = {k: v for k, v in point.items() if k != "i_ref"}
    neuron = replace(template.neuron, **neuron_updates) if neuron_updates else template.neuron
    return replace(template, transconductor=tc, neuron=neuron)


class _BudgetExhausted(Exception):
    pass


# The simplex arithmetic on tuples of floats, in numpy's operation order,
# so it gives the bits of the same expressions on float64 arrays.


def _clip(z):
    """``np.clip(z, 0.0, 1.0)``: nan stays nan, and -0.0 stays -0.0."""
    return tuple(min(max(x, 0.0), 1.0) for x in z)


def _reflect(c, w):
    """``c + (c - w)``, clipped into the box."""
    return _clip(x + (x - y) for x, y in zip(c, w))


def _toward(a, b, t: float):
    """``a + t*(b - a)``, clipped into the box."""
    return _clip(x + t * (y - x) for x, y in zip(a, b))


def _centroid(rows):
    """``np.mean(rows, axis=0)``: 0.0 plus the rows in sequence, then divided."""
    total = (0.0,) * len(rows[0])
    for row in rows:
        total = tuple(x + y for x, y in zip(total, row))
    return tuple(x / len(rows) for x in total)


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
    frozen = {n: float(lo) for n, (lo, hi) in spec.variables.items() if lo == hi}
    free = [n for n in names if n not in frozen]
    lo = tuple(spec.variables[n][0] for n in free)
    span = tuple(spec.variables[n][1] - spec.variables[n][0] for n in free)

    trace: list[tuple[dict[str, float], float]] = []
    failures: list[tuple[int, dict[str, float], str]] = []

    def evaluate(z: tuple[float, ...]) -> float:
        """The objective at z, a point in the box; a failure is logged and scores +inf."""
        if len(trace) >= spec.budget:
            raise _BudgetExhausted
        moved = {name: a + x * s for name, a, x, s in zip(free, lo, z, span)}
        point = dict(sorted({**frozen, **moved}.items()))
        try:
            value = float(objective_fn(_apply_point(encoder_template, point)))
            if math.isnan(value):
                raise ValueError("objective returned NaN")
        except (ValueError, RuntimeError, OverflowError) as exc:
            failures.append((len(trace), point, repr(exc)))
            value = math.inf
        trace.append((point, value))
        return value

    uniforms = _pcg64_uniforms(spec.seed)

    # i_ref is the transconductor's, the rest the neuron's
    tc, neuron = encoder_template.transconductor, encoder_template.neuron
    z0 = _clip(
        ((tc.i_ref if n == "i_ref" else getattr(neuron, n)) - a) / s
        for n, a, s in zip(free, lo, span)
    )

    def finish() -> TuneResult:
        result = TuneResult(trace=tuple(trace), failures=tuple(failures))
        if not math.isfinite(result.best_objective):
            log = "; ".join(f"{p} -> {msg}" for _, p, msg in failures[:8])
            raise TunerError(f"all {len(trace)} evaluations failed: {log}", result.failures)
        return result

    d = len(free)

    def initial_simplex(center: tuple[float, ...]) -> list[tuple[float, ...]]:
        verts = [center]
        for k in range(d):
            step = 0.25 + 0.25 * next(uniforms)
            z = list(center)
            z[k] = z[k] + step if z[k] + step <= 1.0 else z[k] - step
            verts.append(_clip(z))
        return verts

    restarted = False
    try:
        verts = initial_simplex(z0)
        values = [evaluate(z) for z in verts]
        while True:
            order = sorted(range(d + 1), key=lambda k: (values[k], k))
            verts = [verts[k] for k in order]
            values = [values[k] for k in order]

            # with no free variable the simplex is its one vertex, collapsed
            diameter = max(
                (abs(x - y) for a in verts for b in verts for x, y in zip(a, b)), default=0.0
            )
            if diameter < _COLLAPSE_FRACTION:
                if restarted:
                    break
                restarted = True
                verts = initial_simplex(verts[0])
                values = [values[0]] + [evaluate(z) for z in verts[1:]]
                continue

            centroid = _centroid(verts[:-1])
            reflected = _reflect(centroid, verts[-1])
            f_r = evaluate(reflected)
            if values[0] <= f_r < values[-2]:
                verts[-1], values[-1] = reflected, f_r
            elif f_r < values[0]:
                expanded = _toward(centroid, reflected, 2.0)
                f_e = evaluate(expanded)
                if f_e < f_r:
                    verts[-1], values[-1] = expanded, f_e
                else:
                    verts[-1], values[-1] = reflected, f_r
            else:
                inner = reflected if f_r < values[-1] else verts[-1]
                contracted = _toward(centroid, inner, 0.5)
                f_c = evaluate(contracted)
                if f_c < min(f_r, values[-1]):
                    verts[-1], values[-1] = contracted, f_c
                else:
                    for k in range(1, d + 1):
                        verts[k] = _toward(verts[0], verts[k], 0.5)
                        values[k] = evaluate(verts[k])
    except _BudgetExhausted:
        pass
    return finish()
