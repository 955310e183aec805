"""Transient simulation of the full encoder with spike-event location.

The encoder chain is waveform -> transconductor -> neuron. The
transconductor is evaluated quasi-statically (its on-chip bandwidth is far
above the input frequencies of interest; the published unity-gain figures
are an artifact of the bench load), so the only dynamic state is the
neuron's membrane current plus, optionally, a single-pole filter on the
injected current for fidelity studies. Integration is fixed-step RK4; a
threshold crossing inside a step is located by bisecting the substep
length, and the refractory period is consumed in exact time.

The drive of a dc input is solved once, exactly (``_dc_drive``); any other
input reads the transconductor's node-argument table (``_make_stage_drive``),
so the drive is a pure function of t. Everything that makes a run fast
gives the bits of plain per-step RK4 under that drive:

- Drive blocks: a run of consecutive full steps reads its input and drive
  in blocks of up to 256 steps, which ``take_block`` alone hands out: to
  ``full_steps``, and a step at a time to an input pole's filter. The
  block's step times are summed in sequence by ``np.add.accumulate``,
  exactly as the loop's ``t += h`` sums them, and the bulk evaluators
  (``_waveform_eval_bulk``, ``_input_currents_bulk``) repeat the scalar
  operations in the same order, with numpy only for what IEEE rounds
  correctly and sin and sinh taken per element with ``math``. A block
  holds only the steps the run takes whole. Only this block code imports
  numpy, so a dc run never loads it, and neither does any other layer.
- Generated kernels (``_neuron_kernel``, built once per neuron): the
  membrane derivative of each neuron variant is one expression string in
  ``neuron.DERIVATIVES``, written out in every stage of the two RK4
  kernels of ``_KERNEL_TEXT``. Every full step of a run without an input
  pole runs in the loop ``full_steps``, which returns to ``transient``'s
  event loop only for the step t_end cuts short, a step that reaches
  threshold or is not finite, and a used-up step budget. A crossing is
  bisected with ``step`` (``_crossing``).
- The input pole (``_make_pole_drive``) is a filter f' = omega*(drive - f)
  that never reads the membrane, so its four RK4 stage values, clamped at
  zero, are the scalar step's stage drives, and the same event loop runs
  it. A dc drive keeps the filter at its value bit for bit, so a dc run
  skips the pole and keeps the full-step loop.
- ``spike_count_dc`` counts the spikes a dc bias fires in a window with
  work proportional to one interval. A dc drive makes the membrane equation
  autonomous, so the train is strictly periodic: spike k sits at
  t_first + k*(t_rf + t_first), up to float accumulation of the time. It
  returns 0 without a step for a bias that provably stays below threshold,
  steps the first interval with ``full_steps`` and bisects its crossing
  with ``step`` (``_first_interval``), counts the later periods in closed
  form, and hands the last periods to ``transient`` only where the step cut
  short by the window end can change the verdict. Its docstring states the
  tie rule at the window edges.

A run refuses, before its first step, a step dt that RK4 cannot take: one
rule (``_check_stable``) holds rate*dt within RK4's real-axis stability
limit for the membrane leak, rate 1/tau_m, and for an input pole, rate
omega. A sine or triangle needs at least two steps a period.

A run's trace is a ``Trace``: ``full_steps`` and ``transient``'s event loop
extend one flat ``array('d')`` by four doubles a row, so a row costs 32
bytes and no row is ever a tuple until a reader asks for it.
"""

from __future__ import annotations

import bisect as _bisect
import functools
import linecache
import math
import re
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .device_model import SUPPLY_V
from .neuron import (
    DERIVATIVE_CONSTANTS,
    DERIVATIVES,
    NeuronConfig,
    NeuronState,
    derivative_variant,
    tau_m,
)
from .transconductor import (
    TransconductorConfig,
    effective_gm,
    neuron_input_current,
    node_arg_table,
)

if TYPE_CHECKING:
    import numpy as np

    from .transconductor import NodeArgTable

__all__ = [
    "Waveform",
    "SolverConfig",
    "SpikeTrain",
    "SimResult",
    "EncoderConfig",
    "SimulationError",
    "waveform_eval",
    "default_solver_config",
    "transient",
    "spike_count_dc",
]

_KINDS = ("dc", "sine", "triangle", "pwl")
# trace_every large enough that a run keeps only its first and final sample
_NO_TRACE = 10**9
# Drive blocks: a run of consecutive full RK4 steps reads its drive from
# blocks once it is _DRIVE_BLOCK_MIN steps long, or from its second step
# when the last block was at least twice that; each block is as long as the run
# so far or half the last block, whichever is longer, and at most
# _DRIVE_BLOCK_STEPS. A shorter block costs more per step than the scalar
# drive, and a cap of 64 or 1024 was slower than 256 on a triangle
# transient. Under a slowly varying input a run is about as long as the
# last one; halving bounds what runs that end early waste.
_DRIVE_BLOCK_MIN = 16
_DRIVE_BLOCK_STEPS = 256
# A transient refuses to start when its nominal step count ceil(t_end/dt)
# or the trace rows that implies exceed these, instead of running for
# hours or filling memory. Spikes add steps beyond the nominal count, so
# a run also stops once its loop steps or trace rows pass
# _BUDGET_OVERRUN times these, or its spikes that many trace rows.
_STEP_BUDGET = 2**26
_TRACE_BUDGET = 2**20
_BUDGET_OVERRUN = 4
# RK4 integrates y' = -omega*y without growth for omega*h up to this, the
# real root of z**3 - 4*z**2 + 12*z - 24 (its amplification at -z is 1).
_RK4_STABLE = 2.785293563405282
_DT_RANGE = (1e-9, 1e-6)  # s, where ``_solver_per_tau`` clamps a step sized to the neuron


class SimulationError(RuntimeError):
    """Transient integration failed; ``t`` holds the simulation time."""

    def __init__(self, message: str, t: float) -> None:
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class Waveform:
    """Input stimulus descriptor.

    ``kind`` is one of dc, sine, triangle, pwl. Periodic kinds start at the
    offset value at t = 0 (the sine with zero phase, the triangle rising
    toward its positive peak at a quarter period). Piecewise-linear inputs
    hold the last breakpoint value beyond the final breakpoint but refuse
    times before the first one.

    The 0.5 V supply bounds only the values a kind reads: a dc input's
    |offset|, a sine's or triangle's |offset| + |amplitude|, and each pwl
    breakpoint. Amplitude and offset must be finite for every kind.
    """

    kind: str = "dc"
    amplitude: float = 0.0
    offset: float = 0.0
    frequency: float = 0.0
    breakpoints: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.offset)):
            raise ValueError("amplitude and offset must be finite")
        if self.kind == "dc" and abs(self.offset) > SUPPLY_V:
            raise ValueError(f"|offset| exceeds the {SUPPLY_V} V supply: {self.offset!r}")
        if self.kind in ("sine", "triangle"):
            if abs(self.offset) + abs(self.amplitude) > SUPPLY_V:
                raise ValueError(
                    f"|offset| + |amplitude| exceeds the {SUPPLY_V} V supply: "
                    f"{self.offset!r}, {self.amplitude!r}"
                )
            if not (math.isfinite(self.frequency) and self.frequency > 0.0):
                raise ValueError(f"periodic waveform needs frequency > 0, got {self.frequency!r}")
        if self.kind == "pwl":
            if not self.breakpoints:
                raise ValueError("pwl waveform needs at least one breakpoint")
            times = [t for t, _ in self.breakpoints]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("pwl breakpoint times must be strictly increasing")
            for t, v in self.breakpoints:
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise ValueError("pwl breakpoints must be finite")
                if abs(v) > SUPPLY_V:
                    raise ValueError(f"pwl voltage {v!r} exceeds the supply bound")


def waveform_eval(w: Waveform, t: float) -> float:
    """Evaluate the stimulus at time ``t`` (seconds), volts."""
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"t must be nonnegative and finite, got {t!r}")
    if w.kind == "dc":
        return w.offset
    if w.kind == "sine":
        phase = t * w.frequency
        phase -= math.floor(phase)
        return w.offset + w.amplitude * math.sin(2.0 * math.pi * phase)
    if w.kind == "triangle":
        phase = t * w.frequency
        phase -= math.floor(phase)
        if phase < 0.25:
            shape = 4.0 * phase
        elif phase < 0.75:
            shape = 2.0 - 4.0 * phase
        else:
            shape = 4.0 * phase - 4.0
        return w.offset + w.amplitude * shape
    # pwl: times strictly increase, so (t, inf) sorts after a breakpoint at t
    if t < w.breakpoints[0][0]:
        raise ValueError(f"t={t!r} precedes the first pwl breakpoint at {w.breakpoints[0][0]!r}")
    if t >= w.breakpoints[-1][0]:
        return w.breakpoints[-1][1]
    k = _bisect.bisect_right(w.breakpoints, (t, math.inf)) - 1
    t0, v0 = w.breakpoints[k]
    t1, v1 = w.breakpoints[k + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _waveform_eval_bulk(w: Waveform, t: np.ndarray) -> np.ndarray:
    """``waveform_eval`` at every element of ``t``, bit for bit; not for dc.

    Repeats its operations in the same order, with numpy only where IEEE
    rounds correctly and sin taken per element with ``math.sin``. Times
    must be finite and nonnegative; only the pwl start is checked. The
    Euler oracle of the tests keeps its own ``_waveform_eval_array``, so
    that it shares no code with this production path.
    """
    import numpy as np

    if w.kind == "pwl":
        times = np.array([bp[0] for bp in w.breakpoints])
        volts = np.array([bp[1] for bp in w.breakpoints])
        if np.any(t < times[0]):
            raise ValueError(f"a time precedes the first pwl breakpoint at {times[0]!r}")
        if len(times) == 1:
            return np.full(t.shape, volts[0])
        k = np.minimum(np.searchsorted(times, t, side="right") - 1, len(times) - 2)
        t0, v0, t1, v1 = times[k], volts[k], times[k + 1], volts[k + 1]
        return np.where(t >= times[-1], volts[-1], v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    phase = t * w.frequency
    phase -= np.floor(phase)
    if w.kind == "sine":
        angle = (2.0 * math.pi * phase).tolist()
        return w.offset + w.amplitude * np.fromiter(map(math.sin, angle), float, len(angle))
    rise = 4.0 * phase
    shape = np.where(phase < 0.25, rise, np.where(phase < 0.75, 2.0 - rise, rise - 4.0))
    return w.offset + w.amplitude * shape


def _input_currents_bulk(table: NodeArgTable, cols, v_id: np.ndarray) -> np.ndarray:
    """``table.input_current`` at every element of ``v_id``, bit for bit.

    ``cols`` holds ``table.coeffs`` as four numpy columns c0, c1, c2, c3.
    Repeats its operations in the same order, with numpy only where IEEE
    rounds correctly (arithmetic, comparisons, indexing) and sinh taken
    per element with ``math.sinh``, because ``np.sinh`` may round
    differently.
    """
    import numpy as np

    beta = table.n1 * v_id / table.two_nut
    x = np.abs(beta) * table.scale
    k = np.minimum(x.astype(np.intp), len(table.coeffs) - 1)
    u = x - k
    c0, c1, c2, c3 = [col.take(k) for col in cols]
    a = c0 + u * (c1 + u * (c2 + u * c3))
    arg = np.where(beta < 0.0, beta + a, beta - a)
    sinh = np.fromiter(map(math.sinh, arg.tolist()), float, arg.size)
    i_q = table.output_quiescent
    return np.maximum(i_q + i_q * sinh, 0.0)


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step RK4 settings: the step dt and the spike-time tolerance."""

    dt: float
    event_tol: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.event_tol) and self.event_tol > 0.0):
            raise ValueError(f"event_tol must be positive, got {self.event_tol!r}")
        if self.event_tol >= self.dt:
            raise ValueError(f"event_tol must be below dt, got {self.event_tol!r} >= {self.dt!r}")
        # a crossing's bisection halves a step until it spans event_tol: a
        # span of a few ulps of the step would never shrink below it
        if self.event_tol < self.dt * 2.0**-40:
            raise ValueError(f"event_tol must be at least dt * 2**-40, got {self.event_tol!r}")


def _event_tol(dt: float) -> float:
    """The event tolerance of a step dt where none is given: dt/10, at most 1 ns."""
    return min(1e-9, dt / 10.0)


def _solver_per_tau(neuron: NeuronConfig, steps_per_tau: float) -> SolverConfig:
    """A step of tau_m/steps_per_tau, clamped to ``_DT_RANGE``, and its event tolerance."""
    dt = min(max(tau_m(neuron) / steps_per_tau, _DT_RANGE[0]), _DT_RANGE[1])
    return SolverConfig(dt=dt, event_tol=_event_tol(dt))


def default_solver_config(neuron: NeuronConfig) -> SolverConfig:
    """Step sized to the membrane time constant, clamped to sane bounds."""
    return _solver_per_tau(neuron, 200.0)


@dataclass(frozen=True)
class SpikeTrain:
    """Ordered spike timestamps, seconds."""

    times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("spike times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


class Trace:
    """A read-only sequence of (t, v_id, i_in, i_mem) rows, four doubles a row.

    The rows live in one flat ``array('d')``, 32 bytes a row. Indexing
    gives a row as a tuple of floats and a slice a tuple of rows. A trace
    equals any sequence of equal rows and hashes as the tuple of its rows.
    """

    __slots__ = ("_flat",)

    def __init__(self, flat: array) -> None:
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) // 4

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        k = range(len(self))[k]
        return tuple(self._flat[4 * k : 4 * k + 4])

    def __iter__(self):
        return zip(*[iter(self._flat)] * 4)

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return self._flat == other._flat
        try:
            return len(self) == len(other) and all(a == tuple(b) for a, b in zip(self, other))
        except TypeError:
            return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class SimResult:
    """Decimated trace samples plus the spike train.

    ``trace`` is a ``Trace`` in a run's result: (t, v_id, i_in, i_mem)
    rows held as four doubles each.
    """

    trace: Trace
    spikes: SpikeTrain


@dataclass(frozen=True)
class EncoderConfig:
    """The full encoder: transconductor feeding a neuron of the same devices.

    ``neuron.dev`` must equal ``transconductor.dev``.
    ``input_pole_capacitance`` optionally inserts a single-pole low-pass on
    the injected current (pole at effective_gm/(2*pi*C)) to study output
    loading; None keeps the quasi-static treatment. With a pole, the drive
    column of a trace row is the filtered current, and ``transient``
    refuses a time-varying input whose omega*dt, omega = effective_gm/C,
    passes RK4's stability limit of about 2.785.
    """

    transconductor: TransconductorConfig = field(default_factory=TransconductorConfig)
    neuron: NeuronConfig = field(default_factory=NeuronConfig)
    input_pole_capacitance: float | None = None

    def __post_init__(self) -> None:
        if self.neuron.dev != self.transconductor.dev:
            raise ValueError(
                f"neuron.dev = {self.neuron.dev!r} differs from transconductor.dev = "
                f"{self.transconductor.dev!r}: the neuron shares the transconductor's devices"
            )
        if self.input_pole_capacitance is not None:
            c = self.input_pole_capacitance
            if not (math.isfinite(c) and c > 0.0):
                raise ValueError(f"input_pole_capacitance must be positive, got {c!r}")


def _check_budget(t_end: float, dt: float, trace_every: int) -> None:
    """Refuse a run whose nominal steps or trace rows exceed the budget."""
    if t_end / dt > _STEP_BUDGET:
        raise SimulationError(
            f"t_end = {t_end!r} s at dt = {dt!r} s exceeds the budget of {_STEP_BUDGET} steps",
            0.0,
        )
    rows = -(-math.ceil(t_end / dt) // trace_every) + 1
    if rows > _TRACE_BUDGET:
        raise SimulationError(
            f"{rows} trace rows (trace_every = {trace_every}) exceed the budget of "
            f"{_TRACE_BUDGET} rows",
            0.0,
        )


def _check_stable(rate: float, dt: float, what: str, value: float) -> None:
    """Refuse a run whose rate*dt, named by what formatted with value, passes RK4's limit.

    Past ``_RK4_STABLE``, RK4 steps y' = -rate*y with growing amplitude.
    """
    if rate * dt > _RK4_STABLE:
        raise SimulationError(
            f"{what.format(value)} = {rate * dt:.4g} at dt = {dt!r} s, past RK4's "
            f"stability limit {_RK4_STABLE:.4f}",
            0.0,
        )


def _check_membrane_stable(neuron: NeuronConfig, dt: float) -> None:
    """Refuse a step that RK4 cannot take across the membrane leak, rate 1/tau_m."""
    tau = tau_m(neuron)
    _check_stable(1.0 / tau, dt, "tau_m = {!r} s puts the membrane leak at dt/tau_m", tau)


def _overrun(count: int, what: str, budget: int, t: float) -> SimulationError:
    """The error of a run whose loop steps, trace rows or spikes overran the budget."""
    return SimulationError(
        f"{count} {what} overran {_BUDGET_OVERRUN} times the budget of {budget}", t
    )


def _trace_cap() -> int:
    """Doubles in a trace's flat array, four a row, past which its rows overran the budget."""
    return 4 * _BUDGET_OVERRUN * _TRACE_BUDGET


def _rows_overrun(rows: int, t: float) -> SimulationError:
    """The error of a run whose trace rows passed ``_trace_cap``."""
    return _overrun(rows, "trace rows", _TRACE_BUDGET, t)


def _time_eps(t_end: float) -> float:
    """Time below which a leftover refractory period or step is dropped."""
    return 1e-15 * max(t_end, 1.0)


# The two RK4 kernels of a neuron variant, each F(m, i_in) its ``DERIVATIVES``
# expression written out with the stage's clamps at zero. ``_neuron_kernel``
# builds each once per neuron, with the constants of ``DERIVATIVE_CONSTANTS``
# as arguments, never as text; a run's drive comes in at every call.
#
# - ``step(stage_drive, t, y, h)``: one RK4 step from y at t under the
#   drives ``stage_drive(t, h) -> (i0, i2, i3, i1)`` of stages 1 to 4;
#   ``_crossing`` bisects every crossing with it.
# - ``full_steps(take_block, dt, every, t, y, steps, row, trace) -> (t, y,
#   taken, i_new)``: up to ``steps`` full steps (h == dt) from y at t in
#   one loop. ``take_block(t, steps_left) -> (at, mid, volts, j, stop)``
#   hands out only steps the run takes whole, so no step tests t against
#   t_end: the k-th reads ``at[j + k]``, ``mid[j + k]`` and ``at[j + k +
#   1]``, and a row before it ``volts[j + k]``, for j + k < stop. The loop
#   stops when a block is empty, and before the first step that reaches
#   i_th or is not finite, whose result is ``i_new`` (None otherwise). The
#   caller's t must leave room for one full step. Before the step with
#   index ``row``, and every ``every`` steps after it, it extends the flat
#   ``trace`` by the row's four doubles ``t, input, drive, y`` (step 0's
#   row is the caller's), and raises ``_rows_overrun`` once the trace
#   holds more than ``_trace_cap()`` doubles. Its steps are ``step``'s
#   operations in order with ``t += dt``, so they give its bits; the first
#   stage needs no clamp, as y is never negative, and each step's end
#   drive is the next step's start drive.
#   A call to the derivative per stage was about 15% slower.
_KERNEL_TEXT = """\
def make_step(CONSTANTS, **_):
    def step(stage_drive, t, y, h):
        half = 0.5 * h
        i0, i2, i3, i1 = stage_drive(t, h)
        m = y if y > 0.0 else 0.0
        k1 = F(m, i0)
        y2 = y + half * k1
        m = y2 if y2 > 0.0 else 0.0
        k2 = F(m, i2)
        y3 = y + half * k2
        m = y3 if y3 > 0.0 else 0.0
        k3 = F(m, i3)
        y4 = y + h * k3
        m = y4 if y4 > 0.0 else 0.0
        k4 = F(m, i1)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return step

def make_full_steps(i_th, trace_cap, rows_overrun, CONSTANTS, **_):
    args = (i_th, float("-inf"), trace_cap, rows_overrun, CONSTANTS)
    def full_steps(take_block, dt, every, t, y, steps, row, trace):
        i_th, neg_inf, trace_cap, rows_overrun, CONSTANTS = args
        half, sixth = 0.5 * dt, dt / 6.0
        taken = 0
        while taken < steps:
            at, mid, volts, first, stop = take_block(t, steps - taken)
            if first == stop:
                break
            due = first + row
            i1 = at[first]
            for j in range(first, stop):
                if j == due:
                    trace.extend((t, volts[j], at[j], y))
                    if len(trace) > trace_cap:
                        raise rows_overrun(len(trace) // 4, t=t)
                    due += every
                k1 = F(y, i1)
                im, i1 = mid[j], at[j + 1]
                y2 = y + half * k1
                m = y2 if y2 > 0.0 else 0.0
                k2 = F(m, im)
                y3 = y + half * k2
                m = y3 if y3 > 0.0 else 0.0
                k3 = F(m, im)
                y4 = y + dt * k3
                m = y4 if y4 > 0.0 else 0.0
                k4 = F(m, i1)
                i_new = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not neg_inf < i_new < i_th:
                    return t, y, taken + j - first, i_new
                t += dt
                y = i_new if i_new > 0.0 else 0.0
            taken += stop - first
            row = due - stop
        return t, y, taken, None
    return full_steps
"""


@functools.cache
def _compile_kernels(variant: str) -> dict:
    """The ``make_<name>`` functions of ``_KERNEL_TEXT`` for a neuron variant, compiled once.

    The text goes into ``linecache`` under its ``<...>`` filename, so that
    profiles, ``inspect.getsource`` and ``traceback`` show its lines.
    """
    f, constants = DERIVATIVES[variant], ", ".join(DERIVATIVE_CONSTANTS)
    text = re.sub(
        r"F\((\w+), (\w+)\)|CONSTANTS",
        lambda c: f.format(m=c[1], i_in=c[2]) if c[1] else constants,
        _KERNEL_TEXT,
    )
    filename = f"<rk4: {variant}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    namespace = {"__name__": __name__}
    exec(compile(text, filename, "exec"), namespace)
    return namespace


@functools.lru_cache(maxsize=128)
def _neuron_kernel(neuron: NeuronConfig, name: str):
    """Kernel ``name`` of ``_KERNEL_TEXT`` under a neuron's constants, built once.

    Equal configs differ at most in the sign of a zero ``i_pf_gain``, which
    no variant reads.
    """
    variant, constants = derivative_variant(neuron)
    built = dict(i_th=neuron.i_th, trace_cap=_trace_cap(), rows_overrun=_rows_overrun)
    return _compile_kernels(variant)[f"make_{name}"](**built, **constants)


def _whole_steps(t: float, n: int, dt: float, t_end: float) -> int:
    """How many of the next n <= ``_DRIVE_BLOCK_STEPS`` full steps from t a run takes whole.

    A run takes a step whole when it starts before t_end - ``_time_eps(t_end)``
    and t_end does not cut it short. Far from t_end all n are (each ``t +=
    dt`` rounds by at most half an ulp of t_end); near it the times are
    summed as the loop sums them.
    """
    t_last = t_end - _time_eps(t_end)
    pad = 2.0 * dt + _DRIVE_BLOCK_STEPS * math.ulp(t_end)
    if t_last - t > n * dt + pad:
        return n
    k = 0
    while k < n and t < t_last and t_end - t >= dt:
        t += dt
        k += 1
    return k


def _make_stage_drive(tc: TransconductorConfig, wave: Waveform, dt: float, t_end: float):
    """The drive of a time-varying input at the four stages of an RK4 step, and its blocks.

    The drive is ``node_arg_table(tc)``'s current at ``waveform_eval(wave,
    t)``. Returns ``(stage_drive, take_block, row_drive)``.

    ``take_block(t, steps)`` alone moves the block cursor. It hands out a
    pending block's entries, marked read, or a new block's from its entry
    0; otherwise the one-step block of ``stage_drive(t, dt)``, or none (j
    == stop) when the step from t is not one the run takes whole. Full
    steps (h == dt) that each start where the previous step ended form a
    run. Once a run is ``_DRIVE_BLOCK_MIN`` steps long, or from its second
    step when the last block held at least twice that, its next steps read
    a block: the input and drive at the next full steps, as many as the run
    so far or half the last block, whichever is more, and at most
    ``_DRIVE_BLOCK_STEPS``, from one ``_waveform_eval_bulk`` and one
    ``_input_currents_bulk`` call. A spike, which ends the run, thus wastes at
    most as many steps as the run had or half the last block. A block holds only
    the steps the run takes whole (``_whole_steps``). Its times come from
    ``np.add.accumulate``, which sums in sequence like the loop's ``t +=
    h``, so they and its values are the loop's bit for bit.

    ``stage_drive(t, h) -> (drive(t), mid, mid, drive(t + h))``, with
    ``mid = drive(t + h/2)``, reads no block: any other step (a bisection
    substep, the step cut short at t_end) and a one-step block call
    ``drive``, reusing the value at its start when the previous step
    started or ended there. Any step but the run's next full step starts
    a new run.

    ``row_drive(t) -> (waveform_eval(wave, t), drive(t))`` reads a trace
    row's drive from the last step when t is where that step ended.
    """
    import numpy as np

    table = node_arg_table(tc)
    current = table.input_current
    cols = [np.array(col) for col in zip(*table.coeffs)]

    def drive(t: float) -> float:
        return current(waveform_eval(wave, t))

    half_dt = 0.5 * dt
    min_span = _DRIVE_BLOCK_MIN * dt
    times: list[float] = []
    volts = np.empty(0)
    at: list[float] = []
    mid: list[float] = []
    n = 0  # full steps in the block
    j = 0  # block entry of the next full step
    t_run = 0.0  # where the current run of full steps began
    t_start, i_start = math.nan, 0.0
    t_stop, i_stop = math.nan, 0.0

    def refill(t: float) -> bool:
        """Whether the full step from t, where the last step ended, starts a block.

        If so, refills the block from t, as long as the run so far or half
        the last. The step from t must be one the run takes whole.
        """
        nonlocal times, volts, at, mid, n, j
        if not (t - t_run >= min_span or n >= 2 * _DRIVE_BLOCK_MIN):
            return False
        n = _whole_steps(t, min(max(int((t - t_run) / dt), n // 2), _DRIVE_BLOCK_STEPS), dt, t_end)
        steps = np.full(n + 1, dt)
        steps[0] = t
        steps = np.add.accumulate(steps)
        times, j = steps.tolist(), 0
        volts = _waveform_eval_bulk(wave, np.concatenate((steps, steps[:-1] + half_dt)))
        currents = _input_currents_bulk(table, cols, volts).tolist()
        at, mid = currents[: n + 1], currents[n + 1 :]
        return True

    def stage_drive(t: float, h: float) -> tuple[float, float, float, float]:
        nonlocal t_run, t_start, i_start, t_stop, i_stop
        if h != dt or t != t_stop:
            t_run = t
        if t == t_stop:
            t_start, i_start = t, i_stop
        elif t != t_start:
            t_start, i_start = t, drive(t)
        t_stop = t + h
        i_stop = drive(t_stop)
        i_mid = drive(t + 0.5 * h)
        return i_start, i_mid, i_mid, i_stop

    def take_block(t: float, steps: int):
        nonlocal j, t_stop, i_stop
        if not (t == t_stop and j < n and t == times[j]):
            if not _whole_steps(t, 1, dt, t_end):
                return (), (), (), 0, 0
            if not (t == t_stop and refill(t)):
                i0, im, _, i1 = stage_drive(t, dt)
                return (i0, i1), (im,), (waveform_eval(wave, t),), 0, 1
        first = j
        j = min(n, j + steps)
        t_stop, i_stop = times[j], at[j]
        return at, mid, volts, first, j

    def row_drive(t: float) -> tuple[float, float]:
        return waveform_eval(wave, t), i_stop if t == t_stop else drive(t)

    return stage_drive, take_block, row_drive


def _dc_drive(i_dc: float, v: float, dt: float, t_end: float):
    """``_make_stage_drive``'s triple for a dc input v, whose drive is i_dc.

    Every stage and row reads i_dc and v. ``take_block`` hands out constant
    rows of them, the next ``_DRIVE_BLOCK_STEPS`` steps at a time, or fewer
    near t_end: only the steps the run takes whole (``_whole_steps``).
    """
    stages = (i_dc,) * 4
    at, volts = [i_dc] * (_DRIVE_BLOCK_STEPS + 1), [v] * (_DRIVE_BLOCK_STEPS + 1)

    def take_block(t: float, steps: int):
        return at, at, volts, 0, _whole_steps(t, min(steps, _DRIVE_BLOCK_STEPS), dt, t_end)

    return (lambda t, h: stages), take_block, (lambda t: (v, i_dc))


def _make_pole_drive(stage_drive, take_block, row_drive, dt: float, omega: float, f0: float):
    """The input pole as a filter f' = omega*(drive - f) on the stage drives.

    The filter never reads the membrane, so the RK4 stage values of f over
    (t, h), clamped at zero, are the membrane step's four stage drives.
    Returns ``(stages, advance, row)``: ``stages(t, h)`` gives them from
    the current f, for ``step``; ``advance(t, h)`` moves f over a
    step the loop took, and raises ``SimulationError`` when f is not
    finite; ``row(t)`` is ``row_drive``'s trace row with f as its drive.
    f starts at f0. ``stage_drive``, ``take_block`` and ``row_drive`` are
    ``_make_stage_drive``'s: a full step, which a run takes whole, reads
    ``take_block(t, 1)``, and any other step ``stage_drive``.
    """
    f = f0
    last = (math.nan, math.nan, f0)  # (t, h, f after h) of the last stages call

    def stages(t: float, h: float) -> tuple[float, float, float, float]:
        nonlocal last
        half = 0.5 * h
        if h == dt:
            at, mid, _, j, _ = take_block(t, 1)
            i_start, i_mid, i_stop = at[j], mid[j], at[j + 1]
        else:
            i_start, i_mid, _, i_stop = stage_drive(t, h)
        k1 = omega * (i_start - f)
        f2 = f + half * k1
        k2 = omega * (i_mid - f2)
        f3 = f + half * k2
        k3 = omega * (i_mid - f3)
        f4 = f + h * k3
        k4 = omega * (i_stop - f4)
        last = (t, h, f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        return (
            f if f > 0.0 else 0.0,
            f2 if f2 > 0.0 else 0.0,
            f3 if f3 > 0.0 else 0.0,
            f4 if f4 > 0.0 else 0.0,
        )

    def advance(t: float, h: float) -> None:
        nonlocal f, last
        if last[0] != t or last[1] != h:
            stages(t, h)
        f = last[2]
        last = (math.nan, math.nan, f)
        if not math.isfinite(f):
            raise SimulationError("non-finite filtered drive after step", t)

    def row(t: float) -> tuple[float, float]:
        return row_drive(t)[0], f

    return stages, advance, row


def _crossing(
    step, stage_drive, t: float, y: float, h: float, event_tol: float, i_th: float
) -> float:
    """Where the step of length h from y at t reaches i_th, bisected to event_tol.

    Halves [0, h] while it is longer than event_tol, by whether ``step``
    over the midpoint ends at or above i_th, and returns the upper end.
    """
    lo, hi = 0.0, h
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        if step(stage_drive, t, y, mid) >= i_th:
            hi = mid
        else:
            lo = mid
    return hi


def transient(
    encoder: EncoderConfig,
    input_wave: Waveform,
    t_end: float,
    solver: SolverConfig | None = None,
    initial_state: NeuronState | None = None,
    trace_every: int = 10,
) -> SimResult:
    """Integrate the encoder over [0, t_end] and collect spikes.

    Spike events are located inside the step by bisection to the solver's
    event tolerance; the refractory period is then consumed in exact time
    before integration resumes. Zero spikes is a valid outcome. The trace
    keeps every ``trace_every``-th loop step plus the final time point. A
    run whose nominal step count ceil(t_end/dt), or the trace rows it
    implies, is over budget raises ``SimulationError`` before its first
    step, as does a dt past RK4's stability limit for the membrane leak
    or for an input pole under a time-varying input, and a sine or
    triangle with fewer than two steps a period. A run whose loop steps,
    trace rows or spikes overrun the budget raises it where they do.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if trace_every < 1:
        raise ValueError(f"trace_every must be >= 1, got {trace_every!r}")
    neuron = encoder.neuron
    if solver is None:
        solver = default_solver_config(neuron)

    dt = solver.dt
    _check_budget(t_end, dt, trace_every)
    _check_membrane_stable(neuron, dt)

    advance = None
    if input_wave.kind == "dc":
        # a dc drive keeps an input pole's filter at i_dc, bit for bit
        i_dc = neuron_input_current(encoder.transconductor, input_wave.offset)
        stage_drive, take_block, row_drive = _dc_drive(i_dc, input_wave.offset, dt, t_end)
    else:
        # a step edge's pwl breakpoints may lie closer than dt
        if input_wave.kind != "pwl" and input_wave.frequency * dt > 0.5:
            raise SimulationError(
                f"frequency = {input_wave.frequency!r} Hz at dt = {dt!r} s leaves fewer "
                "than two steps a period",
                0.0,
            )
        stage_drive, take_block, row_drive = _make_stage_drive(
            encoder.transconductor, input_wave, dt, t_end
        )
        c = encoder.input_pole_capacitance
        if c is not None:
            omega = effective_gm(encoder.transconductor) / c
            _check_stable(omega, dt, "input_pole_capacitance = {!r} F puts its pole at omega*dt", c)
            stage_drive, advance, row_drive = _make_pole_drive(
                stage_drive, take_block, row_drive, dt, omega, row_drive(0.0)[1]
            )
    step = _neuron_kernel(neuron, "step")
    # a pole run takes scalar steps only, each one moving the filter
    full_steps = _neuron_kernel(neuron, "full_steps") if advance is None else None

    state = initial_state if initial_state is not None else NeuronState(i_mem=neuron.i_reset)
    i_mem = state.i_mem
    refr = state.refractory_remaining
    i_th = neuron.i_th
    i_reset = neuron.i_reset
    t_rf = neuron.t_rf
    event_tol = solver.event_tol

    trace = array("d")  # four doubles a row
    spikes: list[float] = []
    t = 0.0
    step_index = 0
    time_eps = _time_eps(t_end)

    step_cap = _BUDGET_OVERRUN * _STEP_BUDGET
    trace_cap = _trace_cap()
    spike_cap = _BUDGET_OVERRUN * _TRACE_BUDGET

    while t < t_end - time_eps:
        if step_index % trace_every == 0:
            trace.extend((t, *row_drive(t), i_mem))
            if len(trace) > trace_cap:
                raise _rows_overrun(len(trace) // 4, t)
        step_index += 1
        if step_index > step_cap:
            raise _overrun(step_index, "loop steps", _STEP_BUDGET, t)

        if refr > 0.0:
            consume = min(refr, dt, t_end - t)
            if advance is not None:
                # the filter keeps tracking while the membrane is clamped
                advance(t, consume)
            t += consume
            refr -= consume
            if refr < time_eps:
                refr = 0.0
            i_mem = i_reset
            continue

        # an initial condition at or above threshold spikes at once
        if i_mem < i_th:
            h = min(dt, t_end - t)
            if h == dt and full_steps is not None:
                # full steps, and their trace rows, up to the next event
                row = trace_every - (step_index - 1) % trace_every
                t, i_mem, taken, i_new = full_steps(
                    take_block, dt, trace_every, t, i_mem, step_cap - step_index + 1, row, trace
                )
                if i_new is None:
                    step_index += taken - 1
                    continue
                step_index += taken
            else:
                i_new = step(stage_drive, t, i_mem, h)
            if not math.isfinite(i_new):
                raise SimulationError("non-finite membrane current after step", t)
            if i_new >= i_th:  # the step ends at its located crossing
                h = _crossing(step, stage_drive, t, i_mem, h, event_tol, i_th)
            if advance is not None:
                advance(t, h)
            t += h
            if i_new < i_th:
                i_mem = i_new if i_new > 0.0 else 0.0
                continue
        spikes.append(t)
        if len(spikes) > spike_cap:
            raise _overrun(len(spikes), "spikes", _TRACE_BUDGET, t)
        i_mem = i_reset
        refr = t_rf

    trace.extend((t_end, *row_drive(t_end), i_mem))
    return SimResult(trace=Trace(trace), spikes=SpikeTrain(times=tuple(spikes)))


def _silent_at_dc(neuron: NeuronConfig, i_in: float, dt: float) -> bool:
    """Whether RK4 at step dt provably never brings a dc drive to threshold.

    The membrane derivative f has a zero I* that bounds the trajectory
    from i_reset: for I > 0, f > 0 below I* and f < 0 above it. Linear
    mode: I* = gain*i_in. Nonlinear mode without feedback:
    I* = i_g*(i_in/i_r - 1), negative when the leak outweighs the drive at
    every level. With feedback f has the sign of the quadratic
    pf*I**2 + (pf*i_g - i_r)*I + (i_in - i_r)*i_g, and I* is its smaller
    root when that lies above i_reset (otherwise this returns False).
    L = (i_in/i_r + 1 + 2*pf*i_th/i_r)/tau, or 1/tau in linear mode,
    bounds |df/dI| on [0, i_th]. With dt*L <= 1/2 no RK4 stage carries the
    membrane past I* and the step is an increasing map with I* as its
    fixed point, so a membrane that starts below I* stays below it, and
    one above it falls. I* below i_th*(1 - 1e-9) is then never crossed;
    the margin covers the rounding of the steps around I*.
    """
    tau = tau_m(neuron)
    if neuron.mode == "linear":
        i_eq = neuron.gain * i_in
        lipschitz = 1.0 / tau
    else:
        pf = neuron.i_pf_gain
        lipschitz = (i_in / neuron.i_r + 1.0 + 2.0 * pf * neuron.i_th / neuron.i_r) / tau
        if pf == 0.0:
            i_eq = neuron.i_g * (i_in / neuron.i_r - 1.0)
        else:
            b = pf * neuron.i_g - neuron.i_r
            c = (i_in - neuron.i_r) * neuron.i_g
            disc = b * b - 4.0 * pf * c
            if b >= 0.0 or disc < 0.0:
                return False
            i_eq = 2.0 * c / (math.sqrt(disc) - b)  # the smaller root, without cancellation
            if not i_eq > neuron.i_reset:
                return False
    return i_eq < neuron.i_th * (1.0 - 1e-9) and dt * lipschitz <= 0.5


def _first_interval(
    neuron: NeuronConfig, i_in: float, y: float, dt: float, t_end: float, event_tol: float
) -> tuple[str, float, float, int]:
    """Step a dc drive i_in from y at t = 0 to its first spike: (verdict, t, y, n_steps).

    ``full_steps`` takes ``_DRIVE_BLOCK_STEPS`` steps a call under
    ``_dc_drive``'s blocks, and ``_crossing`` bisects a crossing. The verdict
    is "crossed", with t the spike and y the crossing step's start,
    "non-finite", "window end" when a call takes fewer steps, or "silent"
    when a call ends no higher than it began.
    """
    stage_drive, take_block, _ = _dc_drive(i_in, 0.0, dt, t_end)
    full_steps = _neuron_kernel(neuron, "full_steps")
    t, n_steps = 0.0, 0
    while True:
        y_start = y
        t, y, taken, i_new = full_steps(
            take_block, dt, _NO_TRACE, t, y, _DRIVE_BLOCK_STEPS, _NO_TRACE, []
        )
        n_steps += taken
        if i_new is not None:
            if not math.isfinite(i_new):
                return "non-finite", t, y, n_steps
            step = _neuron_kernel(neuron, "step")
            t += _crossing(step, stage_drive, t, y, dt, event_tol, neuron.i_th)
            return "crossed", t, y, n_steps
        if taken < _DRIVE_BLOCK_STEPS:
            return "window end", t, y, n_steps
        if y <= y_start:
            return "silent", t, y, n_steps


def spike_count_dc(
    encoder: EncoderConfig,
    v: float,
    t0: float,
    t1: float,
    solver: SolverConfig | None = None,
) -> int:
    """Number of spikes in [t0, t1) for a dc input ``v``, from rest.

    Gives the count that ``transient`` over [0, t1] yields inside the
    window, starting at i_reset with no refractory time pending, with work
    proportional to one firing interval rather than to the window:

    - A dt past RK4's stability limit for the membrane leak, and a
      t_rf/dt that overflows a double, which is too many steps to count,
      raise ``SimulationError`` before any step, whatever the bias.
    - A silent bias returns 0 without a step: its dc equilibrium lies
      below i_th*(1 - 1e-9) and dt is small enough that RK4 cannot step
      past it (``_silent_at_dc``).
    - The first interval is stepped by ``transient``'s full-step loop and
      its crossing bisected with ``step`` as there (``_first_interval``).
      A call of ``_DRIVE_BLOCK_STEPS`` steps that ends no higher than it
      began means 0: the RK4 map of an autonomous scalar equation is
      monotone, so the membrane never rises again.
    - Every later spike sits at t_first + k*(t_rf + t_first), up to float
      accumulation of the time, and is counted in closed form. A crossing
      step that t1 cuts short is bisected on a shorter span, which can
      move its spike by up to event_tol. So when such a spike lies within
      band = 2*event_tol + ``slack`` of t1 or t0, or when periods are too
      short for only one crossing step to reach past t1, ``transient``
      runs the last periods from the reset state and takes the cut step as
      the stepping loop does, up to the rounding of its start.

    A window that closes inside the first interval is finished by
    ``transient`` from the membrane state reached so far.

    Tie rule: a spike at time t counts when t0 <= t < t1. Closed-form and
    hand-over times differ from the stepping loop's accumulated times only
    by rounding, bounded here by ``slack`` (about 1.4e-12 s for the 22 ms
    vf-curve run of the default encoder at 0.25 V). So the count is the
    stepping loop's except for a spike within that rounding of t1, or
    within event_tol of it when t1 cuts its crossing step short: the
    hand-over runs from t_start to the rounded t1 - t_start, and can put
    such a spike on the other side of t1 (at a t1 equal to a spike time of
    ``transient`` it can count that spike). At t0 a spike counts when its
    computed time is at least t0 - slack, so a t0 taken from
    ``transient``'s own spike times counts that spike, as the stepping
    loop does.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and 0.0 <= t0 < t1):
        raise ValueError(f"window must satisfy 0 <= t0 < t1, got {t0!r}, {t1!r}")
    neuron = encoder.neuron
    if solver is None:
        solver = default_solver_config(neuron)
    # With a dc drive the optional input pole's filter state never moves,
    # so the plain dc step is exact for both encoder kinds.
    i_dc = neuron_input_current(encoder.transconductor, v)
    t_rf = neuron.t_rf
    dt = solver.dt
    _check_membrane_stable(neuron, dt)
    rf_steps = t_rf / dt
    if rf_steps == math.inf:
        raise SimulationError(
            f"refractory time {t_rf!r} s at dt = {dt!r} s is too many steps to count in closed form",
            0.0,
        )
    if _silent_at_dc(neuron, i_dc, dt):
        return 0

    def stepped(t_start: float, state: NeuronState, t_lo: float) -> int:
        t_end = t1 - t_start
        wave = Waveform(kind="dc", offset=v)
        res = transient(encoder, wave, t_end, solver, initial_state=state, trace_every=_NO_TRACE)
        return sum(1 for t in res.spikes.times if t < t_end and t_start + t >= t_lo)

    verdict, t, i_mem, n_steps = _first_interval(
        neuron, i_dc, neuron.i_reset, dt, t1, solver.event_tol
    )
    if verdict == "silent":
        return 0
    if verdict == "window end":
        # Less than a whole step is left: transient takes the last one.
        return stepped(t, NeuronState(i_mem=i_mem), t0) if t < t1 else 0
    if verdict == "non-finite":
        raise SimulationError("non-finite membrane current after step", t)
    t_first = t  # the crossing, located
    if not t_first < t1:
        return 0

    period = t_rf + t_first
    n_periods = int((t1 - t_first) / period)
    # Every loop iteration rounds the time once, and a refractory period
    # may end up to one time_eps early; the closed form drifts likewise.
    per_period = n_steps + 2 + math.ceil(rf_steps)
    slack = 2.0 * max(n_periods + 1, 3) * (per_period * math.ulp(t1) + _time_eps(t1))
    t_lo = t0 - slack
    band = 2.0 * solver.event_tol + slack
    if not math.isfinite(band):
        raise SimulationError(
            f"window [{t0!r}, {t1!r}] s at dt = {dt!r} s is too long to count in closed form",
            t_first,
        )

    def first_at(x: float) -> int:
        """Index of the first closed-form spike at or after x."""
        k = max(math.ceil((x - t_first) / period), 0)
        # settle the rounding of the division against the spike times
        while k > 0 and t_first + (k - 1) * period >= x:
            k -= 1
        while t_first + k * period < x:
            k += 1
        return k

    # Spikes before k_hi end their crossing step before t1; spike 0 is the
    # stepped one. A cut step moves its spike, and every later one, so
    # with periods longer than dt + 2*band only spike k_hi can move.
    k_hi = max(first_at(t1 - dt - band), 1)

    def spike_near(x: float) -> bool:
        return t_first + max(first_at(x - band), k_hi) * period <= x + band

    if period > dt + 2.0 * band and not (spike_near(t1) or spike_near(t0)):
        return max(first_at(t1) - first_at(t_lo), 0)
    refractory = NeuronState(i_mem=neuron.i_reset, refractory_remaining=t_rf)
    count = max(k_hi - first_at(t_lo), 0)
    return count + stepped(t_first + (k_hi - 1) * period, refractory, t_lo)
