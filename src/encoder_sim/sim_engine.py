"""Transient simulation of the full encoder with spike-event location.

The encoder chain is waveform -> transconductor -> neuron. The
transconductor is evaluated quasi-statically (its on-chip bandwidth is far
above the input frequencies of interest; the published unity-gain figures
are an artifact of the bench load), so the only dynamic state is the
neuron's membrane current plus, optionally, a single-pole filter on the
injected current for fidelity studies.

The drive current of a dc input is solved once, exactly, with
``neuron_input_current``. Any other input reads the transconductor's
node-argument table (``transconductor.node_arg_table``), a cubic Hermite
interpolant built once per config whose drive current lies within 1e-10 of
the output quiescent current (or of the output half-swing, where larger)
of the exact bisection root. The drive is then a pure function of t,
evaluated once per RK4 stage time, and dc runs never build a table.

A run of consecutive full steps reads its drive in blocks: once the run
is 16 steps long, one bulk call evaluates the drive at the start and the
midpoint of each of the next steps, as many as the run has had, up to
256. The block's step times are summed in sequence by
``np.add.accumulate``, exactly as the loop's ``t += h`` sums them. The
bulk evaluators (``_waveform_eval_bulk``, ``NodeArgTable.input_currents``)
repeat the scalar operations in the same order, with numpy only for what
IEEE rounds correctly (arithmetic, floor, comparisons, where, indexing)
and sin and sinh taken per element with ``math``, since numpy's may round
differently. So a block holds the scalar drive bit for bit, and the
blocks change no result. Bisection substeps, the step cut short at the
end, the first steps of a run and the trace rows call the scalar drive.

Every full step of the single-state membrane runs in one loop,
``_make_full_steps``, with the membrane derivative written out inline and
no function call per stage. It reads a dc drive as its one constant and
a time-varying drive from the blocks, one step at a time from the scalar
drive where a run has no block yet, and returns to the per-step loop of
``transient`` before the next trace row, before the step that t_end cuts
short and before the step that reaches threshold or is not finite; the
per-step loop takes that step with the scalar step ``_make_step``, its
bisection and the refractory time. The loop repeats the scalar step's
operations in the same order, with the same clamps at zero and the same
time sum ``t += dt``, so it changes no bit; the first stage needs no
clamp, since a step never starts from a negative membrane. The two-state
input-pole path steps one step at a time.

A run is refused before its first step, with ``SimulationError``, when
its nominal step count ceil(t_end/dt) exceeds 2**26 or the trace rows
those steps imply exceed 2**20. Each spike adds a few loop steps (the
step split at the crossing, the refractory time), so a neuron that fires
many times per dt takes more steps and writes more rows than that check
counted; the loop itself raises ``SimulationError`` once its steps or
rows pass four times the budget.

Integration is fixed-step RK4. A threshold crossing inside a step is
located by bisecting the substep length, which keeps spike times
deterministic to the event tolerance without adaptive stepping. The
refractory period is consumed in exact time (no grid rounding), so
inter-spike gaps are exactly t_rf plus the integration time.

``spike_count_dc`` counts the spikes a dc bias fires in a window with work
proportional to one interval. A dc drive makes the membrane equation
autonomous, and every interval restarts from the reset floor with the same
sequence of steps, so the train is strictly periodic: spike k sits at
t_first + k*(t_rf + t_first), up to float accumulation of the time. A bias
whose dc equilibrium lies below threshold, at a step small enough that RK4
is an increasing map with that equilibrium as its fixed point, counts 0
without a step. Otherwise the counter steps the first interval in the fused
loop and counts every period up to the window end in closed form. It hands
the last periods to ``transient`` itself only where the step cut short by
the window end can change the verdict: when a spike lies within two event
tolerances of the window end (or of its start, for a window that short), or
when a period is shorter than a step. Its tie rule: a spike counts when
t0 <= t < t1; at a t1 next to a spike this is the stepping loop's own
verdict, and at t0 a spike whose computed time falls short of t0 by no more
than the accumulated rounding still counts.

``oracle_transient`` is a deliberately naive forward-Euler integrator with
per-sample threshold checks. It shares nothing with the RK4 path except the
model equations, which is what makes it useful as a cross-check in tests;
it is orders of magnitude slower and not meant for production runs.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .device_model import SaturationError
from .neuron import NeuronConfig, NeuronState, tau_m
from .transconductor import (
    TransconductorConfig,
    effective_gm,
    neuron_input_current,
    node_arg_table,
)

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
    "oracle_transient",
]

_KINDS = ("dc", "sine", "triangle", "pwl")
_SUPPLY_V = 0.5
# trace_every large enough that a run keeps only its first and final sample
_NO_TRACE = 10**9
# Drive blocks: a run of consecutive full RK4 steps reads its drive from
# blocks once it is _DRIVE_BLOCK_MIN steps long, each block as long as the
# run so far and at most _DRIVE_BLOCK_STEPS. A shorter block costs more per
# step than the scalar drive, and a cap of 64 or 1024 was slower than 256
# on a triangle transient.
_DRIVE_BLOCK_MIN = 16
_DRIVE_BLOCK_STEPS = 256
# A transient refuses to start when its nominal step count ceil(t_end/dt)
# or the trace rows that implies exceed these, instead of running for
# hours or filling memory. Spikes add steps beyond the nominal count, so
# a run also stops once its loop steps or trace rows pass
# _BUDGET_OVERRUN times these.
_STEP_BUDGET = 2**26
_TRACE_BUDGET = 2**20
_BUDGET_OVERRUN = 4


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
        if abs(self.offset) + abs(self.amplitude) > _SUPPLY_V:
            raise ValueError(
                f"|offset| + |amplitude| exceeds the {_SUPPLY_V} V supply: "
                f"{self.offset!r}, {self.amplitude!r}"
            )
        if self.kind in ("sine", "triangle"):
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
                if abs(v) > _SUPPLY_V:
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
    # pwl
    times = [bp[0] for bp in w.breakpoints]
    if t < times[0]:
        raise ValueError(f"t={t!r} precedes the first pwl breakpoint at {times[0]!r}")
    if t >= times[-1]:
        return w.breakpoints[-1][1]
    k = _bisect.bisect_right(times, t) - 1
    t0, v0 = w.breakpoints[k]
    t1, v1 = w.breakpoints[k + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _waveform_eval_bulk(w: Waveform, t: np.ndarray) -> np.ndarray:
    """``waveform_eval`` at every element of ``t``, bit for bit; not for dc.

    Repeats its operations in the same order, with numpy only where IEEE
    rounds correctly and sin taken per element with ``math.sin``. Times
    must be finite and nonnegative; only the pwl start is checked. The
    oracle keeps its own ``_waveform_eval_array``, so that it shares no
    code with this production path.
    """
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
    shape = np.where(
        phase < 0.25,
        4.0 * phase,
        np.where(phase < 0.75, 2.0 - 4.0 * phase, 4.0 * phase - 4.0),
    )
    return w.offset + w.amplitude * shape


def _waveform_eval_array(w: Waveform, t: np.ndarray) -> np.ndarray:
    """Vectorized ``waveform_eval`` for the oracle's precomputed input."""
    if w.kind == "dc":
        return np.full_like(t, w.offset)
    if w.kind == "sine":
        phase = t * w.frequency
        phase -= np.floor(phase)
        return w.offset + w.amplitude * np.sin(2.0 * np.pi * phase)
    if w.kind == "triangle":
        phase = t * w.frequency
        phase -= np.floor(phase)
        shape = np.where(
            phase < 0.25,
            4.0 * phase,
            np.where(phase < 0.75, 2.0 - 4.0 * phase, 4.0 * phase - 4.0),
        )
        return w.offset + w.amplitude * shape
    times = np.array([bp[0] for bp in w.breakpoints])
    volts = np.array([bp[1] for bp in w.breakpoints])
    if np.any(t < times[0]):
        raise ValueError("time grid precedes the first pwl breakpoint")
    return np.interp(t, times, volts)


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step integrator settings."""

    dt: float
    event_tol: float
    method: str = "rk4"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.event_tol) and self.event_tol > 0.0):
            raise ValueError(f"event_tol must be positive, got {self.event_tol!r}")
        if self.event_tol >= self.dt:
            raise ValueError(f"event_tol must be below dt, got {self.event_tol!r} >= {self.dt!r}")
        if self.method not in ("rk4", "euler-oracle"):
            raise ValueError(f"unknown method {self.method!r}")


def default_solver_config(neuron: NeuronConfig) -> SolverConfig:
    """Step sized to the membrane time constant, clamped to sane bounds."""
    dt = min(max(tau_m(neuron) / 200.0, 1e-9), 1e-6)
    return SolverConfig(dt=dt, event_tol=min(1e-9, dt / 10.0))


@dataclass(frozen=True)
class SpikeTrain:
    """Ordered spike timestamps, seconds."""

    times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("spike times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SimResult:
    """Decimated trace samples plus the spike train.

    Trace rows are (t, v_id, i_in, i_mem) tuples.
    """

    trace: tuple[tuple[float, float, float, float], ...]
    spikes: SpikeTrain


@dataclass(frozen=True)
class EncoderConfig:
    """The full encoder: transconductor feeding the neuron.

    ``input_pole_capacitance`` optionally inserts a single-pole low-pass on
    the injected current (pole at effective_gm/(2*pi*C)) to study output
    loading; None keeps the quasi-static treatment.
    """

    transconductor: TransconductorConfig = field(default_factory=TransconductorConfig)
    neuron: NeuronConfig = field(default_factory=NeuronConfig)
    input_pole_capacitance: float | None = None

    def __post_init__(self) -> None:
        dev = self.transconductor.dev
        # (field, config key)
        for name, key in (("n", "n"), ("u_t", "u_t_v")):
            if getattr(self.neuron, name) != getattr(dev, name):
                raise ValueError(
                    f"neuron.{key} = {getattr(self.neuron, name)!r} differs from "
                    f"device.{key} = {getattr(dev, name)!r}: the neuron shares the "
                    "transconductor's devices"
                )
        if self.input_pole_capacitance is not None:
            c = self.input_pole_capacitance
            if not (math.isfinite(c) and c > 0.0):
                raise ValueError(f"input_pole_capacitance must be positive, got {c!r}")


def _make_drive(encoder: EncoderConfig, input_wave: Waveform):
    """Neuron drive current as a function of time, A.

    A dc input is solved once, exactly. Any other input reads the
    transconductor's node-argument table, built once per config, so the
    drive is a pure function of t.
    """
    tc = encoder.transconductor
    if input_wave.kind == "dc":
        i_dc = neuron_input_current(tc, input_wave.offset)
        return lambda t: i_dc
    current = node_arg_table(tc).input_current
    return lambda t: current(waveform_eval(input_wave, t))


def _make_drive_block(encoder: EncoderConfig, input_wave: Waveform):
    """Bulk form of ``_make_drive``: the drive at an array of times, A.

    Equals ``_make_drive``'s drive at every element bit for bit. None for a
    dc input, whose drive is one constant.
    """
    if input_wave.kind == "dc":
        return None
    currents = node_arg_table(encoder.transconductor).input_currents
    return lambda times: currents(_waveform_eval_bulk(input_wave, times))


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


def _overrun(count: int, what: str, budget: int, t: float) -> SimulationError:
    """The error of a run whose loop steps or trace rows overran the budget."""
    return SimulationError(
        f"{count} {what} overran {_BUDGET_OVERRUN} times the budget of {budget}", t
    )


def _time_eps(t_end: float) -> float:
    """Time below which a leftover refractory period or step is dropped."""
    return 1e-15 * max(t_end, 1.0)


def _locate_crossing(crossed, h: float, event_tol: float) -> float:
    """Substep length at which the threshold is first reached, to event_tol.

    ``crossed(s)`` tells whether a substep of length s from the current
    state ends at or above threshold; it must hold for s = h. Bisects
    [0, h] and returns the upper end, so a located event never precedes
    the crossing it stands for.
    """
    lo, hi = 0.0, h
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _make_deriv(neuron: NeuronConfig):
    """Membrane derivative as a function of (i_mem, i_in), A/s.

    Replicates ``membrane_derivative`` operation for operation, with the
    parameters bound once and no per-stage state construction; both
    arguments must already be clamped at zero.
    """
    tau = tau_m(neuron)
    i_r = neuron.i_r
    i_g = neuron.i_g
    pf = neuron.i_pf_gain
    gain = neuron.gain

    if neuron.mode == "linear":

        def deriv(m: float, i_in: float) -> float:
            return (gain * i_in - m) / tau

    else:

        def deriv(m: float, i_in: float) -> float:
            drive = i_in * (m / i_r) / (1.0 + m / i_g)
            i_pf = pf * m
            loss = m * (1.0 - i_pf / i_r)
            return (drive - loss) / tau

    return deriv


def _make_stage_drive(drive, drive_block, dt: float, t_end: float):
    """The drive at the start, middle and end of an RK4 step, and its blocks.

    Returns ``(stage_drive, take_block)``, with
    ``stage_drive(t, h) -> (drive(t), drive(t + h/2), drive(t + h))``.
    Full steps (h == dt) that each start where the previous step ended form
    a run. Once a run is ``_DRIVE_BLOCK_MIN`` steps long, its next steps
    read a block: the drive at the next full steps, as many as the run so
    far, at most ``_DRIVE_BLOCK_STEPS`` and no further than t_end,
    evaluated in one ``drive_block`` call. A block thus grows with its run,
    and a spike, which ends the run, wastes at most as many steps as the
    run had. The block's step times come from ``np.add.accumulate``, which
    sums in sequence like the loop's ``t += h``, so they are the loop's
    times bit for bit, and so is every drive value, ``drive_block`` being
    ``drive`` in bulk. Any other step (a bisection substep, the step cut
    short at t_end, a step early in its run) calls ``drive``, reusing the
    value at its start when the previous step started or ended there.
    Without ``drive_block`` every step does so.

    ``take_block(t, steps)`` hands the drives of up to ``steps`` full
    steps from t to ``_make_full_steps`` as ``(at, mid, j, stop)``: the
    k-th step reads ``at[j + k]``, ``mid[j + k]`` and ``at[j + k + 1]``
    for j + k < stop. These are the entries a pending block holds for the
    steps from t, marked read; otherwise the one-step block of
    ``stage_drive(t, dt)``, which may start a new block. Entries handed
    out but not stepped are skipped: the next step from there calls
    ``drive`` as any step outside a block.
    """
    # without blocks no step counts as a full step
    full = dt if drive_block is not None else math.nan
    half_dt = 0.5 * dt
    min_span = _DRIVE_BLOCK_MIN * full
    times: list[float] = []
    at: list[float] = []
    mid: list[float] = []
    n = 0  # full steps in the block
    j = 0  # block entry of the next full step
    t_run = 0.0  # where the current run of full steps began
    t_start, i_start = math.nan, 0.0
    t_stop, i_stop = math.nan, 0.0

    def refill(t: float) -> bool:
        """A new block from t, as long as the run so far; returns True."""
        nonlocal times, at, mid, n, j
        n = min(int((t - t_run) / dt), _DRIVE_BLOCK_STEPS, int((t_end - t) / dt) + 1)
        steps = np.full(n + 1, dt)
        steps[0] = t
        steps = np.add.accumulate(steps)
        currents = drive_block(np.concatenate((steps, steps[:-1] + half_dt))).tolist()
        times, at, mid, j = steps.tolist(), currents[: n + 1], currents[n + 1 :], 0
        return True

    def stage_drive(t: float, h: float) -> tuple[float, float, float]:
        nonlocal j, t_run, t_start, i_start, t_stop, i_stop
        if h == full and t == t_stop:
            if (j < n and t == times[j]) or (t - t_run >= min_span and refill(t)):
                j += 1
                t_stop, i_stop = times[j], at[j]
                return at[j - 1], mid[j - 1], i_stop
        else:
            t_run = t
        if t == t_stop:
            t_start, i_start = t, i_stop
        elif t != t_start:
            t_start, i_start = t, drive(t)
        t_stop = t + h
        i_stop = drive(t_stop)
        return i_start, drive(t + 0.5 * h), i_stop

    def take_block(t: float, steps: int):
        nonlocal j, t_stop, i_stop
        if t == t_stop and j < n and t == times[j]:
            first = j
            j = min(n, j + steps)
            t_stop, i_stop = times[j], at[j]
            return at, mid, first, j
        i0, im, i1 = stage_drive(t, dt)
        return (i0, i1), (im,), 0, 1

    return stage_drive, take_block


def _make_step(neuron: NeuronConfig, stage_drive):
    """RK4 step of the membrane under the stage drives ``stage_drive(t, h)``.

    Stages 2 and 3 share one drive value at the half step. A time-varying
    drive's stage drives come from ``_make_stage_drive``; it is a pure
    function of t, so neither its reuse nor its blocks change a bit.
    """
    deriv = _make_deriv(neuron)

    def step(t: float, y: float, h: float) -> float:
        half = 0.5 * h
        i_start, i_mid, i_stop = stage_drive(t, h)
        k1 = deriv(y if y > 0.0 else 0.0, i_start)
        y2 = y + half * k1
        k2 = deriv(y2 if y2 > 0.0 else 0.0, i_mid)
        y3 = y + half * k2
        k3 = deriv(y3 if y3 > 0.0 else 0.0, i_mid)
        y4 = y + h * k3
        k4 = deriv(y4 if y4 > 0.0 else 0.0, i_stop)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def _make_dc_step(neuron: NeuronConfig, i_dc: float):
    """``_make_step`` under the constant drive i_dc."""
    dc_stages = (i_dc, i_dc, i_dc)
    return _make_step(neuron, lambda t, h: dc_stages)


def _dc_take_block(i_dc: float):
    """``take_block`` of a dc drive for ``_make_full_steps``.

    A dc drive needs no block: every stage drive is i_dc, so one constant
    row serves every call.
    """
    row = [i_dc] * (_DRIVE_BLOCK_STEPS + 1)

    def take_block(t: float, steps: int):
        return row, row, 0, min(steps, _DRIVE_BLOCK_STEPS)

    return take_block


def _make_full_steps(neuron: NeuronConfig, take_block, dt: float, t_end: float):
    """Runs of full RK4 steps (h == dt) in one loop, with no call per stage.

    Returns ``full_steps(t, y, steps) -> (t, y, taken, i_new)``. From the
    membrane current y at t it takes up to ``steps`` full steps, reading
    the stage drives from the blocks that ``take_block(t, steps_left)``
    hands out, and stops before a step that t_end would cut short (or
    that would start within the time tolerance of t_end) and before the
    first step that reaches i_th or is not finite. ``i_new`` is that
    step's result, for the caller to act on, and None when the loop
    stopped for another reason. The caller's t must leave room for one
    full step, so the loop takes it or refuses it.

    ``_make_deriv``'s derivative is written out inline for each stage, in
    the same operation order, with the same clamps at zero, step
    arithmetic and time sum ``t += dt`` as ``_make_step``, so a step taken
    here and the same step taken by ``_make_step`` give the same bits. The
    clamp of the first stage is left out because it cannot change a bit:
    y is never negative (a caller's membrane never is, and each step's
    result is clamped). A call to ``_make_deriv``'s derivative per stage
    instead of the inline forms made the triangle transient about 15%
    slower.
    """
    tau = tau_m(neuron)
    i_r = neuron.i_r
    i_g = neuron.i_g
    pf = neuron.i_pf_gain
    gain = neuron.gain
    linear = neuron.mode == "linear"
    i_th = neuron.i_th
    half = 0.5 * dt
    sixth = dt / 6.0
    t_last = t_end - _time_eps(t_end)
    inf = math.inf

    def full_steps(t: float, y: float, steps: int):
        taken = 0
        while taken < steps and t < t_last and t_end - t >= dt:
            at, mid, j, stop = take_block(t, steps - taken)
            first = j
            if linear:
                while j < stop and t < t_last and t_end - t >= dt:
                    i0, im, i1 = at[j], mid[j], at[j + 1]
                    k1 = (gain * i0 - y) / tau
                    y2 = y + half * k1
                    m = y2 if y2 > 0.0 else 0.0
                    k2 = (gain * im - m) / tau
                    y3 = y + half * k2
                    m = y3 if y3 > 0.0 else 0.0
                    k3 = (gain * im - m) / tau
                    y4 = y + dt * k3
                    m = y4 if y4 > 0.0 else 0.0
                    k4 = (gain * i1 - m) / tau
                    i_new = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    if not -inf < i_new < i_th:
                        return t, y, taken + j - first, i_new
                    t += dt
                    y = i_new if i_new > 0.0 else 0.0
                    j += 1
            else:
                while j < stop and t < t_last and t_end - t >= dt:
                    i0, im, i1 = at[j], mid[j], at[j + 1]
                    k1 = (i0 * (y / i_r) / (1.0 + y / i_g) - y * (1.0 - pf * y / i_r)) / tau
                    y2 = y + half * k1
                    m = y2 if y2 > 0.0 else 0.0
                    k2 = (im * (m / i_r) / (1.0 + m / i_g) - m * (1.0 - pf * m / i_r)) / tau
                    y3 = y + half * k2
                    m = y3 if y3 > 0.0 else 0.0
                    k3 = (im * (m / i_r) / (1.0 + m / i_g) - m * (1.0 - pf * m / i_r)) / tau
                    y4 = y + dt * k3
                    m = y4 if y4 > 0.0 else 0.0
                    k4 = (i1 * (m / i_r) / (1.0 + m / i_g) - m * (1.0 - pf * m / i_r)) / tau
                    i_new = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    if not -inf < i_new < i_th:
                        return t, y, taken + j - first, i_new
                    t += dt
                    y = i_new if i_new > 0.0 else 0.0
                    j += 1
            taken += j - first
        return t, y, taken, None

    return full_steps


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
    step.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if trace_every < 1:
        raise ValueError(f"trace_every must be >= 1, got {trace_every!r}")
    neuron = encoder.neuron
    if solver is None:
        solver = default_solver_config(neuron)
    if solver.method != "rk4":
        raise ValueError(f"transient integrates with rk4, got method {solver.method!r}")

    _check_budget(t_end, solver.dt, trace_every)

    i_in = _make_drive(encoder, input_wave)
    i_in_block = _make_drive_block(encoder, input_wave)
    if encoder.input_pole_capacitance is not None:
        return _transient_with_pole(
            encoder, input_wave, t_end, solver, initial_state, trace_every, i_in, i_in_block
        )

    if input_wave.kind == "dc":
        i_dc = i_in(0.0)
        step = _make_dc_step(neuron, i_dc)
        take_block = _dc_take_block(i_dc)
    else:
        stage_drive, take_block = _make_stage_drive(i_in, i_in_block, solver.dt, t_end)
        step = _make_step(neuron, stage_drive)
    full_steps = _make_full_steps(neuron, take_block, solver.dt, t_end)

    state = initial_state if initial_state is not None else NeuronState(i_mem=neuron.i_reset)
    i_mem = state.i_mem
    refr = state.refractory_remaining
    i_th = neuron.i_th
    i_reset = neuron.i_reset
    t_rf = neuron.t_rf
    dt = solver.dt
    event_tol = solver.event_tol

    trace: list[tuple[float, float, float, float]] = []
    spikes: list[float] = []
    t = 0.0
    step_index = 0
    time_eps = _time_eps(t_end)

    step_cap = _BUDGET_OVERRUN * _STEP_BUDGET
    row_cap = _BUDGET_OVERRUN * _TRACE_BUDGET

    while t < t_end - time_eps:
        if step_index % trace_every == 0:
            t_c = min(t, t_end)
            trace.append((t, waveform_eval(input_wave, t_c), i_in(t_c), i_mem))
            if len(trace) > row_cap:
                raise _overrun(len(trace), "trace rows", _TRACE_BUDGET, t)
        step_index += 1
        if step_index > step_cap:
            raise _overrun(step_index, "loop steps", _STEP_BUDGET, t)

        if refr > 0.0:
            consume = min(refr, dt, t_end - t)
            t += consume
            refr -= consume
            if refr < time_eps:
                refr = 0.0
            i_mem = i_reset
            continue

        # Initial condition at or above threshold, or a crossing that
        # landed exactly on a step edge.
        if i_mem >= i_th:
            spikes.append(t)
            i_mem = i_reset
            refr = t_rf
            continue

        h = min(dt, t_end - t)
        if h == dt:
            # full steps up to the next trace row, in one loop
            t, i_mem, taken, i_new = full_steps(
                t, i_mem, trace_every - (step_index - 1) % trace_every
            )
            if i_new is None:
                step_index += taken - 1
                continue
            step_index += taken
        else:
            i_new = step(t, i_mem, h)
        if not math.isfinite(i_new):
            raise SimulationError("non-finite membrane current after step", t)

        if i_new >= i_th:
            hi = _locate_crossing(lambda s: step(t, i_mem, s) >= i_th, h, event_tol)
            t += hi
            spikes.append(t)
            i_mem = i_reset
            refr = t_rf
        else:
            t += h
            i_mem = i_new if i_new > 0.0 else 0.0

    trace.append((t_end, waveform_eval(input_wave, t_end), i_in(t_end), i_mem))
    return SimResult(trace=tuple(trace), spikes=SpikeTrain(times=tuple(spikes)))


def _transient_with_pole(
    encoder: EncoderConfig,
    input_wave: Waveform,
    t_end: float,
    solver: SolverConfig,
    initial_state: NeuronState | None,
    trace_every: int,
    i_in,
    i_in_block,
) -> SimResult:
    """Two-state variant: membrane current plus the filtered drive."""
    neuron = encoder.neuron
    pole_omega = effective_gm(encoder.transconductor) / encoder.input_pole_capacitance
    deriv = _make_deriv(neuron)
    stage_drive, _ = _make_stage_drive(i_in, i_in_block, solver.dt, t_end)

    def step2(t0: float, m0: float, f0: float, h: float) -> tuple[float, float]:
        half = 0.5 * h
        i_start, i_mid, i_stop = stage_drive(t0, h)
        k1m = deriv(m0 if m0 > 0.0 else 0.0, f0 if f0 > 0.0 else 0.0)
        k1f = pole_omega * (i_start - f0)
        m2, f2 = m0 + half * k1m, f0 + half * k1f
        k2m = deriv(m2 if m2 > 0.0 else 0.0, f2 if f2 > 0.0 else 0.0)
        k2f = pole_omega * (i_mid - f2)
        m3, f3 = m0 + half * k2m, f0 + half * k2f
        k3m = deriv(m3 if m3 > 0.0 else 0.0, f3 if f3 > 0.0 else 0.0)
        k3f = pole_omega * (i_mid - f3)
        m4, f4 = m0 + h * k3m, f0 + h * k3f
        k4m = deriv(m4 if m4 > 0.0 else 0.0, f4 if f4 > 0.0 else 0.0)
        k4f = pole_omega * (i_stop - f4)
        return (
            m0 + (h / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m),
            f0 + (h / 6.0) * (k1f + 2.0 * k2f + 2.0 * k3f + k4f),
        )

    state = initial_state if initial_state is not None else NeuronState(i_mem=neuron.i_reset)
    i_mem = state.i_mem
    refr = state.refractory_remaining
    i_filt = i_in(0.0)
    i_th = neuron.i_th
    dt = solver.dt
    event_tol = solver.event_tol

    trace: list[tuple[float, float, float, float]] = []
    spikes: list[float] = []
    t = 0.0
    step_index = 0
    time_eps = _time_eps(t_end)

    step_cap = _BUDGET_OVERRUN * _STEP_BUDGET
    row_cap = _BUDGET_OVERRUN * _TRACE_BUDGET

    while t < t_end - time_eps:
        if step_index % trace_every == 0:
            trace.append((t, waveform_eval(input_wave, min(t, t_end)), i_filt, i_mem))
            if len(trace) > row_cap:
                raise _overrun(len(trace), "trace rows", _TRACE_BUDGET, t)
        step_index += 1
        if step_index > step_cap:
            raise _overrun(step_index, "loop steps", _STEP_BUDGET, t)

        if refr > 0.0:
            consume = min(refr, dt, t_end - t)
            # The filter keeps tracking while the membrane is clamped.
            _, i_filt = step2(t, i_mem, i_filt, consume)
            t += consume
            refr -= consume
            if refr < time_eps:
                refr = 0.0
            i_mem = neuron.i_reset
            continue

        if i_mem >= i_th:
            spikes.append(t)
            i_mem = neuron.i_reset
            refr = neuron.t_rf
            continue

        h = min(dt, t_end - t)
        m_new, f_new = step2(t, i_mem, i_filt, h)
        if not (math.isfinite(m_new) and math.isfinite(f_new)):
            raise SimulationError("non-finite state after step", t)

        if m_new >= i_th:
            hi = _locate_crossing(
                lambda s: step2(t, i_mem, i_filt, s)[0] >= i_th, h, event_tol
            )
            _, i_filt = step2(t, i_mem, i_filt, hi)
            t += hi
            spikes.append(t)
            i_mem = neuron.i_reset
            refr = neuron.t_rf
        else:
            t += h
            i_mem = m_new if m_new > 0.0 else 0.0
            i_filt = f_new

    trace.append((t_end, waveform_eval(input_wave, t_end), i_filt, i_mem))
    return SimResult(trace=tuple(trace), spikes=SpikeTrain(times=tuple(spikes)))


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

    - A silent bias returns 0 without a step: its dc equilibrium lies
      below i_th*(1 - 1e-9) and dt is small enough that RK4 cannot step
      past it (``_silent_at_dc``).
    - The first interval is stepped by ``_make_full_steps`` in chunks of
      ``_DRIVE_BLOCK_STEPS`` steps, exactly as ``transient`` steps it, and
      its crossing is bisected with the scalar step as there. A chunk that
      ends no higher than it began means 0: the RK4 map of an autonomous
      scalar equation is monotone, so the membrane never rises again.
    - Every later spike sits at t_first + k*(t_rf + t_first), up to float
      accumulation of the time, and is counted in closed form. A crossing
      step that t1 cuts short is bisected on a shorter span, which can
      move its spike by up to event_tol. So when such a spike lies within
      band = 2*event_tol + ``slack`` of t1 or t0, or when periods are too
      short for only one crossing step to reach past t1, ``transient``
      runs the last periods from the reset state to give the stepping
      loop's own verdict.

    A window that closes inside the first interval is finished by
    ``transient`` from the membrane state reached so far.

    Tie rule: a spike at time t counts when t0 <= t < t1. Closed-form and
    hand-over times differ from the stepping loop's accumulated times only
    by rounding, bounded here by ``slack`` (about 1.4e-12 s for the 22 ms
    vf-curve run of the default encoder at 0.25 V). At t0 a spike counts
    when its computed time is at least t0 - slack, so a t0 taken from
    ``transient``'s own spike times counts that spike, as the stepping
    loop does.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and 0.0 <= t0 < t1):
        raise ValueError(f"window must satisfy 0 <= t0 < t1, got {t0!r}, {t1!r}")
    neuron = encoder.neuron
    if solver is None:
        solver = default_solver_config(neuron)
    if solver.method != "rk4":
        raise ValueError(f"spike_count_dc integrates with rk4, got method {solver.method!r}")
    # With a dc drive the optional input pole's filter state never moves,
    # so the plain dc step is exact for both encoder kinds.
    i_dc = neuron_input_current(encoder.transconductor, v)
    i_th = neuron.i_th
    t_rf = neuron.t_rf
    dt = solver.dt
    if _silent_at_dc(neuron, i_dc, dt):
        return 0

    wave = Waveform(kind="dc", offset=v)

    def stepped(t_start: float, state: NeuronState, t_lo: float) -> int:
        t_end = t1 - t_start
        res = transient(encoder, wave, t_end, solver, initial_state=state, trace_every=_NO_TRACE)
        return sum(1 for t in res.spikes.times if t < t_end and t_start + t >= t_lo)

    full_steps = _make_full_steps(neuron, _dc_take_block(i_dc), dt, t1)
    t = 0.0
    i_mem = neuron.i_reset
    n_steps = 0
    while True:
        i_start = i_mem
        t, i_mem, taken, i_new = full_steps(t, i_mem, _DRIVE_BLOCK_STEPS)
        n_steps += taken
        if i_new is not None:
            break
        if taken < _DRIVE_BLOCK_STEPS:
            # Less than a whole step is left: transient takes the last one.
            return stepped(t, NeuronState(i_mem=i_mem), t0) if t < t1 else 0
        if i_mem <= i_start:
            return 0
    if not math.isfinite(i_new):
        raise SimulationError("non-finite membrane current after step", t)
    step = _make_dc_step(neuron, i_dc)
    t_first = t + _locate_crossing(lambda s: step(t, i_mem, s) >= i_th, dt, solver.event_tol)
    if not t_first < t1:
        return 0

    period = t_rf + t_first
    n_periods = int((t1 - t_first) / period)
    # Every loop iteration rounds the time once, and a refractory period
    # may end up to one time_eps early; the closed form drifts likewise.
    per_period = n_steps + 2 + math.ceil(t_rf / dt)
    slack = 2.0 * max(n_periods + 1, 3) * (per_period * math.ulp(t1) + _time_eps(t1))
    t_lo = t0 - slack
    band = 2.0 * solver.event_tol + slack

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


def _vectorized_input_current(
    encoder: EncoderConfig, input_wave: Waveform, times: np.ndarray
) -> np.ndarray:
    """Neuron drive current at every time sample, solved in bulk.

    Pure bisection on the internal node equation, vectorized over all
    samples: 80 halvings of the bracket take the node differential below
    1e-12 V, well inside the comparison tolerances of the oracle tests.
    Where sinh overflows at the ends of the +/-cap bracket but not at the
    half-width 0.5 V/(2*n*u_t), a sample is bracketed on
    [min(0, b), max(0, b)] instead. A residual that overflows a double
    raises ``SaturationError``.
    """
    tc = encoder.transconductor
    dev = tc.dev
    v = _waveform_eval_array(input_wave, times)
    input_arg = (dev.n - 1.0) * v / (2.0 * dev.n * dev.u_t)
    s = tc.node_shunt_ratio
    d = tc.drive_ratio
    # the root lies between 0 and input_arg, past the 0.5 V end when n > 2
    half_width = 0.5 / (2.0 * dev.n * dev.u_t)
    arg_cap = np.maximum(half_width, np.abs(input_arg))
    with np.errstate(over="ignore"):
        narrow = np.isfinite(np.sinh(half_width)) & ~np.isfinite(
            np.sinh(arg_cap + np.abs(input_arg))
        )
    lo = np.where(narrow, np.minimum(input_arg, 0.0), -arg_cap)
    hi = np.where(narrow, np.maximum(input_arg, 0.0), arg_cap)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.sinh(mid) + s * mid - d * np.sinh(input_arg - mid)
        if not np.all(np.isfinite(r)):
            raise SaturationError("oracle node equation overflows a double")
        below = r <= 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    node_arg = 0.5 * (lo + hi)
    out_arg = input_arg - node_arg
    i_in = tc.output_quiescent * (1.0 + np.sinh(out_arg))
    return np.maximum(i_in, 0.0)


def oracle_transient(
    encoder: EncoderConfig,
    input_wave: Waveform,
    t_end: float,
    dt_fine: float,
    trace_every: int = 10_000,
) -> SimResult:
    """Brute-force forward-Euler reference integration.

    Threshold is checked per sample and the refractory period is rounded up
    to whole samples, so systematic spike-time bias is bounded by one fine
    step per spike. Intended only as an independent cross-check of
    ``transient``; it deliberately avoids the production code paths.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if not (math.isfinite(dt_fine) and dt_fine > 0.0):
        raise ValueError(f"dt_fine must be positive, got {dt_fine!r}")
    if encoder.input_pole_capacitance is not None:
        raise ValueError("oracle_transient does not model the optional input pole")

    neuron = encoder.neuron
    n_steps = int(math.ceil(t_end / dt_fine))
    times = np.arange(n_steps + 1) * dt_fine
    clipped = np.minimum(times, t_end)
    drive_arr = _vectorized_input_current(encoder, input_wave, clipped)
    wave_v = _waveform_eval_array(input_wave, clipped)
    drive = drive_arr.tolist()

    tau = tau_m(neuron)
    i_g = neuron.i_g
    i_r = neuron.i_r
    gain = neuron.gain
    pf = neuron.i_pf_gain
    i_th = neuron.i_th
    i_reset = neuron.i_reset
    linear = neuron.mode == "linear"
    refr_quantum = int(math.ceil(neuron.t_rf / dt_fine))

    i_mem = i_reset
    refr_steps = 0
    spikes: list[float] = []
    trace: list[tuple[float, float, float, float]] = []

    for k in range(n_steps):
        if k % trace_every == 0:
            trace.append((float(times[k]), float(wave_v[k]), drive[k], i_mem))
        if refr_steps > 0:
            refr_steps -= 1
            i_mem = i_reset
            continue
        if i_mem >= i_th:
            spikes.append(float(times[k]))
            i_mem = i_reset
            refr_steps = refr_quantum
            continue
        i_inj = drive[k]
        if linear:
            d_i = (gain * i_inj - i_mem) / tau
        else:
            d_i = (
                i_inj * (i_mem / i_r) / (1.0 + i_mem / i_g) - i_mem * (1.0 - pf * i_mem / i_r)
            ) / tau
        i_mem = i_mem + dt_fine * d_i
        if not math.isfinite(i_mem):
            raise SimulationError("non-finite membrane current in oracle", float(times[k]))
        if i_mem < 0.0:
            i_mem = 0.0

    trace.append((float(clipped[n_steps]), float(wave_v[n_steps]), drive[n_steps], i_mem))
    return SimResult(trace=tuple(trace), spikes=SpikeTrain(times=tuple(spikes)))
