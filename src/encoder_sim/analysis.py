"""Measurement post-processing: THD, firing rates, V-to-F curves, power.

These routines mirror the bench methodology: distortion from a sampled
output waveform, firing rate from a counter over a gate window, linearity
from a least-squares line over a stated input window, and a lumped power
model split into static bias branches and a capacitive switching term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .neuron import NeuronConfig
from .sim_engine import EncoderConfig, SolverConfig, SpikeTrain, spike_count_dc
from .transconductor import TransconductorConfig, effective_gm

__all__ = [
    "ThdReport",
    "UndersampledError",
    "VFCurve",
    "thd",
    "firing_rate",
    "vf_curve",
    "linearity_error",
    "small_signal",
    "power_estimate",
]

class UndersampledError(ValueError):
    """Measurement gate too short for a trustworthy rate at the midpoint."""


_V_DD = 0.5
# Static branch count: five current legs in the transconductor (two input
# branches, two drive branches, reference mirror) plus the neuron's leak
# and gain legs are modeled; everything else is switching.
_K_STATIC_DEFAULT = 7
_C_DYN_DEFAULT = 0.1e-12


@dataclass(frozen=True)
class ThdReport:
    """Single-bin harmonic analysis of one sampled signal."""

    fundamental_amplitude: float
    harmonic_amplitudes: tuple[float, ...]
    thd_fraction: float

    def __post_init__(self) -> None:
        if self.fundamental_amplitude < 0.0 or any(h < 0.0 for h in self.harmonic_amplitudes):
            raise ValueError("amplitudes must be nonnegative")
        if self.thd_fraction < 0.0:
            raise ValueError("thd_fraction must be nonnegative")


@dataclass(frozen=True)
class VFCurve:
    """Firing rate versus dc input with a least-squares linearity fit.

    ``flagged`` lists the in-window input voltages whose runs produced too
    few spikes for a trustworthy rate; they are excluded from the fit and
    from the deviation metric but kept in ``points``. Imported curves
    without a fit carry NaN slope/intercept and are refit on demand by
    ``linearity_error``.
    """

    points: tuple[tuple[float, float], ...]
    window: tuple[float, float]
    fit_slope: float
    fit_intercept: float
    max_deviation_fraction: float
    flagged: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        vs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise ValueError("points must be sorted by strictly increasing v_in")
        if not self.window[0] < self.window[1]:
            raise ValueError(f"window must satisfy v_lo < v_hi, got {self.window!r}")
        if self.max_deviation_fraction < 0.0:
            raise ValueError("max_deviation_fraction must be nonnegative")


def thd(samples, f0: float, fs: float, n_harmonics: int = 9) -> ThdReport:
    """Harmonic distortion via direct Fourier projections at k*f0.

    The sampling contract is strict so the projections are exact: fs must
    be an integer multiple of f0 with margin above the highest requested
    harmonic, and the record must span whole periods. That turns the
    synthetic-signal tests into identities instead of leakage estimates.
    """
    if not (f0 > 0.0 and fs > 0.0):
        raise ValueError("f0 and fs must be positive")
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics!r}")
    ratio = fs / f0
    ratio_int = round(ratio)
    if abs(ratio - ratio_int) > 1e-9 * ratio:
        raise ValueError(f"fs/f0 must be an integer, got {ratio!r}")
    if ratio_int < 2 * (n_harmonics + 1):
        raise ValueError(
            f"fs/f0 = {ratio_int} undersamples harmonic {n_harmonics + 1}; "
            f"need at least {2 * (n_harmonics + 1)}"
        )
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("samples must be a nonempty 1-d array")
    if s.size % ratio_int != 0:
        raise ValueError(
            f"sample count {s.size} does not cover whole periods of fs/f0 = {ratio_int}"
        )
    n = s.size
    m = np.arange(n)
    amplitudes = []
    for k in range(1, n_harmonics + 2):
        angle = 2.0 * np.pi * k * m / ratio_int
        a = 2.0 / n * float(np.dot(s, np.cos(angle)))
        b = 2.0 / n * float(np.dot(s, np.sin(angle)))
        amplitudes.append(math.hypot(a, b))
    h1 = amplitudes[0]
    if h1 <= 0.0:
        raise ValueError("zero fundamental amplitude; THD undefined")
    rest = amplitudes[1:]
    fraction = math.sqrt(sum(h * h for h in rest)) / h1
    return ThdReport(
        fundamental_amplitude=h1,
        harmonic_amplitudes=tuple(rest),
        thd_fraction=fraction,
    )


def firing_rate(spikes: SpikeTrain, t_start: float, t_end: float) -> float:
    """Counter-style rate: spikes in [t_start, t_end) over the window."""
    if not t_end > t_start:
        raise ValueError(f"t_end must exceed t_start, got {t_start!r}, {t_end!r}")
    count = sum(1 for t in spikes.times if t_start <= t < t_end)
    return count / (t_end - t_start)


def _fit_line(vs: np.ndarray, rates: np.ndarray) -> tuple[float, float]:
    if vs.size < 2 or float(np.ptp(vs)) == 0.0:
        raise ValueError("degenerate fit: need at least two distinct v_in values")
    a = np.vstack([vs, np.ones_like(vs)]).T
    slope, intercept = np.linalg.lstsq(a, rates, rcond=None)[0]
    return float(slope), float(intercept)


def _curve_from_rates(
    grid: list[float],
    rates: list[float],
    counts: list[float],
    window: tuple[float, float],
) -> VFCurve:
    """Flagging, midpoint gate and window fit shared by all curve sources."""
    v_lo, v_hi = window
    in_window = [i for i, v in enumerate(grid) if v_lo <= v <= v_hi]
    if not in_window:
        raise ValueError("no grid points fall inside the window")
    center = 0.5 * (v_lo + v_hi)
    mid_idx = min(in_window, key=lambda i: abs(grid[i] - center))
    if counts[mid_idx] < 20:
        raise UndersampledError(
            f"measure_time too short: {counts[mid_idx]} spikes at the midpoint bias "
            f"{grid[mid_idx]!r} V, need >= 20"
        )

    flagged = tuple(grid[i] for i in in_window if counts[i] < 5)
    fit_idx = [i for i in in_window if counts[i] >= 5]
    if len(fit_idx) >= 2:
        slope, intercept = _fit_line(
            np.array([grid[i] for i in fit_idx]), np.array([rates[i] for i in fit_idx])
        )
        fit_hi = slope * v_hi + intercept
        if fit_hi <= 0.0:
            raise ValueError("fitted line is nonpositive at the window top")
        max_dev = max(abs(rates[i] - (slope * grid[i] + intercept)) for i in fit_idx) / fit_hi
    else:
        slope = intercept = float("nan")
        max_dev = 0.0

    return VFCurve(
        points=tuple(zip(grid, rates)),
        window=(v_lo, v_hi),
        fit_slope=slope,
        fit_intercept=intercept,
        max_deviation_fraction=max_dev,
        flagged=flagged,
    )


def vf_curve(
    encoder: EncoderConfig,
    v_grid,
    settle_time: float,
    measure_time: float,
    window: tuple[float, float],
    solver: SolverConfig | None = None,
) -> VFCurve:
    """Measure rate at each dc input and fit a line over the window.

    Each grid point starts from rest and its rate is the spike count over
    the measure window after the settle interval, divided by
    measure_time, so rate quantization is 1/measure_time. The count comes
    from ``spike_count_dc``, which returns 0 without a step for a bias
    whose dc equilibrium lies below threshold, and otherwise steps one
    interval and counts the periodic train in closed form, stepping the
    last period only when a spike lies within the event tolerance of the
    window end; it equals the count of a full transient (see its tie rule
    for spikes on the window edges). Points inside the window with fewer than
    5 spikes are flagged and left out of the fit; the midpoint of the
    window must produce at least 20 spikes or the protocol itself is
    rejected as underpowered.
    """
    grid = [float(v) for v in v_grid]
    if len(grid) < 2:
        raise ValueError("v_grid needs at least two points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("v_grid must be strictly increasing")
    if any(abs(v) > 0.5 for v in grid):
        raise ValueError("v_grid exceeds the supply range")
    if not (settle_time >= 0.0 and measure_time > 0.0):
        raise ValueError("settle_time must be >= 0 and measure_time > 0")
    v_lo, v_hi = float(window[0]), float(window[1])
    if not v_lo < v_hi:
        raise ValueError(f"window must satisfy v_lo < v_hi, got {window!r}")

    t_end = settle_time + measure_time
    counts = [spike_count_dc(encoder, v, settle_time, t_end, solver) for v in grid]
    rates = [n / measure_time for n in counts]
    return _curve_from_rates(grid, rates, counts, (v_lo, v_hi))


def linearity_error(curve: VFCurve) -> float:
    """Max deviation from the line, normalized by the fit at the window top.

    Uses the curve's own fit when it has one; an imported curve with NaN
    fit coefficients is refit over its in-window points first. Flagged
    points never contribute to either the fit or the deviation.
    """
    v_lo, v_hi = curve.window
    flagged = set(curve.flagged)
    pts = [
        (v, r) for v, r in curve.points if v_lo <= v <= v_hi and v not in flagged
    ]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 in-window points, got {len(pts)}")
    vs = np.array([p[0] for p in pts])
    rates = np.array([p[1] for p in pts])
    slope, intercept = curve.fit_slope, curve.fit_intercept
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        slope, intercept = _fit_line(vs, rates)
    fit_hi = slope * v_hi + intercept
    if fit_hi <= 0.0:
        raise ValueError("fitted line is nonpositive at the window top")
    return float(np.max(np.abs(rates - (slope * vs + intercept))) / fit_hi)


def small_signal(
    cfg: TransconductorConfig, r_out: float, c_load: float
) -> tuple[float, float]:
    """Low-frequency gain (dB) and unity-gain frequency into a load.

    The bench numbers put the transconductor's gm against an external load
    capacitance, which is why the published unity-gain band sits orders of
    magnitude below the on-chip bandwidth.
    """
    if not (math.isfinite(r_out) and r_out > 0.0):
        raise ValueError(f"r_out must be positive, got {r_out!r}")
    if not (math.isfinite(c_load) and c_load > 0.0):
        raise ValueError(f"c_load must be positive, got {c_load!r}")
    gm = effective_gm(cfg)
    return 20.0 * math.log10(gm * r_out), gm / (2.0 * math.pi * c_load)


def power_estimate(
    encoder: EncoderConfig,
    f_spike: float,
    k_static: int = _K_STATIC_DEFAULT,
    c_dyn: float = _C_DYN_DEFAULT,
) -> float:
    """Supply power: static bias branches plus capacitive switching, watts.

    The static term counts k_static branches carrying the transconductor
    reference plus the neuron's two standing bias currents; the dynamic
    term charges the membrane and the switching parasitics once per spike.
    """
    if not (math.isfinite(f_spike) and f_spike >= 0.0):
        raise ValueError(f"f_spike must be nonnegative, got {f_spike!r}")
    if k_static < 1:
        raise ValueError(f"k_static must be >= 1, got {k_static!r}")
    if not (math.isfinite(c_dyn) and c_dyn >= 0.0):
        raise ValueError(f"c_dyn must be nonnegative, got {c_dyn!r}")
    neuron: NeuronConfig = encoder.neuron
    i_static = k_static * encoder.transconductor.i_ref + (neuron.i_r + neuron.i_g)
    return _V_DD * i_static + (neuron.c_m + c_dyn) * _V_DD**2 * f_spike
