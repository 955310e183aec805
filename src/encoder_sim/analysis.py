"""Measurement post-processing: THD, V-to-F curves, small-signal figures, power.

These routines mirror the bench methodology: distortion from a sampled
output waveform, firing rate from a counter over a gate window, linearity
from a least-squares line over a stated input window, and a lumped power
model split into static bias branches and a capacitive switching term.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .device_model import SUPPLY_V, SaturationError
from .neuron import NeuronConfig
from .sim_engine import EncoderConfig, SolverConfig, spike_count_dc
from .transconductor import TransconductorConfig, effective_gm

__all__ = [
    "ThdReport",
    "UndersampledError",
    "VFCurve",
    "thd",
    "vf_curve",
    "small_signal",
    "power_estimate",
]

class UndersampledError(ValueError):
    """Measurement gate too short for a trustworthy rate at the midpoint."""


# Static branch count: five current legs in the transconductor (two input
# branches, two drive branches, reference mirror) plus the neuron's leak
# and gain legs are modeled; everything else is switching.
_K_STATIC_DEFAULT = 7
_C_DYN_DEFAULT = 0.1e-12


@dataclass(frozen=True)
class ThdReport:
    """Single-bin harmonic analysis of one sampled signal; harmonic k + 2 is at index k."""

    fundamental_amplitude: float
    harmonic_amplitudes: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.fundamental_amplitude <= 0.0:
            raise ValueError("fundamental amplitude is not positive; THD undefined")
        if any(h < 0.0 for h in self.harmonic_amplitudes):
            raise ValueError("amplitudes must be nonnegative")

    @property
    def thd_fraction(self) -> float:
        return math.sqrt(sum(h * h for h in self.harmonic_amplitudes)) / self.fundamental_amplitude


@dataclass(frozen=True)
class VFCurve:
    """Firing rate versus dc input with a least-squares linearity fit.

    The fit covers the window its measurement was given, which the curve
    does not keep. ``max_deviation_fraction`` is the largest distance of a
    fitted point from the line, normalized by the line at the window top.
    ``flagged`` lists the in-window input voltages whose runs produced too
    few spikes for a trustworthy rate; they are excluded from the fit and
    from the deviation but kept in ``points``. With fewer than two fitted
    points the slope and intercept are NaN and the deviation is 0.
    """

    points: tuple[tuple[float, float], ...]
    fit_slope: float
    fit_intercept: float
    max_deviation_fraction: float
    flagged: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        vs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise ValueError("points must be sorted by strictly increasing v_in")
        if self.max_deviation_fraction < 0.0:
            raise ValueError("max_deviation_fraction must be nonnegative")


def thd(samples, f0: float, fs: float, n_harmonics: int = 9) -> ThdReport:
    """Harmonic distortion via direct Fourier projections at k*f0.

    The sampling contract is strict so the projections are exact: fs must
    be an integer multiple of f0 with margin above the highest requested
    harmonic, and the record must span whole periods. That turns the
    synthetic-signal tests into identities instead of leakage estimates.
    Each projection is one ``math.fsum``, so the code alone fixes its bits.
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
    try:
        s = [float(x) for x in samples]
    except TypeError:  # a scalar, or rows of a 2-d array
        s = []
    if not s:
        raise ValueError("samples must be a nonempty 1-d array")
    n = len(s)
    if n % ratio_int != 0:
        raise ValueError(
            f"sample count {n} does not cover whole periods of fs/f0 = {ratio_int}"
        )
    amplitudes = []
    for k in range(1, n_harmonics + 2):
        angles = [2.0 * math.pi * k * m / ratio_int for m in range(n)]
        a = 2.0 / n * math.fsum(x * math.cos(w) for x, w in zip(s, angles))
        b = 2.0 / n * math.fsum(x * math.sin(w) for x, w in zip(s, angles))
        amplitudes.append(math.hypot(a, b))
    return ThdReport(amplitudes[0], tuple(amplitudes[1:]))


def _fit_line(vs: list[float], rates: list[float]) -> tuple[float, float]:
    """Least-squares line through (vs, rates), as (slope, intercept).

    The centred normal equations, with every sum taken exactly by
    ``math.fsum``: data that lie exactly on a line with exactly centred
    coordinates, such as integer rates on an equally spaced grid of binary
    fractions, fit it exactly, with no rounding noise in the deviations.
    """
    if len(vs) < 2 or max(vs) == min(vs):
        raise ValueError("degenerate fit: need at least two distinct v_in values")
    v_mean = math.fsum(vs) / len(vs)
    r_mean = math.fsum(rates) / len(rates)
    dv = [v - v_mean for v in vs]
    slope = math.fsum(d * (r - r_mean) for d, r in zip(dv, rates)) / math.fsum(d * d for d in dv)
    return slope, r_mean - slope * v_mean


def _curve_from_rates(
    grid: list[float],
    rates: list[float],
    counts: list[float],
    window: tuple[float, float],
) -> VFCurve:
    """Flagging, midpoint gate, window fit and the one deviation metric of every curve."""
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
        slope, intercept = _fit_line([grid[i] for i in fit_idx], [rates[i] for i in fit_idx])
        fit_hi = slope * v_hi + intercept
        if fit_hi <= 0.0:
            raise ValueError("fitted line is nonpositive at the window top")
        max_dev = max(abs(rates[i] - (slope * grid[i] + intercept)) for i in fit_idx) / fit_hi
    else:
        slope = intercept = float("nan")
        max_dev = 0.0

    return VFCurve(
        points=tuple(zip(grid, rates)),
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
    last period only when a spike lies near the window end; it equals the
    count of a full transient but for the edge cases of its tie rule.
    Points inside the window with fewer than 5 spikes are flagged and
    left out of the fit; the midpoint of the window must produce at least
    20 spikes or the protocol itself is rejected as underpowered.
    """
    grid = [float(v) for v in v_grid]
    if len(grid) < 2:
        raise ValueError("v_grid needs at least two points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("v_grid must be strictly increasing")
    if any(abs(v) > SUPPLY_V for v in grid):
        raise ValueError("v_grid exceeds the supply range")
    if not (settle_time >= 0.0 and measure_time > 0.0):
        raise ValueError("settle_time must be >= 0 and measure_time > 0")
    v_lo, v_hi = float(window[0]), float(window[1])
    if not v_lo < v_hi:
        raise ValueError(f"window must satisfy v_lo < v_hi, got {window!r}")
    if v_hi > grid[-1]:
        # the deviation is normalized by the fit at the window top
        raise ValueError(f"window top {v_hi!r} V lies past the last grid point {grid[-1]!r} V")

    t_end = settle_time + measure_time
    counts = [spike_count_dc(encoder, v, settle_time, t_end, solver) for v in grid]
    rates = [n / measure_time for n in counts]
    return _curve_from_rates(grid, rates, counts, (v_lo, v_hi))


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
    gain_db, f_unity = 20.0 * math.log10(gm * r_out), gm / (2.0 * math.pi * c_load)
    if not (math.isfinite(gain_db) and math.isfinite(f_unity)):
        raise SaturationError(
            f"small-signal figures overflow: {gain_db!r} dB, {f_unity!r} Hz at gm = {gm!r} A/V"
        )
    return gain_db, f_unity


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
    if not 1 <= k_static <= sys.float_info.max:
        raise ValueError(f"k_static must be >= 1 and a finite float, got {k_static!r}")
    if not (math.isfinite(c_dyn) and c_dyn >= 0.0):
        raise ValueError(f"c_dyn must be nonnegative, got {c_dyn!r}")
    neuron: NeuronConfig = encoder.neuron
    i_static = k_static * encoder.transconductor.i_ref + (neuron.i_r + neuron.i_g)
    return SUPPLY_V * i_static + (neuron.c_m + c_dyn) * SUPPLY_V**2 * f_spike
