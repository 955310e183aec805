"""Current-mode leaky integrate-and-fire neuron with a DPI input stage.

The membrane state is a current, not a voltage: with the differential-pair
integrator (DPI) front end and the exponential device law the dynamics are
simplest in the current variable. Two dynamics modes are provided:

- ``nonlinear``: the full DPI form. The input term saturates as the
  membrane current rises past the gain current ``i_g``, and an optional
  positive-feedback term models the regenerative assist.
- ``linear``: the first-order approximation valid when the membrane current
  sits well above ``i_g``: a plain RC-style relaxation toward ``gain*i_in``.

The expression strings of ``DERIVATIVES`` state the membrane derivative
once per variant; the simulation engine compiles both RK4 kernels from
them, and ``membrane_derivative`` evaluates them here (only the tests'
Euler oracle keeps a copy).

Spiking is abstracted to a threshold test on the membrane current plus an
instantaneous reset to ``i_reset`` and a fixed refractory period ``t_rf``,
all applied by the simulation engine; the regenerative spike waveform
itself is not modeled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .device_model import DeviceParams, drain_current

__all__ = [
    "NeuronConfig",
    "NeuronState",
    "tau_m",
    "DERIVATIVES",
    "DERIVATIVE_CONSTANTS",
    "derivative_variant",
    "membrane_derivative",
    "neuron_biases_from_voltages",
]

_MODES = ("nonlinear", "linear")


@dataclass(frozen=True)
class NeuronConfig:
    """Bias currents, capacitance and timing of the LIF neuron.

    Attributes
    ----------
    c_m:
        Effective membrane capacitance in farads (includes measurement
        parasitics when mirroring bench conditions).
    i_g:
        DPI gain current in amperes; sets where the input term saturates
        and, together with i_r, the saturated gain.
    i_r:
        Leak (time-constant) current in amperes. Must exceed i_g: the
        useful membrane window lies between the two.
    i_th:
        Membrane-current spike threshold in amperes; abstracts the
        regenerative onset and the adjustable comparator.
    i_reset:
        Post-spike membrane floor in amperes. Strictly positive: zero is a
        trap state of the multiplicative nonlinear dynamics.
    t_rf:
        Refractory period in seconds; bounds the firing rate by 1/t_rf.
    mode:
        "nonlinear" (full DPI dynamics) or "linear" (first-order
        approximation).
    i_pf_gain:
        Dimensionless positive-feedback strength in nonlinear mode. The
        default 0 reflects that the feedback is negligible during
        integration and only matters in the (unmodeled) spike itself.
    dev:
        The neuron's devices, the transconductor's in an ``EncoderConfig``.
    """

    c_m: float = 0.6e-12
    i_g: float = 10e-12
    i_r: float = 0.5e-9
    i_th: float = 72e-12
    i_reset: float = 1e-12
    t_rf: float = 20e-6
    mode: str = "nonlinear"
    i_pf_gain: float = 0.0
    dev: DeviceParams = DeviceParams()

    def __post_init__(self) -> None:
        for name in ("c_m", "i_g", "i_r", "i_th", "i_reset"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"NeuronConfig.{name} must be positive and finite, got {value!r}")
        if not (math.isfinite(self.t_rf) and self.t_rf >= 0.0):
            raise ValueError(f"t_rf must be nonnegative, got {self.t_rf!r}")
        if self.i_reset >= self.i_th:
            raise ValueError(
                f"i_reset must lie below i_th, got {self.i_reset!r} >= {self.i_th!r}"
            )
        if self.i_g >= self.i_r:
            raise ValueError(
                f"i_g must lie below i_r (membrane window), got {self.i_g!r} >= {self.i_r!r}"
            )
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not (math.isfinite(self.i_pf_gain) and self.i_pf_gain >= 0.0):
            raise ValueError(f"i_pf_gain must be nonnegative, got {self.i_pf_gain!r}")
        if not 0.0 < tau_m(self) < math.inf:
            raise ValueError(f"membrane time constant n*u_t*c_m/i_r is {tau_m(self)!r}")

    @property
    def gain(self) -> float:
        """Saturated DPI current gain i_g/i_r applied to the input."""
        return self.i_g / self.i_r


@dataclass(frozen=True)
class NeuronState:
    """Membrane current and remaining refractory time."""

    i_mem: float
    refractory_remaining: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.i_mem) and self.i_mem >= 0.0):
            raise ValueError(f"i_mem must be nonnegative and finite, got {self.i_mem!r}")
        if not (math.isfinite(self.refractory_remaining) and self.refractory_remaining >= 0.0):
            raise ValueError(
                f"refractory_remaining must be nonnegative, got {self.refractory_remaining!r}"
            )


def tau_m(cfg: NeuronConfig) -> float:
    """Membrane time constant n*u_t*c_m/i_r of cfg's devices, seconds."""
    return cfg.dev.n * cfg.dev.u_t * cfg.c_m / cfg.i_r


# The membrane derivative, A/s, once per variant: a Python expression in
# the membrane current {m} and the drive current {i_in}, both clamped at
# zero, over the constants named in ``DERIVATIVE_CONSTANTS``. Without
# feedback the loss m*(1 - pf*m/i_r) is plain m, which gives the same bits
# for every finite m >= 0 (-0.0 included) at pf = 0.0 or -0.0; at m = inf
# the drive term is inf/inf, so both forms give nan.
DERIVATIVE_CONSTANTS = ("tau", "gain", "i_r", "i_g", "pf")
DERIVATIVES = {
    "linear": "(gain * {i_in} - {m}) / tau",
    "nonlinear": (
        "({i_in} * ({m} / i_r) / (1.0 + {m} / i_g) - {m} * (1.0 - pf * {m} / i_r)) / tau"
    ),
    "nonlinear_no_feedback": "({i_in} * ({m} / i_r) / (1.0 + {m} / i_g) - {m}) / tau",
}


def derivative_variant(cfg: NeuronConfig) -> tuple[str, dict[str, float]]:
    """The ``DERIVATIVES`` key of cfg's dynamics and cfg's ``DERIVATIVE_CONSTANTS``."""
    values = (tau_m(cfg), cfg.gain, cfg.i_r, cfg.i_g, cfg.i_pf_gain)
    constants = dict(zip(DERIVATIVE_CONSTANTS, values))
    if cfg.mode == "linear":
        return "linear", constants
    return ("nonlinear" if cfg.i_pf_gain != 0.0 else "nonlinear_no_feedback"), constants


def membrane_derivative(cfg: NeuronConfig, state: NeuronState, i_in: float) -> float:
    """Time derivative of the membrane current, A/s.

    Nonlinear mode implements the DPI form: the input is scaled by
    (I_mem/i_r)/(1 + I_mem/i_g), which rises from zero, crosses gain/2 at
    I_mem = i_g and saturates at the gain i_g/i_r; the loss term is the
    plain leak minus the optional positive feedback. Linear mode is the
    saturated-regime approximation. Evaluates cfg's ``DERIVATIVES``
    expression as the engine's kernels do, to their bits. No command
    calls it; the tests and ``perfbench`` do.
    """
    if not math.isfinite(i_in) or i_in < 0.0:
        raise ValueError(f"i_in must be nonnegative and finite, got {i_in!r}")
    variant, constants = derivative_variant(cfg)
    return _derivative(variant)(state.i_mem, i_in, **constants)


@functools.cache
def _derivative(variant: str):
    """``DERIVATIVES[variant]`` as a function of (m, i_in, *DERIVATIVE_CONSTANTS)."""
    args = ", ".join(("m", "i_in", *DERIVATIVE_CONSTANTS))
    return eval(f"lambda {args}: " + DERIVATIVES[variant].format(m="m", i_in="i_in"))


# Aspect ratios of the bias-generating devices, one per neuron role. The
# published bias settings are voltages; these ratios size each bias device
# so that the quoted voltages produce currents for which the full encoder
# reproduces the published transient behavior (baseline activity near zero
# input, brisk firing at +0.3 V, silence at -0.3 V).
_W_OVER_L_GAIN = 2.2425e-3
_W_OVER_L_LEAK = 8.3205
_W_OVER_L_THRESHOLD = 2.9153e-3


def neuron_biases_from_voltages(
    dev: DeviceParams,
    v_tu: float,
    v_lk: float,
    v_th: float,
) -> tuple[float, float, float]:
    """Map gate bias voltages to (i_g, i_r, i_th) via the device law.

    Each bias transistor converts its gate voltage to a current through the
    shared exponential model; only the aspect ratios differ per role. The
    returned tuple is (gain current, leak current, threshold current).
    """
    i_g = drain_current(dev, v_tu, 0.0, _W_OVER_L_GAIN)
    i_r = drain_current(dev, v_lk, 0.0, _W_OVER_L_LEAK)
    i_th = drain_current(dev, v_th, 0.0, _W_OVER_L_THRESHOLD)
    return i_g, i_r, i_th

