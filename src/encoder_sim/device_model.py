"""Weak-inversion MOS device equations.

Everything downstream of this module is built on a single device law: the
exponential drain current of a long-channel MOSFET biased in weak inversion
and saturation, written in pMOS source-referenced convention

    I_D = I_spec * (W/L) * exp((V_SG - V_T0 + (n - 1) * V_SB) / (n * U_T))

where ``n`` is the subthreshold slope factor and ``U_T`` the thermal voltage.
The bulk terminal acts as a weak back gate: its transconductance is the gate
transconductance scaled by ``(n - 1)``, roughly a fifth at n = 1.2. That
attenuation is the price of an input terminal that still works at supply
voltages too low for gate drive.

Sign conventions: ``v_sg`` and ``v_sb`` are the source-to-gate and
source-to-bulk voltages of a pMOS device, both normally positive in
weak-inversion operation. Currents are magnitudes (always positive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SUPPLY_V",
    "DeviceParams",
    "SaturationError",
    "drain_current",
]

# The encoder's supply voltage, volts: it bounds every input.
SUPPLY_V = 0.5

# exp() overflows IEEE doubles just above 709; beyond that the bias point is
# unphysical for this model, so it is reported instead of clamped.
_MAX_EXPONENT = 700.0


class SaturationError(ValueError):
    """Bias point drives the exponential outside the representable range."""


@dataclass(frozen=True)
class DeviceParams:
    """Lumped weak-inversion parameters shared by a matched device family.

    Attributes
    ----------
    i_spec:
        Specific (characteristic) current in amperes for a unit W/L device.
    n:
        Subthreshold slope factor, dimensionless, typically 1.1 to 1.5.
    u_t:
        Thermal voltage in volts (25 mV near room temperature).
    v_t0:
        Zero-bias threshold voltage magnitude in volts.
    """

    i_spec: float = 1e-7
    n: float = 1.2
    u_t: float = 0.025
    v_t0: float = 0.35

    def __post_init__(self) -> None:
        for name in ("i_spec", "n", "u_t", "v_t0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"DeviceParams.{name} must be finite, got {value!r}")
        if self.i_spec <= 0.0:
            raise ValueError(f"i_spec must be positive, got {self.i_spec!r}")
        if self.n <= 1.0:
            raise ValueError(f"n must exceed 1 (bulk effect vanishes otherwise), got {self.n!r}")
        if self.u_t <= 0.0:
            raise ValueError(f"u_t must be positive, got {self.u_t!r}")
        if self.v_t0 <= 0.0:
            raise ValueError(f"v_t0 must be positive, got {self.v_t0!r}")


def drain_current(
    dev: DeviceParams, v_sg: float, v_sb: float = 0.0, w_over_l: float = 1.0
) -> float:
    """Drain current magnitude of a ``w_over_l`` device at the given gate and bulk drive.

    Raises ``ValueError`` for non-finite inputs and ``SaturationError`` when
    the normalized exponent magnitude exceeds 700 (the bias is outside the
    model's validity and would overflow or underflow a double).
    """
    if not (math.isfinite(v_sg) and math.isfinite(v_sb)):
        raise ValueError(f"bias voltages must be finite, got v_sg={v_sg!r}, v_sb={v_sb!r}")
    exponent = (v_sg - dev.v_t0 + (dev.n - 1.0) * v_sb) / (dev.n * dev.u_t)
    if abs(exponent) > _MAX_EXPONENT:
        raise SaturationError(
            f"normalized bias exponent {exponent:.3g} exceeds +/-{_MAX_EXPONENT:g}; "
            "device is outside the weak-inversion model range"
        )
    return dev.i_spec * w_over_l * math.exp(exponent)
