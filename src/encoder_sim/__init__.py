"""Behavioral simulator for an ultralow-voltage linear voltage-to-spike encoder.

The package models a two-stage encoder: a bulk-driven transconductor that
converts a differential input voltage into a current with translinear
linearization, followed by a current-mode leaky integrate-and-fire neuron
whose firing rate tracks the input. Submodules:

- ``device_model``: weak-inversion MOS equations everything else is built on.
- ``transconductor``: DC transfer of the linearized transconductor core.
- ``neuron``: current-mode leaky integrate-and-fire dynamics and bias mapping.
- ``sim_engine``: fixed-step transient integration with spike event location.
- ``analysis``: THD, rate-versus-input curves with their linearity,
  small-signal and power measurements mirroring bench procedures.
- ``bias_tuner``: derivative-free bias-point search over box constraints.
- ``cli``: config-file driven command line front end.
"""

from .device_model import DeviceParams, SaturationError, drain_current

__all__ = [
    "DeviceParams",
    "SaturationError",
    "drain_current",
]

__version__ = "0.1.0"
