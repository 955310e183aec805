"""Large-signal model of the bulk-driven linearized transconductor.

The input stage is a tail-less pMOS pair driven at the bulk terminals, so its
raw differential output current is hyperbolic-sine in the input voltage:
``2*I_Q*sinh(input_arg)`` with ``input_arg = (n-1)*v_id/(2*n*u_t)``. A
translinear correction network develops a differential voltage between two
internal nodes that absorbs most of the input swing; the output pair then
sees only the small residue ``input_arg - node_arg``, which keeps its sinh
argument inside the near-linear region.

The node voltage is not available in closed form. Writing the differential
KCL at the correction nodes in quiescent-normalized units gives

    sinh(node_arg) + node_shunt_ratio * node_arg
        = drive_ratio * sinh(input_arg - node_arg)

whose left side is the diode-connected branch plus a linear shunt and whose
right side is the driving pair. At b = |input_arg| the residual
r(a) = sinh(a) + s*a - d*sinh(b - a) is strictly increasing, with
r(0) <= 0 < r(b), so the root is unique and lies on [0, b]. One bisection,
``_bisect_node``, finds it: it halves [0, b] until the ends are adjacent
doubles and takes their midpoint; the root then takes the input argument's
sign. ``TransconductorConfig`` judges the device's range once, when it is
built: a device whose half-width 0.5 V/(2*n*u_t), or whose input argument
at 0.5 V, is past the range of sinh, or whose input argument at 0.5 V is
too narrow to tabulate, raises ``SaturationError``. The input argument
rises with |v_id| under rounding, so no later solve or table node passes
the range of sinh. ``solve_operating_point`` returns the output pair's
argument ``input_arg - node_arg``.

The root is solved at |input_arg| and only then given its sign, so the
solved transfer is odd to the last bit, not merely to solver tolerance.

A time-varying transient needs the node argument at every integration
stage, so ``node_arg_table`` builds, once per config, a cubic Hermite table
of it over the full input range, its nodes solved by ``_bisect_node``;
``NodeArgTable.input_current`` is then a polynomial lookup instead of a
scalar solve. Everything here runs on floats.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .device_model import SUPPLY_V, DeviceParams, SaturationError

__all__ = [
    "TransconductorConfig",
    "SolverError",
    "solve_operating_point",
    "output_current",
    "neuron_input_current",
    "NodeArgTable",
    "node_arg_table",
    "raw_pair_output_current",
    "effective_gm",
    "dc_sweep",
]

# Largest argument at which sinh is finite. A device whose 0.5 V half-width
# 0.5 V/(2*n*u_t) passes it cannot represent the supply swing.
_SINH_ARG_MAX = math.asinh(sys.float_info.max)

# Halvings that close any bracket [0, b] of doubles to adjacent doubles: from
# b below 2**max_exp down to the smallest subnormal, 2**(min_exp - mant_dig).
# A root near 1e-300 takes about 1,050 of them, one near 1 about 53.
_MAX_HALVINGS = sys.float_info.max_exp - sys.float_info.min_exp + sys.float_info.mant_dig


class SolverError(RuntimeError):
    """A node bisection, the drive table or the small-signal gain failed."""


@dataclass(frozen=True)
class TransconductorConfig:
    """Bias and topology ratios of the linearized transconductor.

    Attributes
    ----------
    dev:
        Shared weak-inversion parameters of the matched devices.
    i_ref:
        Reference/tuning current in amperes. The node equation is solved in
        quiescent-normalized units, so of the currents the transconductor
        forms, i_ref scales only the output pair's, by ``mirror_to_output``.
    mirror_to_output:
        Ratio mapping i_ref to the quiescent current of each output-pair
        device.
    drive_ratio:
        Quiescent current of the correction-network driving pair relative
        to the node diodes. Larger values make the nodes track more of the
        input swing, shrinking the output-pair argument.
    node_shunt_ratio:
        Strength of the linear shunt loading the correction nodes relative
        to the node diodes. Softens the diode clamp so the residue keeps a
        controlled, slightly compressive shape instead of collapsing.

    The two ratio defaults are calibrated jointly so that the small-signal
    gain lands in the published 1.56-22 nA/V band over i_ref in [2, 27] nA
    and the distortion of a 0.25 V sine stays in low single digits.

    Building a config judges the device's range, the only place that does:
    a half-width 0.5 V/(2*n*u_t) or an input argument at 0.5 V past the
    range of sinh, or an input argument at 0.5 V too narrow to split into
    the drive table's largest interval count, raises ``SaturationError``.
    """

    dev: DeviceParams = DeviceParams()
    i_ref: float = 8e-9
    mirror_to_output: float = 0.5
    drive_ratio: float = 6.368
    node_shunt_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.i_ref) and self.i_ref > 0.0):
            raise ValueError(f"i_ref must be positive and finite, got {self.i_ref!r}")
        if not (math.isfinite(self.mirror_to_output) and self.mirror_to_output > 0.0):
            raise ValueError(f"mirror_to_output must be positive, got {self.mirror_to_output!r}")
        if not (math.isfinite(self.drive_ratio) and self.drive_ratio > 0.0):
            raise ValueError(f"drive_ratio must be positive, got {self.drive_ratio!r}")
        if not (math.isfinite(self.node_shunt_ratio) and self.node_shunt_ratio >= 0.0):
            raise ValueError(
                f"node_shunt_ratio must be nonnegative, got {self.node_shunt_ratio!r}"
            )
        _refuse_overflow(SUPPLY_V / (2.0 * self.dev.n * self.dev.u_t), "half-width argument")
        beta_max = _input_argument(self, SUPPLY_V)
        _refuse_overflow(beta_max, "input argument")
        if beta_max < _TABLE_MAX_INTERVALS / sys.float_info.max:
            raise SaturationError(
                f"input argument {beta_max:.4g} at 0.5 V is too narrow to tabulate"
            )

    @property
    def output_quiescent(self) -> float:
        """Quiescent current of each output-pair device, A."""
        return self.mirror_to_output * self.i_ref


def _input_argument(cfg: TransconductorConfig, v_id: float) -> float:
    dev = cfg.dev
    return (dev.n - 1.0) * v_id / (2.0 * dev.n * dev.u_t)


def _check_v_id(v_id: float) -> None:
    if not math.isfinite(v_id):
        raise ValueError(f"v_id must be finite, got {v_id!r}")
    if abs(v_id) > SUPPLY_V:
        raise ValueError(f"|v_id| must not exceed the {SUPPLY_V} V supply, got {v_id!r}")


def _refuse_overflow(arg: float, name: str) -> None:
    """Raise ``SaturationError`` if sinh(``arg``) is past a double's range."""
    if not arg <= _SINH_ARG_MAX:
        raise SaturationError(
            f"node equation overflows at the {name} {arg:.4g}; "
            "device is outside the weak-inversion model range"
        )


def _solve_node_arg(cfg: TransconductorConfig, input_arg: float) -> float:
    """Root of the normalized node equation, the node argument.

    The root at |input_arg| reads only the two ratios, never i_ref, n or
    u_t, so configs that share the ratios share their roots, and
    ``_memo_node_root`` keeps the 256 most recently used. Errors are not
    kept. The root takes the input argument's sign only where that is
    negative, so an input argument of -0.0 leaves the output argument
    -0.0 - 0.0 = -0.0.
    """
    a = _memo_node_root(cfg.node_shunt_ratio, cfg.drive_ratio, abs(input_arg))
    return -a if input_arg < 0.0 else a


def _bisect_node(s: float, d: float, b: float) -> float:
    """Root of sinh(a) + s*a = d*sinh(b - a) for 0 <= b <= asinh(max double).

    Bisects [0, b] to adjacent doubles and returns their midpoint.
    """
    lo, hi = 0.0, b
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if math.sinh(mid) + s * mid - d * math.sinh(b - mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    raise SolverError(f"node bisection did not close within {_MAX_HALVINGS} halvings")


# 0.0 == -0.0 as a key, and a shunt ratio of -0.0 solves to the bits of 0.0
_memo_node_root = functools.lru_cache(maxsize=256)(_bisect_node)


def solve_operating_point(cfg: TransconductorConfig, v_id: float) -> float:
    """The output pair's sinh argument at input ``v_id`` (differential volts).

    This is the input argument minus the node-tracking part; the
    differential output is ``2 * output_quiescent * sinh`` of it.

    Raises ``ValueError`` for a ``v_id`` that is not finite or is past the
    supply.
    """
    _check_v_id(v_id)
    input_arg = _input_argument(cfg, v_id)
    return input_arg - _solve_node_arg(cfg, input_arg)


def output_current(cfg: TransconductorConfig, v_id: float) -> float:
    """Differential output current of the linearized transconductor, A.

    Sign convention: positive for positive ``v_id`` (transconductance is
    positive).
    """
    return 2.0 * cfg.output_quiescent * math.sinh(solve_operating_point(cfg, v_id))


def neuron_input_current(cfg: TransconductorConfig, v_id: float) -> float:
    """Single-ended current delivered to the neuron, A.

    One output branch is mirrored onto the neuron input, so the neuron sees
    the quiescent output current plus half the differential swing, floored
    at zero (the mirror cannot pull current out of the node).
    """
    return max(cfg.output_quiescent + 0.5 * output_current(cfg, v_id), 0.0)


# Drive-table accuracy rule: the worst error of sinh(beta - alpha) at the
# interval midpoints, in units of the output quiescent current or of the
# output half-swing where that is larger, and the interval counts tried.
_TABLE_TOL = 1e-10
_TABLE_MIN_INTERVALS = 256
_TABLE_MAX_INTERVALS = 2**16


@dataclass(frozen=True)
class NodeArgTable:
    """Cubic Hermite table of the node argument over the full input range.

    Interval k covers |beta| in [k, k+1] / ``scale`` and holds the
    coefficients of alpha = c0 + u*(c1 + u*(c2 + u*c3)) in its local
    coordinate u. Build it with ``node_arg_table``.
    """

    n1: float  # n - 1
    two_nut: float  # 2*n*u_t
    output_quiescent: float
    scale: float  # intervals per unit of |beta|
    coeffs: tuple[tuple[float, float, float, float], ...]

    def input_current(self, v_id: float) -> float:
        """``neuron_input_current`` from the table; |v_id| <= 0.5 V, unchecked.

        The node argument a is interpolated at |beta| and takes beta's
        sign, so sinh's argument beta - a is odd in beta bit for bit.
        """
        beta = self.n1 * v_id / self.two_nut
        x = abs(beta) * self.scale
        k = min(int(x), len(self.coeffs) - 1)
        u = x - k
        c0, c1, c2, c3 = self.coeffs[k]
        a = c0 + u * (c1 + u * (c2 + u * c3))
        i_q = self.output_quiescent
        return max(i_q + i_q * math.sinh(beta + a if beta < 0.0 else beta - a), 0.0)


def _hermite_coeffs(cfg: TransconductorConfig, beta, alpha, step: float) -> list[tuple]:
    """Per-interval Hermite coefficients, one tuple (c0, c1, c2, c3) each.

    Node slopes come from the implicit derivative of the node equation,
    d alpha/d beta = d*cosh(beta - alpha)/(cosh(alpha) + s + d*cosh(beta - alpha)).
    """
    d, s = cfg.drive_ratio, cfg.node_shunt_ratio
    pull = [d * math.cosh(b - a) for b, a in zip(beta, alpha)]
    hm = [step * p / (math.cosh(a) + s + p) for a, p in zip(alpha, pull)]
    return [
        (a0, h0, 3.0 * (a1 - a0) - 2.0 * h0 - h1, -2.0 * (a1 - a0) + h0 + h1)
        for a0, a1, h0, h1 in zip(alpha, alpha[1:], hm, hm[1:])
    ]


@functools.lru_cache(maxsize=8)
def node_arg_table(cfg: TransconductorConfig) -> NodeArgTable:
    """The node-argument table of ``cfg`` over |v_id| <= 0.5 V.

    Nodes are uniform in |beta|. Starting from 256 intervals, the count is
    doubled until the interpolant, checked at every interval midpoint
    against the root there, gives sinh(beta - alpha) within 1e-10 of
    max(1, |sinh(beta - alpha)|): within 1e-10 of ``output_quiescent`` in
    the neuron drive current, or of the half-swing where that is larger,
    since a double carries no absolute 1e-10 once sinh exceeds about 1e5.
    Every node and midpoint is solved by ``_bisect_node``, outside the
    scalar solve's memo, so it holds the bits of ``_solve_node_arg`` there.
    Past 2**16 intervals it raises ``SolverError``; an interpolant that
    overflows or is not finite raises ``SaturationError``. The device's
    range was judged when ``cfg`` was built.
    """
    beta_max = _input_argument(cfg, SUPPLY_V)
    s, d = cfg.node_shunt_ratio, cfg.drive_ratio
    n = _TABLE_MIN_INTERVALS
    nodes = [k * (beta_max / n) for k in range(n + 1)]
    alpha = [_bisect_node(s, d, b) for b in nodes]
    while True:
        mids = [k * (beta_max / (2 * n)) for k in range(1, 2 * n, 2)]
        alpha_mid = [_bisect_node(s, d, b) for b in mids]
        try:
            coeffs = _hermite_coeffs(cfg, nodes, alpha, beta_max / n)
            errors = []
            for b, a, (c0, c1, c2, c3) in zip(mids, alpha_mid, coeffs):
                exact = math.sinh(b - a)
                got = math.sinh(b - (c0 + 0.5 * (c1 + 0.5 * (c2 + 0.5 * c3))))
                errors.append(abs(got - exact) / max(1.0, abs(exact)))
        except OverflowError:
            errors = [math.inf]
        if not all(map(math.isfinite, errors)):
            raise SaturationError(
                f"drive table overflows at input argument {beta_max:.4g}; "
                "device is outside the weak-inversion model range"
            )
        if max(errors) <= _TABLE_TOL:
            break
        if 2 * n > _TABLE_MAX_INTERVALS:
            raise SolverError(f"drive table misses its {_TABLE_TOL:g} bound at {n} intervals")
        # The midpoints of this grid are the odd nodes of the next one.
        nodes = [k * (beta_max / (2 * n)) for k in range(2 * n + 1)]
        alpha = [a for pair in zip(alpha, alpha_mid) for a in pair] + alpha[-1:]
        n *= 2
    return NodeArgTable(
        n1=cfg.dev.n - 1.0,
        two_nut=2.0 * cfg.dev.n * cfg.dev.u_t,
        output_quiescent=cfg.output_quiescent,
        scale=n / beta_max,
        coeffs=tuple(coeffs),
    )


def raw_pair_output_current(cfg: TransconductorConfig, v_id: float) -> float:
    """Differential output of the bare pair with the correction disabled.

    This is the uncompensated sinh transfer (internal nodes pinned to equal
    voltages); the baseline against which linearization is judged. Same
    positive-slope terminal convention as ``output_current``.
    """
    _check_v_id(v_id)
    return 2.0 * cfg.output_quiescent * math.sinh(_input_argument(cfg, v_id))


def effective_gm(cfg: TransconductorConfig) -> float:
    """Small-signal transconductance, A/V, by centered difference at 0.

    Probe step is 1 mV; the transfer is odd and smooth, so the centered
    difference is accurate to O(step^2) curvature which is negligible here.
    """
    step = 1e-3
    gm = (output_current(cfg, step) - output_current(cfg, -step)) / (2.0 * step)
    if gm <= 0.0:
        raise SolverError(f"nonpositive small-signal gain {gm!r}")
    return gm


def dc_sweep(cfg: TransconductorConfig, v_grid) -> list[tuple[float, float]]:
    """Pointwise DC transfer over a voltage grid, in the grid's order.

    Returns (v_id, i_out_diff) pairs. Each point is solved on its own,
    without a warm start from its neighbour, so the grid may come in any
    order and every point has the bits of a one-point sweep.
    """
    return [(float(v), output_current(cfg, float(v))) for v in v_grid]
