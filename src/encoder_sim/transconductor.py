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
sign. A device whose half-width 0.5 V/(2*n*u_t), or whose b, is past the
range of sinh raises ``SaturationError``. ``solve_operating_point`` returns
the output pair's argument ``input_arg - node_arg``; the branch currents of
the network are only checked for underflow, not returned.

The root is solved at |input_arg| and only then given its sign, so the
solved transfer is odd to the last bit, not merely to solver tolerance.

A time-varying transient needs the node argument at every integration
stage, so ``node_arg_table`` builds, once per config, a cubic Hermite table
of it over the full input range, its nodes solved by ``_bisect_node``;
``NodeArgTable.input_current`` is then a polynomial lookup instead of a
scalar solve, and ``NodeArgTable.input_currents`` the same lookup over an
array, bit for bit.

Only the table code imports numpy, inside ``_hermite_coeffs``,
``node_arg_table`` and ``NodeArgTable.input_currents``; the operating point,
``dc_sweep`` and ``effective_gm`` run on floats.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .device_model import SUPPLY_V, DeviceParams, SaturationError

if TYPE_CHECKING:
    import numpy as np

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
        Reference/tuning current in amperes; every internal branch current
        is a fixed ratio of it.
    mirror_to_branch:
        Ratio mapping i_ref to the quiescent current of each linearization
        branch (the correction-node diodes at zero input).
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
    """

    dev: DeviceParams = DeviceParams()
    i_ref: float = 8e-9
    mirror_to_branch: float = 0.5
    mirror_to_output: float = 0.5
    drive_ratio: float = 6.368
    node_shunt_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.i_ref) and self.i_ref > 0.0):
            raise ValueError(f"i_ref must be positive and finite, got {self.i_ref!r}")
        if not (math.isfinite(self.mirror_to_branch) and self.mirror_to_branch > 0.0):
            raise ValueError(f"mirror_to_branch must be positive, got {self.mirror_to_branch!r}")
        if not (math.isfinite(self.mirror_to_output) and self.mirror_to_output > 0.0):
            raise ValueError(f"mirror_to_output must be positive, got {self.mirror_to_output!r}")
        if not (math.isfinite(self.drive_ratio) and self.drive_ratio > 0.0):
            raise ValueError(f"drive_ratio must be positive, got {self.drive_ratio!r}")
        if not (math.isfinite(self.node_shunt_ratio) and self.node_shunt_ratio >= 0.0):
            raise ValueError(
                f"node_shunt_ratio must be nonnegative, got {self.node_shunt_ratio!r}"
            )

    @property
    def branch_quiescent(self) -> float:
        """Quiescent current of each correction-node diode branch, A."""
        return self.mirror_to_branch * self.i_ref

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

    The equation reads the two ratios, n, u_t and the input argument, never
    i_ref, which only scales the branch currents. So configs that differ
    only in i_ref share their roots, and ``_solve_normalized`` keeps the
    256 most recently used. Errors are not kept.
    """
    dev = cfg.dev
    # 0.0 == -0.0 as a key, so the input's sign completes it; a shunt
    # ratio of -0.0 solves to the bits of 0.0
    sign = math.copysign(1.0, input_arg)
    return _solve_normalized(
        cfg.node_shunt_ratio, cfg.drive_ratio, dev.n, dev.u_t, input_arg, sign
    )


@functools.lru_cache(maxsize=256)
def _solve_normalized(s: float, d: float, n: float, u_t: float, input_arg: float, sign):
    """``_solve_node_arg`` from the numbers it reads; ``sign`` only keys the memo.

    The root takes the input argument's sign only where that is negative,
    so an input argument of -0.0 leaves the output argument
    -0.0 - 0.0 = -0.0.
    """
    b = abs(input_arg)
    _refuse_overflow(SUPPLY_V / (2.0 * n * u_t), "half-width argument")
    _refuse_overflow(b, "input argument")
    a = _bisect_node(s, d, b)
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


def solve_operating_point(cfg: TransconductorConfig, v_id: float) -> float:
    """The output pair's sinh argument at input ``v_id`` (differential volts).

    This is the input argument minus the node-tracking part; the
    differential output is ``2 * output_quiescent * sinh`` of it. Of the
    network's four branch currents only the smaller of each pair, at minus
    the magnitude of its argument, is formed, to check that none underflows.

    Raises ``ValueError`` for invalid inputs, ``SaturationError`` if the
    node equation overflows, and a ``ValueError`` if a branch current
    underflows to zero (bias far outside the model's validity).
    """
    _check_v_id(v_id)
    input_arg = _input_argument(cfg, v_id)
    node_arg = _solve_node_arg(cfg, input_arg)
    out_arg = input_arg - node_arg

    i_nd = cfg.branch_quiescent
    # the smaller current of the node diodes and of the driving pair
    smaller = (i_nd * math.exp(-abs(node_arg)), cfg.drive_ratio * i_nd * math.exp(-abs(out_arg)))
    if min(smaller) <= 0.0:
        raise ValueError(f"branch current underflow at v_id={v_id!r}; bias outside model range")
    return out_arg


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
    # ``coeffs`` as four contiguous columns c0, c1, c2, c3
    coeff_cols: tuple[np.ndarray, ...] = field(compare=False, repr=False)

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

    def input_currents(self, v_id: np.ndarray) -> np.ndarray:
        """``input_current`` at every element of ``v_id``, bit for bit.

        Repeats its operations in the same order. numpy does only what
        IEEE rounds correctly (arithmetic, comparisons, indexing); sinh is
        taken per element with ``math.sinh``, because ``np.sinh`` may round
        differently.
        """
        import numpy as np

        beta = self.n1 * v_id / self.two_nut
        x = np.abs(beta) * self.scale
        k = np.minimum(x.astype(np.intp), len(self.coeffs) - 1)
        u = x - k
        c0, c1, c2, c3 = [col.take(k) for col in self.coeff_cols]
        a = c0 + u * (c1 + u * (c2 + u * c3))
        arg = np.where(beta < 0.0, beta + a, beta - a)
        sinh = np.fromiter(map(math.sinh, arg.tolist()), float, arg.size)
        i_q = self.output_quiescent
        return np.maximum(i_q + i_q * sinh, 0.0)


def _hermite_coeffs(cfg: TransconductorConfig, beta, alpha, step: float) -> np.ndarray:
    """Per-interval Hermite coefficients, one row (c0, c1, c2, c3) each.

    Node slopes come from the implicit derivative of the node equation,
    d alpha/d beta = d*cosh(beta - alpha)/(cosh(alpha) + s + d*cosh(beta - alpha)).
    """
    import numpy as np

    d = cfg.drive_ratio
    pull = d * np.cosh(beta - alpha)
    hm = step * pull / (np.cosh(alpha) + cfg.node_shunt_ratio + pull)
    rise = np.diff(alpha)
    return np.column_stack(
        (
            alpha[:-1],
            hm[:-1],
            3.0 * rise - 2.0 * hm[:-1] - hm[1:],
            -2.0 * rise + hm[:-1] + hm[1:],
        )
    )


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
    Past 2**16 intervals it raises ``SolverError``. A device that the
    scalar solve refuses at 0.5 V, its half-width 0.5 V/(2*n*u_t) or its
    input argument past the range of sinh, raises ``SaturationError`` with
    the same message before any node is solved; so does an overflowing
    interpolant, or an input argument at 0.5 V too narrow to split into
    2**16 intervals.
    """
    import numpy as np

    _refuse_overflow(SUPPLY_V / (2.0 * cfg.dev.n * cfg.dev.u_t), "half-width argument")
    beta_max = _input_argument(cfg, SUPPLY_V)
    _refuse_overflow(beta_max, "input argument")
    if beta_max < _TABLE_MAX_INTERVALS / sys.float_info.max:
        raise SaturationError(f"input argument {beta_max:.4g} at 0.5 V is too narrow to tabulate")
    s, d = cfg.node_shunt_ratio, cfg.drive_ratio

    def roots(betas):
        return np.array([_bisect_node(s, d, b) for b in betas.tolist()])

    n = _TABLE_MIN_INTERVALS
    nodes = np.arange(n + 1) * (beta_max / n)
    alpha = roots(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            step = beta_max / n
            mids = np.arange(1, 2 * n, 2) * (beta_max / (2 * n))
            alpha_mid = roots(mids)
            coeffs = _hermite_coeffs(cfg, nodes, alpha, step)
            c0, c1, c2, c3 = coeffs.T
            exact = np.sinh(mids - alpha_mid)
            err = np.abs(np.sinh(mids - (c0 + 0.5 * (c1 + 0.5 * (c2 + 0.5 * c3)))) - exact)
            worst = np.max(err / np.maximum(1.0, np.abs(exact)))
            if not np.isfinite(worst):
                raise SaturationError(
                    f"drive table overflows at input argument {beta_max:.4g}; "
                    "device is outside the weak-inversion model range"
                )
            if worst <= _TABLE_TOL:
                break
            if 2 * n > _TABLE_MAX_INTERVALS:
                raise SolverError(f"drive table misses its {_TABLE_TOL:g} bound at {n} intervals")
            # The midpoints of this grid are the odd nodes of the next one.
            nodes = np.arange(2 * n + 1) * (beta_max / (2 * n))
            merged = np.empty(2 * n + 1)
            merged[0::2], merged[1::2] = alpha, alpha_mid
            alpha = merged
            n *= 2
    return NodeArgTable(
        n1=cfg.dev.n - 1.0,
        two_nut=2.0 * cfg.dev.n * cfg.dev.u_t,
        output_quiescent=cfg.output_quiescent,
        scale=n / beta_max,
        coeffs=tuple(map(tuple, coeffs.tolist())),
        coeff_cols=tuple(np.ascontiguousarray(col) for col in coeffs.T),
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
