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
right side is the driving pair. The residual is strictly increasing in
``node_arg`` and changes sign across the physical bracket, so the root is
unique and a bracketing bisection cannot miss it; a Newton polish then takes
it to solver tolerance.

Both sides of the loop are odd under a joint sign flip of input and node
arguments, and every float operation involved preserves that symmetry
bit-exactly, so the solved transfer is odd to the last bit, not merely to
solver tolerance.

A time-varying transient needs the node argument at every integration
stage, so ``node_arg_table`` builds, once per config, a cubic Hermite table
of it over the full input range from the vectorized bisection
``solve_node_args``; ``NodeArgTable.input_current`` is then a polynomial
lookup instead of a scalar solve, and ``NodeArgTable.input_currents`` the
same lookup over an array, bit for bit.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .device_model import DeviceParams, SaturationError

__all__ = [
    "TransconductorConfig",
    "LinearizationSolution",
    "SolverError",
    "solve_operating_point",
    "node_residual",
    "output_current",
    "neuron_input_current",
    "NodeArgTable",
    "solve_node_args",
    "node_arg_table",
    "raw_pair_output_current",
    "effective_gm",
    "linearity_constraint_margin",
    "dc_sweep",
]

# Supply bound on |v_id| and the half-width of the node solver's bracket,
# in volts. The root lies between 0 and the input argument, so the bracket
# is widened to |input_arg| where (n-1)*|v_id| exceeds it (n > 2).
_BRACKET_V = 0.5
# Largest argument at which sinh is finite. A device whose 0.5 V half-width
# 0.5 V/(2*n*u_t) passes it cannot represent the supply swing.
_SINH_ARG_MAX = math.asinh(sys.float_info.max)

_MAX_EVALS = 200
_X_TOL_V = 1e-12
_RESIDUAL_REL_TOL = 1e-9

# Bisection iterations before handing over to Newton. 2^-40 of the bracket
# is ~1e-12 V, so Newton starts essentially converged and only polishes.
_BISECT_ITERS = 40


class SolverError(RuntimeError):
    """Operating-point iteration failed to converge.

    Carries the final relative residual in ``residual`` for diagnostics.
    """

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


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
    epsilon:
        Dimensionless linearity tolerance: the output-pair sinh argument is
        considered "small enough" when its magnitude stays below this.
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
    epsilon: float = 0.1
    drive_ratio: float = 6.368
    node_shunt_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.i_ref) and self.i_ref > 0.0):
            raise ValueError(f"i_ref must be positive and finite, got {self.i_ref!r}")
        if not (math.isfinite(self.mirror_to_branch) and self.mirror_to_branch > 0.0):
            raise ValueError(f"mirror_to_branch must be positive, got {self.mirror_to_branch!r}")
        if not (math.isfinite(self.mirror_to_output) and self.mirror_to_output > 0.0):
            raise ValueError(f"mirror_to_output must be positive, got {self.mirror_to_output!r}")
        if not (0.03 <= self.epsilon <= 0.1):
            raise ValueError(f"epsilon must lie in [0.03, 0.1], got {self.epsilon!r}")
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


@dataclass(frozen=True)
class LinearizationSolution:
    """Solved operating point of the correction network at one input voltage.

    ``alpha`` is the sinh argument actually seen by the output pair (the
    input argument minus the node-tracking part); ``beta`` is the
    input-proportional argument the raw pair would see. The differential
    output obeys ``i_out_diff == 2 * output_quiescent * sinh(alpha)``.
    """

    v_a: float
    v_b: float
    alpha: float
    beta: float
    i_3a: float
    i_3b: float
    i_4a: float
    i_4b: float
    i_out_diff: float


def _input_argument(cfg: TransconductorConfig, v_id: float) -> float:
    dev = cfg.dev
    return (dev.n - 1.0) * v_id / (2.0 * dev.n * dev.u_t)


def _check_v_id(v_id: float) -> None:
    if not math.isfinite(v_id):
        raise ValueError(f"v_id must be finite, got {v_id!r}")
    if abs(v_id) > _BRACKET_V:
        raise ValueError(f"|v_id| must not exceed the 0.5 V supply, got {v_id!r}")


def node_residual(cfg: TransconductorConfig, v_id, v_node_diff):
    """KCL imbalance at the correction nodes, in amperes.

    Positive residual means the diode-plus-shunt side sinks more than the
    driving pair supplies at the trial node differential ``v_node_diff``.
    Accepts scalars or numpy arrays (the dense-grid oracle in the test
    suite scans millions of trial points at once).
    """
    dev = cfg.dev
    i_nd = cfg.branch_quiescent
    node_arg = np.asarray(v_node_diff) / (2.0 * dev.n * dev.u_t)
    input_arg = (dev.n - 1.0) * np.asarray(v_id) / (2.0 * dev.n * dev.u_t)
    residual = i_nd * (
        np.sinh(node_arg)
        + cfg.node_shunt_ratio * node_arg
        - cfg.drive_ratio * np.sinh(input_arg - node_arg)
    )
    if residual.ndim == 0:
        return float(residual)
    return residual


def _solve_node_arg(cfg: TransconductorConfig, input_arg: float):
    """Root of the normalized node equation, as (node_arg, rel_residual).

    The residual r(a) = sinh(a) + s*a - d*sinh(b - a) is strictly increasing,
    and r(0) and r(b) have opposite signs, so the root lies between 0 and b.
    The bracket +/-max(0.5 V/(2*n*u_t), |b|) therefore holds it for any n;
    for n <= 2 it is the fixed +/-0.5 V bracket. Where sinh would overflow
    at that bracket's ends but not at the half-width 0.5 V/(2*n*u_t) (a
    small thermal voltage or a large n), the bracket is
    [min(0, b), max(0, b)] instead. Either bracket mirrors under b -> -b,
    and with an odd residual the iterates for -b mirror those for +b
    exactly, which keeps the transfer bit-exactly odd. A residual that
    overflows a double raises ``SaturationError``, as it does at the
    bracket end of a device whose half-width itself overflows sinh.
    """
    s = cfg.node_shunt_ratio
    d = cfg.drive_ratio
    two_nut = 2.0 * cfg.dev.n * cfg.dev.u_t
    half_width = _BRACKET_V / two_nut
    arg_cap = max(half_width, abs(input_arg))
    if half_width <= _SINH_ARG_MAX < arg_cap + abs(input_arg):
        lo, hi = min(0.0, input_arg), max(0.0, input_arg)
    else:
        lo, hi = -arg_cap, arg_cap

    def residual(a: float) -> float:
        try:
            return math.sinh(a) + s * a - d * math.sinh(input_arg - a)
        except OverflowError:
            raise SaturationError(
                f"node equation overflows at argument {a:.4g} (input argument "
                f"{input_arg:.4g}); device is outside the weak-inversion model range"
            ) from None

    def rel_residual(a: float, r: float) -> float:
        # Below the smallest normal double the residual is quantized in
        # steps comparable to the terms themselves, so the scale is floored.
        scale = abs(math.sinh(a)) + s * abs(a) + d * abs(math.sinh(input_arg - a))
        return abs(r) / max(scale, sys.float_info.min)

    r_lo = residual(lo)
    evals = 1
    if r_lo > 0.0:
        raise SolverError("node equation has no sign change on the bracket", rel_residual(lo, r_lo))

    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        evals += 1
        if r_mid <= 0.0:
            lo = mid
        else:
            hi = mid

    a = 0.5 * (lo + hi)
    r = residual(a)
    evals += 1
    while evals < _MAX_EVALS:
        rel = rel_residual(a, r)
        if rel < _RESIDUAL_REL_TOL:
            return a, rel
        slope = math.cosh(a) + s + d * math.cosh(input_arg - a)
        step = r / slope
        a = a - step
        r = residual(a)
        evals += 1
        if abs(step) * two_nut < _X_TOL_V:
            rel = rel_residual(a, r)
            if rel < _RESIDUAL_REL_TOL:
                return a, rel
    raise SolverError(
        f"node equation did not converge within {_MAX_EVALS} evaluations",
        rel_residual(a, r),
    )


# Common-mode level the internal nodes sit at; only the differential part
# carries signal, so this is reported as a constant.
_NODE_COMMON_MODE_V = 0.25


def solve_operating_point(cfg: TransconductorConfig, v_id: float) -> LinearizationSolution:
    """Solve the correction network at input ``v_id`` (differential volts).

    Raises ``ValueError`` for invalid inputs, ``SolverError`` if the
    iteration budget is exhausted, ``SaturationError`` if the node equation
    overflows, and a ``ValueError`` if a branch current underflows to zero
    (bias far outside the model's validity).
    """
    _check_v_id(v_id)
    dev = cfg.dev
    input_arg = _input_argument(cfg, v_id)
    node_arg, _ = _solve_node_arg(cfg, input_arg)
    out_arg = input_arg - node_arg

    i_nd = cfg.branch_quiescent
    i_drv = cfg.drive_ratio * i_nd
    i_3a = i_nd * math.exp(node_arg)
    i_3b = i_nd * math.exp(-node_arg)
    i_4a = i_drv * math.exp(out_arg)
    i_4b = i_drv * math.exp(-out_arg)
    if min(i_3a, i_3b, i_4a, i_4b) <= 0.0:
        raise ValueError(f"branch current underflow at v_id={v_id!r}; bias outside model range")

    x = node_arg * (2.0 * dev.n * dev.u_t)
    i_out_diff = 2.0 * cfg.output_quiescent * math.sinh(out_arg)
    return LinearizationSolution(
        v_a=_NODE_COMMON_MODE_V - 0.5 * x,
        v_b=_NODE_COMMON_MODE_V + 0.5 * x,
        alpha=out_arg,
        beta=input_arg,
        i_3a=i_3a,
        i_3b=i_3b,
        i_4a=i_4a,
        i_4b=i_4b,
        i_out_diff=i_out_diff,
    )


def output_current(cfg: TransconductorConfig, v_id: float) -> float:
    """Differential output current of the linearized transconductor, A.

    Sign convention: positive for positive ``v_id`` (transconductance is
    positive).
    """
    return solve_operating_point(cfg, v_id).i_out_diff


def neuron_input_current(cfg: TransconductorConfig, v_id: float) -> float:
    """Single-ended current delivered to the neuron, A.

    One output branch is mirrored onto the neuron input, so the neuron sees
    the quiescent output current plus half the differential swing, floored
    at zero (the mirror cannot pull current out of the node).
    """
    sol = solve_operating_point(cfg, v_id)
    return max(cfg.output_quiescent + 0.5 * sol.i_out_diff, 0.0)


def solve_node_args(cfg: TransconductorConfig, beta) -> np.ndarray:
    """Node arguments for an array of input arguments, by bisection.

    Solves sinh(a) + s*a = d*sinh(beta - a) elementwise. Each root is
    bracketed on [min(0, beta), max(0, beta)], solved at |beta| with its
    sign restored afterwards, and halved until the bracket ends are
    adjacent doubles, so the result is odd in ``beta`` bit for bit. A
    residual that overflows a double raises ``SaturationError``.
    """
    b = np.asarray(beta, dtype=float)
    s = cfg.node_shunt_ratio
    d = cfg.drive_ratio
    b_abs = np.abs(b)
    lo = np.zeros_like(b)
    hi = b_abs
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_EVALS):
            mid = 0.5 * (lo + hi)
            if np.all((mid == lo) | (mid == hi)):
                break
            r = np.sinh(mid) + s * mid - d * np.sinh(b_abs - mid)
            if not np.all(np.isfinite(r)):
                raise SaturationError(
                    f"node equation overflows for input arguments up to {np.max(b_abs):.4g}; "
                    "device is outside the weak-inversion model range"
                )
            below = r <= 0.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        else:
            raise SolverError(f"node bisection did not close within {_MAX_EVALS} halvings", 0.0)
    return np.copysign(0.5 * (lo + hi), b)


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
    coeff_rows: np.ndarray = field(compare=False, repr=False)  # ``coeffs`` as an array

    def node_arg(self, beta: float) -> float:
        """Interpolated node argument; evaluated at |beta|, so odd bit for bit."""
        x = abs(beta) * self.scale
        k = min(int(x), len(self.coeffs) - 1)
        u = x - k
        c0, c1, c2, c3 = self.coeffs[k]
        a = c0 + u * (c1 + u * (c2 + u * c3))
        return -a if beta < 0.0 else a

    def input_current(self, v_id: float) -> float:
        """``neuron_input_current`` from the table; |v_id| <= 0.5 V, unchecked.

        Equals max(i_q + i_q*sinh(beta - node_arg(beta)), 0) bit for bit;
        the lookup is written out because this runs on every RK4 stage.
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
        beta = self.n1 * v_id / self.two_nut
        x = np.abs(beta) * self.scale
        k = np.minimum(x.astype(np.intp), len(self.coeffs) - 1)
        u = x - k
        c0, c1, c2, c3 = self.coeff_rows[k].T
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
    against ``solve_node_args``, gives sinh(beta - alpha) within 1e-10 of
    max(1, |sinh(beta - alpha)|): within 1e-10 of ``output_quiescent`` in
    the neuron drive current, or of the half-swing where that is larger,
    since a double carries no absolute 1e-10 once sinh exceeds about 1e5.
    Past 2**16 intervals it raises ``SolverError``; an overflowing node
    equation, or a device whose half-width 0.5 V/(2*n*u_t) overflows sinh
    (whose node equation ``_solve_node_arg`` cannot solve), raises
    ``SaturationError``.
    """
    half_width = _BRACKET_V / (2.0 * cfg.dev.n * cfg.dev.u_t)
    if not half_width <= _SINH_ARG_MAX:
        raise SaturationError(
            f"node equation overflows at the half-width argument {half_width:.4g}; "
            "device is outside the weak-inversion model range"
        )
    beta_max = _input_argument(cfg, _BRACKET_V)
    n = _TABLE_MIN_INTERVALS
    nodes = np.arange(n + 1) * (beta_max / n)
    alpha = solve_node_args(cfg, nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            step = beta_max / n
            mids = np.arange(1, 2 * n, 2) * (beta_max / (2 * n))
            alpha_mid = solve_node_args(cfg, mids)
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
                raise SolverError(
                    f"drive table misses its {_TABLE_TOL:g} bound at {n} intervals", worst
                )
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
        coeff_rows=coeffs,
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
        raise SolverError(f"nonpositive small-signal gain {gm!r}", 0.0)
    return gm


def linearity_constraint_margin(cfg: TransconductorConfig, v_id: float) -> float:
    """Slack of the sufficient linearity condition at ``v_id``.

    The condition compares the normalized imbalance of the node-diode
    currents against (|b| + epsilon)/(2*|sinh b|) where b is the
    input-proportional argument; the margin is the right side minus the
    left side, so nonnegative means the sufficient condition holds. At
    v_id = 0 the right side is the (infinite) limit value.
    """
    sol = solve_operating_point(cfg, v_id)
    lhs = abs(sol.i_3b - sol.i_3a) / (sol.i_3b + sol.i_3a)
    if sol.beta == 0.0:
        return math.inf
    rhs = (abs(sol.beta) + cfg.epsilon) / (2.0 * abs(math.sinh(sol.beta)))
    return rhs - lhs


def dc_sweep(cfg: TransconductorConfig, v_grid) -> list[tuple[float, float]]:
    """Pointwise DC transfer over a sorted voltage grid.

    Returns (v_id, i_out_diff) pairs. Solver failures are re-raised with
    the offending grid voltage attached.
    """
    points: list[tuple[float, float]] = []
    previous = None
    for v in v_grid:
        if previous is not None and v < previous:
            raise ValueError(f"v_grid must be sorted, got {v!r} after {previous!r}")
        previous = v
        try:
            points.append((float(v), output_current(cfg, float(v))))
        except SolverError as exc:
            raise SolverError(f"dc_sweep failed at v_id={v!r}: {exc}", exc.residual) from exc
    return points
