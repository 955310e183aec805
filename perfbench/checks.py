"""Output checks applied to every benchmark run of the CLI.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
import re

# Spike times and trace cells are printed by the CLI as ".8e": nine
# significant digits.
_SIG_DIGITS = 9
TRACE_REL_TOL = 1e-9
_BEST_RE = re.compile(r"best objective (\S+) after (\d+) evaluations")


def same_bytes(got: bytes, want: bytes, what: str) -> list[str]:
    if got == want:
        return []
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for k, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return [f"{what}: line {k} is {g!r}, expected {w!r}"]
    return [f"{what}: {len(got_lines)} lines, expected {len(want_lines)}"]


def _last_digit(x: float) -> float:
    """One unit in the last digit the CLI prints for ``x``."""
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(x))) - (_SIG_DIGITS - 1))


def _parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    return lines[0].split(","), [[float(c) for c in line.split(",")] for line in lines[1:]]


def transient_matches(
    trace: str, spikes: str, ref_trace: str, ref_spikes: str, event_tol: float
) -> list[str]:
    """Spike count equal, spike times within ``event_tol``, trace close.

    A trace cell may differ from the reference by 1e-9 of its column's
    largest magnitude plus one unit in the ninth significant digit that the
    CLI prints, so a change that only moves that last printed digit, such as
    an interpolated drive, still passes.
    """
    problems = []
    got_t = [float(s) for s in spikes.split()]
    want_t = [float(s) for s in ref_spikes.split()]
    if len(got_t) != len(want_t):
        problems.append(f"{len(got_t)} spikes, expected {len(want_t)}")
    else:
        for k, (g, w) in enumerate(zip(got_t, want_t)):
            if abs(g - w) > event_tol:
                problems.append(f"spike {k} at {g!r} s, expected {w!r} +/- {event_tol!r}")
                break

    header, rows = _parse_csv(trace)
    ref_header, ref_rows = _parse_csv(ref_trace)
    if header != ref_header or len(rows) != len(ref_rows):
        problems.append(
            f"trace is {len(rows)} rows of {header}, expected {len(ref_rows)} of {ref_header}"
        )
        return problems
    scale = [max(abs(r[c]) for r in ref_rows) for c in range(len(ref_header))]
    for k, (row, ref) in enumerate(zip(rows, ref_rows), start=2):
        for c, (g, w) in enumerate(zip(row, ref)):
            if abs(g - w) > TRACE_REL_TOL * scale[c] + _last_digit(w):
                problems.append(f"trace line {k} column {header[c]}: {g!r}, expected {w!r}")
                return problems
    return problems


def tune_invariants(trace: str, stdout: str, budget: int) -> list[str]:
    """Row count equals the budget and the reported best is the trace minimum."""
    header, rows = _parse_csv(trace)
    if header[-1] != "objective":
        return [f"tune trace header {header} does not end in 'objective'"]
    problems = []
    if len(rows) != budget:
        problems.append(f"tune trace has {len(rows)} evaluations, expected {budget}")
    if not rows:
        return problems
    found = _BEST_RE.search(stdout)
    best = min(r[-1] for r in rows)
    if found is None:
        problems.append(f"no best objective in the tune summary {stdout!r}")
    elif found.group(1) != format(best, ".6f") or int(found.group(2)) != len(rows):
        problems.append(
            f"summary reports best {found.group(1)} after {found.group(2)} evaluations, "
            f"trace minimum is {best:.6f} over {len(rows)}"
        )
    return problems
