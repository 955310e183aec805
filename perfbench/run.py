"""Benchmark of the encoder-sim CLI: end-to-end and per-layer host time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, both modes

Run from the root of a checkout; ``BENCHMARK.json`` there names the
workloads and metrics. Each workload is one CLI experiment, run again and
again as a fresh process (``probe.py``) until S seconds have passed, with
worker processes pinned to one through ``ENCODER_SIM_JOBS=1``. Every run
writes its output into a temporary directory inside the checkout, which is
removed afterwards, and every output is checked (``checks.py``); a run that
exits nonzero or prints a wrong result counts as failed.

``--trace 0`` reports the end-to-end metrics, each the median over the
runs: ``setup_s`` (launch to experiment start), ``run_s`` (experiment start
to output written), ``cpu_s`` (CPU over the same interval) and
``peak_rss_mb``. ``--trace 1`` reports per-layer metrics instead: per-call
costs from ``layers.py`` and, from runs that alternate untraced and traced
(``tracer.py``), each module's self time and call count and the tracing
overhead. The last line of output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import LAYERS, clock  # noqa: E402

DEFAULT_SEED = 1  # the shipped tune.seed; outputs at this seed have references
RUN_TIMEOUT_S = 60.0
TUNE_IREF_BOUNDS = ("2e-9", "27e-9")  # the paper's i_ref tuning range, A


@dataclass
class Workload:
    command: str
    config: str


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    "triangle_transient": Workload("transient", "configs/triangle_1na.ini"),
    "vf_sweep": Workload("vf-curve", "configs/default.ini"),
    "tune_iref": Workload("tune", "configs/default.ini"),
}


def write_config(name: str, seed: int, tmp: Path) -> Path:
    """The INI a workload runs; ``tune_iref`` derives its own from default.ini."""
    source = ROOT / WORKLOADS[name].config
    if name != "tune_iref":
        return source
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    cp.read(source, encoding="utf-8")
    # --set cannot add the undeclared i_ref bound keys, so write a new file.
    cp["tune"]["variables"] = "i_ref, i_g, i_th"
    cp["tune"]["i_ref_lo_a"], cp["tune"]["i_ref_hi_a"] = TUNE_IREF_BOUNDS
    cp["tune"]["seed"] = str(seed)
    path = tmp / f"tune_iref_seed{seed}.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return path


@dataclass
class Outputs:
    csv: bytes
    spikes: bytes | None
    stdout: str


def check_outputs(name: str, seed: int, config: Path, got: Outputs) -> list[str]:
    if name == "vf_sweep":
        golden = (ROOT / "tests" / "golden" / "vf_curve_default.csv").read_bytes()
        return checks.same_bytes(got.csv, golden, "vf-curve output")
    if name == "triangle_transient":
        meta = json.loads((REFS / "triangle_transient.json").read_text(encoding="utf-8"))
        return checks.transient_matches(
            got.csv.decode("ascii"),
            (got.spikes or b"").decode("ascii"),
            (REFS / "triangle_transient.csv").read_text(encoding="ascii"),
            (REFS / "triangle_transient.spikes").read_text(encoding="ascii"),
            meta["event_tol_s"],
        )
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    cp.read(config, encoding="utf-8")
    budget = cp.getint("tune", "budget")
    problems = checks.tune_invariants(got.csv.decode("ascii"), got.stdout, budget)
    if seed == DEFAULT_SEED:
        want = (REFS / f"tune_iref_seed{DEFAULT_SEED}.csv").read_bytes()
        problems += checks.same_bytes(got.csv, want, "tune output")
    return problems


@dataclass
class Run:
    """One CLI run: timings and outputs if it completed, and what was wrong."""

    problems: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    trace: dict[str, float] | None = None
    outputs: Outputs | None = None


def launch(name: str, config: Path, run_dir: Path, traced: bool) -> Run:
    """One CLI run in a fresh process, timed by ``probe.py``."""
    run_dir.mkdir()
    out = run_dir / "out.csv"
    result = run_dir / "probe.json"
    argv = [
        sys.executable,
        str(HERE / "probe.py"),
        str(result),
        "--trace" if traced else "--plain",
        "--",
        WORKLOADS[name].command,
        "--config",
        str(config),
        "--out",
        str(out),
    ]
    env = dict(os.environ, ENCODER_SIM_JOBS="1")
    with open(run_dir / "stdout", "wb") as so, open(run_dir / "stderr", "wb") as se:
        launched = clock()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, stdout=so, stderr=se, timeout=RUN_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return Run(problems=[f"timed out after {RUN_TIMEOUT_S} s"])
    stderr = (run_dir / "stderr").read_text(encoding="utf-8", errors="replace").strip()
    if proc.returncode != 0 or not result.exists():
        return Run(problems=[f"probe exited {proc.returncode}: {stderr[-400:]}"])
    probe = json.loads(result.read_text(encoding="utf-8"))
    if probe["exit_code"] != 0 or probe["start"] is None:
        return Run(problems=[f"cli exited {probe['exit_code']}: {stderr[-400:]}"])
    spikes = out.with_suffix(".spikes")
    return Run(
        setup_s=probe["start"] - launched,
        run_s=probe["end"] - probe["start"],
        cpu_s=probe["cpu_s"],
        peak_rss_mb=probe["peak_rss_mb"],
        trace=probe.get("trace"),
        outputs=Outputs(
            csv=out.read_bytes(),
            spikes=spikes.read_bytes() if spikes.exists() else None,
            stdout=(run_dir / "stdout").read_text(encoding="utf-8", errors="replace"),
        ),
    )


class Session:
    """Runs of one workload; checks each and counts those that fail.

    Timed runs use the shipped tune seed: the work of ``tune_iref`` depends
    on the tune seed (3.2 to 4.3 s over ten seeds), which would swamp the
    benchmark's bounds. The untimed warm-up run uses the session's seed.
    """

    def __init__(self, name: str, seed: int, tmp: Path) -> None:
        self.name, self.seed, self.tmp = name, seed, tmp
        self.configs = {s: write_config(name, s, tmp) for s in {seed, DEFAULT_SEED}}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, tuple] = {}

    def run(self, traced: bool, warm_up: bool = False) -> Run | None:
        """One checked run; None if it did not complete, so has no timings."""
        self.attempted += 1
        seed = self.seed if warm_up else DEFAULT_SEED
        config = self.configs[seed]
        run = launch(self.name, config, self.tmp / f"run{self.attempted}", traced)
        if run.outputs is not None:
            run.problems = check_outputs(self.name, seed, config, run.outputs)
            files = (run.outputs.csv, run.outputs.spikes)
            if self.first.setdefault(seed, files) != files:
                run.problems.append("output differs from the first run at this seed")
        shutil.rmtree(self.tmp / f"run{self.attempted}")
        if run.problems:
            self.failed += 1
            self.problems += [f"run {self.attempted}: {p}" for p in run.problems]
        return run if run.outputs is not None else None


def end_to_end(session: Session, seconds: float) -> dict[str, float]:
    session.run(traced=False, warm_up=True)  # file cache, bytecode, allocator
    runs = []
    t0 = clock()
    while clock() - t0 < seconds or not runs:
        run = session.run(traced=False)
        if run is not None:
            runs.append(run)
        elif session.attempted > 3 and not runs:
            break
    if not runs:
        return {}
    return {
        key: statistics.median(getattr(r, key) for r in runs)
        for key in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")
    }


def per_layer(session: Session, seconds: float) -> dict[str, float]:
    t0 = clock()
    proc = subprocess.run(
        [sys.executable, str(HERE / "layers.py"), str(session.seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    session.attempted += 1
    if proc.returncode != 0:
        session.failed += 1
        session.problems.append(f"layers: exited {proc.returncode}: {proc.stderr[-400:]}")
        return {}
    layers = json.loads(proc.stdout.splitlines()[-1])
    if layers["failures"]:
        session.failed += 1
        session.problems += [f"layers: {p}" for p in layers["failures"]]
    metrics = dict(layers["metrics"])

    session.run(traced=False, warm_up=True)
    plain, traced = [], []
    while clock() - t0 < seconds or not traced:
        for kind in (plain, traced):
            run = session.run(traced=kind is traced)
            if run is not None:
                kind.append(run)
        if session.attempted > 6 and not (plain and traced):
            return {}
    for r in traced:
        attributed = sum(r.trace[f"{layer}.self_s"] for layer in LAYERS)
        if abs(attributed - r.trace["total_s"]) > 0.01 * r.trace["total_s"]:
            session.failed += 1
            session.problems.append(
                f"trace: self times sum to {attributed} s of a {r.trace['total_s']} s run"
            )
    for layer in LAYERS:
        for key in (f"{layer}.self_s", f"{layer}.calls"):
            metrics[key] = statistics.median(r.trace[key] for r in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.run_s for r in traced) / statistics.median(r.run_s for r in plain) - 1.0
    )
    return metrics


def measure(
    name: str, seed: int, seconds: float, trace: bool, spec: dict
) -> tuple[dict, list[str]]:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        session = Session(name, seed, tmp)
        found = (per_layer if trace else end_to_end)(session, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another benchmark process still uses it
    wanted = spec["per_layer" if trace else "end_to_end"]
    if any(m["name"] not in found for m in wanted):
        for problem in session.problems[:20]:
            print(f"{name}: {problem}", file=sys.stderr)
        raise SystemExit(f"{name}: no run completed, nothing measured")
    return {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted},
    }, session.problems


def report(name: str, result: dict, problems: list[str]) -> None:
    for problem in problems[:20]:
        print(f"{name}: FAILED {problem}")
    for metric, m in result["metrics"].items():
        print(f"{name:<20} {metric:<36} {m['value']:>14.6g} {m['unit']}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"{name:<20} {'fail_frac':<36} {failed / attempted:>14.6g} ({failed}/{attempted} runs)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [
        ROOT / "BENCHMARK.json",
        ROOT / "src" / "encoder_sim" / "cli.py",
        ROOT / "tests" / "golden" / "vf_curve_default.csv",
        *dict.fromkeys(ROOT / w.config for w in WORKLOADS.values()),
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"not a complete encoder-sim checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seed = args.seed % 2**32

    if args.workload != "all":
        result, problems = measure(args.workload, seed, seconds, bool(args.trace), spec)
        report(args.workload, result, problems)
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        for trace in (False, True):
            result, problems = measure(name, seed, seconds, trace, spec)
            report(name, result, problems)
            results[f"{name}/trace{int(trace)}"] = result
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
