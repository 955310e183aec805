"""Record the reference outputs the benchmark checks runs against.

    python3 perfbench/record_refs.py

Writes ``refs/triangle_transient.{csv,spikes,json}`` and
``refs/tune_iref_seed1.csv`` from one run of each workload at the default
seed. Run it only at a commit whose outputs are known to be right; the
``vf_sweep`` reference is the repository's own golden file.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

from encoder_sim.cli import build_encoder, load_config  # noqa: E402
from encoder_sim.sim_engine import default_solver_config  # noqa: E402


def main() -> int:
    run.REFS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.ROOT))
    try:
        for name, ref in (
            ("triangle_transient", "triangle_transient"),
            ("tune_iref", f"tune_iref_seed{run.DEFAULT_SEED}"),
        ):
            config = run.write_config(name, run.DEFAULT_SEED, tmp)
            result = run.launch(name, config, tmp / name, traced=False)
            if result.outputs is None:
                raise SystemExit(f"{name}: {result.problems}")
            (run.REFS / f"{ref}.csv").write_bytes(result.outputs.csv)
            if result.outputs.spikes is not None:
                (run.REFS / f"{ref}.spikes").write_bytes(result.outputs.spikes)
    finally:
        shutil.rmtree(tmp)
    # The triangle config has no [solver] section, so the CLI runs the default.
    enc = build_encoder(load_config(run.ROOT / run.WORKLOADS["triangle_transient"].config))
    meta = {"event_tol_s": default_solver_config(enc.neuron).event_tol}
    (run.REFS / "triangle_transient.json").write_text(json.dumps(meta) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
