"""The bench's per-layer timings run against the package as it stands.

``perfbench/layers.py`` calls library functions that no command calls, so
a change under ``src/`` that breaks one of them shows here, in one cut-down
round, rather than only in a traced bench run.
"""

import importlib.util
import json
import sys
from pathlib import Path

from encoder_sim.cli import build_encoder, load_config
from encoder_sim.sim_engine import default_solver_config

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "perfbench"


def test_every_layer_timing_runs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # layers.py adds src/ to it
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    one_round = layers._median_per_unit
    monkeypatch.setattr(layers, "N_SCALAR", 50)
    monkeypatch.setattr(layers, "_median_per_unit", lambda work, rounds: one_round(work, 1))
    metrics, failures = layers.measure(1)
    assert failures == []
    # the traced layers' self times and call counts come from run.py's tracer
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    timed = {
        m["name"]
        for m in declared
        if not m["name"].endswith((".self_s", ".calls")) and m["name"] != "trace.overhead_frac"
    }
    assert set(metrics) == timed
    # run.py checks the triangle transient's spikes to the event tolerance
    # recorded with its reference
    meta = json.loads((BENCH / "refs" / "triangle_transient.json").read_text(encoding="utf-8"))
    enc = build_encoder(load_config(REPO / "configs" / "triangle_1na.ini"))
    assert default_solver_config(enc.neuron).event_tol == meta["event_tol_s"]
