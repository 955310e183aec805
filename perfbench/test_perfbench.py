"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
INTERACTIONS = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _self_times(spans, n_layers):
    layer_ids, starts, ends, parents = (list(col) for col in zip(*spans))
    return self_times(layer_ids, starts, ends, parents, n_layers)


def test_self_times_of_nested_tree_sum_to_root():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9] > d [6, 7], e [7.5, 8]
    spans = [
        (0, 0.0, 10.0, -1),
        (1, 1.0, 4.0, 0),
        (2, 2.0, 3.0, 1),
        (1, 5.0, 9.0, 0),
        (2, 6.0, 7.0, 3),
        (2, 7.5, 8.0, 3),
    ]
    self_s, calls = _self_times(spans, 3)
    assert sum(self_s) == pytest.approx(10.0)
    assert self_s == pytest.approx([3.0, 2.0 + 2.5, 1.0 + 1.0 + 0.5])
    assert calls == [1, 2, 3]


def test_overlapping_children_cover_their_parent_once():
    spans = [(0, 0.0, 10.0, -1), (1, 2.0, 6.0, 0), (1, 4.0, 12.0, 0)]
    self_s, _ = _self_times(spans, 2)
    assert self_s[0] == pytest.approx(10.0 - 8.0)


def test_tracer_charges_defining_module_and_restores():
    from encoder_sim import cli, neuron

    original = vars(neuron)["drain_current"]
    tracer = Tracer()
    assert tracer.install() > 0
    assert neuron.drain_current is not original
    try:
        cp = cli.load_config(ROOT / "configs" / "triangle_1na.ini")
        tracer.root("cli", cli.build_encoder, cp)
    finally:
        tracer.restore()
    assert neuron.drain_current is original
    summary = tracer.summary()
    # the voltage-domain bias block maps three gate voltages through drain_current
    assert summary["device_model.calls"] >= 3
    assert summary["neuron.calls"] >= 1
    total = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(summary["total_s"], rel=1e-9)


def test_traced_probe_covers_every_layer(tmp_path):
    result = tmp_path / "probe.json"
    subprocess.run(
        [
            sys.executable,
            str(HERE / "probe.py"),
            str(result),
            "--trace",
            "--",
            "dc-sweep",
            "--config",
            str(ROOT / "configs" / "default.ini"),
            "--out",
            str(tmp_path / "out.csv"),
        ],
        check=True,
        timeout=60,
    )
    probe = json.loads(result.read_text(encoding="utf-8"))
    assert probe["exit_code"] == 0 and probe["start"] < probe["end"]
    trace = probe["trace"]
    for layer in LAYERS:
        assert trace[f"{layer}.calls"] >= 1 and trace[f"{layer}.self_s"] > 0.0, layer
    total = sum(trace[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(trace["total_s"], rel=1e-9)


def _digit_changed(text: str) -> str:
    k = text.index("e", text.index("\n")) - 1  # last mantissa digit on line 2
    return text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1 :]


def test_golden_with_one_digit_changed_is_rejected():
    golden = (ROOT / "tests" / "golden" / "vf_curve_default.csv").read_bytes()
    assert checks.same_bytes(golden, golden, "vf") == []
    changed = _digit_changed(golden.decode("ascii")).encode("ascii")
    assert checks.same_bytes(changed, golden, "vf")


def _triangle_refs():
    meta = json.loads((run.REFS / "triangle_transient.json").read_text(encoding="utf-8"))
    trace = (run.REFS / "triangle_transient.csv").read_text(encoding="ascii")
    spikes = (run.REFS / "triangle_transient.spikes").read_text(encoding="ascii")
    return trace, spikes, meta["event_tol_s"]


def test_transient_check_accepts_reference_and_rejects_a_dropped_spike():
    trace, spikes, tol = _triangle_refs()
    assert checks.transient_matches(trace, spikes, trace, spikes, tol) == []
    dropped = "".join(spikes.splitlines(keepends=True)[1:])
    assert checks.transient_matches(trace, dropped, trace, spikes, tol)


def test_transient_check_tolerates_last_digit_but_not_more():
    trace, spikes, tol = _triangle_refs()
    lines = trace.splitlines(keepends=True)
    cells = lines[100].rstrip("\n").split(",")
    value = float(cells[3])
    assert value != 0.0

    def with_cell(x: float) -> str:
        row = ",".join([*cells[:3], format(x, ".8e")]) + "\n"
        return "".join([*lines[:100], row, *lines[101:]])

    last_digit = 10.0 ** (int(cells[3].split("e")[1]) - 8)
    assert checks.transient_matches(with_cell(value + last_digit), spikes, trace, spikes, tol) == []
    assert checks.transient_matches(with_cell(value * 1.001), spikes, trace, spikes, tol)
    late = spikes.replace(spikes.split()[5], format(float(spikes.split()[5]) + 3 * tol, ".8e"))
    assert checks.transient_matches(trace, late, trace, spikes, tol)


def test_tune_invariants():
    rows = "evaluation,i_g,objective\n0,1e-11,3.0e-01\n1,2e-11,1.5e-01\n"
    good = "tune: best objective 0.150000 after 2 evaluations at i_g=2e-11 -> out.csv\n"
    assert checks.tune_invariants(rows, good, 2) == []
    assert checks.tune_invariants(rows, good, 3)
    assert checks.tune_invariants(rows, good.replace("0.150000", "0.300000"), 2)
    reference = (run.REFS / f"tune_iref_seed{run.DEFAULT_SEED}.csv").read_text(encoding="ascii")
    changed = _digit_changed(reference).encode("ascii")
    assert checks.same_bytes(changed, reference.encode("ascii"), "tune")


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_every_metric_names_what_it_should_move():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(run.WORKLOADS)
    assert set(INTERACTIONS) == {m["name"] for m in SPEC["per_layer"]}
    for name, entry in INTERACTIONS.items():
        assert entry["layer"] in (*LAYERS, "trace"), name
        for target in entry["moves"] + entry.get("holds", []):
            metric, _, workload = target.partition("@")
            assert metric in e2e and workload in workloads, (name, target)
