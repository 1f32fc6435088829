"""Tests of the benchmark itself: seeded inputs, output checks, metric
names.  Run from the checkout root: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import design_sweep, gm_stream, inputs, serve_mix  # noqa: E402
from perfbench.measure import END_TO_END, PER_LAYER, Outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("generate", [
    lambda seed: inputs.gm_plans(seed, 3),
    lambda seed: inputs.sweep_batches(seed, 3),
    lambda seed: inputs.serve_keys(seed, 20),
    lambda seed: inputs.op_sequence(seed, 50, 100),
])
def test_one_seed_gives_the_same_inputs_and_two_seeds_differ(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_new_inputs_come_in_index_order_and_half_repeat():
    sequence = inputs.op_sequence(3, 1000, 2000)
    firsts = []
    for index in sequence:
        if index not in firsts:
            firsts.append(index)
    assert firsts == list(range(len(firsts)))
    repeats = len(sequence) - len(firsts)
    assert 0.4 < repeats / len(sequence) < 0.6


def test_sweep_points_are_valid_and_batches_keep_their_ce_counts():
    from repro.builder import MachineSpec

    for batch in inputs.sweep_batches(11, 20):
        counts = [f["clusters"] * f["ces_per_cluster"] for f in batch]
        assert counts == [4, 8, 12, 16, 24, 32]
        for fields in batch:
            MachineSpec.from_dict(dict(fields))


def test_serve_keys_are_distinct():
    keys = inputs.serve_keys(2, 50)
    assert len({(e, json.dumps(s, sort_keys=True)) for e, s in keys}) == len(keys)


# -- output checks count corrupted outputs as failures ---------------------------


@pytest.fixture(scope="module")
def gm_state():
    return gm_stream.State(0)


def test_gm_stream_check_passes_a_true_run_and_fails_a_corrupted_one(gm_state):
    outcome, digests = Outcome(), {}
    machine, end = gm_stream._run_op(gm_state, 0)
    gm_stream._check(gm_state, 0, machine, end, outcome, digests)
    assert outcome.failed == 0

    machine, end = gm_stream._run_op(gm_state, 0)
    gm_stream._check(gm_state, 0, machine, end + 1, outcome, digests)
    assert outcome.failed == 1  # a repeat that disagrees with the first run

    machine, end = gm_stream._run_op(gm_state, 0)
    machine.all_ces[3].flops += 1.0
    gm_stream._check(gm_state, 0, machine, end, outcome, digests)
    assert outcome.failed == 2  # flops differ from the plan


def test_design_sweep_check_fails_corrupted_artifacts():
    state = design_sweep.State(0)
    artifact = state.run_sweep(state.batches[0][:0], jobs=1)  # no points
    outcome = Outcome()
    design_sweep._check(state, 0, artifact, outcome, {})
    assert outcome.failed == 1

    good = {"schema": "cedar-sweep/v1",
            "points": [{"spec": {}, "metrics": {"cycles": 1}}] * 6}
    digests = {}
    design_sweep._check(state, 0, good, outcome, digests)
    assert outcome.failed == 1
    changed = json.loads(json.dumps(good))
    changed["points"][2]["metrics"]["cycles"] = 2
    design_sweep._check(state, 0, changed, outcome, digests)
    assert outcome.failed == 2
    design_sweep._check(state, 0, dict(good, schema="cedar-sweep/v0"), outcome, {})
    assert outcome.failed == 3


class _FakeClient:
    """Answers every request with a body that changes on the third call."""

    def __init__(self):
        self.calls = 0

    def submit(self, experiment, config=None):
        return {"job": {"id": "j1", "state": "done"}, "cache_status": "hit"}

    def result(self, job_id):
        self.calls += 1
        return (b"corrupted" if self.calls == 3 else b"body"), "hit"


def test_serve_mix_counts_a_repeat_with_different_bytes_as_failed():
    class State:
        keys = [("table6", None)]
        sequence = [0, 0, 0, 0]
        server = type("Server", (), {"client": _FakeClient()})()

    loop = serve_mix._Loop(State(), seconds=60.0)
    loop.run()
    assert loop.outcome.attempted == 4
    assert loop.outcome.failed == 1


# -- metric names and the printed report ------------------------------------------


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    for name, unit, _better in END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name) and unit


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_every_metric_with_its_unit(trace):
    result = _run("--workload", "gm-stream", "--seed", "0", "--seconds", "1",
                  "--trace", trace)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.strip().splitlines()
    document = json.loads(lines[-1])
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] and document["failed"] == 0
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert list(document["metrics"]) == [name for name, _u, _b in expected]
    for name, unit, _better in expected:
        assert document["metrics"][name]["unit"] == unit
        assert any(
            re.match(rf"\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+\(n=\d+\)", line)
            for line in lines
        ), name


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("--workload", "gm-stream", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert result.returncode != 0
    assert result.stdout == ""
