"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Tiny runs of every workload, output checks fed deliberately wrong
outputs, repeatable traced counts, and agreement with BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ospsim import apps, harness, qsim  # noqa: E402

TINY_S = 0.05


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_ends_without_failures(name):
    cpus = os.sched_getaffinity(0)
    result = run.run(name, seed=3, seconds=TINY_S, trace=False, probes=1)
    assert os.sched_getaffinity(0) == cpus  # wire runs unpin at the end
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= workloads.WORKLOADS[name].batch
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_an_operation_that_raises_makes_the_run_incorrect(monkeypatch):
    plain = workloads.Poq.run_op
    calls = []

    def raise_once(self):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("deliberate failure")
        return plain(self)

    monkeypatch.setattr(workloads.Poq, "run_op", raise_once)
    result = run.run("poq", seed=3, seconds=TINY_S, trace=False, probes=1)
    assert result["failed"] == 1
    assert result["correct"] is False


@pytest.mark.parametrize("name", ["poq", "cvqc-delegated", "wire-ot"])
def test_traced_counts_repeat_for_one_seed(name):
    first = run.run(name, seed=5, seconds=TINY_S, trace=True)
    second = run.run(name, seed=5, seconds=TINY_S, trace=True)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {n for n, _ in run.PER_LAYER}
    counts = [{k: m["value"] for k, m in r["metrics"].items()
               if m["unit"] in ("count", "B", "B-computed", "qubits")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    assert not hasattr(qsim.apply_gate, "__wrapped__")  # tracer removed
    assert not hasattr(qsim.DenseState.__init__, "__wrapped__")


def test_rate_check_rejects_a_rate_outside_its_bound():
    p = checks.HONEST_POQ
    assert checks.rate_within(8536, 10000, p)
    assert not checks.rate_within(8300, 10000, p)
    assert not checks.rate_within(8800, 10000, p)
    expected = checks.energy_game_rate(0.2, -1.0)
    assert abs(expected - 0.94142) < 1e-5
    assert not checks.rate_within(9200, 10000, expected)


def test_ground_energies_of_both_hamiltonians():
    assert checks.ground_energy(*workloads.XX_ZZ) == pytest.approx(-1.0)
    assert checks.ground_energy(*workloads.CHAIN) == pytest.approx(-0.5 ** 0.5)


def test_poq_round_check_rejects_a_flipped_accept_flag():
    rnd = apps.PoqRound(r=1, s=0, challenge=1, answer=1, accept=True)
    assert checks.poq_round_ok(rnd)
    rnd.accept = False
    assert not checks.poq_round_ok(rnd)


def test_wire_check_rejects_one_flipped_transcript_byte():
    w = workloads.WirePoq(seed=9)
    w.setup()
    try:
        w.begin(0)
        outs = [w.run_op() for _ in range(w.batch)]
        before = outs[0].to_bytes()
        outs[0].messages[0].seq = 1
        after = outs[0].to_bytes()
        assert len(before) == len(after)
        assert sum(a != b for a, b in zip(before, after)) == 1
        assert w.check_batch(outs) == 1
    finally:
        w.close()


def test_ot_check_rejects_a_wrong_receiver_value():
    config = {"lam": 8, "variant": "search", "b": 1}
    local = harness.run_local("ot", 4, config)
    client = local["client"].outcome["result"]
    server = local["server"].outcome["result"]
    assert checks.ot_value_ok(client, server)
    wrong = dict(client, value=tuple(v ^ (i == 0)
                                     for i, v in enumerate(client["value"])))
    assert not checks.ot_value_ok(wrong, server)
    assert not checks.ot_value_ok(dict(client, b=0), server)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poq", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
