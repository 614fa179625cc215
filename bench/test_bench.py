"""Tests of the benchmark itself (not of syncmonoid).

    python3 -m pytest bench/test_bench.py

They use mc_k1, the cheapest workload; each test takes a few seconds.
"""

import dataclasses
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS

CLI = run.import_program()
MC_K1 = WORKLOADS["mc_k1"]


def _traced():
    return run.measure(CLI, MC_K1, MC_K1.default_seed, 0, trace=True)


def test_counts_repeat_exactly_across_traced_runs():
    first, second = _traced(), _traced()
    counts = [
        {k: v for k, v in result["metrics"].items() if tracing.metric_units()[k] == "count"}
        for result in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["rng.substream_calls"] == MC_K1.items
    assert counts[0]["experiments.trials"] == MC_K1.items
    assert not first["notes"] and not second["notes"]


def test_corrupted_golden_counts_as_failure(tmp_path, monkeypatch):
    for path in run.GOLDEN_DIR.iterdir():
        shutil.copy(path, tmp_path / path.name)
    golden = tmp_path / f"mc_k1.seed{MC_K1.default_seed}.out"
    golden.write_text(golden.read_text().replace('"successes": ', '"successes": 1'))
    monkeypatch.setattr(run, "GOLDEN_DIR", tmp_path)
    result = run.measure(CLI, MC_K1, MC_K1.default_seed, 0, trace=False)
    assert [bool(p["problems"]) for p in result["passes"]] == [True] * run.MIN_PASSES
    assert "output differs from" in result["passes"][0]["problems"][0]
    assert "items_per_s" not in result["metrics"]


def test_missing_golden_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "GOLDEN_DIR", tmp_path)
    # A seeded workload at its default seed, and one whose inputs do not
    # depend on the seed at any seed, must find their golden copy.
    unseeded = dataclasses.replace(MC_K1, seeded=False)
    for wl, seed in ((MC_K1, MC_K1.default_seed), (unseeded, MC_K1.default_seed + 1)):
        problems = run.run_pass(CLI, wl, seed)["problems"]
        assert len(problems) == 1 and "is missing" in problems[0]
    assert run.run_pass(CLI, MC_K1, MC_K1.default_seed + 1)["problems"] == []


def test_golden_matches_the_program():
    result = run.measure(CLI, MC_K1, MC_K1.default_seed, 0, trace=False)
    assert [p["problems"] for p in result["passes"]] == [[]] * run.MIN_PASSES
    assert len(result["setup_s_samples"]) == run.SETUP_SPAWNS


def test_missing_hook_gives_null_metrics(monkeypatch):
    import syncmonoid.experiments

    monkeypatch.delattr(syncmonoid.experiments, "_all_pairs_collapsible")
    result = _traced()
    metrics = result["metrics"]
    for name in ("experiments.fixpoint_us", "experiments.fixpoint_calls",
                 "experiments.fixpoint_share"):
        assert metrics[name] is None
    assert metrics["rng.substream_calls"] == MC_K1.items
    assert any("syncmonoid.experiments._all_pairs_collapsible" in n for n in result["notes"])
    assert not any(p["problems"] for p in result["passes"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_the_golden_output(name):
    wl = WORKLOADS[name]
    golden = run._golden_path(wl, wl.default_seed).read_text()
    outputs = golden.splitlines(keepends=True)
    if name == "mc_pairs":  # one sweep call per generator mix, four rows each
        outputs = ["".join(outputs[:4]), "".join(outputs[4:])]
    else:
        outputs = [golden]
    assert wl.check(wl.default_seed, outputs) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_k1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no syncmonoid package" in done.stderr
