"""Tests of the benchmark itself.

Run with ``python -m pytest perfbench`` from the repository root (about a
minute: every workload runs at its benchmark size).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402

run.load_program()

import workloads  # noqa: E402
from repro.engine.multikey import run_scale  # noqa: E402

REFERENCE = run.load_reference()


def test_serial_shards_equal_run_scale():
    (config,) = workloads.multikey_scale(run.DEFAULT_SEED)
    serial = workloads.execute("multikey-scale", run.DEFAULT_SEED)
    pooled = run_scale(
        config,
        num_keys=workloads.SCALE_KEYS,
        key_zipf_theta=workloads.SCALE_KEY_THETA,
        workers=1,
    )
    assert serial["fingerprint"] == [workloads.fingerprint(pooled)]


def test_two_runs_give_identical_fingerprints():
    first = workloads.execute("churn-control", run.HELD_OUT_SEED)
    second = workloads.execute("churn-control", run.HELD_OUT_SEED)
    assert first["fingerprint"] == second["fingerprint"]
    assert first["fingerprint"] == REFERENCE["churn-control"][
        str(run.HELD_OUT_SEED)
    ]


def test_setup_only_builds_what_a_repetition_sets_up():
    built = run.run_setup("churn-control", run.DEFAULT_SEED)["setup_s"]
    assert 0 < built < run.run_repetition(
        "churn-control", run.DEFAULT_SEED, traced=False
    )["wall_s"]


@pytest.fixture(scope="module")
def traced():
    """One traced child run per workload at the default seed."""
    return {
        name: run.run_repetition(name, run.DEFAULT_SEED, traced=True)
        for name in run.WORKLOADS
    }


def test_traced_run_is_observer_only(traced):
    for name, outcome in traced.items():
        assert outcome["fingerprint"] == REFERENCE[name][
            str(run.DEFAULT_SEED)
        ], name


def test_traced_run_reports_every_layer_metric(traced):
    derived = {"trace.overhead", "engine.shard_s_max"}
    for outcome in traced.values():
        assert set(outcome["layers"]) == set(run.PER_LAYER) - derived
        shares = [
            value for key, value in outcome["layers"].items()
            if key.endswith("_share")
        ]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)


def test_workloads_sit_in_their_regimes(traced):
    hot = traced["paper-hot"]["layers"]
    assert hot["index.cache_hit_ratio"] >= 0.9
    assert hot["net.sends_per_query"] < 0.5
    churn = traced["churn-control"]["layers"]
    assert churn["net.retry_ratio"] > 0
    assert churn["core.repairs"] > 0
    scale = traced["multikey-scale"]["layers"]
    assert scale["net.sends_per_query"] > 1
    assert scale["index.sweeps"] > 0


def test_non_default_flags_are_refused(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BATCH", "0")
    assert run.main(["--workload", "paper-hot", "--seconds", "1"]) == 2
    assert "refusing" in capsys.readouterr().err


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
