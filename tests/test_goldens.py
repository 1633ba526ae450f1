"""Golden-file regression tests for the experiment pipeline.

Every experiment run is a pure function of its configuration and root
seed, so the full output of a smoke-scale run can be pinned as a checked
in JSON golden: any change to the simulation kernel, the schemes, the
seed derivation, or the metrics plumbing that moves a single number
fails here first, with a readable diff.

When a change *intentionally* moves the numbers (and the diff has been
reviewed), regenerate with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

The goldens are recorded with the serial engine; because the parallel
engine is bit-identical by construction, the same goldens must hold
under any ``REPRO_WORKERS`` setting — CI's workers=2 matrix leg proves
it on every push.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib

from repro.engine import Simulation, SimulationConfig
from repro.engine.multikey import MultiKeySimulation
from repro.experiments import get_experiment
from repro.workload.sessions import SessionPlan

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def clean(value):
    """JSON-ready ``value`` with every float pinned to its exact bits."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        # Full precision: the golden pins bit-identical floats.
        return float.hex(value)
    if isinstance(value, dict):
        return {str(k): clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [clean(v) for v in value]
    if dataclasses.is_dataclass(value):
        return clean(dataclasses.asdict(value))
    return value


def canonical(result) -> str:
    """Stable JSON text of an ExperimentResult's observable output."""
    record = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "rows": [clean(dict(row)) for row in result.rows],
        "shape_checks": [
            {"claim": check.claim, "passed": check.passed}
            for check in result.shape_checks
        ],
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def canonical_run(result) -> str:
    """Stable JSON text of one SimulationResult's simulated statistics.

    The config (the input) and the host wall time are left out.
    """
    record = {
        field.name: clean(getattr(result, field.name))
        for field in dataclasses.fields(result)
        if field.name not in ("config", "wall_seconds")
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def check_golden(result, name: str, update: bool, render=canonical) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    text = render(result)
    if update or not path.exists():
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return
    expected = path.read_text(encoding="utf-8")
    if text != expected:
        # Flush the protocol flight recorder (when one is armed, e.g.
        # CI's REPRO_FLIGHT leg) so the drifted run leaves a post-mortem.
        from repro import flightrec

        flightrec.dump_anomaly(f"golden-mismatch-{name}")
    assert text == expected, (
        f"{name} output drifted from its golden; if the change is "
        f"intended, rerun with --update-goldens and review the diff of "
        f"{path}"
    )


class TestGoldens:
    def test_figure4_smoke_matches_golden(self, update_goldens):
        result = get_experiment("figure4")(
            scale="smoke", replications=1, seed=1, rates=(1.0, 10.0)
        )
        check_golden(result, "figure4_smoke", update_goldens)

    def test_resilience_smoke_matches_golden(self, update_goldens):
        result = get_experiment("resilience")(
            scale="smoke", replications=1, seed=1
        )
        check_golden(result, "resilience_smoke", update_goldens)

    def test_partition_smoke_matches_golden(self, update_goldens):
        result = get_experiment("partition")(
            scale="smoke", replications=1, seed=1
        )
        check_golden(result, "partition_smoke", update_goldens)

    def test_overload_smoke_matches_golden(self, update_goldens):
        result = get_experiment("overload")(
            scale="smoke", replications=1, seed=1
        )
        check_golden(result, "overload_smoke", update_goldens)

    def test_adaptive_smoke_matches_golden(self, update_goldens):
        result = get_experiment("adaptive")(
            scale="smoke", replications=1, seed=1
        )
        check_golden(result, "adaptive_smoke", update_goldens)

    def test_fluctuation_smoke_matches_golden(self, update_goldens):
        result = get_experiment("fluctuation")(
            scale="smoke", replications=1, seed=1
        )
        check_golden(result, "fluctuation_smoke", update_goldens)

    def test_scale_smoke_matches_golden(self, update_goldens):
        # The scale rows carry no wall-clock or RSS numbers (those live
        # in BENCH_scale.json), so this golden is machine-independent
        # and pins the sharded engine bit-for-bit — including its
        # worker-count invariance, via CI's REPRO_WORKERS matrix.
        result = get_experiment("scale")(
            scale="smoke", replications=1, seed=1
        )
        check_golden(result, "scale_smoke", update_goldens)

    def test_figure8_smoke_matches_golden(self, update_goldens):
        # Pareto inter-arrival gaps: the arrival branch figure4 leaves
        # unpinned.
        result = get_experiment("figure8")(
            scale="smoke", replications=1, seed=1, rates=(1.0, 10.0)
        )
        check_golden(result, "figure8_smoke", update_goldens)

    def test_diurnal_run_matches_golden(self, update_goldens):
        # Session-driven diurnal modulation of the arrival gaps.
        config = SimulationConfig(
            scheme="dup",
            num_nodes=128,
            query_rate=2.0,
            duration=4 * 3600.0,
            warmup=1800.0,
            seed=5,
            sessions=SessionPlan(diurnal_amplitude=0.6, diurnal_period=3600.0),
        )
        result = Simulation(config).run()
        check_golden(result, "diurnal_run", update_goldens, canonical_run)

    def test_multikey_run_matches_golden(self, update_goldens):
        # The unsharded multi-key engine's own query loop.
        config = SimulationConfig(
            scheme="dup",
            topology="chord",
            num_nodes=96,
            query_rate=4.0,
            duration=4 * 3600.0,
            warmup=3600.0,
            seed=8,
        )
        result = MultiKeySimulation(config, num_keys=6).run()
        check_golden(result, "multikey_run", update_goldens, canonical_run)
