"""The repository's end-to-end benchmark.

Usage::

    python3 perfbench/run.py --workload paper-hot --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload churn-control --trace 1

Each repetition runs the whole workload in a fresh process, forked
from this one after the simulator is imported, so set-up time belongs
to that repetition alone.  Peak RSS is counted from the RSS the process
starts with (the imported simulator), so it is the workload's own
memory.  After each repetition, :data:`SETUPS_PER_REPETITION` more fresh
processes only build the workload's simulations, so ``setup_s`` is a
median over many samples.  Repetitions continue until ``--seconds`` is
spent (at least :data:`MIN_REPS`, and none that would overrun it); each
metric is the median over repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
the traced ones, plus the tracing overhead (traced over untraced
``wall_s``).

Every repetition's statistics fingerprint is checked: against
``reference.json`` for the committed seeds, otherwise against the
run's first repetition (and printed, so two commits can be compared).
A repetition that raises or whose fingerprint differs counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import select
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from layers import LayerTracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

#: Workload names and metric units come from ``BENCHMARK.json``.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
#: ``*.self_share`` are shares of traced wall time.
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
ERROR_RATE_UNIT = "ratio"

#: Seeds whose fingerprints are committed.  1 is the default; 97 is
#: held out: later changes must not be tuned on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 97

MIN_REPS = 3
#: Set-up-only fresh processes after each untraced repetition.
SETUPS_PER_REPETITION = 4
#: A stuck repetition is killed early enough for a run to end within
#: 180 s.
REPETITION_TIMEOUT_S = 120.0

#: Environment flags that switch between equivalent implementations,
#: with their defaults.  A measured run refuses any other value.
FLAG_DEFAULTS = {"REPRO_FAST": True, "REPRO_BATCH": True, "REPRO_FLIGHT": False}
_FALSE = ("0", "false", "no", "off")

def flag_values(environ) -> dict:
    """The effective value of each implementation flag."""
    return {
        name: environ.get(name, "1" if default else "0").strip().lower()
        not in _FALSE
        for name, default in FLAG_DEFAULTS.items()
    }


def machine_metadata() -> dict:
    import numpy  # imported with the simulator

    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "flags": {name: os.environ.get(name) for name in FLAG_DEFAULTS},
    }


def _git_sha():
    """HEAD's sha read from ``.git`` directly (no git process)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def load_program():
    """Import the simulator from this checkout's ``src``, once.

    Repetitions are forked from this process, so each starts fresh (no
    simulation state, cold memo caches) without paying the imports.
    The imported objects are frozen out of the garbage collector's
    view: otherwise whether a repetition's first full collection, which
    scans every import-time object, lands in set-up or in the run
    depends on the seed.
    """
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # no BLAS threads: fork needs none
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    from repro import fastpath, flightrec

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}")
    if not (fastpath.ENABLED and fastpath.BATCHED) or flightrec.ENABLED:
        raise SystemExit("implementation flags differ from the defaults")
    import workloads  # noqa: F401  (imported before the forks)

    gc.collect()
    gc.freeze()


def repetition(name: str, seed: int, traced: bool) -> dict:
    """Body of one repetition (runs in the forked process)."""
    import workloads

    rss_base_mb = _max_rss_mb()  # the imported simulator, shared at fork
    tracer = None
    if traced:
        tracer = LayerTracer().install()
        tracer.begin()
    outcome = workloads.execute(name, seed)
    if tracer is not None:
        tracer.end()
        outcome["layers"] = layer_metrics(tracer, outcome)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    outcome["rss_base_mb"] = rss_base_mb
    outcome["peak_rss_mb"] = _max_rss_mb() - rss_base_mb
    return outcome


def _max_rss_mb() -> float:
    """This process's peak RSS so far, MiB.

    A forked child starts with the RSS of the process it copies, so read
    at the child's start this is that baseline.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_repetition(name: str, seed: int, traced: bool) -> dict:
    """One repetition in a fresh forked process; raises on any failure."""
    return in_child(lambda: repetition(name, seed, traced),
                    f"{name} seed={seed}")


def run_setup(name: str, seed: int) -> dict:
    """One set-up-only repetition in a fresh forked process."""
    import workloads

    return in_child(lambda: {"setup_s": workloads.setup_only(name, seed)},
                    f"{name} seed={seed} set-up")


def in_child(body, label: str) -> dict:
    """``body()`` in a fresh forked process; its JSON result.

    Raises :class:`RuntimeError` when the child fails or overruns.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the repetition's own process
        os.close(read_end)
        status = 1
        try:
            payload = json.dumps(body()).encode()
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as pipe:
            ready, _, _ = select.select([pipe], [], [], REPETITION_TIMEOUT_S)
            if not ready:
                os.kill(pid, signal.SIGKILL)
                raise RuntimeError(
                    f"{label} exceeded {REPETITION_TIMEOUT_S:.0f} s"
                )
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"{label} failed (status {status})")
    return json.loads(payload)


def canonical(fingerprint) -> str:
    return json.dumps(fingerprint, sort_keys=True)


def digest(fingerprint) -> str:
    return hashlib.sha256(canonical(fingerprint).encode()).hexdigest()[:16]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


class Measurement:
    """Repetitions of one workload and what they add up to."""

    def __init__(self, name: str, seed: int, expected):
        self.name = name
        self.seed = seed
        self.expected = expected  # canonical fingerprint, or None
        self.first_fingerprint = None
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[float] = []  # from set-up-only repetitions
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def repeat(self, traced: bool) -> float:
        """Run one repetition; returns its host duration."""
        started = time.monotonic()
        self.attempted += 1
        try:
            outcome = run_repetition(self.name, self.seed, traced)
        except (RuntimeError, ValueError) as error:
            self.failed += 1
            self.errors.append(str(error))
            return time.monotonic() - started
        found = canonical(outcome["fingerprint"])
        if self.expected is None:
            self.expected = found
            self.first_fingerprint = outcome["fingerprint"]
        if found != self.expected:
            self.failed += 1
            self.errors.append(
                f"{self.name} seed={self.seed} "
                f"{'traced ' if traced else ''}fingerprint "
                f"{digest(outcome['fingerprint'])} differs from the "
                "expected one"
            )
        else:
            (self.traced if traced else self.plain).append(outcome)
        return time.monotonic() - started

    def repeat_setup(self) -> float:
        """Run one set-up-only repetition; returns its host duration."""
        started = time.monotonic()
        self.attempted += 1
        try:
            self.setups.append(run_setup(self.name, self.seed)["setup_s"])
        except (RuntimeError, ValueError) as error:
            self.failed += 1
            self.errors.append(str(error))
        return time.monotonic() - started

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def end_to_end(self) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {key: [] for key in END_TO_END}
        for outcome in self.plain:
            samples["wall_s"].append(outcome["wall_s"])
            samples["setup_s"].append(outcome["setup_s"])
            samples["queries_per_s"].append(
                outcome["queries"] / outcome["run_s"]
            )
            samples["events_per_s"].append(
                outcome["events"] / outcome["run_s"]
            )
            samples["peak_rss_mb"].append(outcome["peak_rss_mb"])
        samples["setup_s"].extend(self.setups)
        return samples

    def per_layer(self) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {key: [] for key in PER_LAYER}
        for outcome in self.traced:
            for key, value in outcome["layers"].items():
                samples[key].append(value)
        plain_wall = statistics.median(o["wall_s"] for o in self.plain)
        samples["trace.overhead"] = [
            outcome["wall_s"] / plain_wall for outcome in self.traced
        ]
        samples["engine.shard_s_max"] = [
            max(outcome["unit_run_s"]) for outcome in self.plain
        ]
        return samples


def measure(name: str, seed: int, seconds: float, trace: bool,
            reference: dict) -> Measurement:
    expected = reference.get(name, {}).get(str(seed))
    run = Measurement(
        name, seed, canonical(expected) if expected is not None else None
    )
    started = time.monotonic()
    for rounds in itertools.count(1):
        if trace:
            last = run.repeat(traced=False) + run.repeat(traced=True)
            enough = run.plain and run.traced
        else:
            last = run.repeat(traced=False)
            for _ in range(SETUPS_PER_REPETITION):
                last += run.repeat_setup()
            enough = len(run.plain) >= MIN_REPS
        elapsed = time.monotonic() - started
        if run.failed == run.attempted:
            break  # nothing works; more repetitions will not help
        if enough and elapsed + last > seconds:
            break
        if rounds >= MIN_REPS and not enough:
            break
    return run


def report(run: Measurement, trace: bool) -> dict:
    """Print the human-readable table; return the metrics block."""
    samples = run.per_layer() if trace and run.traced and run.plain else (
        run.end_to_end() if not trace else {}
    )
    units = PER_LAYER if trace else END_TO_END
    reps = len(run.traced if trace else run.plain)
    print(f"== {run.name} seed={run.seed} trace={int(trace)} "
          f"repetitions={reps} attempted={run.attempted} "
          f"failed={run.failed}")
    if run.plain:
        base = statistics.median(o["rss_base_mb"] for o in run.plain)
        print(f"  rss at fork {base:.1f} MiB (not in peak_rss_mb)")
    metrics = {}
    for key, unit in units.items():
        values = samples.get(key) or []
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        metrics[key] = {"value": median, "unit": unit}
        print(f"  {key:26s} {median:14.6g} {unit:6s} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]")
    print(f"  {'error_rate':26s} {run.error_rate:14.6g} {ERROR_RATE_UNIT}")
    for error in run.errors:
        print(f"  ERROR: {error}", file=sys.stderr)
    return metrics


def write_reference() -> int:
    """Record the fingerprints of the committed seeds."""
    reference = {}
    for name in WORKLOADS:
        reference[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            first = run_repetition(name, seed, traced=False)["fingerprint"]
            again = run_repetition(name, seed, traced=False)["fingerprint"]
            if canonical(first) != canonical(again):
                print(f"{name} seed={seed} is not deterministic",
                      file=sys.stderr)
                return 1
            reference[name][str(seed)] = first
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the committed seeds' fingerprints")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    flags = flag_values(os.environ)
    if flags != FLAG_DEFAULTS:
        print(f"refusing to measure with non-default flags {flags}",
              file=sys.stderr)
        return 2
    load_program()
    if args.write_reference:
        return write_reference()
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE}", file=sys.stderr)
        return 2

    meta = machine_metadata()
    print("machine " + json.dumps(meta, sort_keys=True))
    reference = load_reference()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    attempted = failed = 0
    metrics = {}
    for name in names:
        run = measure(name, args.seed, args.seconds, trace, reference)
        block = report(run, trace)
        if str(args.seed) not in reference.get(name, {}):
            fingerprint = run.first_fingerprint
            if fingerprint is not None:
                OUT.mkdir(exist_ok=True)
                path = OUT / f"fingerprint-{name}-seed{args.seed}.json"
                path.write_text(json.dumps(fingerprint, indent=1) + "\n")
                print(f"  fingerprint {digest(fingerprint)} "
                      f"(unreferenced seed; full record in {path.name})")
        attempted += run.attempted
        failed += run.failed
        if len(names) == 1:
            metrics = block
        else:
            metrics.update(
                {f"{name}.{key}": value for key, value in block.items()}
            )
    units = PER_LAYER if trace else END_TO_END
    complete = all(
        f"{prefix}{key}" in metrics
        for key in units
        for prefix in ([""] if len(names) == 1 else [f"{n}." for n in names])
    )
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
