"""E16 — the packed-state backend against the engine it replaced.

E13 established the engine's parallel story and, honestly, its weak
spot: on a shared single-core host, worker sharding *lost* wall-clock
(E13b recorded a 0.71x "speedup"), because every pool boundary pickled
whole frozen-dataclass graphs and every successor paid a recursive
``stable_fingerprint`` walk.  PR 6 replaced both with the packed codec
(``repro.explore.packed``; cost model in ``docs/performance.md``).
This file regenerates the before/after:

* **E16a (serial)**: the E13a anonymous workload, explored end-to-end
  under the ``legacy`` backend (pre-packed keying, kept for exactly
  this measurement) vs the codec-keyed ``reference`` and ``packed``
  backends.  The acceptance bar is >= 3x on the canonicalized
  exploration; interleaved best-of-N CPU time keeps the ratio honest on
  noisy hosts.
* **E16b (pool boundary)**: the E13b progress-closure workload across
  backends and worker counts, plus the deterministic part of the story
  — bytes per standalone serialized record (journal records, resumed
  frontier entries, lone states crossing the pool).  Wall-clock speedup
  from workers remains host-dependent (asserted only on >= 4 cores, as
  in E13b); the per-record byte ratio is core-count independent.

Every combination must report a bit-identical verdict: the backends may
only change how fast the answer arrives, never the answer.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time

from repro import OneShotSetAgreement, System
from repro.agreement.anonymous import AnonymousOneShotSetAgreement
from repro.bench.tables import format_table
from repro.errors import NotEnabledError
from repro.explore import explore_progress_closure, explore_safety
from repro.explore.packed import make_backend

#: Backends measured serially; ``legacy`` is the pre-packed baseline.
SERIAL_BACKENDS = ("legacy", "reference", "packed")

#: The E16a acceptance bar (canonicalized serial speedup vs legacy).
SERIAL_SPEEDUP_FLOOR = 3.0

#: Interleaved repetitions per backend (best-of, CPU time).
REPS = 5


def anonymous_system():
    return System(
        AnonymousOneShotSetAgreement(n=4, m=1, k=3), workloads=[["v"]] * 4
    )


def oneshot_system():
    return System(
        OneShotSetAgreement(n=3, m=1, k=2), workloads=[["a"], ["b"], ["c"]]
    )


def best_cpu_times(run, backends=SERIAL_BACKENDS, reps=REPS):
    """Interleaved best-of-``reps`` CPU seconds for each backend.

    Round-robin over backends inside each repetition, timed with
    ``time.process_time``: host frequency drift and scheduling noise hit
    every backend alike instead of whichever ran last.
    """
    times = {name: [] for name in backends}
    for _ in range(reps):
        for name in backends:
            t0 = time.process_time()
            run(name)
            times[name].append(time.process_time() - t0)
    return {name: min(series) for name, series in times.items()}


def test_serial_throughput_vs_legacy(emit):
    """E16a: >= 3x serial throughput on the E13a canonicalized workload."""
    results = {}

    def run_canon(backend):
        results[backend] = explore_safety(
            anonymous_system(), k=3, max_configs=4_000, canonicalize=True,
            backend=backend,
        )
        return results[backend]

    def run_plain(backend):
        return explore_safety(
            anonymous_system(), k=3, max_configs=4_000, backend=backend
        )

    canon = best_cpu_times(run_canon)
    plain = best_cpu_times(run_plain)

    verdicts = {
        name: dataclasses.asdict(result) for name, result in results.items()
    }
    assert verdicts["legacy"] == verdicts["reference"] == verdicts["packed"]

    canon_speedup = canon["legacy"] / canon["packed"]
    plain_speedup = plain["legacy"] / plain["packed"]
    assert canon_speedup >= SERIAL_SPEEDUP_FLOOR, (
        f"packed serial speedup {canon_speedup:.2f}x under the "
        f"{SERIAL_SPEEDUP_FLOOR}x bar (legacy {canon['legacy']:.3f}s cpu, "
        f"packed {canon['packed']:.3f}s cpu)"
    )

    rows = [
        (mode, f"{t['legacy']:.3f}", f"{t['reference']:.3f}",
         f"{t['packed']:.3f}", f"{t['legacy'] / t['packed']:.2f}x")
        for mode, t in (("canonicalized", canon), ("plain", plain))
    ]
    text = format_table(
        ["exploration", "legacy (s cpu)", "reference (s cpu)",
         "packed (s cpu)", "packed speedup"],
        rows,
        title="E16a — serial exploration, E13a workload (n=4, m=1, k=3 "
              "anonymous; identical verdicts across backends)",
    )
    emit("packed_backend_serial", text, record={
        "experiment": "E16a",
        "params": {"n": 4, "m": 1, "k": 3, "max_configs": 4_000,
                   "reps": REPS},
        "cpu_seconds_canonicalized": {k: round(v, 3) for k, v in canon.items()},
        "cpu_seconds_plain": {k: round(v, 3) for k, v in plain.items()},
        "speedup_canonicalized": round(canon_speedup, 2),
        "speedup_plain": round(plain_speedup, 2),
        "speedup_floor": SERIAL_SPEEDUP_FLOOR,
        "verdict": "identical",
    })


def frontier_sample(system, count):
    """The first *count* reachable configurations (BFS order)."""
    configs = [system.initial_configuration()]
    frontier = list(configs)
    while frontier and len(configs) < count:
        config = frontier.pop(0)
        for pid in range(len(config.procs)):
            try:
                step = system.step(config, pid)
            except NotEnabledError:
                continue
            if step is not None:
                configs.append(step.config)
                frontier.append(step.config)
    return configs[:count]


def test_pool_boundary_and_worker_speedup(emit):
    """E16b: the E13b workload across backends, plus IPC bytes per chunk."""
    system = oneshot_system()
    cores = os.cpu_count() or 1
    # As in E13b: more workers than cores only times the oversubscription.
    pool = min(4, cores)
    timings = {}
    results = {}
    for backend in ("reference", "packed"):
        for workers in (1, pool):
            t0 = time.perf_counter()
            results[backend, workers] = explore_progress_closure(
                oneshot_system(), m=1, max_configs=2_000, solo_budget=2_000,
                workers=workers, batch_size=32, backend=backend,
            )
            timings[backend, workers] = time.perf_counter() - t0

    verdicts = {
        key: dataclasses.asdict(result) for key, result in results.items()
    }
    baseline = verdicts["reference", 1]
    assert all(v == baseline for v in verdicts.values())

    # The deterministic half of the pool-boundary claim: bytes per
    # *standalone* record — one configuration crossing a boundary alone,
    # which is exactly what each journal record and each resumed frontier
    # entry costs.  (Pickling a whole chunk as one object is measured
    # too, but not asserted: pickle's memo dedups sub-objects shared by
    # identity across sibling configurations, an advantage that evaporates
    # as soon as the siblings arrive from different worker processes —
    # see docs/performance.md.)
    sample = frontier_sample(system, 64)
    backend = make_backend("packed")
    carriers = [backend.carrier(config) for config in sample]
    reference_bytes = sum(
        len(pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL))
        for config in sample
    )
    packed_bytes = sum(len(carrier.data) for carrier in carriers)
    chunk_pickled = len(pickle.dumps(sample, protocol=pickle.HIGHEST_PROTOCOL))
    chunk_packed = len(pickle.dumps(carriers, protocol=pickle.HIGHEST_PROTOCOL))
    ipc_ratio = reference_bytes / packed_bytes
    assert ipc_ratio > 1.5, (
        f"packed record ({packed_bytes / len(sample):.0f} B avg) not "
        f"clearly smaller than a standalone pickled configuration "
        f"({reference_bytes / len(sample):.0f} B avg)"
    )

    speedups = {
        backend: timings[backend, 1] / timings[backend, pool]
        for backend in ("reference", "packed")
    }
    if cores >= 4:
        # Same gate as E13b: multi-worker wall-clock wins need cores.
        assert speedups["packed"] > 1.0, (
            f"{cores} cores but packed workers={pool} was not faster "
            f"({timings['packed', 1]:.2f}s -> {timings['packed', pool]:.2f}s)"
        )

    rows = [
        (backend, f"{timings[backend, 1]:.2f}",
         f"{timings[backend, pool]:.2f}",
         f"{speedups[backend]:.2f}x")
        for backend in ("reference", "packed")
    ]
    text = format_table(
        ["backend", "t_workers=1 (s)", f"t_workers={pool} (s)", "speedup"],
        rows,
        title=f"E16b — E13b workload by backend on {cores} core(s), "
              f"workers=1 vs {pool}; "
              f"standalone record: {reference_bytes // len(sample)} B "
              f"pickled vs {packed_bytes // len(sample)} B packed "
              f"({ipc_ratio:.1f}x smaller)",
    )
    emit("packed_backend_parallel", text, record={
        "experiment": "E16b",
        "params": {"n": 3, "m": 1, "k": 2, "max_configs": 2_000,
                   "batch_size": 32, "workers": [1, pool]},
        "cores": cores,
        "seconds": {
            f"{backend}_workers_{workers}": round(value, 3)
            for (backend, workers), value in timings.items()
        },
        "record_bytes_reference": reference_bytes,
        "record_bytes_packed": packed_bytes,
        "record_bytes_ratio": round(ipc_ratio, 2),
        "chunk_bytes_pickled_shared": chunk_pickled,
        "chunk_bytes_packed": chunk_packed,
        "verdict": "identical",
    })


def test_packed_smoke(emit):
    """CI smoke: tiny-budget packed run matches reference and keeps pace.

    Small enough for every CI run (a few seconds), strong enough to
    catch a packed-path regression: identical verdict, and packed serial
    throughput within 25% of reference (they share the codec-keyed hot
    path, so a larger gap means the packed carrier plumbing broke).
    """
    results = {}

    def run(backend):
        results[backend] = explore_safety(
            oneshot_system(), k=2, max_configs=1_500, backend=backend
        )

    times = best_cpu_times(run, backends=("reference", "packed"), reps=3)
    assert dataclasses.asdict(results["reference"]) == dataclasses.asdict(
        results["packed"]
    )
    ratio = times["reference"] / times["packed"]
    assert ratio >= 0.75, (
        f"packed fell behind reference by more than 25% "
        f"(reference {times['reference']:.3f}s cpu, "
        f"packed {times['packed']:.3f}s cpu)"
    )
    text = format_table(
        ["reference (s cpu)", "packed (s cpu)", "packed/reference pace"],
        [(f"{times['reference']:.3f}", f"{times['packed']:.3f}",
          f"{ratio:.2f}x")],
        title="E16 smoke — tiny-budget backend pace check "
              "(identical verdicts)",
    )
    emit("packed_backend_smoke", text, record={
        "experiment": "E16-smoke",
        "params": {"n": 3, "m": 1, "k": 2, "max_configs": 1_500, "reps": 3},
        "cpu_seconds": {k: round(v, 3) for k, v in times.items()},
        "pace_ratio": round(ratio, 2),
        "verdict": "identical",
    })
