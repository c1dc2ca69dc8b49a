"""E13 — the parallel, symmetry-reduced exploration engine.

Regenerated claims (see ``docs/explorer.md`` for the engine itself):

* **Symmetry dedup**: on anonymous instances with symmetric workloads,
  quotienting the visited set by process-identity orbits
  (``canonicalize=True``) shrinks the explored state space ≥ 2× — measured
  here at ~5× for (n=3, m=1, k=1) and ~15× for (n=4, m=1, k=3) — while
  certifying the *same* verdict and closure as the full exploration.
* **Worker parity**: sharding frontier expansion across worker processes
  changes wall-clock only, never the result — ``workers=min(4, cores)``
  reports bit-identical outcomes to ``workers=1``.  The recorded speedup
  depends on the host's core count (a single-core host shows pool
  overhead instead of a win; the table records cores, the pool size
  and both times).

The dedup ratio is the paper-relevant number: anonymous algorithms
(Figure 5, §6) are symmetric by construction, so orbit reduction is free
coverage — the same certification at a fraction of the states.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro import OneShotSetAgreement, System
from repro.agreement.anonymous import AnonymousOneShotSetAgreement
from repro.bench.tables import format_table
from repro.explore import explore_progress_closure, explore_safety

#: (n, m, k) anonymous one-shot instances with all-equal inputs — the
#: maximal orbit.  Chosen to complete exhaustively in seconds.
DEDUP_GRID = [(3, 1, 1), (4, 1, 3)]


def test_symmetry_dedup_ratio(emit):
    """Orbit-quotiented exploration: same verdict, ≥2× fewer states."""
    rows = []
    best_ratio = 0.0
    for n, m, k in DEDUP_GRID:
        system = System(
            AnonymousOneShotSetAgreement(n=n, m=m, k=k),
            workloads=[["v"]] * n,
        )
        t0 = time.perf_counter()
        plain = explore_safety(system, k=k, max_configs=300_000)
        t_plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        canon = explore_safety(
            system, k=k, max_configs=300_000, canonicalize=True
        )
        t_canon = time.perf_counter() - t0

        assert plain.complete and canon.complete
        assert plain.ok and canon.ok
        ratio = plain.configs_discovered / canon.configs_discovered
        best_ratio = max(best_ratio, ratio)
        rows.append((
            n, m, k,
            plain.configs_discovered, canon.configs_discovered,
            f"{ratio:.2f}x", f"{t_plain:.2f}", f"{t_canon:.2f}",
        ))
    # The acceptance bar: at least one anonymous instance dedups >= 2x.
    assert best_ratio >= 2.0, f"best dedup ratio {best_ratio:.2f} < 2"
    text = format_table(
        ["n", "m", "k", "states (full)", "states (orbit)", "dedup",
         "t_full (s)", "t_orbit (s)"],
        rows,
        title="E13a — symmetry reduction on anonymous instances "
              "(identical verdicts, complete closures)",
    )
    emit("explore_parallel_dedup", text, record={
        "experiment": "E13a",
        "params": {"grid": DEDUP_GRID, "max_configs": 300_000},
        "best_dedup_ratio": round(best_ratio, 2),
        "verdict": "ok",
    })


def test_parallel_worker_speedup(emit):
    """Worker sharding: identical results; wall-clock scales with cores."""
    system = System(
        OneShotSetAgreement(n=3, m=1, k=2), workloads=[["a"], ["b"], ["c"]]
    )
    cores = os.cpu_count() or 1
    # More workers than cores only times the oversubscription.
    pool = min(4, cores)
    timings = {}
    results = {}
    for workers in (1, pool):
        t0 = time.perf_counter()
        results[workers] = explore_progress_closure(
            system, m=1, max_configs=2_000, solo_budget=2_000,
            workers=workers, batch_size=32,
        )
        timings[workers] = time.perf_counter() - t0
    # Parity is the hard guarantee; speedup depends on the host.
    assert dataclasses.asdict(results[1]) == dataclasses.asdict(results[pool])
    speedup = timings[1] / timings[pool]
    if cores >= 4:
        assert speedup > 1.0, (
            f"{cores} cores but workers={pool} was not faster "
            f"({timings[1]:.2f}s -> {timings[pool]:.2f}s)"
        )
    text = format_table(
        ["cores", "configs", "t_workers=1 (s)", f"t_workers={pool} (s)",
         "speedup", "identical results"],
        [(cores, results[1].configs_explored,
          f"{timings[1]:.2f}", f"{timings[pool]:.2f}",
          f"{speedup:.2f}x", "yes")],
        title=f"E13b — worker sharding on the progress-closure oracle, "
              f"workers=1 vs {pool} (deterministic merge: results are "
              "worker-count invariant)",
    )
    emit("explore_parallel_speedup", text, record={
        "experiment": "E13b",
        "params": {"n": 3, "m": 1, "k": 2, "max_configs": 2_000,
                   "batch_size": 32, "workers": [1, pool]},
        "cores": cores,
        "seconds_workers_1": round(timings[1], 3),
        "seconds_pool": round(timings[pool], 3),
        "speedup": round(speedup, 2),
        "verdict": "identical",
    })
