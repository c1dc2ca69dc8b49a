"""The five benchmark workloads, their correctness checks, and their ledgers.

Every workload drives the library only through its public surface
(``explore_safety``, ``explore_progress_closure``, ``build_family`` +
``run_campaign``, a ``repro serve`` daemon and ``repro.serve.client``) and
offers three things to ``run.py``:

* ``prepare()`` — the set-up a fresh process does before its first verdict;
* ``measure(seed, seconds, golden)`` — a :class:`Window` of untraced work,
  every verdict checked against the committed golden;
* ``trace(seed, seconds, golden, ledger)`` — a fixed amount of work under
  the layer wrappers of :mod:`ledger`, plus an untraced reference for
  ``trace.overhead_frac``.

The load comes from this one process.  The progress-pool workload is the
only one with an explore pool, capped at ``min(2, cpus)`` workers; the
serve daemon runs one pool worker and is driven by one closed-loop client.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Explore-pool cap: never more workers than cores (E13b once timed
#: workers=4 on a 2-core host; this benchmark must not repeat that).
POOL_WORKERS = min(2, os.cpu_count() or 1)


# --------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------- #


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(values: List[float], q: int) -> float:
    """The *q*-th percentile (inclusive method); the median for q=50."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def children_cpu_seconds() -> float:
    """CPU seconds of every child this process has reaped so far."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def fresh_process_setup(name: str) -> float:
    """CPU seconds a fresh interpreter spends to import the library and
    run the named workload's ``prepare()``.

    CPU rather than wall time: on a shared host the wall time of a short
    process start is mostly the scheduler's, while its CPU time is the
    set-up work itself.
    """
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        "import workloads; "
        f"workloads.make_workloads(None)[{name!r}].prepare()"
    )
    cpu0 = children_cpu_seconds()
    subprocess.run([sys.executable, "-c", code], cwd=str(ROOT), check=True)
    return children_cpu_seconds() - cpu0


# --------------------------------------------------------------------- #
# Host-speed meter
# --------------------------------------------------------------------- #

#: States one :func:`probe_work` sample explores.
PROBE_STATES = 200

#: Thread CPU seconds one sample takes on a 2.1 GHz Xeon vCPU under
#: Python 3.11 with no neighbour load.  Timed metrics are reported at
#: this reference speed.
REFERENCE_PROBE_S = 0.0005

#: Seconds between two samples of the host's speed.
PROBE_PERIOD_S = 0.05


def probe_work(limit: int = PROBE_STATES) -> int:
    """A fixed toy exploration: tuple states, byte-string keys, a visited
    dict and partial sorts, the same interpreter work the explorers do.

    It is this benchmark's own code, so a change to the library never
    moves it; only the host's speed does.  Returns the edges it followed.
    """
    start = (0, 1, 2, 3, 4, 5)
    visited = {bytes(start): 0}
    frontier = [start]
    edges = 0
    while frontier and len(visited) < limit:
        successors = []
        for state in frontier:
            for i in range(6):
                nxt = list(state)
                nxt[i] = (nxt[i] * 5 + i + 3) % 17
                if i & 1:
                    nxt[:3] = sorted(nxt[:3])
                key = bytes(nxt)
                edges += 1
                if key not in visited:
                    visited[key] = len(visited)
                    successors.append(tuple(nxt))
        frontier = successors
    return edges


class SpeedMeter:
    """Samples the host's speed while the measured work runs.

    On the shared host a vCPU switches between a fast and a slow speed
    (about 1.6x apart) every second or so, as its neighbours' load comes
    and goes, in CPU time as much as in wall time; the share of time spent
    slow drifts over minutes.  Every :data:`PROBE_PERIOD_S` a ``SIGALRM``
    handler times one :func:`probe_work` in this thread's CPU time, on
    whatever vCPU this process runs on at that moment.  A stretch of work
    is then priced at reference speed by multiplying its time by the mean
    of the samples' speeds (reference time over sample time) inside it.
    Pool workers and child processes inherit no timer.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.thread_time()
        probe_work()
        seconds = time.thread_time() - t0
        self.samples.append((time.perf_counter(),
                             REFERENCE_PROBE_S / max(seconds, 1e-9)))

    def scale(self, t0: float, t1: float) -> float:
        """The factor that prices a stretch timed from *t0* to *t1*
        (``perf_counter``) at reference speed: below 1 when the host ran
        slower than the reference."""
        inside = [speed for t, speed in self.samples if t0 <= t <= t1]
        if not inside:
            self._sample()
            inside = [self.samples[-1][1]]
        return statistics.fmean(inside)


def record_digest(record: Dict[str, Any]) -> str:
    """sha256 of a record's canonical JSON (sorted keys, tight separators)."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def identity_mismatch(result, golden: Dict[str, Any]) -> Optional[str]:
    """Compare an exploration verdict with its golden identity record.

    Only the golden's own keys are compared, so a field added to
    ``identity_record()`` later does not read as a wrong verdict, while
    any change to a recorded field does.
    """
    record = result.identity_record()
    projected = {key: record.get(key) for key in golden["identity"]}
    digest = record_digest(projected)
    if digest == golden["digest"]:
        return None
    changed = sorted(
        key for key in golden["identity"]
        if record.get(key) != golden["identity"][key]
    )
    return f"identity digest {digest[:12]} != golden {golden['digest'][:12]} " \
           f"(fields {changed})"


@dataclass
class Window:
    """One measured stretch of untraced work."""

    unit: str
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    #: Wall and CPU seconds of each segment, in order: one verdict (closure
    #: or campaign), or one run of requests (serve).  Serve has no CPU per
    #: segment, since its daemon's CPU is known only once it is reaped.
    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    #: Ops of each segment, and its :meth:`SpeedMeter.scale`.
    sizes: List[int] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Report-only metrics: name -> (value, unit, note).
    extra: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def ops_per_s(self) -> float:
        """The median segment's ops per wall second at reference speed, so
        neither one segment slowed by a burst of host load nor the host's
        speed over the window moves it."""
        return statistics.median(
            n / (wall * scale)
            for n, wall, scale in zip(self.sizes, self.walls, self.scales))

    def cpu_ms_per_op(self) -> float:
        """The median segment's CPU milliseconds per op at reference speed;
        the whole window's when segments have no CPU of their own."""
        if not self.cpus:
            return (self.cpu_s * statistics.median(self.scales) * 1e3
                    / sum(self.sizes))
        return statistics.median(
            cpu * scale * 1e3 / n
            for n, cpu, scale in zip(self.sizes, self.cpus, self.scales))

    def host_speed(self) -> float:
        """The median segment's host speed against the reference."""
        return statistics.median(self.scales)


def run_window(window: Window, seconds: float, verdict: Callable[[], None]) -> None:
    """Repeat *verdict* until *seconds* have passed (at least once), timing
    each call and the host's speed during it, and the whole window, on
    *window*."""
    cpu0, t_start = cpu_seconds(), time.perf_counter()
    with SpeedMeter() as meter:
        while True:
            t0, c0 = time.perf_counter(), cpu_seconds()
            verdict()
            t1 = time.perf_counter()
            window.walls.append(t1 - t0)
            window.cpus.append(cpu_seconds() - c0)
            window.scales.append(meter.scale(t0, t1))
            if t1 - t_start >= seconds:
                break
    window.wall_s = time.perf_counter() - t_start
    window.cpu_s = cpu_seconds() - cpu0
    window.rss_mb = peak_rss_mb()


def measure_setup(sample: Callable[[], float], samples: int) -> Tuple[List[float], List[float]]:
    """*samples* set-up times after one unmeasured warm-up (it compiles
    bytecode); returns them at reference speed and raw.

    This process and the set-up's processes share one CPU meanwhile, so
    the speed meter samples the vCPU the set-up runs on.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        sample()
        scaled, raw = [], []
        with SpeedMeter() as meter:
            for _ in range(samples):
                t0 = time.perf_counter()
                seconds = sample()
                raw.append(seconds)
                scaled.append(seconds * meter.scale(t0, time.perf_counter()))
    finally:
        os.sched_setaffinity(0, allowed)
    return scaled, raw


class _MemorySink:
    """A telemetry sink that keeps nothing: the registry is what is read."""

    def emit(self, event: Dict) -> None:
        pass

    def close(self) -> None:
        pass


def _open_session():
    from repro import telemetry

    return telemetry.start(command="perfbench", mode="jsonl",
                           sinks=[_MemorySink()], attrs={})


def _histogram_total(session, name: str) -> float:
    for side in session.registry.export():
        export = side["histograms"].get(name)
        if export is not None:
            return float(export["total"])
    return 0.0


# --------------------------------------------------------------------- #
# Layer wrappers
# --------------------------------------------------------------------- #


def _book_encode(ledger, args, result) -> None:
    ledger.add("packed.encode.bytes", len(result))


def _book_merge(ledger, args, result) -> None:
    expansions = args[2]
    delta, _ = result
    ledger.add("frontier.configs", delta.explored_inc)
    ledger.add("frontier.successors", sum(len(e.successors) for e in expansions))
    ledger.add("frontier.admitted", len(delta.new_entries))


def _book_explore(ledger, args, result) -> None:
    ledger.add("frontier.pool.retries", result.worker_retries)


def install_layer_wrappers(ledger) -> None:
    """Patch timing wrappers where the program looks each layer up."""
    import repro
    from repro.explore import checker, frontier, packed
    from repro.faults import campaign
    from repro.runtime import runner, system

    ledger.patch(system.System, "step", "system.step")
    for owner in (repro, runner, campaign):
        ledger.patch(owner, "run", "runner.run")
    ledger.patch(packed.PackedCodec, "encode", "packed.encode", _book_encode)
    ledger.patch(packed.PackedCodec, "proc_frag", "packed.proc_frag")
    ledger.patch(packed, "packed_fingerprint", "packed.fingerprint")
    ledger.patch(packed, "canonicalize", "canonical.canonicalize")
    ledger.patch(checker, "_check_config_safety", "checker.oracle")
    ledger.patch(checker, "_check_config_progress", "checker.oracle")
    ledger.patch(frontier, "explore", "frontier.coordinator", _book_explore)
    ledger.patch(frontier, "_merge_batch", "frontier.merge", _book_merge)
    ledger.patch(frontier, "_expand_chunk_local", "frontier.expand")
    ledger.patch(frontier, "_expand_batch", "frontier.pool.wait")
    ledger.patch_worker_entry(frontier, "_expand_chunk")
    ledger.patch(campaign, "_certify", "faults.certify")
    ledger.patch(campaign, "check_safety", "spec.check_safety")


#: Every per-layer metric, in report order: (name, unit).
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("system.step.calls", "count"),
    ("system.step.self_s", "s"),
    ("runner.run.calls", "count"),
    ("runner.run.self_s", "s"),
    ("packed.encode.calls", "count"),
    ("packed.encode.self_s", "s"),
    ("packed.encode.bytes", "bytes"),
    ("packed.proc_frag.calls", "count"),
    ("packed.proc_frag.self_s", "s"),
    ("packed.fingerprint.calls", "count"),
    ("packed.fingerprint.self_s", "s"),
    ("canonical.canonicalize.calls", "count"),
    ("canonical.canonicalize.self_s", "s"),
    ("checker.oracle.calls", "count"),
    ("checker.oracle.self_s", "s"),
    ("frontier.configs", "count"),
    ("frontier.batches", "count"),
    ("frontier.expand.self_s", "s"),
    ("frontier.merge.self_s", "s"),
    ("frontier.coordinator.self_s", "s"),
    ("frontier.dedup_ratio", "ratio"),
    ("frontier.pool.wait_s", "s"),
    ("frontier.pool.worker_busy_s", "s"),
    ("frontier.pool.utilization", "ratio"),
    ("frontier.pool.retries", "count"),
    ("faults.trials", "count"),
    ("faults.attempts", "count"),
    ("faults.useful_attempt_ratio", "ratio"),
    ("faults.inconclusive_frac", "ratio"),
    ("faults.certify.self_s", "s"),
    ("spec.check_safety.self_s", "s"),
    ("serve.requests", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected_busy", "count"),
    ("serve.execute_s", "s"),
    ("serve.overhead_ms", "ms"),
    ("serve.store_puts", "count"),
    ("serve.store_bytes", "bytes"),
    ("durable.appends", "count"),
    ("durable.fsync_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def layer_values(ledger, extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value; layers the work bypassed read 0."""
    values: Dict[str, float] = {}
    for layer in ("system.step", "runner.run", "packed.encode",
                  "packed.proc_frag", "packed.fingerprint",
                  "canonical.canonicalize", "checker.oracle"):
        values[f"{layer}.calls"] = ledger.calls(layer)
        values[f"{layer}.self_s"] = ledger.self_s(layer)
    values["packed.encode.bytes"] = int(ledger.sum("packed.encode.bytes"))
    values["frontier.configs"] = int(ledger.sum("frontier.configs"))
    values["frontier.batches"] = ledger.calls("frontier.merge")
    for layer in ("frontier.expand", "frontier.merge", "frontier.coordinator"):
        values[f"{layer}.self_s"] = ledger.self_s(layer)
    admitted = ledger.sum("frontier.admitted")
    values["frontier.dedup_ratio"] = (
        ledger.sum("frontier.successors") / admitted if admitted else 0.0
    )
    values["frontier.pool.wait_s"] = ledger.total_s("frontier.pool.wait")
    values["frontier.pool.retries"] = int(ledger.sum("frontier.pool.retries"))
    values["faults.certify.self_s"] = ledger.self_s("faults.certify")
    values["spec.check_safety.self_s"] = ledger.self_s("spec.check_safety")
    for name, _ in LAYER_METRICS:
        values.setdefault(name, 0)
    values.update(extra)
    return values


# --------------------------------------------------------------------- #
# Exploration workloads
# --------------------------------------------------------------------- #


class ExploreWorkload:
    """A complete (or budget-truncated) closure, repeated for the window.

    Explore workloads are exhaustive, so the seed does not change them:
    every verdict must equal the committed golden identity record.
    """

    unit = "configs"
    segment = "closure"

    def __init__(self, name: str, system: Callable[[], Any],
                 explore: Callable[[Any], Any], workers: int = 1) -> None:
        self.name = name
        self._system = system
        self._explore = explore
        self.workers = workers

    def prepare(self) -> None:
        """Import the engine and build the system, short of a verdict."""
        import repro.explore  # noqa: F401

        self._system()

    def setup_sample(self) -> float:
        return fresh_process_setup(self.name)

    def verdict(self):
        return self._explore(self._system())

    def measure(self, seed: int, seconds: float, golden: Dict) -> Window:
        window = Window(unit=self.unit)
        results = []
        run_window(window, seconds, lambda: results.append(self.verdict()))
        for result in results:
            window.attempted += 1
            window.ops += result.configs_explored
            window.sizes.append(result.configs_explored)
            problem = identity_mismatch(result, golden[self.name])
            if problem:
                window.fail(problem)
        window.extra["verdict_p50_s"] = (
            statistics.median(window.walls), "s",
            f"n={len(window.walls)} verdicts")
        return window

    def trace(self, seed: int, seconds: float, golden: Dict, ledger) -> Tuple[Dict, Window]:
        reference = self.measure(seed, seconds / 2, golden)
        session = _open_session()
        install_layer_wrappers(ledger)
        try:
            t0 = time.perf_counter()
            result = self.verdict()
            wall = time.perf_counter() - t0
        finally:
            ledger.restore()
            busy = _histogram_total(session, "explore.worker.chunk_seconds")
            session.close()
        ledger.absorb_spool()
        reference.attempted += 1
        problem = identity_mismatch(result, golden[self.name])
        if problem:
            reference.fail(problem)
        extra = {
            "trace.wall_s": wall,
            "trace.overhead_frac": wall / statistics.median(reference.walls) - 1.0,
        }
        wait = ledger.total_s("frontier.pool.wait")
        if wait > 0:
            extra["frontier.pool.worker_busy_s"] = busy
            extra["frontier.pool.utilization"] = busy / (wait * self.workers)
        return layer_values(ledger, extra), reference


def _anonymous_oneshot(n: int, m: int, k: int):
    from repro import System
    from repro.agreement.anonymous import AnonymousOneShotSetAgreement

    return System(AnonymousOneShotSetAgreement(n=n, m=m, k=k),
                  workloads=[["v"]] * n)


def _oneshot_abc():
    from repro import OneShotSetAgreement, System

    return System(OneShotSetAgreement(n=3, m=1, k=2),
                  workloads=[["a"], ["b"], ["c"]])


def _safety_plain(system):
    from repro.explore import explore_safety

    return explore_safety(system, k=3, workers=1)


def _safety_orbit(system):
    from repro.explore import explore_safety

    return explore_safety(system, k=3, canonicalize=True, workers=1)


def _progress_pool(system):
    from repro.explore import explore_progress_closure

    return explore_progress_closure(
        system, m=1, solo_budget=2_000, batch_size=32, max_configs=4_000,
        workers=POOL_WORKERS,
    )


# --------------------------------------------------------------------- #
# Fault campaign workload
# --------------------------------------------------------------------- #


CAMPAIGN_TRIALS = 12


def _campaign_system():
    from repro import RepeatedSetAgreement, System
    from repro.bench.workloads import distinct_inputs

    return System(RepeatedSetAgreement(n=4, m=2, k=2),
                  workloads=distinct_inputs(4, instances=2))


def campaign_plans(plan_seed: int):
    from repro.faults import build_family

    return build_family("corruption", _campaign_system(),
                        trials=CAMPAIGN_TRIALS, seed=plan_seed)


#: The plan seeds whose per-trial labels ``golden.json`` records.  Every
#: label was produced by a run of this workload, so each expectation a
#: run checks stands on a trial that was actually observed: a lost write
#: or a spurious reset is safe or not depending on the interleaving its
#: plan draws, so labels per plan kind would not be sound.
PLAN_SEEDS = tuple(range(64))


def plan_seeds(seed: int):
    """The workload seed's stream of campaign plan seeds: the verified
    :data:`PLAN_SEEDS` in an order drawn from *seed*, over and over."""
    rng = random.Random(seed)
    order = list(PLAN_SEEDS)
    while True:
        rng.shuffle(order)
        yield from order


def trial_mismatch(trial, expected: Tuple[str, str]) -> Optional[str]:
    """A safe or certified trial must keep its label; an inconclusive one
    may gain a verdict but never lose one.

    *expected* is the golden ``(plan name, label)`` of the trial at the
    same index of the same plan seed's campaign.
    """
    name, label = expected
    if trial.plan.name != name:
        return f"{trial.plan.name}: golden trial is {name} (plans changed)"
    if label == "inconclusive":
        return None
    if trial.outcome != label:
        return f"{trial.plan.name}: {trial.outcome}, golden {label}"
    if label == "violation" and not trial.certified:
        return f"{trial.plan.name}: violation not certified by replay"
    return None


class CampaignWorkload:
    name = "campaign-corruption"
    unit = "trials"
    segment = "campaign"
    workers = 1

    def prepare(self) -> None:
        campaign_plans(1)

    def setup_sample(self) -> float:
        return fresh_process_setup(self.name)

    def campaign(self, plan_seed: int):
        from repro.faults import run_campaign

        return run_campaign(
            _campaign_system(), campaign_plans(plan_seed),
            family="corruption", k=2, budget=4_000, max_retries=2,
        )

    def _check(self, plan_seed: int, report, golden: Dict,
               window: Window) -> None:
        expected = golden[self.name]["trials"].get(str(plan_seed), [])
        for index, trial in enumerate(report.trials):
            window.attempted += 1
            if index >= len(expected):
                window.fail(f"{trial.plan.name}: no golden label for plan "
                            f"seed {plan_seed}")
                continue
            problem = trial_mismatch(trial, expected[index])
            if problem:
                window.fail(problem)
        if len(report.trials) != CAMPAIGN_TRIALS:
            window.fail(f"campaign ran {len(report.trials)} trials")

    def measure(self, seed: int, seconds: float, golden: Dict) -> Window:
        window = Window(unit=self.unit)
        seeds = plan_seeds(seed)
        reports = []

        def verdict():
            plan_seed = next(seeds)
            reports.append((plan_seed, self.campaign(plan_seed)))

        run_window(window, seconds, verdict)
        inconclusive = 0
        for plan_seed, report in reports:
            window.ops += len(report.trials)
            window.sizes.append(len(report.trials))
            inconclusive += len(report.outcomes("inconclusive"))
            self._check(plan_seed, report, golden, window)
        window.extra["inconclusive_frac"] = (
            inconclusive / window.ops, "ratio",
            f"{inconclusive} of {window.ops} trials")
        window.extra["verdict_p50_s"] = (
            statistics.median(window.walls), "s",
            f"n={len(window.walls)} campaigns")
        return window

    def trace(self, seed: int, seconds: float, golden: Dict, ledger) -> Tuple[Dict, Window]:
        reference = self.measure(seed, seconds / 2, golden)
        first = next(plan_seeds(seed))
        install_layer_wrappers(ledger)
        try:
            t0 = time.perf_counter()
            report = self.campaign(first)
            wall = time.perf_counter() - t0
        finally:
            ledger.restore()
        self._check(first, report, golden, reference)
        attempts = sum(t.attempts for t in report.trials)
        useful = sum(1 for t in report.trials if t.outcome != "inconclusive")
        extra = {
            "faults.trials": len(report.trials),
            "faults.attempts": attempts,
            "faults.useful_attempt_ratio": useful / attempts,
            "faults.inconclusive_frac":
                len(report.outcomes("inconclusive")) / len(report.trials),
            "trace.wall_s": wall,
            # The reference window's first campaign ran the same plans.
            "trace.overhead_frac": wall / reference.walls[0] - 1.0,
        }
        return layer_values(ledger, extra), reference


# --------------------------------------------------------------------- #
# Serve workload
# --------------------------------------------------------------------- #


#: Every cold request is followed by this many hits on answered keys.
HITS_PER_COLD = 3

#: Requests in the traced serve run (a fixed count keeps counts exact).
TRACED_REQUESTS = 400

#: The daemon's peak RSS is read after this many requests: the daemon
#: grows with the requests it has answered, so a time-bounded window
#: would make its memory a function of host speed.
RSS_PROBE_REQUESTS = 400

#: One block of cold-job shapes, sent in an order drawn from the seed and
#: then again: eight run-mode jobs (every protocol family at k=2 and k=3),
#: one small fault campaign and one budget-capped exploration.  Each shape
#: costs tens of milliseconds of compute, so a cold request's compute
#: outweighs its hand-offs between client, daemon and pool worker, and a
#: window holds whole blocks of the same mix whatever the seed.
COLD_SHAPES: Tuple[Dict[str, Any], ...] = tuple(
    {"mode": "run", "protocol": protocol, "n": 7, "m": 1, "k": k,
     "scheduler": "writer-priority"}
    for protocol in ("oneshot", "anonymous-oneshot", "repeated", "anonymous")
    for k in (2, 3)
) + (
    {"mode": "faults", "protocol": "oneshot", "n": 4, "m": 1, "k": 2,
     "fault_family": "crashes", "trials": 4, "budget": 4_000},
    {"mode": "explore", "protocol": "oneshot", "n": 3, "m": 1, "k": 2,
     "max_configs": 300},
)

#: A serve window is timed in segments of this many requests: one whole
#: block of :data:`COLD_SHAPES` with their hits, so every segment holds
#: the same mix.
SEGMENT_REQUESTS = len(COLD_SHAPES) * (1 + HITS_PER_COLD)


def request_stream(seed: int):
    """The seed's closed-loop request sequence: ``("cold", job)`` or
    ``("hit", index of an earlier cold job)``.

    Each cold job is a :data:`COLD_SHAPES` entry whose ``seed`` field (part
    of the job key) is unique, so every cold job is a distinct computation
    to the daemon; :data:`HITS_PER_COLD` hits on answered keys follow it.
    """
    rng = random.Random(seed)
    shapes = list(COLD_SHAPES)
    cold = 0
    while True:
        rng.shuffle(shapes)
        for shape in shapes:
            yield "cold", dict(shape, seed=seed * 10_000_000 + cold)
            cold += 1
            for _ in range(HITS_PER_COLD):
                yield "hit", rng.randrange(cold)


class Daemon:
    """A ``repro serve`` subprocess on a fresh data directory.

    The client (this process), the daemon and its pool worker share one
    CPU.  With one closed-loop client only one of them has work at a time,
    and on a shared VM a hand-off to an idle vCPU waits for the host to
    wake it: unpinned, a quarter of the window could pass with no process
    on a CPU, and that share swung with the host's load.
    """

    def __init__(self, data_dir: Path, telemetry_dir: Optional[Path] = None,
                 timeout: float = 60.0) -> None:
        # The daemon and its worker inherit this process's affinity.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.data_dir = data_dir
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        cmd = [sys.executable, "-m", "repro", "serve",
               "--data-dir", str(data_dir), "--workers", "1"]
        if telemetry_dir is not None:
            cmd += ["--telemetry", "jsonl", "--telemetry-dir", str(telemetry_dir)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(data_dir.with_suffix(".log"), "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=self.log,
        )
        try:
            self._wait_ready(timeout)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float) -> None:
        from repro.errors import ReproError
        from repro.serve import client

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode} before "
                    f"it was ready (log: {self.log.name})")
            try:
                host, port = client.connect(self.data_dir)
                client.status(host, port, timeout=5.0)
            except ReproError:
                time.sleep(0.005)
                continue
            self.host, self.port = host, port
            return
        raise RuntimeError(f"repro serve not ready after {timeout}s")

    def peak_rss_mb(self) -> float:
        """The daemon process's peak resident set so far (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """Graceful ``shutdown`` op, then make sure the whole group is gone."""
        from repro.errors import ReproError
        from repro.serve import client

        if self.host is not None and self.proc.poll() is None:
            try:
                client.shutdown(self.host, self.port, timeout=10.0)
                self.proc.wait(timeout=30)
            except (ReproError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.log.close()


class ServeWorkload:
    name = "serve-mix"
    unit = "requests"
    segment = "segment"
    workers = 1

    def __init__(self, scratch: Callable[[str], Path]) -> None:
        self.scratch = scratch

    def prepare(self) -> None:
        self.setup_sample()

    def setup_sample(self) -> float:
        """CPU seconds of one daemon life with no jobs: spawn, answer
        ``status``, shut down (its pool worker included)."""
        cpu0 = children_cpu_seconds()
        Daemon(self.scratch("setup")).stop()
        return children_cpu_seconds() - cpu0

    def _drive(self, daemon: Daemon, seed: int, window: Window, *,
               seconds: Optional[float] = None, count: Optional[int] = None,
               ) -> Tuple[List[Tuple[Dict, Dict, float]], List[float]]:
        """Closed loop: each request is sent once the previous one answered.

        Returns the cold requests as ``(job, reply, ms)`` and the hit
        latencies in ms; failed requests are booked on *window*.
        """
        from repro.errors import ReproError
        from repro.serve import client

        colds: List[Tuple[Dict, Dict, float]] = []
        hit_ms: List[float] = []
        window.rss_mb = 0.0
        stream = request_stream(seed)
        # A time-bounded window ends on a segment boundary.
        t_start = t_segment = time.perf_counter()
        with SpeedMeter() as meter:
            while True:
                kind, item = next(stream)
                job = item if kind == "cold" else colds[item][0]
                t0 = time.perf_counter()
                try:
                    reply = client.verify(daemon.host, daemon.port, job,
                                          timeout=120.0)
                except ReproError as exc:
                    reply = {"ok": False, "error": str(exc)}
                ms = (time.perf_counter() - t0) * 1e3
                window.attempted += 1
                if kind == "cold":
                    colds.append((job, reply, ms))
                if not reply.get("ok"):
                    busy = " (busy)" if reply.get("busy") else ""
                    window.fail(f"{kind} request failed{busy}: {reply.get('error')}")
                elif kind == "cold":
                    if reply.get("cached"):
                        window.fail(f"cold request {reply.get('key')} was a cache hit")
                else:
                    hit_ms.append(ms)
                    cold = colds[item][1]
                    if not (reply.get("cached")
                            and reply.get("fingerprint") == cold.get("fingerprint")
                            and reply.get("verdict") == cold.get("verdict")):
                        window.fail(f"hit on {reply.get('key')} differs from its "
                                    "cold reply")
                if window.attempted == RSS_PROBE_REQUESTS:
                    window.rss_mb = daemon.peak_rss_mb()
                if window.attempted % SEGMENT_REQUESTS == 0:
                    now = time.perf_counter()
                    window.walls.append(now - t_segment)
                    window.sizes.append(SEGMENT_REQUESTS)
                    window.scales.append(meter.scale(t_segment, now))
                    t_segment = now
                    if seconds is not None and now - t_start >= seconds:
                        break
                if count is not None and window.attempted >= count:
                    break
        window.ops = window.attempted
        window.wall_s = time.perf_counter() - t_start
        if not window.rss_mb:
            window.rss_mb = daemon.peak_rss_mb()
        return colds, hit_ms

    @staticmethod
    def check_colds(colds, window: Window) -> None:
        """Every cold fingerprint must equal an in-process ``execute_job``."""
        from repro.serve.protocol import VerifyJob, verdict_fingerprint
        from repro.serve.supervisor import execute_job

        for job, reply, _ in colds:
            if not reply.get("ok"):
                continue
            descriptor = VerifyJob.from_wire(job).descriptor()
            expected = verdict_fingerprint(execute_job(descriptor))
            if reply.get("fingerprint") != expected:
                window.fail(f"cold verdict {reply.get('key')} fingerprint "
                            f"{reply.get('fingerprint')} != in-process "
                            f"{expected}")

    def measure(self, seed: int, seconds: float, golden: Dict) -> Window:
        window = Window(unit=self.unit)
        cpu0 = cpu_seconds()
        daemon = Daemon(self.scratch("serve"))
        try:
            colds, hit_ms = self._drive(daemon, seed, window, seconds=seconds)
        finally:
            daemon.stop()
        # This client's CPU plus the reaped daemon's (and its worker's).
        window.cpu_s = cpu_seconds() - cpu0
        self.check_colds(colds, window)
        cold_ms = [ms for _, reply, ms in colds if reply.get("ok")]
        for label, series in (("hit", hit_ms), ("cold", cold_ms)):
            for q in (50, 90):
                window.extra[f"{label}_p{q}_ms"] = (
                    percentile(series, q) if series else float("nan"), "ms",
                    f"n={len(series)} {label} requests")
        return window

    def trace(self, seed: int, seconds: float, golden: Dict, ledger) -> Tuple[Dict, Window]:
        reference = Window(unit=self.unit)
        daemon = Daemon(self.scratch("serve"))
        try:
            self._drive(daemon, seed, reference, count=TRACED_REQUESTS)
        finally:
            daemon.stop()

        traced = Window(unit=self.unit)
        telemetry_dir = self.scratch("telemetry")
        daemon = Daemon(self.scratch("serve"), telemetry_dir)
        try:
            colds, _ = self._drive(daemon, seed, traced, count=TRACED_REQUESTS)
            exposition = _scrape(daemon)
        finally:
            daemon.stop()
        spans = _span_durations(telemetry_dir / "events.jsonl", "serve.execute")
        # The cold jobs are replayed in-process under the wrappers: the
        # compute layers' counts are the daemon's (jobs are deterministic),
        # their self times are this process's.
        install_layer_wrappers(ledger)
        try:
            self.check_colds(colds, traced)
        finally:
            ledger.restore()
        overheads = [ms - spans[reply["key"]] * 1e3
                     for _, reply, ms in colds if reply.get("key") in spans]
        extra = {
            "serve.requests": traced.ops,
            "serve.cache_hit_ratio":
                exposition.get("repro_serve_cache_hit_ratio", 0.0),
            "serve.rejected_busy":
                exposition.get("repro_serve_queue_rejected_total", 0),
            "serve.execute_s": sum(spans.values()),
            "serve.overhead_ms":
                statistics.median(overheads) if overheads else 0.0,
            "serve.store_puts":
                exposition.get("repro_serve_store_puts_total", 0),
            "serve.store_bytes":
                exposition.get("repro_serve_store_bytes_total", 0),
            "durable.appends": exposition.get("repro_durable_appends_total", 0),
            "durable.fsync_s":
                exposition.get("repro_durable_fsync_seconds_sum", 0.0),
            "trace.wall_s": traced.wall_s,
            "trace.overhead_frac": traced.wall_s / reference.wall_s - 1.0,
        }
        traced.attempted += reference.attempted
        traced.failed += reference.failed
        traced.failures += reference.failures
        return layer_values(ledger, extra), traced


def _scrape(daemon: Daemon) -> Dict[str, float]:
    """The daemon's ``metrics`` op, as ``{sample name: value}``."""
    from repro.serve import client

    values: Dict[str, float] = {}
    for line in client.metrics(daemon.host, daemon.port, timeout=30.0).splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


def _span_durations(events: Path, name: str) -> Dict[str, float]:
    """``{job key: duration}`` of every *name* span in a telemetry stream."""
    durations: Dict[str, float] = {}
    with open(events, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("type") == "span" and event.get("name") == name:
                durations[event["attrs"].get("key")] = event["vol"]["dur"]
    return durations


def make_workloads(scratch: Callable[[str], Path]) -> Dict[str, Any]:
    """The five named workloads (see ``BENCHMARK.json`` for why each)."""
    return {
        "safety-plain": ExploreWorkload(
            "safety-plain", lambda: _anonymous_oneshot(4, 1, 3), _safety_plain),
        "safety-orbit": ExploreWorkload(
            "safety-orbit", lambda: _anonymous_oneshot(4, 2, 3), _safety_orbit),
        "progress-pool": ExploreWorkload(
            "progress-pool", _oneshot_abc, _progress_pool,
            workers=POOL_WORKERS),
        "campaign-corruption": CampaignWorkload(),
        "serve-mix": ServeWorkload(scratch),
    }
