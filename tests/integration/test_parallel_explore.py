"""The parallel exploration engine certifies exactly what the sequential
path certifies — same closure, same counterexamples, same counts — and
worker-side failures cross the pool as structured errors, never hangs."""

import dataclasses

import pytest

from repro import OneShotSetAgreement, System, telemetry
from repro._types import Params
from repro.agreement.anonymous import AnonymousOneShotSetAgreement
from repro.durable.watchdog import Watchdog
from repro.errors import ExplorationEngineError
from repro.explore import explore_progress_closure, explore_safety
from repro.explore.cache import entry_path, load_entry
from repro.memory.layout import register_layout
from repro.runtime.automaton import ProtocolAutomaton
from repro.runtime.runner import replay
from repro.spec.properties import check_k_agreement


def result_record(result):
    """An ExplorationResult as a comparable value."""
    return dataclasses.asdict(result)


class TestWorkerParity:
    def test_safe_instance_identical_outcome(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        sequential = explore_safety(system, k=1)
        parallel = explore_safety(system, k=1, workers=4)
        assert sequential.complete and sequential.ok
        assert result_record(parallel) == result_record(sequential)

    def test_violating_instance_identical_witness(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1, components=2),
            workloads=[["a"], ["b"]],
        )
        sequential = explore_safety(system, k=1)
        parallel = explore_safety(system, k=1, workers=4)
        assert result_record(parallel) == result_record(sequential)
        witness = parallel.safety_violations[0]
        execution = replay(system, witness.schedule)
        assert check_k_agreement(execution, k=1)

    def test_batch_size_does_not_change_outcome(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1, components=2),
            workloads=[["a"], ["b"]],
        )
        small = explore_safety(system, k=1, workers=2, batch_size=3)
        large = explore_safety(system, k=1, workers=2, batch_size=512)
        assert result_record(small) == result_record(large)

    def test_canonicalized_parallel_parity(self):
        system = System(
            AnonymousOneShotSetAgreement(n=3, m=1, k=1),
            workloads=[["v"], ["v"], ["v"]],
        )
        sequential = explore_safety(system, k=1, canonicalize=True)
        parallel = explore_safety(system, k=1, canonicalize=True, workers=4)
        assert result_record(parallel) == result_record(sequential)
        assert sequential.complete and sequential.ok

    def test_progress_closure_parity(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        sequential = explore_progress_closure(system, m=1)
        parallel = explore_progress_closure(system, m=1, workers=4)
        assert sequential.complete and sequential.ok
        assert result_record(parallel) == result_record(sequential)


class ExplodingAutomaton(ProtocolAutomaton):
    """Raises mid-expansion: exercises worker failure propagation."""

    name = "exploding"

    def default_layout(self):
        """One register, never touched."""
        return register_layout("R", 1)

    def begin(self, ctx, persistent, value, invocation):
        """One thread, poised to explode."""
        return ("armed",)

    def pending(self, ctx, thread, state):
        """Boom."""
        raise RuntimeError("exploding automaton detonated")

    def apply(self, ctx, thread, state, response):
        """Unreachable."""
        return state


class TestFailurePropagation:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_oracle_exception_is_structured(self, workers):
        system = System(ExplodingAutomaton(Params()), workloads=[["a"], ["b"]])
        with pytest.raises(ExplorationEngineError) as excinfo:
            explore_safety(system, k=1, workers=workers)
        failure = excinfo.value.failure
        assert failure.kind == "RuntimeError"
        assert "detonated" in failure.detail
        assert "detonated" in failure.traceback
        assert failure.config_fingerprint

    @pytest.mark.parametrize("workers", [1, 2])
    def test_step_limit_is_a_progress_counterexample(self, workers):
        """StepLimitExceeded inside the progress oracle is a verdict, not a
        crash: it crosses the pool as a ProgressCounterexample."""
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        result = explore_progress_closure(
            system, m=1, solo_budget=2, workers=workers
        )
        assert not result.complete
        assert result.progress_violations
        assert "exceeded 2" in result.progress_violations[0].detail


class TestResume:
    def test_truncated_run_resumes_to_completion(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        truncated = explore_safety(
            system, k=1, max_configs=200, cache_dir=cache_dir
        )
        assert not truncated.complete
        assert truncated.configs_explored == 200
        resumed = explore_safety(
            system, k=1, max_configs=5_000, cache_dir=cache_dir
        )
        fresh = explore_safety(system, k=1, max_configs=5_000)
        assert resumed.complete
        assert result_record(resumed) == result_record(fresh)

    def test_finished_entry_served_without_reexploring(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        first = explore_safety(system, k=1, cache_dir=cache_dir)
        entries = list((tmp_path / "cache").iterdir())
        assert len(entries) == 1
        key = entries[0].stem
        entry = load_entry(cache_dir, key)
        assert entry.finished
        again = explore_safety(system, k=1, cache_dir=cache_dir)
        assert result_record(again) == result_record(first)

    def test_different_parameters_use_different_keys(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        base = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        other = System(
            OneShotSetAgreement(n=2, m=1, k=1, components=2),
            workloads=[["a"], ["b"]],
        )
        explore_safety(base, k=1, cache_dir=cache_dir)
        explore_safety(other, k=1, cache_dir=cache_dir)
        assert len(list((tmp_path / "cache").iterdir())) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        first = explore_safety(system, k=1, cache_dir=cache_dir)
        entry_file = next((tmp_path / "cache").iterdir())
        entry_file.write_bytes(b"not a pickle")
        assert load_entry(cache_dir, entry_file.stem) is None
        again = explore_safety(system, k=1, cache_dir=cache_dir)
        assert result_record(again) == result_record(first)


class TestCliIntegration:
    def test_workers_flag_matches_sequential_output(self, capsys):
        from repro.cli import main

        assert main(["explore", "--n", "2", "--m", "1", "--k", "1"]) == 0
        sequential_out = capsys.readouterr().out
        assert main(["explore", "--n", "2", "--m", "1", "--k", "1",
                     "--workers", "4"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == sequential_out

    def test_resume_flag_populates_cache_dir(self, capsys, tmp_path):
        from repro.cli import main

        cache_dir = str(tmp_path / "cli-cache")
        args = ["explore", "--n", "2", "--m", "1", "--k", "1",
                "--resume", "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        entries = sorted(p.name for p in (tmp_path / "cli-cache").iterdir())
        # one sealed cache entry plus the run's durable journal directory
        assert len(entries) == 2
        assert any(name.endswith(".pkl") for name in entries)
        assert any(name.endswith(".journal") for name in entries)
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_engine_failure_exits_two(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.explore.frontier import EngineFailure

        def detonate(*args, **kwargs):
            raise ExplorationEngineError(EngineFailure(
                kind="RuntimeError", detail="detonated",
                config_fingerprint="0" * 32, traceback="Traceback: detonated\n",
            ))

        monkeypatch.setattr(cli, "explore_safety", detonate)
        code = cli.main(["explore", "--n", "2", "--m", "1", "--k", "1"])
        assert code == 2
        out = capsys.readouterr().out
        assert "ENGINE FAILURE" in out and "detonated" in out

    def test_canonicalize_flag_reports_orbit_count(self, capsys):
        from repro.cli import main

        code = main(["explore", "--protocol", "anonymous-oneshot",
                     "--n", "3", "--m", "1", "--k", "1",
                     "--cluster-inputs", "1", "--canonicalize"])
        assert code == 0
        out = capsys.readouterr().out
        assert "orbit representatives" in out


class StopAfterPolls(Watchdog):
    """A watchdog that asks the run to stop at its *polls*-th batch boundary."""

    def __init__(self, polls):
        super().__init__()
        self.polls = polls

    def poll(self):
        self.polls -= 1
        if self.polls <= 0:
            self.request_stop("test-stop")
        return super().poll()


def oneshot_n3():
    return System(
        OneShotSetAgreement(n=3, m=1, k=2), workloads=[["a"], ["b"], ["c"]]
    )


def progress_with_counters(**kwargs):
    """A telemetered progress closure: its identity record and the
    deterministic ``explore.progress.*`` counters."""
    session = telemetry.start(command="explore", mode="jsonl", sinks=[])
    try:
        result = explore_progress_closure(oneshot_n3(), m=1, **kwargs)
        counters = tuple(
            session.registry.value("counter", f"explore.progress.{name}")
            for name in ("solo_runs", "hint_hits")
        )
    finally:
        session.close(exit_code=0)
        telemetry.reset()
    return result.identity_record(), counters


class TestProgressHintInvariance:
    """Solo-run hints are assigned at the coordinator's merge and never
    persisted, so the oracle's work and its verdict do not depend on the
    worker count, the batch size, a journal resume, or canonicalization."""

    def test_record_and_counters_invariant_across_workers_and_batches(self):
        runs = {
            (workers, batch_size): progress_with_counters(
                solo_budget=2_000, max_configs=600,
                workers=workers, batch_size=batch_size,
            )
            for workers in (1, 2)
            for batch_size in (7, 32)
        }
        baseline = runs[1, 7]
        solo_runs, hint_hits = baseline[1]
        assert solo_runs > 0 and hint_hits > 0
        assert all(run == baseline for run in runs.values())

    def test_violation_invariant_across_workers_and_batches(self):
        """A budget of 10 fails six solo steps deep.  The counters are left
        out here: the batch that holds the violation is expanded whole, and
        how much of it lies past the violation depends on the split."""
        records = [
            progress_with_counters(
                solo_budget=10, workers=workers, batch_size=batch_size
            )[0]
            for workers in (1, 2)
            for batch_size in (7, 32)
        ]
        violation = records[0]["progress_violations"][0]
        assert len(violation["schedule_to_config"]) == 6
        assert all(record == records[0] for record in records)

    def test_journal_resume_matches_uninterrupted(self, tmp_path):
        kwargs = dict(solo_budget=2_000, max_configs=600, batch_size=16)
        baseline = explore_progress_closure(oneshot_n3(), m=1, **kwargs)
        journal_dir = str(tmp_path / "journal")
        first_leg = explore_progress_closure(
            oneshot_n3(), m=1, journal_dir=journal_dir,
            watchdog=StopAfterPolls(5), **kwargs,
        )
        assert first_leg.interrupted == "test-stop"
        # Stopped mid-run: the resumed frontier has lost its hints.
        assert 0 < first_leg.configs_explored < baseline.configs_explored
        resumed = explore_progress_closure(
            oneshot_n3(), m=1, journal_dir=journal_dir, **kwargs
        )
        assert resumed.recovery is not None
        assert resumed.identity_record() == baseline.identity_record()

    @pytest.mark.parametrize(
        "solo_budget, explored", [(12, 1), (13, 629), (2_000, 629)]
    )
    def test_canonicalized_anonymous_verdict(self, solo_budget, explored):
        """The anonymous one-shot automaton's first solo run takes 12 steps
        with the other processes still enabled: a budget of 12 fails at the
        initial configuration, 13 closes all 629 orbit representatives."""
        system = System(
            AnonymousOneShotSetAgreement(n=3, m=1, k=1),
            workloads=[["v"], ["v"], ["v"]],
        )
        orbits = explore_progress_closure(
            system, m=1, solo_budget=solo_budget, canonicalize=True
        )
        plain = explore_progress_closure(
            system, m=1, solo_budget=solo_budget, max_configs=explored
        )
        assert orbits.configs_explored == explored
        assert orbits.complete == (explored == 629)
        assert orbits.ok == plain.ok
        assert orbits.progress_violations == plain.progress_violations
