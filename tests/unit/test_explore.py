"""Unit tests for the exhaustive exploration checkers."""

import functools
from collections import deque

import pytest

from repro import OneShotSetAgreement, RepeatedSetAgreement, System, TrivialSetAgreement
from repro.errors import StepLimitExceeded
from repro.explore import checker, explore_progress_closure, explore_safety
from repro.explore.checker import default_survivor_sets
from repro.runtime.runner import replay, run, run_solo
from repro.sched.round_robin import RoundRobinScheduler
from repro.spec.properties import check_k_agreement


class TestSafetyExploration:
    def test_trivial_system_fully_explored(self):
        system = System(TrivialSetAgreement(n=2, k=2), workloads=[["a"], ["b"]])
        result = explore_safety(system, k=2)
        assert result.complete and result.ok
        # 2 procs x (invoke, decide): interleavings of 4 steps; small space.
        assert result.configs_explored >= 4

    def test_nominal_oneshot_consensus_safe_exhaustively(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        result = explore_safety(system, k=1)
        assert result.complete
        assert result.ok

    def test_underprovisioned_violation_found_with_witness(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1, components=2),
            workloads=[["a"], ["b"]],
        )
        result = explore_safety(system, k=1)
        assert result.safety_violations
        witness = result.safety_violations[0]
        assert witness.property_name == "k-Agreement"
        # The witness schedule reproduces the violation from scratch.
        execution = replay(system, witness.schedule)
        assert check_k_agreement(execution, k=1)

    def test_budget_truncation_flagged(self):
        system = System(
            OneShotSetAgreement(n=3, m=1, k=2), workloads=[["a"], ["b"], ["c"]]
        )
        result = explore_safety(system, k=2, max_configs=50)
        assert not result.complete
        assert result.configs_explored == 50

    def test_stop_at_first_false_collects_more(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1, components=1),
            workloads=[["a"], ["b"]],
        )
        result = explore_safety(system, k=1, stop_at_first=False,
                                max_configs=5_000)
        assert len(result.safety_violations) >= 1

    def test_summary_strings(self):
        system = System(TrivialSetAgreement(n=2, k=2), workloads=[["a"], ["b"]])
        result = explore_safety(system, k=2)
        assert "complete" in result.summary()
        assert "no violations" in result.summary()


class TestProgressClosure:
    def test_trivial_progress(self):
        system = System(TrivialSetAgreement(n=2, k=2), workloads=[["a"], ["b"]])
        result = explore_progress_closure(system, m=1)
        assert result.ok and result.complete

    def test_oneshot_consensus_progress_closure(self):
        """From every reachable configuration of the nominal one-shot
        consensus at n=2, each solo survivor finishes — the strongest
        finite rendition of obstruction-freedom."""
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        result = explore_progress_closure(
            system, m=1, max_configs=2_000, solo_budget=2_000
        )
        assert result.ok

    def test_repeated_consensus_progress_closure_bounded(self):
        system = System(
            RepeatedSetAgreement(n=2, m=1, k=1),
            workloads=[["a1", "a2"], ["b1", "b2"]],
        )
        result = explore_progress_closure(
            system, m=1, max_configs=1_000, solo_budget=3_000
        )
        assert result.ok


# --------------------------------------------------------------------- #
# The progress oracle at its budget boundary, against a reference
# --------------------------------------------------------------------- #

BOUNDARY_CONFIGS = 150

BOUNDARY_SYSTEMS = {
    "oneshot-n2": lambda: System(
        OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
    ),
    "oneshot-n3": lambda: System(
        OneShotSetAgreement(n=3, m=1, k=2), workloads=[["a"], ["b"], ["c"]]
    ),
    "repeated-n2": lambda: System(
        RepeatedSetAgreement(n=2, m=1, k=1),
        workloads=[["a1", "a2"], ["b1", "b2"]],
    ),
    "repeated-n3": lambda: System(
        RepeatedSetAgreement(n=3, m=1, k=2),
        workloads=[["a1", "a2"], ["b1", "b2"], ["c1", "c2"]],
    ),
}


def _reference_stall(system, config, survivors, solo_budget):
    """Reference oracle: one full runner.run from *config*, no hints."""
    if not any(system.enabled(config, pid) for pid in survivors):
        return None
    try:
        tail = run(
            system,
            RoundRobinScheduler(subset=survivors),
            initial=config,
            max_steps=solo_budget,
        )
    except StepLimitExceeded:
        return (
            survivors,
            f"survivors {survivors} exceeded {solo_budget} "
            "steps running in isolation",
        )
    assert system.decided_all(tail.config, survivors)
    return None


def _reference_closure(system, solo_budget, max_configs):
    """BFS in the engine's order, checking every singleton from every config.

    Returns ``(configs_explored, first violation or None)`` where a
    violation is ``(survivors, detail, schedule)``.
    """
    start = system.initial_configuration()
    parents = {start: None}
    frontier = deque([start])
    explored = 0
    while frontier and explored < max_configs:
        config = frontier.popleft()
        explored += 1
        for survivors in default_survivor_sets(system.n, 1):
            stall = _reference_stall(system, config, survivors, solo_budget)
            if stall is not None:
                schedule, cursor = [], config
                while parents[cursor] is not None:
                    cursor, pid = parents[cursor]
                    schedule.append(pid)
                return explored, (*stall, tuple(reversed(schedule)))
        for pid in system.enabled_pids(config):
            successor = system.step(config, pid).config
            if successor not in parents:
                parents[successor] = (config, pid)
                frontier.append(successor)
    return explored, None


@functools.lru_cache(maxsize=None)
def _solo_runs(name):
    """``(config, q, L, halted)`` for every enabled q of the first BFS configs."""
    system = BOUNDARY_SYSTEMS[name]()
    start = system.initial_configuration()
    seen, frontier, runs = {start}, deque([start]), []
    while frontier and len(seen) <= BOUNDARY_CONFIGS:
        config = frontier.popleft()
        for q in system.enabled_pids(config):
            tail = run_solo(system, q, initial=config)
            runs.append((config, q, tail.steps, system.all_halted(tail.config)))
            successor = system.step(config, q).config
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return system, runs


class TestProgressBoundary:
    """Solo hints and reused first steps keep the StepLimitExceeded
    boundary exactly: a singleton exceeds iff ``L > budget``, or ``L ==
    budget`` with some process still enabled at the end of its run."""

    @pytest.mark.parametrize("name", sorted(BOUNDARY_SYSTEMS))
    @pytest.mark.parametrize("base, offset", [
        ("zero", 0), ("zero", 1),
        ("L0", -1), ("L0", 0), ("L0", 1),
        ("Lmax", -1), ("Lmax", 0), ("Lmax", 1),
    ])
    def test_closure_matches_reference_oracle(self, name, base, offset):
        """Budgets around an observed solo length L: the initial
        configuration's process-0 solo length (L0) or the longest seen."""
        system, runs = _solo_runs(name)
        lengths = {
            "zero": 0,
            "L0": runs[0][2],
            "Lmax": max(length for _, _, length, _ in runs),
        }
        solo_budget = lengths[base] + offset
        explored, violation = _reference_closure(
            system, solo_budget, BOUNDARY_CONFIGS
        )
        result = explore_progress_closure(
            system, m=1, solo_budget=solo_budget,
            max_configs=BOUNDARY_CONFIGS, batch_size=7,
        )
        assert result.configs_explored == explored
        if violation is None:
            assert result.ok
            return
        survivors, detail, schedule = violation
        found = result.progress_violations[0]
        assert (found.survivors, found.detail, found.schedule_to_config) == (
            survivors, detail, schedule,
        )
        assert not result.complete

    @pytest.mark.parametrize("name", sorted(BOUNDARY_SYSTEMS))
    def test_budget_equal_to_length_with_others_enabled_is_exceeded(self, name):
        """From the initial configuration, process 0's solo run ends with
        the others still enabled, so a budget of exactly its length fails
        there, with the empty schedule."""
        system, runs = _solo_runs(name)
        config, q, length, halted = runs[0]
        assert (q, halted) == (0, False)
        result = explore_progress_closure(system, m=1, solo_budget=length)
        found = result.progress_violations[0]
        assert found.survivors == (0,)
        assert found.schedule_to_config == ()
        assert result.configs_explored == 1

    def test_runs_ending_halted_and_not_halted_are_both_covered(self):
        ends = {
            halted
            for name in BOUNDARY_SYSTEMS
            for *_, halted in _solo_runs(name)[1]
        }
        assert ends == {False, True}

    @pytest.mark.parametrize("name", sorted(BOUNDARY_SYSTEMS))
    def test_oracle_with_and_without_hint_matches_reference(self, name):
        """Per configuration and process, at budgets L-1, L, L+1: the run
        path and the hinted path both agree with the reference run."""
        system, runs = _solo_runs(name)
        for config, q, length, halted in runs:
            for solo_budget in (length - 1, length, length + 1):
                expected = _reference_stall(system, config, (q,), solo_budget)
                ran = checker._check_config_progress(
                    system, config, [(q,)], solo_budget
                )
                hinted = checker._check_config_progress(
                    system, config, [(q,)], solo_budget, (q, length, halted)
                )
                assert ran.stall == hinted.stall == expected
                assert (hinted.runs, hinted.hint_hits) == (0, 1)
                assert ran.runs == (1 if solo_budget > 0 else 0)
                if expected is None:
                    assert ran.solo[q] == (length, halted)
                    assert ran.first_steps[q] == system.step(config, q)
