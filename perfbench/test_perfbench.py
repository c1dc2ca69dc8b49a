"""Self-tests of the benchmark itself (not part of the repository's suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The command-line tests use one-second windows on the real workloads; the
in-process tests use tiny systems.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )
    return proc, proc.stdout.strip().splitlines()


def last_json(lines):
    return json.loads(lines[-1])


def tiny_system():
    return workloads._anonymous_oneshot(3, 1, 1)


def tiny_explore(system):
    from repro.explore import explore_safety

    return explore_safety(system, k=1)


def tiny_verdict():
    return tiny_explore(tiny_system())


def tiny_golden(name="tiny"):
    record = tiny_verdict().identity_record()
    return {name: {"digest": workloads.record_digest(record), "identity": record}}


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_every_metric_prints_with_its_unit(name, trace):
    proc, lines = bench("--workload", name, "--seed", "3", "--seconds", "1",
                        "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(lines)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if trace == "0":
            assert printed["value"] > 0
    report = "\n".join(lines[:-1])
    assert "provenance commit=" in report and "cpus=" in report
    assert "seed=3" in report and "python=" in report
    if trace == "0":
        assert "error_rate" in report
        if name == "serve-mix":
            for label in ("hit_p50_ms", "hit_p90_ms", "cold_p50_ms", "cold_p90_ms"):
                assert label in report
        if name == "campaign-corruption":
            assert "inconclusive_frac" in report


def test_wrong_golden_fails_the_run(tmp_path, monkeypatch, capsys):
    golden = json.loads(run.GOLDEN.read_text())
    golden["safety-orbit"]["identity"]["configs_explored"] += 1
    golden["safety-orbit"]["digest"] = workloads.record_digest(
        golden["safety-orbit"]["identity"])
    wrong = tmp_path / "golden.json"
    wrong.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", wrong)
    code = run.main(["--workload", "safety-orbit", "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    result = last_json(lines)
    assert result["correct"] is False and result["failed"] >= 1
    rate = next(line for line in lines if line.split()[0] == "error_rate")
    assert float(rate.split()[1]) > 0
    assert any("configs_explored" in line for line in lines if "FAILED" in line)


def campaign_golden():
    return json.loads(run.GOLDEN.read_text())["campaign-corruption"]["trials"]


def test_campaign_golden_covers_every_plan_seed():
    golden = campaign_golden()
    assert sorted(map(int, golden)) == list(workloads.PLAN_SEEDS)
    for labels in golden.values():
        assert len(labels) == workloads.CAMPAIGN_TRIALS
    stream = workloads.plan_seeds(7)
    drawn = [next(stream) for _ in range(3 * len(workloads.PLAN_SEEDS))]
    assert set(drawn) == set(workloads.PLAN_SEEDS)


def test_wrong_campaign_label_is_a_failure():
    plan_seed = next(workloads.plan_seeds(1))
    expected = [tuple(e) for e in campaign_golden()[str(plan_seed)]]
    report = workloads.CampaignWorkload().campaign(plan_seed)
    pairs = list(zip(report.trials, expected))
    assert all(workloads.trial_mismatch(t, e) is None for t, e in pairs)
    # A safe trial that the golden called a violation is a failure ...
    flipped = [(name, "violation" if label == "safe" else label)
               for name, label in expected]
    assert any(workloads.trial_mismatch(t, e)
               for t, e in zip(report.trials, flipped))
    # ... and so is a trial from another plan than the golden's.
    shifted = expected[1:] + expected[:1]
    assert any(workloads.trial_mismatch(t, e)
               for t, e in zip(report.trials, shifted))
    # An inconclusive golden accepts any outcome: a verdict may be gained.
    lenient = [(name, "inconclusive") for name, _ in expected]
    assert all(workloads.trial_mismatch(t, e) is None
               for t, e in zip(report.trials, lenient))


def test_campaign_seed_changes_plans_explore_verdicts_do_not_move():
    first = workloads.campaign_plans(next(workloads.plan_seeds(1)))
    again = workloads.campaign_plans(next(workloads.plan_seeds(1)))
    other = workloads.campaign_plans(next(workloads.plan_seeds(2)))
    assert first == again
    assert first != other
    golden = tiny_golden()
    tiny = workloads.ExploreWorkload("tiny", tiny_system, tiny_explore)
    for seed in (1, 2, 99):
        window = tiny.measure(seed, 0.01, golden)
        assert window.failed == 0 and window.attempted >= 1


def test_serve_stream_is_seeded_and_cold_keys_are_distinct():
    def take(seed, count=200):
        stream = workloads.request_stream(seed)
        return [next(stream) for _ in range(count)]

    assert take(5) == take(5)
    assert take(5) != take(6)
    colds = [job for kind, job in take(5) if kind == "cold"]
    hits = [item for kind, item in take(5) if kind == "hit"]
    assert len({json.dumps(job, sort_keys=True) for job in colds}) == len(colds)
    assert len(hits) == workloads.HITS_PER_COLD * len(colds)


def test_deterministic_counts_repeat_exactly():
    def traced_counts():
        book = ledger.Ledger()
        workloads.install_layer_wrappers(book)
        try:
            tiny_verdict()
        finally:
            book.restore()
        return {name: stat[0] for name, stat in book.stats.items()}, dict(book.sums)

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first[0]["system.step"] > 0 and first[0]["packed.encode"] > 0


def test_times_are_priced_at_reference_speed():
    # The same closure, timed while the host ran at full, half and quarter
    # speed, reads the same once each time is scaled by the host's speed.
    window = workloads.Window(
        unit="configs", sizes=[100, 100, 100], walls=[1.0, 2.0, 4.0],
        cpus=[1.0, 2.0, 4.0], scales=[1.0, 0.5, 0.25])
    assert window.ops_per_s() == 100.0
    assert window.cpu_ms_per_op() == 10.0
    with workloads.SpeedMeter() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert len(meter.samples) >= 3
    assert 0.05 < meter.scale(t0, t1) < 20
    # A stretch with no sample inside takes one on the spot.
    assert meter.scale(t1 + 10, t1 + 11) > 0
    assert workloads.probe_work() == workloads.probe_work()


def test_self_time_excludes_traced_children():
    book = ledger.Ledger()

    def inner():
        sum(range(20_000))

    inner = book.wrap("inner", inner)

    def outer():
        inner()
        inner()

    outer = book.wrap("outer", outer)
    outer()
    assert book.calls("inner") == 2 and book.calls("outer") == 1
    assert book.self_s("outer") == pytest.approx(
        book.total_s("outer") - book.total_s("inner"))
    assert book.self_s("inner") == book.total_s("inner")


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "safety-plain",
         "--seconds", "1"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
