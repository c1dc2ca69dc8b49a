#!/usr/bin/env python3
"""perfbench — the verdict benchmark of this repository.

Run from the root of a checkout::

    python3 perfbench/run.py --workload safety-plain --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs a fixed amount of work under the layer wrappers of ``ledger.py`` and
prints the per-layer ledger instead.  Every verdict is checked against
``golden.json`` (or the in-process reference, for serve); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit codes: 0 all verdicts correct, 1 a wrong
verdict or failed request, 2 the checkout has no sources to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("safety-plain", "safety-orbit", "progress-pool",
             "campaign-corruption", "serve-mix")

#: Set-ups measured per run (after one unmeasured warm-up); the median
#: is reported, so one slow start on a busy host does not move it.
SETUP_SAMPLES = 7

#: The end-to-end metrics, in report order: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (explore workloads ignore it)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer ledger instead")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head[:12]
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()[:12]
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def tree_digest() -> str:
    """blake2b of every source file under src/: the code actually measured."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def run(args, tmp: Path) -> int:
    """One benchmark run; *tmp* is this run's scratch directory."""
    import ledger
    import workloads

    counter = itertools.count()

    def scratch(label: str) -> Path:
        return tmp / f"{label}-{next(counter)}"

    golden = json.loads(GOLDEN.read_text())
    workload = workloads.make_workloads(scratch)[args.workload]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"provenance commit={commit_id()} tree={tree_digest()} "
          f"cpus={os.cpu_count()} python={platform.python_version()} "
          f"workers={workload.workers}")

    metrics = {}
    if args.trace:
        workload.prepare()
        spool = tmp / "spool"
        spool.mkdir()
        layers, window = workload.trace(
            args.seed, args.seconds, golden, ledger.Ledger(spool))
        for name, unit in workloads.LAYER_METRICS:
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"  {name:<32} {layers[name]:>14.6g} {unit}")
    else:
        setups, raw_setups = workloads.measure_setup(
            workload.setup_sample, SETUP_SAMPLES)
        workload.prepare()
        window = workload.measure(args.seed, args.seconds, golden)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": window.ops_per_s(),
            "cpu_ms_per_op": window.cpu_ms_per_op(),
            "peak_rss_mb": window.rss_mb,
        }
        per = f"median of {len(window.sizes)} {workload.segment}s"
        notes = {
            "setup_s": f"median cpu of {len(setups)} fresh-process set-ups; "
                       f"raw {statistics.median(raw_setups):.4g} s",
            "ops_per_s": f"{per}; raw {window.ops} {window.unit} in "
                         f"{sum(window.walls):.3f} s",
            "cpu_ms_per_op": f"{per}; raw {window.cpu_s:.3f} s cpu incl. "
                             "reaped children",
            "peak_rss_mb": "peak resident set (README: which process)",
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<16} {values[name]:>14.6g} {unit:<6} {notes[name]}")
        print(f"  {'error_rate':<16} {window.failed / window.attempted:>14.6g} "
              f"{'ratio':<6} {window.failed} failed of {window.attempted} "
              "attempted")
        print(f"  {'host_speed':<16} {window.host_speed():>14.6g} "
              f"{'ratio':<6} median over {len(window.scales)} "
              f"{workload.segment}s of the sampled speed against the "
              "reference; times above are at reference speed")
        for name, (value, unit, note) in window.extra.items():
            print(f"  {name:<16} {value:>14.6g} {unit:<6} {note}")
    for failure in window.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": metrics,
    }))
    return 0 if window.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
