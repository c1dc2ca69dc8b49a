"""The traced run's layer ledger: timing wrappers patched in from outside.

Nothing under ``src/`` is edited.  :class:`Ledger` replaces public
callables *where the program looks them up* (a module global, a class
attribute) with wrappers that count calls and time them, and restores the
originals afterwards.  Spans are aggregated in memory per layer name as
``[calls, self seconds, total seconds]``; a span's self time is its
duration minus the time its traced children cover, kept with one running
stack per process.

Pool workers are forked from the tracing process, so they inherit the
wrappers.  The wrapper around the worker entry point resets the inherited
ledger on the worker's first chunk and, after every chunk, spools the
worker's cumulative ledger to ``<spool>/<pid>.json``; :meth:`Ledger.absorb_spool`
folds those files into the coordinator's totals once the pool is gone.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


class Ledger:
    """Per-layer call counts and self/total times for one process."""

    def __init__(self, spool: Optional[Path] = None) -> None:
        self.spool = spool
        #: The coordinator's pid; ``pid`` is the process the stats describe.
        self.owner = self.pid = os.getpid()
        #: name -> [calls, self_s, total_s]
        self.stats: Dict[str, List[float]] = {}
        #: name -> summed quantity (bytes encoded, successors generated ...)
        self.sums: Dict[str, float] = {}
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stat(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def add(self, name: str, amount: float) -> None:
        """Accumulate a non-time quantity under *name*."""
        self.sums[name] = self.sums.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[["Ledger", tuple, Any], None]] = None,
    ) -> Callable:
        """A timing wrapper around *fn* that books its span under *name*.

        *after*, when given, sees ``(ledger, args, result)`` once the call
        returns, to book quantities such as bytes produced.
        """
        stat = self._stat(name)
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dur - child
                stat[2] += dur
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(self, args, result)
            return result

        return timed

    def patch(self, owner: Any, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def patch_worker_entry(self, owner: Any, attr: str) -> None:
        """Wrap a pool worker's entry point so the worker spools its ledger.

        ``functools.wraps`` keeps the entry point's module and qualified
        name, so the pool pickles the wrapper by reference and the forked
        worker resolves it to its inherited copy.
        """
        original = getattr(owner, attr)
        ledger = self

        @functools.wraps(original)
        def entry(*args, **kwargs):
            if os.getpid() != ledger.pid:
                ledger._adopt()
            result = original(*args, **kwargs)
            ledger._spool_out()
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, entry)

    def restore(self) -> None:
        """Put every patched callable back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- worker processes --------------------------------------------------

    def _adopt(self) -> None:
        """Forget the ledger inherited across fork; this is a new process."""
        self.pid = os.getpid()
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        self.sums.clear()
        self._stack.clear()

    def _spool_out(self) -> None:
        if self.spool is None or self.pid == self.owner:
            return
        target = self.spool / f"{self.pid}.json"
        tmp = target.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stats": self.stats, "sums": self.sums}))
        os.replace(tmp, target)

    def absorb_spool(self) -> int:
        """Fold every spooled worker ledger into this one; return the count."""
        if self.spool is None:
            return 0
        files = sorted(self.spool.glob("*.json"))
        for path in files:
            data = json.loads(path.read_text())
            for name, (calls, self_s, total_s) in data["stats"].items():
                stat = self._stat(name)
                stat[0] += calls
                stat[1] += self_s
                stat[2] += total_s
            for name, amount in data["sums"].items():
                self.add(name, amount)
            path.unlink()
        return len(files)

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[1])

    def total_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[2])

    def sum(self, name: str) -> float:
        return self.sums.get(name, 0)
