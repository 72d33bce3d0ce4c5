"""
Per-layer tracing from outside the program.

``Tracer.wrap(module, attr, name)`` replaces one module attribute with a
wrapper that counts calls and busy time, so only calls that reach the
function through that attribute are seen (``survey.count_avoiders`` sees the
survey's calls into counting, not the checks' calls). Fork pool workers
inherit the wrapped attributes.

Pool workers are killed by ``Pool.terminate`` without running exit hooks,
so a worker appends each call to its own spool file before the call
returns; ``totals()`` merges the spool files with the measuring process's
own figures.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable


def read_threads() -> int:
    """OS threads of this process, from /proc/self/status."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.in_worker = False
        os.register_at_fork(after_in_child=self._forked)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.threads: int | None = None  # most seen after a kernel call in this process
        self.patched: list[tuple[object, str, Callable]] = []

    def _forked(self) -> None:
        self.in_worker = True
        self.threads = None

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        work: Callable[[object], int] | None = None,
        kernel: bool = False,
    ) -> None:
        """
        Time every call through ``module.attr`` under ``name``. ``work``
        maps a result to a count summed into ``work[name]``; ``kernel``
        marks the calls after which the thread count is read.
        """
        fn = getattr(module, attr)
        self.patched.append((module, attr, fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            busy = time.perf_counter() - start
            units = work(result) if work is not None else 0
            threads = read_threads() if kernel else None
            if threads is not None:
                self.threads = max(threads, self.threads or 0)
            if self.in_worker:
                self._spool(name, busy, units, threads)
            else:
                self.calls[name] += 1
                self.busy[name] += busy
                self.work[name] += units
            return result

        setattr(module, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped attribute."""
        while self.patched:
            module, attr, fn = self.patched.pop()
            setattr(module, attr, fn)

    def _spool(self, name: str, busy: float, units: int, threads: int | None) -> None:
        line = json.dumps({"name": name, "busy": busy, "work": units, "threads": threads})
        path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def totals(self) -> tuple[dict, dict, dict, int | None]:
        """(calls, busy seconds, work units, max threads seen) over all processes."""
        calls, busy, work = dict(self.calls), dict(self.busy), dict(self.work)
        threads = [self.threads] if self.threads is not None else []
        for entry in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, entry), encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    calls[rec["name"]] = calls.get(rec["name"], 0) + 1
                    busy[rec["name"]] = busy.get(rec["name"], 0.0) + rec["busy"]
                    work[rec["name"]] = work.get(rec["name"], 0) + rec["work"]
                    if rec["threads"] is not None:
                        threads.append(rec["threads"])
        return calls, busy, work, max(threads) if threads else None
