"""Single-machine multi-process executor.

Fans work units out over a :class:`~concurrent.futures.ProcessPoolExecutor`.
Units are submitted in *chunks* sized by the shared
:class:`~repro.experiments.executors.base.LeasePolicy` — the same knob
the socket master uses for worker leases — so a pool task amortizes IPC
over several units and never mixes scenarios (warm kernel state).
Chunks complete in arbitrary order; the store records each unit as its
chunk finishes and aggregation sorts canonically, so results are
identical to the serial executor for any worker count or chunk size.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Optional, Sequence

from repro.experiments.executors.base import (
    LeasePolicy,
    LeaseSpec,
    ProgressFn,
    unit_progress_line,
)
from repro.experiments.grid import WorkUnit
from repro.experiments.harness import RepResult
from repro.experiments.store import RunStore


def effective_workers(workers: Optional[int], clamp: bool = True) -> int:
    """Requested worker count, clamped to the CPU budget by default.

    Oversubscribing cores buys nothing and pays pool overhead: results
    are worker-count independent, so clamping is safe.
    """
    requested = int(workers) if workers else 0
    if clamp and requested > 1:
        requested = min(requested, os.cpu_count() or 1)
    return requested


class _UnitFailure:
    """A unit's exception, carried home so the chunk's completed sibling
    results are not thrown away with it."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def _run_chunk(units: Sequence[WorkUnit]) -> list[object]:
    results: list[object] = []
    for unit in units:
        try:
            results.append(unit.run())
        except Exception as exc:
            results.append(_UnitFailure(exc))
            break
    return results


class ProcessExecutor:
    """Deterministic process-pool executor; ``workers <= 1`` runs inline.

    ``lease`` sizes the chunks submitted per pool task (an int, ``"auto"``
    for the chunks-per-worker heuristic, or a configured
    :class:`LeasePolicy`); the default matches the historical one-unit-
    per-task behaviour on small campaigns and batches on large ones.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        clamp: bool = True,
        lease: LeaseSpec = None,
    ) -> None:
        self.workers = effective_workers(workers, clamp)
        self.lease_policy = LeasePolicy.from_spec(lease)

    def run(
        self,
        units: Sequence[WorkUnit],
        store: RunStore,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        if self.workers <= 1:
            from repro.experiments.executors.base import SerialExecutor

            SerialExecutor().run(units, store, progress=progress)
            return
        chunks = self.lease_policy.chunks(units, self.workers)
        done = 0
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            pending = {pool.submit(_run_chunk, chunk): chunk for chunk in chunks}
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    chunk = pending.pop(fut)
                    for unit, result in zip(chunk, fut.result()):
                        if isinstance(result, _UnitFailure):
                            # The chunk's completed prefix is already
                            # stored; only the failing unit's work (and
                            # its chunk's unstarted tail) is lost.
                            raise result.exc
                        store.append(unit, result)
                        done += 1
                        if progress is not None:
                            progress(unit_progress_line(unit, done, len(units)))
