"""Layer spans recorded from outside the program.

:func:`instrument` times calls into each layer's public functions by
swapping them for timing wrappers: the scheduler registry entries
(re-registered through ``SCHEDULERS.register(..., overwrite=True)``, so
``FAULTFREE_RUNNERS``/``ALGORITHM_RUNNERS`` calls from both ``run_rep``
and ``OnlineHarness`` are timed), the module-level callees of
``run_rep`` and of the online harness, and the online harness class.
Every swapped attribute and registry entry is put back when the
``with`` block exits, whatever happens inside it.

The wrappers also validate what they intercept: every schedule goes
through ``validate_schedule`` and every replay through
``validate_execution``.  Validation runs while the tracer is paused, so
its time is in no span, not even in the parent spans around it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from repro.experiments import harness, online
from repro.experiments.registry import SCHEDULERS, SchedulerEntry
from repro.fault.validation import validate_execution
from repro.schedule.validation import validate_schedule
from repro.utils.errors import ExecutionFailedError, ScheduleValidationError


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.index = self.tracer.begin(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.index)


class Tracer:
    """In-memory spans: ``[name, start, end, parent]`` in begin order.

    Times come from :meth:`clock`, a ``perf_counter`` that stands still
    while :meth:`paused` is active.  ``counts`` holds the counters the
    wrappers record at the same boundaries (messages, failed replays,
    validation outcomes).  Single-threaded: the traced pass runs every
    unit inline.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._paused = 0.0

    def clock(self) -> float:
        return perf_counter() - self._paused

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    @contextmanager
    def paused(self) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self._paused += perf_counter() - start

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # ------------------------------------------------------------ reading

    def durations(self) -> dict[str, list[float]]:
        """Seconds of every closed span, by name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _parent in self.spans:
            if end is not None:
                out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, list[float]]:
        """Span duration minus the time its child spans cover, by name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _parent), child in zip(self.spans, covered):
            if end is not None:
                out[name].append(end - start - child)
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                )
                fh.write("\n")


def _check_schedule(tracer: Tracer, schedule) -> None:
    tracer.counts["schedules_checked"] += 1
    try:
        validate_schedule(schedule)
    except ScheduleValidationError:
        tracer.counts["invalid_schedules"] += 1


def _traced_scheduler(
    tracer: Tracer, name: str, fn: Callable, placement: bool
) -> Callable:
    span = f"schedulers.{'place' if placement else 'faultfree'}.{name}"

    def traced(*args, **kwargs):
        index = tracer.begin(span)
        try:
            schedule = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        with tracer.paused():
            _check_schedule(tracer, schedule)
            if placement:
                tracer.counts["messages"] += schedule.message_count()
        return schedule

    return traced


def _traced_replay(tracer: Tracer, fn: Callable) -> Callable:
    def traced(schedule, scenario):
        index = tracer.begin("fault.replay")
        try:
            result = fn(schedule, scenario)
        except ExecutionFailedError:
            tracer.counts["replay_failed"] += 1
            raise
        finally:
            tracer.end(index)
        with tracer.paused():
            tracer.counts["executions_checked"] += 1
            try:
                validate_execution(result)
            except ScheduleValidationError:
                tracer.counts["invalid_executions"] += 1
        return result

    return traced


def _traced_online_harness(tracer: Tracer, cls: type) -> type:
    class TracedOnlineHarness(cls):
        def __init__(self, *args, **kwargs) -> None:
            with tracer.span("online.harness_init"):
                super().__init__(*args, **kwargs)

        def run(self, algorithm: str):
            with tracer.span(f"online.run.{algorithm}"):
                return super().run(algorithm)

    return TracedOnlineHarness


def _traced_attributes(tracer: Tracer) -> list[tuple[object, str, object]]:
    """``(module, attribute, traced replacement)`` for every swapped
    module attribute."""
    return [
        (harness, "run_rep", tracer.wrap("harness.run_rep", harness.run_rep)),
        (harness, "generate_instance",
         tracer.wrap("platform.instance", harness.generate_instance)),
        (harness, "min_critical_path",
         tracer.wrap("dag.critical_path", harness.min_critical_path)),
        (harness, "replay", _traced_replay(tracer, harness.replay)),
        (online, "min_critical_path",
         tracer.wrap("dag.critical_path", online.min_critical_path)),
        (online, "replay", _traced_replay(tracer, online.replay)),
        (online, "OnlineHarness",
         _traced_online_harness(tracer, online.OnlineHarness)),
    ]


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Trace every layer boundary for the duration of the block."""
    entries = {name: SCHEDULERS.get(name) for name in SCHEDULERS.names()}
    swapped = _traced_attributes(tracer)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in swapped]
    try:
        for module, attr, traced in swapped:
            setattr(module, attr, traced)
        for name, entry in entries.items():
            SCHEDULERS.register(
                name,
                SchedulerEntry(
                    _traced_scheduler(tracer, name, entry.runner, True),
                    _traced_scheduler(tracer, name, entry.faultfree, False),
                ),
                overwrite=True,
            )
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
        for name, entry in entries.items():
            SCHEDULERS.register(name, entry, overwrite=True)


def trace_store(tracer: Tracer, store) -> Callable[[], None]:
    """Time ``store.append``/``store.close`` on this one store instance;
    returns the function that removes the wrappers again."""
    store.append = tracer.wrap("store.append", store.append)
    store.close = tracer.wrap("store.close", store.close)

    def untrace() -> None:
        del store.append
        del store.close

    return untrace

