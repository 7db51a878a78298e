"""One untraced, timed campaign in a fresh process.

``python3 -m campaign_bench.child --workload NAME --seed N --store DIR
[--executor KIND]`` runs the workload's campaign through the public
``Campaign`` facade, into a fresh store at ``DIR``, and prints one JSON
line of timings.  A fresh process per campaign is what lets the parent
time set-up from process start: interpreter start, imports, spec load
and validation, grid expansion, store creation and, on the socket
executor, the worker spawn and handshake.

Nothing here wraps the program, with one exception that undoes itself:
the first call of the method the executor calls to hand out a unit
(``WorkUnit.run`` inline, ``WorkUnit.to_dict`` when a lease goes on the
wire) stamps the dispatch time and puts the original method back.

The progress callback, which every executor calls after a unit is
stored, runs the calibration probe (:mod:`campaign_bench.calibrate`).
The printed wall and CPU times exclude the probes, and the wall time
the host's steal; ``factor`` converts them to reference seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from repro.experiments.api import Campaign
from repro.experiments.grid import WorkUnit

from campaign_bench.calibrate import Calibrator, steal_s
from campaign_bench.workloads import WORKLOADS


class FirstCall:
    """Stamp the first call of ``cls.attr``, then restore the method."""

    def __init__(self, cls: type, attr: str) -> None:
        self.monotonic: float | None = None
        self.cpu: float | None = None
        self.steal: float | None = None
        original = getattr(cls, attr)

        def stamp(*args, **kwargs):
            if self.monotonic is None:
                self.monotonic = time.monotonic()
                self.cpu = time.process_time()
                self.steal = steal_s()
                setattr(cls, attr, original)
            return original(*args, **kwargs)

        setattr(cls, attr, stamp)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--executor", default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seed, args.store, executor=args.executor)
    total = spec.grid().total_units
    executor = spec.executor.build(spec.lease)
    dispatch = FirstCall(WorkUnit, "run" if executor.name == "serial" else "to_dict")
    last: dict = {"done": 0}
    calibrator = Calibrator()

    def progress(event) -> None:
        if event.kind == "unit":
            last["done"] += 1
            if last["done"] == total:
                last["monotonic"] = time.monotonic()
                last["cpu"] = time.process_time()
                last["steal"] = steal_s()
            else:
                calibrator.tick()

    store = spec.store.build()
    try:
        Campaign(spec).run(progress=progress, executor=executor, store=store)
        duplicates = store.dedup_stats()["duplicate_appends"]
    finally:
        store.close()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(
        json.dumps(
            {
                "units": last["done"],
                "dispatch": dispatch.monotonic,
                "dispatch_steal": dispatch.steal,
                "wall_s": (
                    last["monotonic"] - dispatch.monotonic - calibrator.wall_s
                    - (last["steal"] - dispatch.steal - calibrator.steal_s)
                ),
                "master_cpu_s": last["cpu"] - dispatch.cpu - calibrator.cpu_s,
                "factor": calibrator.factor(),
                "children_cpu_s": children.ru_utime + children.ru_stime,
                "peak_rss_kb": max(own.ru_maxrss, children.ru_maxrss),
                "worker_exit_codes": list(getattr(executor, "worker_exit_codes", [])),
                "worker_restarts": getattr(executor, "worker_respawns", 0),
                "stolen_units": getattr(executor, "stolen_units", 0),
                "speculative_attempts": getattr(executor, "speculative_attempts", 0),
                "duplicate_appends": duplicates,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
