"""The benchmark's workloads and the layer map later changes cite.

Every workload is a closed loop: one campaign driver process runs the
units, and its executor takes the next unit only when the previous one
is stored.  The benchmark's own parent process only waits on it.  The
workload seed becomes the spec's ``seed``; everything else about the
input is fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.experiments.api import SPEC_DIR, CampaignSpec, apply_overrides


@dataclass(frozen=True)
class Workload:
    name: str
    #: why the workload exists (BENCHMARK.json repeats it)
    why: str
    #: shipped spec the campaign starts from
    spec_file: str
    #: spec overrides besides seed and store directory (the store
    #: backend is JSONL unless ``store.backend`` says otherwise)
    overrides: dict = field(default_factory=dict)

    def spec(
        self, seed: int, store_dir: Path, executor: Optional[str] = None
    ) -> CampaignSpec:
        """The campaign spec of one run; ``executor`` replaces the
        workload's executor table (the traced pass runs serially)."""
        overrides = {
            "store.backend": "jsonl",
            **self.overrides,
            "seed": seed,
            "store.directory": str(store_dir),
        }
        if executor is not None:
            overrides["executor"] = {"kind": executor}
        return apply_overrides(CampaignSpec.load(SPEC_DIR / self.spec_file), overrides)

    @property
    def executor(self) -> str:
        return self.overrides.get("executor", {}).get("kind", "serial")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig1-serial",
            why=(
                "the paper's figure-1 campaign (20 units: 80-120 tasks, m=10, "
                "4 algorithms), serial, JSONL; fault-free refs and FTBAR's "
                "batched placement dominate; closed loop, 1 process"
            ),
            spec_file="figure1.json",
            overrides={"graphs": 2},
        ),
        Workload(
            name="online-serial",
            why=(
                "figure_online (60 units of 6 arriving DAGs, m=12), serial, "
                "JSONL; many small scalar-path sweeps and per-job fault-free "
                "reruns, no FTBAR; closed loop, 1 process"
            ),
            spec_file="figure_online.json",
            overrides={"graphs": 15},
        ),
        Workload(
            name="tiny-socket",
            why=(
                "1500 ~4 ms units (4-6 tasks, m=4, caft+ftbar) on the socket "
                "executor, 1 spawned worker, 1-unit leases, columnar store; "
                "lease, wire and append carry weight; closed loop, 2 processes "
                "on 1 vCPU"
            ),
            spec_file="figure1.json",
            overrides={
                "graphs": 150,
                "config.task_range": [4, 6],
                "config.num_procs": 4,
                "config.algorithms": ["caft", "ftbar"],
                "executor": {"kind": "socket", "spawn_workers": 1},
                "lease": 1,
                "store.backend": "columnar",
            },
        ),
    )
}


#: Which end-to-end metric each per-layer metric should move, on which
#: workload, and where the prediction is no change.  A metric named
#: ``x.y`` covers its ``x.y.p50``/``x.y.p90``/``x.y.calls`` (and
#: per-algorithm) entries in BENCHMARK.json.
LAYER_MAP: tuple[dict, ...] = (
    {"layer": "schedulers.faultfree_ms",
     "also": ["schedulers.faultfree_calls", "schedulers.faultfree_share"],
     "moves": ["units_per_s", "cpu_ms_per_unit"],
     "on": ["fig1-serial", "online-serial"], "no_change": ["tiny-socket"],
     "roadmap_item": 2},
    {"layer": "schedulers.place_ms",
     "moves": ["units_per_s"], "on": ["fig1-serial", "online-serial"],
     "note": "fig1-serial runs FTBAR's batched path, online-serial the "
             "scalar path (CAFT/FTSA)"},
    {"layer": "schedulers.messages", "moves": [],
     "note": "must repeat exactly: a change means scheduling output changed"},
    {"layer": "platform.instance_ms",
     "also": ["dag.critical_path_ms", "harness.run_rep.self_ms",
              "harness.run_rep_ms"],
     "moves": ["units_per_s"], "on": ["tiny-socket"],
     "note": "negligible on fig1-serial"},
    {"layer": "fault.replay_ms", "also": ["fault.replay_failed",
                                          "fault.replay_failed_frac"],
     "moves": ["units_per_s"], "on": ["fig1-serial", "online-serial"],
     "roadmap_item": 4},
    {"layer": "online.harness_init_ms", "also": ["online.run_ms"],
     "moves": ["units_per_s"], "on": ["online-serial"]},
    {"layer": "executors.overhead_ms_per_unit",
     "also": ["executors.master_cpu_ms_per_unit",
              "executors.worker_cpu_ms_per_unit", "executors.stolen_units",
              "executors.speculative_attempts", "executors.worker_restarts",
              "executors.worker_exit_nonzero"],
     "moves": ["units_per_s", "cpu_ms_per_unit", "setup_s"],
     "on": ["tiny-socket"], "no_change": ["fig1-serial", "online-serial"],
     "roadmap_item": 3},
    {"layer": "store.append_ms", "also": ["store.close_ms", "store.duplicates"],
     "moves": ["units_per_s", "cpu_ms_per_unit"], "on": ["tiny-socket"],
     "roadmap_item": 5},
    {"layer": "grid.units_ms",
     "also": ["query.open_ms", "query.results_ms", "report.render_ms"],
     "moves": [], "note": "absolute record; moves no end-to-end metric at "
                          "these sizes"},
    {"layer": "check.invalid_schedules",
     "also": ["check.invalid_executions", "check.schedules_checked",
              "check.executions_checked"],
     "moves": ["intact_frac"], "on": ["fig1-serial", "online-serial",
                                      "tiny-socket"]},
    {"layer": "trace.overhead_frac", "moves": [],
     "note": "traced wall / median untraced wall - 1"},
    {"layer": "host.probe_ms", "moves": [],
     "note": "mean calibration probe time during the timed campaigns: the "
             "host's speed, by which every end-to-end time is scaled"},
)
