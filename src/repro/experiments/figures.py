"""The paper-figure entry point, plus shape checking.

:func:`run_figure` regenerates the data of paper figure N;
:func:`check_shape` asserts the qualitative findings of §6 hold on a
campaign result (who wins, how overheads order, bounds sanity).  The
benchmarks call these and print the paper-style panels.

The figures themselves now live as shipped campaign specs
(``repro/experiments/specs/figure*.json``); :func:`run_figure` is a thin
deprecated shim that loads the spec, applies its keyword overrides, and
runs the same grid — pinned bit-identical to the historical keyword
path.  New code should build a
:class:`repro.experiments.api.CampaignSpec` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.experiments.harness import CampaignResult


def run_figure(
    number: int,
    num_graphs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
    fast: Optional[bool] = None,
    model: Optional[str] = None,
    topology: Optional[str] = None,
    policy: Optional[str] = None,
    executor=None,
    store=None,
    resume: bool = False,
) -> CampaignResult:
    """Run the campaign of figure ``number`` (1-6).

    ``workers`` distributes the campaign over a process pool (results are
    identical for any worker count); ``fast=False`` forces the slow trial
    path (the kernel-free baseline used by ``benchmarks/bench_fastpath``).
    ``model``/``topology``/``policy`` re-run the figure under a different
    communication scenario — e.g. ``model="routed-oneport",
    topology="torus"`` for the §7 sparse-interconnect axis, or
    ``policy="insertion"`` for the gap-reuse ablation.  ``executor``
    picks where units run (``"serial"``/``"process"``/``"socket"`` or an
    :class:`~repro.experiments.executors.Executor` instance — e.g. a
    configured :class:`~repro.experiments.executors.SocketExecutor`
    master for multi-machine campaigns); ``store`` persists rows to a
    directory as they complete, and ``resume=True`` skips units already
    in that store.  Results are bit-identical across all of them.

    .. deprecated::
        A thin shim over the shipped figure specs: it loads
        ``repro/experiments/specs/figure<N>.json``, applies the keyword
        overrides, and runs the resulting grid.  New code should use
        :class:`repro.experiments.api.CampaignSpec` /
        :class:`repro.experiments.api.Campaign` directly.
    """
    from dataclasses import replace as _replace

    from repro.experiments.api import figure_spec
    from repro.experiments.campaign import run_grid

    spec = figure_spec(number)
    spec = _replace(
        spec,
        graphs=num_graphs,
        fast=fast,
        network=model,
        topology=topology,
        policy=policy,
    )
    return run_grid(
        spec.grid(),
        store=store,
        executor=executor,
        progress=progress,
        workers=workers,
        resume=resume,
    )[0]


@dataclass
class ShapeReport:
    """Outcome of the qualitative checks mirroring §6's findings."""

    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed(self) -> list[str]:
        return [name for name, passed in self.checks.items() if not passed]


def check_shape(result: CampaignResult, reference: str = "caft-paper") -> ShapeReport:
    """Verify the paper's qualitative findings on a campaign result.

    ``reference`` names the CAFT variant expected to reproduce the paper's
    curves (the literal ``caft-paper`` by default; see EXPERIMENTS.md for
    the robust variant's behaviour).  Checks are on sweep-averaged values
    so single noisy points don't flip them.
    """

    def avg(col: str) -> float:
        return float(np.nanmean(result.series(col)))

    checks = {
        # (1) CAFT beats FTSA — the primary competitor — on latency and
        # overhead with 0 crash (paper §6 headline).
        "caft_beats_ftsa_latency": avg(f"{reference}_latency0") < avg("ftsa_latency0"),
        "caft_overhead_below_ftsa": avg(f"{reference}_overhead0")
        < avg("ftsa_overhead0"),
        # (2) FTBAR: the paper reports CAFT strictly better; our FTBAR
        # reimplementation (schedule pressure without the Ahmad–Kwok
        # duplication pass) turns out *stronger* than the paper's at coarse
        # grain, so the reproduction only requires CAFT within 25% of it on
        # the sweep average (EXPERIMENTS.md, finding 3).
        "caft_within_1p25x_ftbar": avg(f"{reference}_latency0")
        < 1.25 * avg("ftbar_latency0"),
        # (3) CAFT sends fewer messages than FTSA and FTBAR.
        "caft_fewest_messages": avg(f"{reference}_messages")
        < min(avg("ftsa_messages"), avg("ftbar_messages")),
        # (4) Upper bounds dominate the 0-crash latencies.
        "bounds_consistent": all(
            avg(f"{a}_upper") >= avg(f"{a}_latency0") - 1e-9
            for a in result.config.algorithms
        ),
        # (5) Latencies sit above the fault-free references.
        "ft_above_faultfree": avg(f"{reference}_latency0")
        >= avg(f"faultfree_{reference}") - 1e-9,
    }
    # (6) Crash latencies are compared on the *robust* variant — the
    # literal caft-paper column is a survivor-only mean (it loses most
    # crash replays, the reproduction's headline finding).  The strict
    # "CAFT beats FTSA under crashes" holds while the platform has slack;
    # in the saturated regime (ε+1 within a factor ~3 of m) the provably
    # robust variant pays a disjointness tax and we only require it to
    # stay within 1.6x of FTSA (EXPERIMENTS.md discusses the trade-off).
    pressure = result.config.num_procs / (result.config.epsilon + 1)
    if pressure >= 4.0:
        checks["caft_beats_ftsa_crash"] = avg("caft_crash") < avg("ftsa_crash")
    else:
        checks["caft_crash_within_1p6x_ftsa"] = (
            avg("caft_crash") < 1.6 * avg("ftsa_crash")
        )
    return ShapeReport(checks=checks)
