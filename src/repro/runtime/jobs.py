"""The job model: how an experiment run decomposes into schedulable units.

A run of ``N`` experiments becomes a two-level dependency graph:

* **simulation jobs** — one per distinct ``(network trace spec, sampling,
  config-group)`` the run needs, *deduplicated across experiments* and pruned
  against the cache.  Each simulation job populates the shared cache.
* **statistics jobs** — one per distinct ``(statistic, trace spec, samples)``
  pass a motivation experiment (Table I, Figures 2/3) needs, deduplicated and
  cache-pruned the same way.
* **experiment jobs** — one per experiment, depending on the simulation and
  statistics jobs that produce its inputs.  When an experiment job runs, its
  inputs are warm cache hits, so the job itself is cheap presentation logic.

Experiments declare their input needs through an optional module-level
``plan(preset, seed) -> list[SimulationRequest | StatisticsRequest]`` hook;
experiments without one (the analytic tables) simply have no dependencies and
parallelize at the experiment level.  ``docs/runtime.md`` documents the job
model and its cache-key scheme.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.experiments.base import Preset, get_preset
from repro.runtime.engine import SimulationRequest, StatisticsRequest
from repro.runtime.fingerprint import fingerprint, simulation_key
from repro.runtime.session import RuntimeSession

__all__ = [
    "SimulationJob",
    "StatisticsJob",
    "ExperimentJob",
    "RunPlan",
    "experiment_plan",
    "plan_hook",
    "build_plan",
]


@dataclass(frozen=True)
class SimulationJob:
    """One schedulable config-group simulation (no dependencies)."""

    job_id: str
    request: SimulationRequest
    deps: tuple[str, ...] = ()


@dataclass(frozen=True)
class StatisticsJob:
    """One schedulable per-network statistics pass (no dependencies)."""

    job_id: str
    request: StatisticsRequest
    deps: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentJob:
    """One schedulable experiment, gated on its simulation jobs."""

    job_id: str
    experiment: str
    preset: Preset
    seed: int
    deps: tuple[str, ...] = ()


@dataclass
class RunPlan:
    """The dependency graph of one run."""

    simulations: list[SimulationJob] = field(default_factory=list)
    statistics: list[StatisticsJob] = field(default_factory=list)
    experiments: list[ExperimentJob] = field(default_factory=list)
    #: Simulation/statistics units satisfied by the cache at planning time.
    planned_hits: int = 0


def plan_hook(name: str):
    """Experiment ``name``'s ``plan(preset, seed)`` hook, or ``None`` if it has none."""
    from repro.experiments.runner import EXPERIMENTS

    run = EXPERIMENTS[name]
    return getattr(sys.modules[run.__module__], "plan", None)


def experiment_plan(
    name: str, preset: Preset, seed: int
) -> list[SimulationRequest | StatisticsRequest]:
    """The simulation/statistics requests experiment ``name`` declares, if any."""
    plan = plan_hook(name)
    return [] if plan is None else list(plan(preset=preset, seed=seed))


def build_plan(
    names: list[str],
    preset: str | Preset,
    seed: int,
    session: RuntimeSession,
) -> RunPlan:
    """Decompose a run into deduplicated simulation jobs plus experiment jobs.

    Config-groups requested by several experiments are merged per
    ``(trace spec, sampling)`` so shared drain tensors are computed once, and
    individual units already present in ``session.cache`` are pruned (they
    will be cache hits when the experiments run).
    """
    preset = get_preset(preset)
    plan = RunPlan()
    # (trace, sampling) fingerprint -> merged request state.
    groups: dict[str, dict] = {}
    # statistics job id -> StatisticsJob (deduplicated across experiments).
    stat_jobs: dict[str, StatisticsJob] = {}

    for name in names:
        deps: list[str] = []
        for request in experiment_plan(name, preset, seed):
            if isinstance(request, StatisticsRequest):
                stat_key = request.key()
                if session.contains(stat_key, kind="statistics"):
                    plan.planned_hits += 1
                    continue
                job_id = f"stat:{stat_key}"
                stat_jobs.setdefault(job_id, StatisticsJob(job_id=job_id, request=request))
                deps.append(job_id)
                continue
            group_key = fingerprint({"trace": request.trace, "sampling": request.sampling})
            group = groups.setdefault(
                group_key,
                {"trace": request.trace, "sampling": request.sampling, "configs": {}},
            )
            needs_group = False
            for label, config in request.configs:
                unit_key = simulation_key(request.trace, request.sampling, config)
                if unit_key in group["configs"]:
                    needs_group = True  # another experiment already scheduled it
                    continue
                if session.contains(unit_key):
                    plan.planned_hits += 1
                    continue
                # Label the merged unit by its content key: experiment-local
                # display labels are not unique across experiments, and the
                # sim job's results reach consumers through the cache anyway.
                group["configs"][unit_key] = (unit_key, config)
                needs_group = True
            if needs_group:
                deps.append(f"sim:{group_key}")
        plan.experiments.append(
            ExperimentJob(
                job_id=f"exp:{name}",
                experiment=name,
                preset=preset,
                seed=seed,
                deps=tuple(dict.fromkeys(deps)),
            )
        )

    plan.statistics = list(stat_jobs.values())
    for group_key, group in groups.items():
        if not group["configs"]:
            continue
        configs = tuple(group["configs"].values())
        plan.simulations.append(
            SimulationJob(
                job_id=f"sim:{group_key}",
                request=SimulationRequest(
                    trace=group["trace"], configs=configs, sampling=group["sampling"]
                ),
            )
        )
    return plan
