"""Tests for the runtime engine, job planning, and the scheduler.

The scheduler contract: a parallel run is numerically identical to a serial
run, warm-cache runs recompute nothing, and runs degrade gracefully when
parallelism or caching is unavailable.
"""

import dataclasses

import pytest

from repro.arch.tiling import SamplingConfig
from repro.core.variants import pallet_variant
from repro.experiments.base import ExperimentResult, Preset
from repro.runtime import (
    RuntimeSession,
    SimulationRequest,
    StatisticsRequest,
    TraceSpec,
    analyze,
    build_plan,
    run_experiments,
    simulate,
    use_session,
)
from repro.runtime import engine
from repro.runtime.cache import ResultCache

#: Two-network preset keeping the scheduler tests fast.
SMOKE = "smoke"
SIM_EXPERIMENTS = ["fig9", "fig11", "table5"]


def tiny_request(config_pairs, max_pallets=1, seed=0):
    return SimulationRequest(
        trace=TraceSpec(network="alexnet", seed=seed),
        configs=tuple(config_pairs),
        sampling=SamplingConfig(max_pallets=max_pallets, seed=0),
    )


def _count_sweeps(monkeypatch) -> list:
    """Record every ``sweep_network`` call the engine makes."""
    calls = []
    sweep = engine.sweep_network

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(engine, "sweep_network", counted)
    return calls


class TestEngine:
    def test_hit_restores_the_requesting_label(self):
        # pallet_variant(4) and PRAsingle (the same design under another
        # label) share one cache entry but must each come back under their
        # own display name.
        single = dataclasses.replace(pallet_variant(4), label="PRA-single")
        session = RuntimeSession()
        with use_session(session):
            first = simulate(tiny_request([("4-bit", pallet_variant(4))]))
            second = simulate(tiny_request([("single", single)]))
        assert session.sweep_stats.configs_simulated == 1  # second was a hit
        assert first["4-bit"].accelerator == "PRA-4b"
        assert second["single"].accelerator == "PRA-single"
        assert first["4-bit"].layers == second["single"].layers

    def test_partial_miss_only_simulates_the_gap(self):
        session = RuntimeSession()
        simulate(tiny_request([("a", pallet_variant(2))]), session=session)
        simulate(
            tiny_request([("a", pallet_variant(2)), ("b", pallet_variant(3))]),
            session=session,
        )
        assert session.sweep_stats.configs_simulated == 2
        assert session.cache.stats.hits == 1

    def test_sampling_change_invalidates(self):
        session = RuntimeSession()
        simulate(tiny_request([("a", pallet_variant(2))], max_pallets=1), session=session)
        simulate(tiny_request([("a", pallet_variant(2))], max_pallets=2), session=session)
        assert session.sweep_stats.configs_simulated == 2
        assert session.cache.stats.hits == 0


class TestPlanning:
    def test_shared_design_points_are_deduplicated(self):
        session = RuntimeSession()
        plan = build_plan(["fig9", "fig11"], SMOKE, 0, session)
        # fig11's PRA-4b and PRA-2b ride on fig9's jobs; only PRA-2b-1R is new,
        # merged into the same per-network (trace, sampling) group.
        assert len(plan.simulations) == 2  # one group per smoke network
        units = sum(len(job.request.configs) for job in plan.simulations)
        assert units == 2 * (5 + 1)
        for job in plan.experiments:
            assert job.deps  # both experiments depend on the shared groups

    def test_cached_units_are_pruned_from_the_plan(self, tmp_path):
        run_experiments(["fig9"], preset=SMOKE, cache_dir=tmp_path)
        session = RuntimeSession(cache=ResultCache(directory=tmp_path))
        plan = build_plan(["fig9", "fig11"], SMOKE, 0, session)
        units = sum(len(job.request.configs) for job in plan.simulations)
        assert units == 2  # only PRA-2b-1R per network remains
        # fig9 resolves all 5 design points per network from the cache; fig11's
        # PRA-4b and PRA-2b overlap with them and hit as well.
        assert plan.planned_hits == 2 * 5 + 2 * 2

    def test_experiments_without_plans_have_no_dependencies(self):
        plan = build_plan(["table3"], SMOKE, 0, RuntimeSession())
        assert plan.simulations == []
        assert plan.statistics == []
        assert plan.experiments[0].deps == ()


class TestStatisticsPlanning:
    """fig2/fig3/table1 plan per-network statistics jobs (see docs/runtime.md)."""

    def test_statistics_experiments_declare_jobs(self):
        plan = build_plan(["fig2", "fig3", "table1"], SMOKE, 0, RuntimeSession())
        # smoke = 2 networks: fig2 2 jobs, fig3 2 jobs, table1 2x2 (both reps).
        assert len(plan.statistics) == 8
        assert plan.simulations == []
        for job in plan.experiments:
            assert job.deps
        statistics = {job.request.statistic for job in plan.statistics}
        assert statistics == {"fig2_terms", "fig3_terms", "essential_bits"}

    def test_cached_statistics_are_pruned(self):
        session = RuntimeSession()
        with use_session(session):
            from repro.experiments import fig2

            fig2.run(preset=SMOKE)
        plan = build_plan(["fig2", "fig3"], SMOKE, 0, session)
        assert len(plan.statistics) == 2  # only fig3's passes remain
        assert plan.planned_hits == 2
        # fig2 now has no unmet dependencies; fig3 depends on its own jobs.
        deps = {job.experiment: job.deps for job in plan.experiments}
        assert deps["fig2"] == ()
        assert len(deps["fig3"]) == 2

    def test_analyze_is_cached_and_rejects_unknown_statistics(self):
        session = RuntimeSession()
        request = StatisticsRequest(
            statistic="essential_bits",
            trace=TraceSpec(network="alexnet", representation="quant8"),
            samples_per_layer=500,
        )
        first = analyze(request, session=session)
        second = analyze(request, session=session)
        assert first == second
        assert session.cache.stats.hits == 1
        assert session.cache.stats.stores == 1
        with pytest.raises(KeyError):
            analyze(
                StatisticsRequest(statistic="nope", trace=request.trace),
                session=session,
            )

    def test_statistics_run_through_the_scheduler(self, tmp_path):
        cold = run_experiments(["fig2", "table1"], preset=SMOKE, cache_dir=tmp_path)
        warm = run_experiments(["fig2", "table1"], preset=SMOKE, cache_dir=tmp_path)
        assert cold.statistics_jobs == 6
        assert warm.statistics_jobs == 0
        assert warm.stats.cache.misses == 0
        assert warm.planned_cache_hits == 6
        assert warm.results == cold.results
        assert "statistics jobs: 0" in warm.summary()


class TestRunExperiments:
    def test_serial_run_produces_ordered_results(self):
        report = run_experiments(["table3", "table4"], preset=SMOKE)
        assert list(report.results) == ["table3", "table4"]
        assert all(isinstance(r, ExperimentResult) for r in report.results.values())
        assert report.mode == "serial"

    def test_warm_cache_recomputes_nothing(self, tmp_path):
        cold = run_experiments(SIM_EXPERIMENTS, preset=SMOKE, cache_dir=tmp_path)
        warm = run_experiments(SIM_EXPERIMENTS, preset=SMOKE, cache_dir=tmp_path)
        assert cold.stats.sweep.configs_simulated > 0
        assert warm.stats.sweep.configs_simulated == 0
        assert warm.stats.cache.misses == 0
        assert warm.planned_cache_hits > 0
        assert warm.results == cold.results

    def test_preset_change_invalidates_the_cache(self, tmp_path):
        run_experiments(["fig9"], preset=SMOKE, cache_dir=tmp_path)
        bigger = Preset(name="tiny2", networks=("alexnet",), samples_per_layer=2000, max_pallets=3)
        report = run_experiments(["fig9"], preset=bigger, cache_dir=tmp_path)
        assert report.stats.sweep.configs_simulated > 0

    def test_no_cache_disables_storage(self, tmp_path):
        report = run_experiments(["fig9"], preset=SMOKE, no_cache=True, cache_dir=tmp_path)
        assert report.stats.cache.stores == 0
        assert report.cache is None
        assert list(tmp_path.glob("*.json")) == []

    def test_cold_serial_run_sweeps_each_trace_once(self, tmp_path, monkeypatch):
        sweeps = _count_sweeps(monkeypatch)
        report = run_experiments(SIM_EXPERIMENTS, preset=SMOKE, cache_dir=tmp_path)
        assert report.mode == "serial"
        assert report.simulation_jobs > 0
        # One sweep per merged (trace, sampling) job; every experiment then
        # reads its designs back as warm hits.
        assert len(sweeps) == report.simulation_jobs
        assert report.stats.cache.misses == report.stats.sweep.configs_simulated

    def test_serial_run_without_cache_runs_no_pre_pass(self, monkeypatch):
        sweeps = _count_sweeps(monkeypatch)
        report = run_experiments(SIM_EXPERIMENTS, preset=SMOKE, no_cache=True)
        assert report.simulation_jobs == 0
        # No more than the experiments sweep on their own: one sweep per
        # experiment and smoke network.
        assert len(sweeps) <= len(SIM_EXPERIMENTS) * 2

    def test_summary_mentions_the_simulation_counter(self):
        report = run_experiments(["table3"], preset=SMOKE)
        assert "simulated 0 configs" in report.summary()
        assert "== run summary ==" in report.summary()


@pytest.mark.slow
class TestParallelExecution:
    """Process-pool runs; kept small but real (spawned workers)."""

    def test_parallel_equals_serial_with_shared_cache(self, tmp_path):
        serial = run_experiments(
            SIM_EXPERIMENTS, preset=SMOKE, jobs=1, cache_dir=tmp_path / "serial"
        )
        parallel = run_experiments(
            SIM_EXPERIMENTS, preset=SMOKE, jobs=2, cache_dir=tmp_path / "parallel"
        )
        assert parallel.mode in ("parallel", "serial-fallback")
        assert parallel.results == serial.results

    def test_parallel_without_cache_matches_serial(self):
        serial = run_experiments(["table5"], preset=SMOKE, jobs=1, no_cache=True)
        parallel = run_experiments(["table5"], preset=SMOKE, jobs=2, no_cache=True)
        assert parallel.results == serial.results
        assert parallel.simulation_jobs == 0  # degraded to experiment-level jobs

    def test_failing_job_fails_the_run_fast(self, tmp_path):
        # A raising job must propagate without first waiting out (or worse,
        # executing) every sibling future: the pool is shut down with
        # cancel_futures=True.  An unknown network makes every simulation
        # job raise in its worker.
        bad = Preset(
            name="bad",
            networks=("alexnet", "no_such_network"),
            samples_per_layer=200,
            max_pallets=1,
        )
        with pytest.raises(Exception, match="no_such_network"):
            run_experiments(["fig9"], preset=bad, jobs=2, cache_dir=tmp_path)
