"""Tests for the load harness: mixes, metrics, swarm, report schema.

The loadgen contract: a mix spec compiles into a byte-identical schedule for
the same seed (two PRs replay the same traffic), percentiles come back within
the histogram's configured relative error, and every report a swarm run
emits passes the schema check.
"""

import asyncio
import hashlib
import json
import math
import pathlib
import random

import pytest

from repro.loadgen import (
    LatencyHistogram,
    LoadSwarm,
    MixError,
    MixSpec,
    validate_report,
)
from repro.loadgen.cli import main as loadgen_main
from repro.serve import ExperimentService, ServeClient


def run(coro):
    return asyncio.run(coro)


# ------------------------------------------------------------------- mix specs
class TestMixSpec:
    def test_defaults_round_trip(self):
        mix = MixSpec.from_dict(MixSpec().to_dict())
        assert mix == MixSpec()

    def test_rejects_unknown_fields(self):
        with pytest.raises(MixError, match="unknown mix field"):
            MixSpec.from_dict({"requets": 10})

    def test_rejects_unknown_experiment(self):
        with pytest.raises(MixError, match="unknown experiment"):
            MixSpec.from_dict({"experiments": {"not_an_experiment": 1}})

    def test_rejects_unknown_preset(self):
        with pytest.raises(MixError, match="unknown preset"):
            MixSpec.from_dict({"presets": {"turbo": 1}})

    def test_rejects_out_of_range_ratio(self):
        with pytest.raises(MixError, match="hot_ratio"):
            MixSpec.from_dict({"hot_ratio": 1.5})

    def test_rejects_non_positive_weight(self):
        with pytest.raises(MixError, match="weight"):
            MixSpec.from_dict({"experiments": {"table1": 0}})

    def test_rejects_bool_masquerading_as_number(self):
        with pytest.raises(MixError):
            MixSpec.from_dict({"requests": True})

    def test_rejects_bad_overrides(self):
        with pytest.raises(MixError, match="overrides"):
            MixSpec.from_dict({"overrides": ["networks"]})

    def test_rejects_unknown_network(self):
        with pytest.raises(MixError, match="unknown network"):
            MixSpec.from_dict({"networks": {"resnet50": 1}})

    def test_rejects_unknown_variants_group(self):
        with pytest.raises(MixError, match="unknown variants group"):
            MixSpec.from_dict({"variants": "fig99"})

    def test_rejects_unknown_encoding(self):
        with pytest.raises(MixError, match="unknown encoding"):
            MixSpec.from_dict({"encodings": {"gray-code": 1}})

    def test_rejects_encodings_group_with_pinned_encodings(self):
        """variants=encodings already spans the registry; weighting other
        encodings on top of it is contradictory."""
        with pytest.raises(MixError, match="spans every encoding"):
            MixSpec.from_dict({"variants": "encodings", "encodings": {"csd": 1}})
        # Positional-only (the default) and an explicit default are fine.
        MixSpec.from_dict({"variants": "encodings"})
        MixSpec.from_dict({"variants": "encodings", "encodings": {"positional": 1}})

    def test_simulate_fields_round_trip(self):
        spec = {
            "simulate_ratio": 0.5,
            "networks": {"alexnet": 2, "vgg_m": 1},
            "variants": "fig10",
            "encodings": {"csd": 1, "hese": 2},
        }
        mix = MixSpec.from_dict(spec)
        assert mix.simulate_ratio == 0.5
        assert dict(mix.networks) == {"alexnet": 2.0, "vgg_m": 1.0}
        assert mix.variants == "fig10"
        assert dict(mix.encodings) == {"csd": 1.0, "hese": 2.0}
        assert MixSpec.from_dict(mix.to_dict()) == mix

    def test_from_file(self, tmp_path):
        path = tmp_path / "mix.json"
        path.write_text(json.dumps({"requests": 5, "seed": 42, "hot_ratio": 1.0}))
        mix = MixSpec.from_file(path)
        assert (mix.requests, mix.seed, mix.hot_ratio) == (5, 42, 1.0)

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(MixError, match="cannot read"):
            MixSpec.from_file(tmp_path / "absent.json")

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
    def test_cli_refuses_an_unreadable_mix_before_spawning(self, tmp_path, capsys, content):
        """A usage error (exit 2) that names the file, not a traceback."""
        path = tmp_path / "mix.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as raised:
            loadgen_main(["--spawn", "serve", "--mix", str(path)])
        assert raised.value.code == 2
        assert f"cannot read mix spec {path}" in capsys.readouterr().err


class TestCommittedMixes:
    """Every mix spec checked into benchmarks/mixes must stay loadable."""

    def mix_files(self):
        mixes = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "mixes"
        files = sorted(mixes.glob("*.json"))
        assert files, "benchmarks/mixes must contain at least the soak mix"
        return files

    def test_all_committed_mixes_load_and_schedule(self):
        for path in self.mix_files():
            mix = MixSpec.from_file(path)
            schedule = mix.schedule()
            assert len(schedule) == mix.requests
            assert schedule == MixSpec.from_file(path).schedule()

    def test_sweep_soak_schedule_unchanged_by_simulate_fields(self):
        """The simulate/encoding mix fields added no RNG draws to specs that
        leave them defaulted: the committed soak's compiled schedule is still
        byte-identical to the pre-encoding format (pinned by hash)."""
        path = next(p for p in self.mix_files() if p.name == "sweep_soak.json")
        schedule = MixSpec.from_file(path).schedule()
        payload = json.dumps(
            [planned.__dict__ for planned in schedule], sort_keys=True, default=str
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == (
            "b6e6f4f8492a6acc2e8d84ef1b6ba88aaa8cb12a856f66d82060748d647cec03"
        )

    def test_encoding_mix_reaches_every_encoding(self):
        """The committed mixed-encoding mix schedules simulate traffic under
        all four registered encodings, deterministically."""
        from repro.numerics.encodings import encoding_names

        path = next(p for p in self.mix_files() if p.name == "encoding_mix.json")
        mix = MixSpec.from_file(path)
        assert set(dict(mix.encodings)) == set(encoding_names())
        schedule = mix.schedule()
        simulate = [p for p in schedule if p.message["op"] == "simulate"]
        assert simulate, "the encoding mix must carry simulate traffic"
        seen = {p.message.get("encoding", "positional") for p in simulate}
        assert seen == set(encoding_names())
        # positional ops omit the field entirely (wire compat with servers
        # that predate it).
        assert all("encoding" not in p.message or
                   p.message["encoding"] != "positional" for p in simulate)
        assert schedule == MixSpec.from_file(path).schedule()

    def test_smoke_mix_is_the_ci_smoke_traffic(self):
        """CI's loadgen smoke steps replay this mix: 12 requests over 3
        clients at seed 6, every other field at its default."""
        path = next(p for p in self.mix_files() if p.name == "smoke.json")
        assert MixSpec.from_file(path) == MixSpec(requests=12, clients=3, seed=6)

    def test_sweep_soak_targets_the_sweep_engine(self):
        path = next(p for p in self.mix_files() if p.name == "sweep_soak.json")
        mix = MixSpec.from_file(path)
        weights = dict(mix.experiments)
        # The soak exists to hold the batched drain kernel under sustained
        # sweep traffic: the sweep-heavy figures must dominate the mix.
        sweep_heavy = weights.get("fig9", 0) + weights.get("fig10", 0) + \
            weights.get("fig11", 0) + weights.get("table5", 0)
        assert sweep_heavy > sum(weights.values()) / 2
        assert dict(mix.presets) == {"fast": 1.0}
        assert mix.requests >= 1000


class TestSchedule:
    def test_same_seed_identical_schedule(self):
        mix = MixSpec(requests=40, seed=3)
        assert mix.schedule() == mix.schedule()

    def test_different_seed_differs(self):
        base = MixSpec(requests=40, seed=3).schedule()
        other = MixSpec(requests=40, seed=4).schedule()
        assert base != other

    def test_hot_requests_draw_from_small_pool(self):
        mix = MixSpec(requests=60, hot_ratio=1.0, hot_pool=3, seed=0)
        schedule = mix.schedule()
        assert all(planned.hot for planned in schedule)
        shapes = {json.dumps(planned.message, sort_keys=True) for planned in schedule}
        assert len(shapes) <= 3
        assert all(planned.message["seed"] < 3 for planned in schedule)

    def test_cold_requests_never_collide(self):
        mix = MixSpec(requests=60, hot_ratio=0.0, seed=0)
        schedule = mix.schedule()
        assert not any(planned.hot for planned in schedule)
        seeds = [planned.message["seed"] for planned in schedule]
        assert len(set(seeds)) == len(seeds)
        assert min(seeds) >= 1000  # disjoint from the hot pool's small seeds

    def test_clients_assigned_round_robin(self):
        schedule = MixSpec(requests=10, clients=3).schedule()
        assert [planned.client for planned in schedule] == [
            index % 3 for index in range(10)
        ]

    def test_simulate_free_specs_ignore_simulate_field_values(self):
        """With simulate_ratio left at 0, the simulate-only fields never touch
        the RNG: schedules are identical whatever they hold."""
        base = MixSpec(requests=40, seed=3).schedule()
        redecorated = MixSpec(
            requests=40,
            seed=3,
            networks=(("vgg_m", 1.0),),
            variants="fig12",
            encodings=(("hese", 1.0),),
        ).schedule()
        assert base == redecorated
        assert not any(p.message["op"] == "simulate" for p in base)

    def test_simulate_ratio_emits_cold_simulate_ops(self):
        mix = MixSpec(
            requests=60,
            hot_ratio=0.0,
            simulate_ratio=1.0,
            seed=2,
            encodings=(("csd", 1.0), ("positional", 1.0)),
        )
        schedule = mix.schedule()
        assert all(p.message["op"] == "simulate" for p in schedule)
        assert all(p.message["variants"] == "fig9" for p in schedule)
        seeds = [p.message["seed"] for p in schedule]
        assert len(set(seeds)) == len(seeds)
        assert {p.message.get("encoding", "positional") for p in schedule} == {
            "csd",
            "positional",
        }
        assert schedule == mix.schedule()

    def test_think_times_deterministic_and_nonnegative(self):
        mix = MixSpec(requests=20, think_seconds=0.05, seed=9)
        first = [planned.think_seconds for planned in mix.schedule()]
        second = [planned.think_seconds for planned in mix.schedule()]
        assert first == second
        assert all(think >= 0 for think in first)
        assert any(think > 0 for think in first)


# ----------------------------------------------------------------- percentiles
class TestLatencyHistogram:
    def test_percentiles_within_configured_precision(self):
        histogram = LatencyHistogram(precision=0.02)
        rng = random.Random(0)
        samples = [rng.uniform(0.001, 2.0) for _ in range(5000)]
        for sample in samples:
            histogram.record(sample)
        samples.sort()
        for p in (50, 95, 99):
            exact = samples[max(0, math.ceil(len(samples) * p / 100.0) - 1)]
            got = histogram.percentile(p)
            assert abs(got - exact) / exact <= 0.02 + 1e-9

    def test_known_small_sample(self):
        histogram = LatencyHistogram()
        for sample in (0.010, 0.020, 0.030, 0.040, 1.0):
            histogram.record(sample)
        assert histogram.count == 5
        assert histogram.min == pytest.approx(0.010)
        assert histogram.max == pytest.approx(1.0)
        assert histogram.percentile(50) == pytest.approx(0.030, rel=0.03)
        assert histogram.percentile(100) == pytest.approx(1.0)
        assert histogram.mean == pytest.approx(0.220, rel=1e-6)

    def test_empty_summary(self):
        summary = LatencyHistogram().summary()
        assert summary["count"] == 0
        assert summary["p95_seconds"] is None

    def test_merge_equals_union(self):
        left, right, union = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for index, sample in enumerate(x / 100 for x in range(1, 101)):
            (left if index % 2 else right).record(sample)
            union.record(sample)
        left.merge(right)
        assert left.summary() == union.summary()

    def test_merge_rejects_mismatched_precision(self):
        with pytest.raises(ValueError, match="precision"):
            LatencyHistogram(0.02).merge(LatencyHistogram(0.05))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(float("nan"))


# ------------------------------------------------------- serve timings satellite
class TestServeTimings:
    def test_response_carries_wall_clock_breakdown(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    async with await ServeClient.connect("127.0.0.1", port) as client:
                        response = await client.run_experiment("table1", preset="smoke")
                        assert response.ok
                        timings = response.timings
                        assert timings is not None
                        for key in ("queue_wait_seconds", "execution_seconds", "total_seconds"):
                            assert timings[key] >= 0.0
                        assert timings["total_seconds"] >= timings["execution_seconds"]
                        assert timings["total_seconds"] == pytest.approx(
                            timings["queue_wait_seconds"] + timings["execution_seconds"],
                            abs=0.05,
                        )

        run(scenario())

    def test_stats_exposes_coalescing_effectiveness(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    async with await ServeClient.connect("127.0.0.1", port) as client:
                        await client.run_experiment("table1", preset="smoke")
                        stats = await client.stats()
                        coalescing = stats["coalescing"]
                        assert coalescing["tickets_attached"] == 1
                        assert coalescing["tickets_coalesced"] == 0
                        assert coalescing["jobs_executed"] == 1
                        assert coalescing["hit_rate"] == 0.0

        run(scenario())


# ----------------------------------------------------------------- swarm e2e
class TestLoadSwarm:
    def test_seeded_mixed_run_against_in_process_serve(self):
        """End to end: hot+cold, stream+batch, cancels, report well-formed."""

        async def scenario():
            async with ExperimentService(cache_dir=None, workers=2) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    mix = MixSpec(
                        requests=12, clients=3, seed=6,
                        hot_ratio=0.5, stream_ratio=0.3, cancel_rate=0.2,
                    )
                    swarm = LoadSwarm(mix, "127.0.0.1", port, target="serve")
                    return mix, await swarm.run()

        mix, report = run(scenario())
        schedule = mix.schedule()
        assert report.issued == 12
        assert report.done + report.failed + report.cancelled == 12
        assert report.failed == 0, report.errors
        assert report.done > 0
        assert report.hot_issued == sum(1 for planned in schedule if planned.hot)
        assert report.streamed == sum(
            1 for planned in schedule if planned.stream or planned.cancel
        )
        assert report.latency.count == report.done
        assert report.server_coalescing["tickets_attached"] == 12
        payload = report.to_dict()
        validate_report(payload)  # the smoke-step assertion, exercised here
        assert payload["latency"]["p95_seconds"] is not None
        assert payload["throughput_rps"] > 0
        assert payload["mix"]["seed"] == 6
        assert payload["latency"]["p99_seconds"] >= payload["latency"]["p50_seconds"]

    def test_cluster_utilization_reads_the_fleet(self, tmp_path):
        """Against a cluster, utilization is the workers' execution seconds
        over the fleet's execution slots: the coordinator's own execution
        seconds include waiting on workers, for several jobs at once."""
        from repro.cluster import ClusterService, WorkerService

        token = "loadgen-cluster-token"

        async def scenario():
            workers, servers, endpoints = [], [], []
            for _ in range(2):
                worker = WorkerService(cache_dir=tmp_path, workers=2, auth_token=token)
                server = await worker.serve_tcp("127.0.0.1", 0)
                workers.append(worker)
                servers.append(server)
                endpoints.append(("127.0.0.1", server.sockets[0].getsockname()[1]))
            coordinator = ClusterService(
                connect=endpoints, cache_dir=tmp_path, worker_token=token
            )
            try:
                server = await coordinator.serve_tcp("127.0.0.1", 0)
                servers.append(server)
                port = server.sockets[0].getsockname()[1]
                mix = MixSpec(requests=12, clients=3, seed=6)
                return await LoadSwarm(mix, "127.0.0.1", port, target="cluster").run()
            finally:
                await coordinator.stop()
                for server in servers:
                    server.close()
                    await server.wait_closed()
                for worker in workers:
                    await worker.stop()

        report = run(scenario())
        assert report.failed == 0, report.errors
        assert [entry["slots"] for entry in report.per_worker] == [2, 2]
        assert report.worker_seconds > 0
        assert 0 < report.utilization <= 1
        assert report.utilization == round(
            report.worker_seconds / (report.duration_seconds * 4), 4
        )
        assert 0 <= report.cluster_coalescing["hit_rate"] <= 1
        validate_report(report.to_dict())


# ----------------------------------------------------------------- report schema
class TestValidateReport:
    def _good(self):
        from repro.loadgen.report import LoadReport

        load = LoadReport(
            target="serve", mix=MixSpec().to_dict(), duration_seconds=1.0,
            latency=LatencyHistogram(), queue_wait=LatencyHistogram(),
            execution=LatencyHistogram(),
        )
        load.issued = load.done = 1
        load.latency.record(0.1)
        return load.to_dict()

    def test_good_report_passes(self):
        validate_report(self._good())

    def test_wrong_schema_rejected(self):
        payload = self._good()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            validate_report(payload)

    def test_missing_percentiles_rejected(self):
        payload = self._good()
        del payload["latency"]["p95_seconds"]
        with pytest.raises(ValueError, match="p95"):
            validate_report(payload)

    def test_unaccounted_outcomes_rejected(self):
        payload = self._good()
        payload["requests"]["issued"] = 5
        with pytest.raises(ValueError, match="accounts for"):
            validate_report(payload)
