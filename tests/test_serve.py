"""Tests for the serving layer: protocol, queue, service, concurrency.

The serving contract: many concurrent clients share one warm session;
identical in-flight requests coalesce onto one job; per-request ``RunStats``
counters prove exactly how much work each answer cost (a warm-cache answer
reports ``simulated 0 configs``).
"""

import asyncio
import collections
import dataclasses
import io
import json
import os
import socket
import sys
import threading
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cachenet.backend import resolve_backend
from repro.cachenet.cli import main as cacheserve_main
from repro.cluster.cli import main as cluster_main
from repro.experiments.runner import main as runner_main
from repro.loadgen.cli import main as loadgen_main
from repro.runtime.backends import FilesystemBackend
from repro.serve import (
    ConnectionContext,
    ExperimentRequest,
    ExperimentService,
    ProtocolError,
    RunAllRequest,
    ServeClient,
    SimulateRequest,
    parse_request,
)
from repro.serve.cli import main as serve_main
from repro.serve.cli import reap, spawn_server
from repro.serve.protocol import JOB_OPS, decode, encode
from repro.serve.queue import RequestQueue

#: Tiny fast-preset override so served simulations take seconds.
TINY = {"networks": ["alexnet"], "max_pallets": 2, "samples_per_layer": 1500}

#: A HOST:PORT whose port no socket can bind or reach.
BAD_ENDPOINT = "127.0.0.1:99999"

#: Job messages whose experiment, variant group or representation is not a
#: string.
NON_STRING_NAMES = [
    {"op": "run_experiment", "experiment": [1]},
    {"op": "run_experiment", "experiment": {"a": 1}},
    {"op": "simulate", "network": "alexnet", "variants": [1]},
    {"op": "simulate", "network": "alexnet", "representation": ["fixed16"]},
]

#: Job messages naming no network, an unknown network or an unknown
#: representation.
UNRESOLVABLE_NAMES = [
    {"op": "run_experiment", "experiment": "table5", "overrides": {"networks": []}},
    {"op": "run_experiment", "experiment": "fig9", "overrides": {"networks": []}},
    {"op": "run_all", "overrides": {"networks": ["alexnet", "nope"]}},
    {"op": "simulate", "network": "nope"},
    {"op": "simulate", "network": "alexnet", "representation": "foo"},
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def _or_json(*values):
    """One of ``values`` (valid or near-valid field values), or any JSON value."""
    return st.sampled_from(values) | JSON_VALUES


#: Job messages: each field valid, near-valid or any JSON value.
JOB_MESSAGES = st.fixed_dictionaries(
    {},
    optional={
        "op": _or_json("run_experiment", "run_all", "simulate", "ping"),
        "experiment": _or_json("fig9", "table3", "fig99"),
        "preset": _or_json("smoke", "fast", "huge"),
        "seed": _or_json(0, 1, -1),
        "overrides": st.fixed_dictionaries(
            {},
            optional={
                "networks": _or_json(["alexnet"], []),
                "max_pallets": _or_json(1, 2),
                "samples_per_layer": _or_json(1500),
            },
        )
        | JSON_VALUES,
        "network": _or_json("alexnet", "vgg_m"),
        "variants": _or_json("fig9", "fig10", "fig12", "encodings", "fig99"),
        "representation": _or_json("fixed16", "quant8"),
        "encoding": _or_json("positional", "csd", "hese", "binary", "gray"),
    },
)


def run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------- protocol
class TestProtocol:
    def test_parse_run_experiment(self):
        request = parse_request(
            {"op": "run_experiment", "experiment": "fig9", "preset": "smoke", "seed": 3}
        )
        assert isinstance(request, ExperimentRequest)
        assert request.experiment == "fig9"
        assert request.resolved_preset().name == "smoke"

    def test_parse_rejects_unknowns(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "run_experiment", "experiment": "fig99"})
        with pytest.raises(ProtocolError):
            parse_request({"op": "run_experiment", "experiment": "fig9", "preset": "huge"})
        with pytest.raises(ProtocolError):
            parse_request({"op": "explode"})
        with pytest.raises(ProtocolError):
            parse_request({"op": "simulate"})  # missing network
        with pytest.raises(ProtocolError):
            parse_request(
                {"op": "simulate", "network": "alexnet", "variants": "fig99"}
            )

    def test_overrides_validated_and_canonicalized(self):
        base = {"op": "run_experiment", "experiment": "fig9"}
        with pytest.raises(ProtocolError):
            parse_request({**base, "overrides": {"pallets": 2}})
        with pytest.raises(ProtocolError):
            parse_request({**base, "overrides": {"max_pallets": 0}})
        with pytest.raises(ProtocolError):
            parse_request({**base, "overrides": {"networks": "alexnet"}})
        a = parse_request({**base, "overrides": {"max_pallets": 2, "networks": ["alexnet"]}})
        b = parse_request({**base, "overrides": {"networks": ["alexnet"], "max_pallets": 2}})
        assert a == b  # key order canonicalized
        assert a.resolved_preset().max_pallets == 2
        assert a.resolved_preset().networks == ("alexnet",)

    def test_request_keys_dedup_identical_content(self):
        message = {"op": "run_experiment", "experiment": "fig9", "preset": "fast"}
        assert parse_request(message).key() == parse_request(dict(message)).key()
        assert (
            parse_request(message).key()
            != parse_request({**message, "seed": 1}).key()
        )
        assert (
            parse_request(message).key()
            != parse_request({**message, "experiment": "fig10"}).key()
        )

    def test_run_all_and_simulate_parse(self):
        assert isinstance(parse_request({"op": "run_all", "preset": "smoke"}), RunAllRequest)
        simulate = parse_request({"op": "simulate", "network": "alexnet"})
        assert isinstance(simulate, SimulateRequest)
        assert len(simulate.simulation_request().configs) == 5  # fig9 variants

    def test_simulate_encoding_field(self):
        """The encoding param is validated at the protocol edge and applied
        to every config of the chosen variant group."""
        request = parse_request(
            {"op": "simulate", "network": "alexnet", "encoding": "csd"}
        )
        assert isinstance(request, SimulateRequest)
        assert request.encoding == "csd"
        for _, config in request.simulation_request().configs:
            assert config.encoding == "csd"
        # Unknown encodings and junk values are rejected eagerly, before the
        # request ever reaches the queue.
        with pytest.raises(ProtocolError):
            parse_request(
                {"op": "simulate", "network": "alexnet", "encoding": "gray-code"}
            )
        with pytest.raises(ProtocolError):
            parse_request({"op": "simulate", "network": "alexnet", "encoding": ""})
        with pytest.raises(ProtocolError):
            parse_request({"op": "simulate", "network": "alexnet", "encoding": 7})

    def test_simulate_encodings_variant_group(self):
        """variants=encodings spans the registry; combining it with a pinned
        non-default encoding is contradictory and rejected."""
        from repro.numerics.encodings import encoding_names

        request = parse_request(
            {"op": "simulate", "network": "alexnet", "variants": "encodings"}
        )
        configs = request.simulation_request().configs
        assert tuple(name for name, _ in configs) == encoding_names()
        with pytest.raises(ProtocolError, match="spans every encoding"):
            parse_request(
                {
                    "op": "simulate",
                    "network": "alexnet",
                    "variants": "encodings",
                    "encoding": "csd",
                }
            )

    def test_simulate_keys_differ_per_encoding(self):
        message = {"op": "simulate", "network": "alexnet"}
        assert (
            parse_request(message).key()
            != parse_request({**message, "encoding": "hese"}).key()
        )
        # Explicit positional is the default: same key, same coalescing.
        assert (
            parse_request(message).key()
            == parse_request({**message, "encoding": "positional"}).key()
        )

    @settings(max_examples=200, deadline=None)
    @given(message=JOB_MESSAGES)
    @example(message=NON_STRING_NAMES[0])
    @example(message=NON_STRING_NAMES[1])
    @example(message=NON_STRING_NAMES[2])
    @example(message=NON_STRING_NAMES[3])
    @example(message={"op": "run_all", "preset": "smoke", "seed": -2})
    def test_any_json_object_parses_or_raises_a_protocol_error(self, message):
        """A request parses into a typed request whose string fields are
        strings and whose deduplication key derives, or it is refused with a
        :class:`ProtocolError`; no other exception escapes."""
        try:
            request = parse_request(message)
        except ProtocolError:
            return
        assert isinstance(request, (ExperimentRequest, RunAllRequest, SimulateRequest))
        assert request.seed >= 0
        for field in dataclasses.fields(request):
            if field.type == "str":
                assert isinstance(getattr(request, field.name), str), field.name
        request.key()
        assert parse_request(request.to_message()) == request

    @pytest.mark.parametrize(
        "request_",
        [
            ExperimentRequest(experiment="fig10", preset="smoke", seed=3),
            ExperimentRequest(
                experiment="fig9",
                overrides=(("max_pallets", 2), ("networks", ("alexnet", "vgg_m"))),
            ),
            RunAllRequest(preset="smoke", seed=1),
            RunAllRequest(overrides=(("samples_per_layer", 1500),)),
            SimulateRequest(network="vgg_m", variants="fig12", encoding="csd", seed=2),
            SimulateRequest(
                network="alexnet",
                representation="quant8",
                overrides=(("max_pallets", 2), ("networks", ("alexnet",))),
            ),
        ],
        ids=lambda request: f"{request.op}-{'overrides' if request.overrides else 'plain'}",
    )
    def test_to_message_is_the_inverse_of_parse_request(self, request_):
        """A typed request's wire form survives JSON and parses back into an
        equal request with the same deduplication key."""
        message = json.loads(json.dumps(request_.to_message()))
        assert message["op"] == request_.op
        assert ("overrides" in message) == bool(request_.overrides)
        parsed = parse_request(message)
        assert parsed == request_
        assert parsed.key() == request_.key()

    def test_encode_decode_round_trip(self):
        message = {"id": "c1", "op": "ping"}
        line = encode(message)
        assert line.endswith(b"\n")
        assert decode(line) == message
        with pytest.raises(ProtocolError):
            decode(b"not json\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")


# ------------------------------------------------------------------------ queue
@dataclass(frozen=True)
class StubRequest:
    """Queue-only request: a fixed key and description."""

    name: str

    def key(self) -> str:
        return f"stub:{self.name}"

    def describe(self) -> str:
        return f"stub {self.name}"


class TestRequestQueue:
    def test_identical_inflight_requests_share_one_job(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            second = queue.submit(StubRequest("a"))
            third = queue.submit(StubRequest("b"))
            assert first.job is second.job
            assert not first.coalesced and second.coalesced
            assert third.job is not first.job
            assert queue.depth()["submitted"] == 3
            assert queue.depth()["coalesced"] == 1
            # Only two jobs were actually enqueued.
            assert await queue.next_job() is first.job
            assert await queue.next_job() is third.job

        run(scenario())

    def test_finished_jobs_do_not_coalesce_new_requests(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            job = await queue.next_job()
            queue.mark_running(job)
            queue.finish(job, result={"ok": 1}, stats={})
            again = queue.submit(StubRequest("a"))
            assert again.job is not first.job
            assert not again.coalesced

        run(scenario())

    def test_cancelling_the_only_ticket_drops_a_queued_job(self):
        async def scenario():
            queue = RequestQueue()
            ticket = queue.submit(StubRequest("a"))
            survivor = queue.submit(StubRequest("b"))
            changed, state = queue.cancel(ticket.ticket_id)
            assert changed and state == "cancelled"
            assert ticket.job.state == "cancelled"
            # next_job skips the cancelled job entirely.
            assert await queue.next_job() is survivor.job

        run(scenario())

    def test_cancelling_one_of_two_tickets_keeps_the_job(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            second = queue.submit(StubRequest("a"))
            queue.cancel(second.ticket_id)
            assert first.job.state == "queued"
            assert second.state == "cancelled"
            job = await queue.next_job()
            queue.mark_running(job)
            queue.finish(job, result={}, stats={})
            assert first.state == "done"
            assert second.state == "cancelled"

        run(scenario())

    def test_unknown_ticket_raises(self):
        queue = RequestQueue()
        with pytest.raises(KeyError):
            queue.cancel("t999")

    def test_stop_abandons_the_backlog_instead_of_draining_it(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            second = queue.submit(StubRequest("b"))
            queue.stop_workers()
            # Workers get None immediately; the backlog is not executed.
            assert await queue.next_job() is None
            assert queue.abandon_pending() == 2
            for ticket in (first, second):
                assert ticket.state == "failed"
                assert "service stopped" in ticket.job.error
                assert ticket.job.done.is_set()

        run(scenario())

    def test_submit_on_a_stopping_queue_fails_fast(self):
        # Regression: a submission after stop_workers()/abandon_pending() was
        # enqueued behind drained workers and its ticket hung forever.
        async def scenario():
            queue = RequestQueue()
            queue.stop_workers()
            queue.abandon_pending()
            events = []
            ticket = queue.submit(
                StubRequest("late"), on_event=lambda t, event: events.append(event)
            )
            assert ticket.state == "failed"
            assert ticket.job.done.is_set()  # waiters resolve immediately
            assert "rejected" in ticket.job.error
            assert events == ["failed"]
            assert queue.depth()["failed"] == 1
            assert queue.depth()["queued"] == 0  # nothing was enqueued
            # Workers woken afterwards still see the stop sentinel.
            assert await queue.next_job() is None

        run(scenario())

    def test_cancelling_last_ticket_of_running_job_cancels_its_token(self):
        async def scenario():
            queue = RequestQueue()
            ticket = queue.submit(StubRequest("a"))
            job = await queue.next_job()
            queue.mark_running(job)
            changed, state = queue.cancel(ticket.ticket_id)
            assert changed and state == "cancelled"
            # The job is doomed but still unwinding on its worker thread —
            # and still counted as running (it occupies real capacity).
            assert job.token.cancelled
            assert job.state == "running"
            assert queue.depth()["running"] == 1
            # An identical request submitted now starts fresh instead of
            # coalescing onto the job that will never produce a result.
            again = queue.submit(StubRequest("a"))
            assert again.job is not job and not again.coalesced
            # The worker observes the checkpoint and reports the interruption.
            queue.finish(job, error="cancelled at a cooperative checkpoint", cancelled=True)
            assert job.state == "cancelled"
            assert job.done.is_set()
            assert queue.depth()["interrupted"] == 1
            assert queue.depth()["running"] == 0  # worker capacity released
            # finish() must not evict the *fresh* job from the in-flight index.
            assert (await queue.next_job()) is again.job

        run(scenario())

    def test_cancelling_one_of_two_running_tickets_detaches_only(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            second = queue.submit(StubRequest("a"))
            job = await queue.next_job()
            queue.mark_running(job)
            queue.cancel(second.ticket_id)
            assert not job.token.cancelled  # a live ticket still wants the result
            queue.finish(job, result={}, stats={})
            assert first.state == "done"
            assert second.state == "cancelled"
            assert queue.depth()["interrupted"] == 0

        run(scenario())

    def test_progress_fans_out_to_streaming_live_tickets_only(self):
        async def scenario():
            queue = RequestQueue()
            got = []
            streaming = queue.submit(
                StubRequest("a"), on_progress=lambda t, p: got.append(("s", p))
            )
            queue.submit(StubRequest("a"))  # no on_progress: never notified
            doomed = queue.submit(
                StubRequest("a"), on_progress=lambda t, p: got.append(("d", p))
            )
            job = await queue.next_job()
            queue.mark_running(job)
            queue.cancel(doomed.ticket_id)  # detaches: stops receiving progress
            queue.deliver_progress(job, {"stage": "layer", "index": 0})
            assert got == [("s", {"stage": "layer", "index": 0})]
            queue.finish(job, result={}, stats={})
            queue.deliver_progress(job, {"stage": "layer", "index": 1})
            assert len(got) == 1  # post-terminal events are dropped
            assert streaming.state == "done"

        run(scenario())

    def test_a_finished_ticket_leaves_the_index(self):
        # A long-lived server must not retain every result payload forever:
        # the queue indexes live tickets only.
        async def scenario():
            queue = RequestQueue()
            ticket = queue.submit(StubRequest("a"))
            assert queue.get(ticket.ticket_id) is ticket
            job = await queue.next_job()
            queue.mark_running(job)
            queue.finish(job, result={"payload": 1}, stats={})
            assert queue.get(ticket.ticket_id) is None
            # A held Ticket keeps working after it leaves the index.
            assert ticket.retired and ticket.state == "done"
            assert ticket.job.result == {"payload": 1}
            # Neither a finished nor an already cancelled ticket can be
            # cancelled: both ids are unknown.
            doomed = queue.submit(StubRequest("b"))
            queue.cancel(doomed.ticket_id)
            assert queue.get(doomed.ticket_id) is None
            for finished in (ticket, doomed):
                with pytest.raises(KeyError, match="unknown ticket"):
                    queue.cancel(finished.ticket_id)

        run(scenario())


# ------------------------------------------------------------------ priorities
class TestRequestQueuePriorities:
    def test_pops_highest_priority_then_fifo(self):
        async def scenario():
            queue = RequestQueue()
            queue.submit(StubRequest("low"))
            queue.submit(StubRequest("high"), priority=5)
            queue.submit(StubRequest("mid-a"), priority=1)
            queue.submit(StubRequest("mid-b"), priority=1)
            order = [(await queue.next_job()).request.name for _ in range(4)]
            assert order == ["high", "mid-a", "mid-b", "low"]

        run(scenario())

    def test_default_priority_preserves_fifo(self):
        async def scenario():
            queue = RequestQueue()
            for name in ("a", "b", "c"):
                queue.submit(StubRequest(name))
            order = [(await queue.next_job()).request.name for _ in range(3)]
            assert order == ["a", "b", "c"]

        run(scenario())

    def test_coalesced_ticket_raises_pending_job_priority(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            queue.submit(StubRequest("b"))
            # A second client wants "a" urgently: same job, higher priority.
            boost = queue.submit(StubRequest("a"), priority=10)
            assert boost.coalesced and boost.job is first.job
            assert first.job.priority == 10
            order = [(await queue.next_job()).request.name for _ in range(2)]
            assert order == ["a", "b"]  # "a" jumped the line
            assert queue.coalesced == 1  # coalescing semantics preserved

        run(scenario())

    def test_coalescing_never_lowers_priority(self):
        async def scenario():
            queue = RequestQueue()
            urgent = queue.submit(StubRequest("a"), priority=10)
            lazy = queue.submit(StubRequest("a"), priority=1)
            assert lazy.job is urgent.job
            assert urgent.job.priority == 10

        run(scenario())

    def test_stale_heap_entries_are_skipped(self):
        async def scenario():
            queue = RequestQueue()
            ticket = queue.submit(StubRequest("a"))
            queue.submit(StubRequest("a"), priority=3)
            queue.submit(StubRequest("a"), priority=7)  # two raises → 3 entries
            job = await queue.next_job()
            assert job is ticket.job
            queue.mark_running(job)
            queue.finish(job, result={}, stats={})
            # The two stale entries must not resurface the finished job.
            follow = queue.submit(StubRequest("b"))
            assert (await queue.next_job()) is follow.job

        run(scenario())

    def test_priority_field_validated_on_the_wire(self, tmp_path):
        async def scenario():
            service = ExperimentService(cache_dir=None, workers=1)
            sent = []
            await service.handle_message(
                {"op": "run_experiment", "experiment": "table3", "priority": "high"},
                sent.append,
            )
            assert "priority must be an integer" in sent[-1]["error"]
            await service.stop()

        run(scenario())


# ------------------------------------------------------------------------ auth
class TestServeAuth:
    def test_tcp_requires_token_before_anything(self):
        async def scenario():
            service = ExperimentService(cache_dir=None, workers=1, auth_token="s3cret")
            async with service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    # No token: the first non-auth op closes the connection
                    # before it can reach the queue.
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(encode({"id": "c1", "op": "ping"}))
                    await writer.drain()
                    line = await reader.readline()
                    assert decode(line)["error"] == "authentication required"
                    assert await reader.readline() == b""  # connection closed
                    writer.close()
                    assert service.queue.submitted == 0
                    # Wrong token: rejected and closed (constant-time compare).
                    # A JSON string may carry a lone surrogate; it is just
                    # another wrong token.
                    assert service.check_auth({"op": "auth", "token": "\ud800"}) is False
                    for wrong in ("wrong", "\ud800"):
                        with pytest.raises(PermissionError, match="invalid auth token"):
                            await ServeClient.connect(
                                "127.0.0.1", port, auth_token=wrong
                            )
                    # Right token: full service.
                    client = await ServeClient.connect(
                        "127.0.0.1", port, auth_token="s3cret"
                    )
                    try:
                        assert await client.ping()
                        response = await client.run_experiment("table3", preset="smoke")
                        assert response.ok
                    finally:
                        await client.close()

        run(scenario())

    def test_tokenless_service_never_challenges(self):
        async def scenario():
            service = ExperimentService(cache_dir=None, workers=1)
            async with service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    try:
                        assert await client.ping()
                        # Explicit auth against a tokenless server is a no-op.
                        await client.auth("anything")
                    finally:
                        await client.close()

        run(scenario())

    def test_in_process_and_stdio_are_trusted(self):
        async def scenario():
            service = ExperimentService(cache_dir=None, workers=1, auth_token="s3cret")
            sent = []
            # In-process handle_message without a context is the trusted path.
            await service.handle_message({"op": "ping"}, sent.append)
            assert sent[-1]["event"] == "pong"
            await service.stop()

        run(scenario())


# ----------------------------------------------------------------- job sessions
class _GatedBackend(FilesystemBackend):
    """A disk backend whose loads of the ``gated`` keys wait for ``release``."""

    def __init__(self, directory, gated) -> None:
        super().__init__(directory)
        self.gated = set(gated)
        self.entered = threading.Event()
        self.release = threading.Event()

    def load(self, key, kind):
        if key in self.gated:
            self.entered.set()
            self.release.wait(30)
        return super().load(key, kind)


class TestJobSessions:
    def test_a_job_session_counts_corruption_errors(self, tmp_path):
        from repro.runtime.cache import ResultCache
        from repro.runtime.session import RuntimeSession

        seed = ResultCache(directory=tmp_path)
        seed.put("deadbeef", {"x": 1})
        (tmp_path / "deadbeef.json.gz").write_text("garbage", encoding="utf-8")
        # Fresh shared cache (no in-process memo) under a job session.
        session = RuntimeSession(cache=ResultCache(directory=tmp_path)).job()
        assert session.lookup("deadbeef") is None
        assert session.stats().cache.errors == 1  # corruption recovery is visible per job
        assert session.stats().cache.misses == 1

    def test_job_sessions_count_a_shared_build_exactly_once(self):
        from repro.runtime import RuntimeSession, TraceSpec

        shared = RuntimeSession()
        spec = TraceSpec(network="alexnet")
        first, second = shared.job(), shared.job()
        first.trace(spec)
        second.trace(spec)
        assert (first.stats().traces_built, first.stats().traces_reused) == (1, 0)
        assert (second.stats().traces_built, second.stats().traces_reused) == (0, 1)
        assert len(shared.traces) == 1
        assert shared.stats() == RuntimeSession().stats()  # only the jobs counted

    def test_concurrent_jobs_each_report_only_their_own_cache_errors(self, tmp_path):
        """Job A's read of a valid entry blocks in the backend while job B,
        on the same shared cache, reads a corrupt entry: only B reports it."""
        from repro.runtime.cache import ResultCache
        from repro.runtime.session import RuntimeSession
        from repro.serve.workers import execute_request

        valid, damaged = (
            parse_request({"op": "simulate", "network": "alexnet", "overrides": TINY, "seed": seed})
            for seed in (0, 1)
        )
        warm = RuntimeSession(cache=ResultCache(directory=tmp_path))
        for request in (valid, damaged):
            execute_request(request, warm)
        corrupt = next(iter(damaged.simulation_request().keys().values()))
        (tmp_path / f"{corrupt}.json.gz").write_text("garbage", encoding="utf-8")
        backend = _GatedBackend(tmp_path, valid.simulation_request().keys().values())
        shared = RuntimeSession(cache=ResultCache(backend=backend))
        answers = {}
        job_a = threading.Thread(
            target=lambda: answers.update(a=execute_request(valid, shared))
        )
        job_a.start()
        try:
            assert backend.entered.wait(30)
            _, stats_b = execute_request(damaged, shared)
        finally:
            backend.release.set()
            job_a.join(30)
        _, stats_a = answers["a"]
        assert stats_a["cache"] == {"hits": 5, "misses": 0, "stores": 0, "errors": 0}
        assert stats_b["cache"] == {"hits": 4, "misses": 1, "stores": 1, "errors": 1}


# ---------------------------------------------------------------------- service
class TestServiceInProcess:
    def test_submit_wait_round_trip(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                ticket = await service.submit(ExperimentRequest("table3", preset="smoke"))
                response = await service.wait(ticket)
                assert response["event"] == "done"
                assert response["result"]["kind"] == "experiment"
                assert response["result"]["experiment"]["experiment"] == "table3"
                assert "stats" in response
                assert service.queue.depth()["completed"] == 1

        run(scenario())

    def test_failed_jobs_report_the_error(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                # Parses fine, but the network does not exist: fails at run time.
                ticket = await service.submit(
                    SimulateRequest(network="resnet9000", preset="smoke")
                )
                response = await service.wait(ticket)
                assert response["event"] == "failed"
                assert "resnet9000" in response["error"]
                assert service.queue.depth()["failed"] == 1

        run(scenario())

    def test_cancel_of_a_finished_ticket_answers_unknown_ticket(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                ticket = await service.submit(ExperimentRequest("table3", preset="smoke"))
                assert (await service.wait(ticket))["event"] == "done"
                sent = []
                message = {"op": "cancel", "ticket": ticket.ticket_id}
                assert await service.handle_message(message, sent.append)
                error = f"unknown ticket {ticket.ticket_id!r}"
                assert sent == [{"event": "error", "error": error}]

        run(scenario())

    def test_stats_and_listing_ops(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                listing = service.list_experiments()
                names = [entry["name"] for entry in listing["experiments"]]
                assert "fig9" in names and "table1" in names
                ticket = await service.submit(ExperimentRequest("table4", preset="smoke"))
                await service.wait(ticket)
                stats = await service.stats()
                assert stats["queue"]["completed"] == 1
                assert stats["workers"] == 1
                # The richer cache section is always present (memory mode here).
                assert stats["cache"]["memo_entries"] >= 0
                assert stats["cache"]["disk_bytes"] == 0
                assert stats["cache"]["directory"] is None

        run(scenario())

    def test_no_cache_answers_a_repeat_from_memory(self, tmp_path):
        async def scenario():
            service = ExperimentService(cache_dir=tmp_path / "unused", no_cache=True, workers=1)
            async with service:
                for misses, hits in ((1, 0), (0, 1)):
                    ticket = await service.submit(
                        parse_request({"op": "simulate", "network": "alexnet", "overrides": TINY})
                    )
                    response = await service.wait(ticket)
                    cache = response["stats"]["cache"]
                    assert (bool(cache["misses"]), bool(cache["hits"])) == (misses, hits)
                assert (await service.stats())["cache"]["backend"] == "memory"
            assert not (tmp_path / "unused").exists()

        run(scenario())

    def test_stats_op_reports_manifest_backed_disk_usage(self, tmp_path):
        async def scenario():
            async with ExperimentService(cache_dir=tmp_path, workers=1) as service:
                service.session.cache.put("deadbeef", {"x": 1})
                stats = await service.stats()
                assert (stats["pid"], stats["job_ops"]) == (os.getpid(), list(JOB_OPS))
                assert stats["cache"]["directory"] == str(tmp_path)
                assert stats["cache"]["entries"] == 1
                assert stats["cache"]["disk_bytes"] > 0
                assert stats["cache"]["memo_entries"] == 1
                assert stats["cache"]["lru_age_seconds"] is not None

        run(scenario())

    def test_gc_op_collects_the_shared_disk_cache(self, tmp_path):
        async def scenario():
            async with ExperimentService(cache_dir=tmp_path, workers=1) as service:
                service.session.cache.put("deadbeef", {"x": 1})
                sent = []
                keep = await service.handle_message({"op": "gc"}, sent.append)
                assert keep and sent[-1]["event"] == "gc"
                assert sent[-1]["removed_entries"] == 0  # no bounds: no-op
                await service.handle_message({"op": "gc", "max_bytes": 0}, sent.append)
                assert sent[-1]["event"] == "gc"
                assert sent[-1]["removed_entries"] == 1
                assert sent[-1]["remaining_bytes"] == 0
                assert len(service.session.cache) == 0
                await service.handle_message({"op": "gc", "max_bytes": -3}, sent.append)
                assert sent[-1]["event"] == "error"

        run(scenario())

    def test_gc_op_without_a_disk_cache_is_an_error(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                sent = []
                await service.handle_message({"op": "gc", "max_bytes": 0}, sent.append)
                assert sent[-1]["event"] == "error"
                assert "no disk cache" in sent[-1]["error"]

        run(scenario())

    def test_submit_after_stop_fails_fast_instead_of_hanging(self):
        # Regression: ServeService.submit ignored queue.stopping, restarted
        # the pool, and the late ticket hung with no worker to fail it.
        async def scenario():
            service = ExperimentService(cache_dir=None, workers=1)
            await service.start()
            await service.stop()
            ticket = await service.submit(ExperimentRequest("table3", preset="smoke"))
            response = await asyncio.wait_for(service.wait(ticket), timeout=5)
            assert response["event"] == "failed"
            assert "rejected" in response["error"]
            assert not service._started  # the pool was not restarted

        run(scenario())


# ------------------------------------------------------------------ concurrency
class TestConcurrentServing:
    def test_identical_concurrent_requests_coalesce_to_one_execution(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=2) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    clients = [await ServeClient.connect("127.0.0.1", port) for _ in range(3)]
                    responses = await asyncio.gather(
                        *[
                            client.run_experiment("fig9", preset="fast", overrides=TINY)
                            for client in clients
                        ]
                    )
                    assert all(response.ok for response in responses)
                    assert sorted(r.coalesced for r in responses) == [False, True, True]
                    # One execution: its 5 simulated configs are reported to
                    # every ticket of the coalesced job, and the server-side
                    # totals confirm nothing ran twice.
                    assert {r.stats.sweep.configs_simulated for r in responses} == {5}
                    assert len({r.ticket for r in responses}) == 3  # tickets stay distinct
                    stats = await clients[0].stats()
                    assert stats["queue"]["submitted"] == 3
                    assert stats["queue"]["coalesced"] == 2
                    assert stats["queue"]["completed"] == 1
                    assert stats["stats"]["sweep"]["configs_simulated"] == 5
                    for client in clients:
                        await client.close()

        run(scenario())

    def test_overlapping_design_points_simulate_exactly_once(self):
        async def scenario():
            # workers=1 keeps execution serial so the cache (not luck) carries
            # the overlap between *different* request types.
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    clients = [await ServeClient.connect("127.0.0.1", port) for _ in range(4)]
                    responses = await asyncio.gather(
                        clients[0].run_experiment("fig9", preset="fast", overrides=TINY),
                        clients[1].run_experiment("fig9", preset="fast", overrides=TINY),
                        clients[2].simulate(
                            "alexnet", variants="fig9", preset="fast",
                            overrides={"max_pallets": 2},
                        ),
                        clients[3].simulate(
                            "alexnet", variants="fig9", preset="fast",
                            overrides={"max_pallets": 2},
                        ),
                    )
                    assert all(response.ok for response in responses)
                    # fig9 over alexnet needs 5 design points; the simulate op
                    # requests the same 5 units.  Each identical pair coalesced
                    # onto one job, and whichever unique job ran second found
                    # the first one's entries: across the run, each unique
                    # simulation ran exactly once.
                    executed = [r for r in responses if not r.coalesced]
                    assert len(executed) == 2
                    total = sum(r.stats.sweep.configs_simulated for r in executed)
                    assert total == 5
                    stats = await clients[0].stats()
                    assert stats["stats"]["sweep"]["configs_simulated"] == 5
                    assert stats["queue"]["coalesced"] == 2  # one per identical pair
                    for client in clients:
                        await client.close()

        run(scenario())

    @pytest.mark.slow
    def test_warm_server_answers_concurrent_fig9_fast_without_recompute(self, tmp_path):
        """Acceptance: two concurrent identical ``fig9 --preset fast`` requests
        against a warm-cache server are each answered inline from memo hits,
        recomputing nothing, as the RunStats counters in the responses show.
        Neither waits in the queue, so neither coalesces."""

        async def scenario():
            async with ExperimentService(cache_dir=tmp_path, workers=2) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    other = await ServeClient.connect("127.0.0.1", port)
                    # Warm the shared cache through the server itself.
                    cold = await client.run_experiment("fig9", preset="fast")
                    assert cold.ok and cold.stats.sweep.configs_simulated > 0
                    # Two concurrent identical requests: each inline, zero recompute.
                    a, b = await asyncio.gather(
                        client.run_experiment("fig9", preset="fast"),
                        other.run_experiment("fig9", preset="fast"),
                    )
                    assert a.ok and b.ok
                    assert (a.coalesced, b.coalesced) == (False, False)
                    for response in (a, b):
                        assert response.stats.sweep.configs_simulated == 0
                        assert response.stats.cache.misses == 0
                        assert response.stats.cache.hits > 0
                    assert a.result == cold.result == b.result
                    stats = await client.stats()
                    assert stats["queue"]["submitted"] == 3
                    assert stats["queue"]["inline"] == 2
                    assert stats["queue"]["completed"] == 3  # cold + both warm jobs
                    await client.close()
                    await other.close()

        run(scenario())


# -------------------------------------------------------------------- warm hits
#: The warm requests of the wire-contract test: both read only what a cold
#: ``fig9`` at ``TINY`` leaves behind.
WARM_MESSAGES = [
    {"op": "simulate", "network": "alexnet", "variants": "fig9", "overrides": TINY},
    {"op": "run_experiment", "experiment": "fig9", "overrides": TINY},
]
SIMULATE, FIG9 = WARM_MESSAGES


class _CountingBackend(FilesystemBackend):
    """A disk backend counting the cache's calls, and how many of them ran on
    the event loop's thread (``asyncio.run`` runs it on the main thread)."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.calls: collections.Counter = collections.Counter()

    def _count(self, name: str) -> None:
        self.calls[name] += 1
        if threading.current_thread() is threading.main_thread():
            self.calls["on the loop"] += 1

    def load(self, key, kind):
        self._count("load")
        return super().load(key, kind)

    def probe(self, key, kind):
        self._count("probe")
        return super().probe(key, kind)

    def store(self, key, payload, kind):
        self._count("store")
        super().store(key, payload, kind)

    def touch(self, key):
        self._count("touch")
        super().touch(key)


async def _answer(service: ExperimentService, message: dict) -> dict:
    """Submit one wire message in process and wait for its terminal payload."""
    return await service.wait(await service.submit(parse_request(message)))


#: Event fields that differ between two answers of one request.
PER_ANSWER = ("ticket", "timings", "elapsed_seconds")


async def _events(service: ExperimentService, message: dict, stream: bool = False) -> list:
    """The events one job op sends back, without its :data:`PER_ANSWER` fields."""
    events, terminal = [], asyncio.Event()

    def send(payload: dict) -> None:
        events.append({k: v for k, v in payload.items() if k not in PER_ANSWER})
        if payload["event"] in ("done", "failed"):
            terminal.set()

    await service.handle_message({**message, "stream": stream}, send)
    await asyncio.wait_for(terminal.wait(), 60)
    return events


def _count_executions(monkeypatch) -> list:
    """Record every execution: a worker's ``execute_request`` and an inline
    attempt both run the request through ``run_request``."""
    from repro.serve import workers

    executions = []
    run_request = workers.run_request

    def counted(request, session):
        executions.append(session.resident_only)
        return run_request(request, session)

    monkeypatch.setattr(workers, "run_request", counted)
    return executions


class TestWarmHits:
    @pytest.mark.parametrize("stream", [False, True], ids=["plain", "stream"])
    @pytest.mark.parametrize("message", WARM_MESSAGES, ids=["simulate", "fig9"])
    def test_a_warm_hit_keeps_the_wire_contract(self, message, stream):
        """A warm job's events: ``queued``, ``running``, its progress (only
        when streamed), then ``done`` — one ticket, never coalesced, with
        ``timings`` and the result ``execute_request`` gives."""
        from repro.serve.workers import execute_request

        async def scenario():
            async with ExperimentService(cache_dir=None, workers=2) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    cold = await client.run_experiment("fig9", overrides=TINY)
                    assert cold.ok and cold.stats.sweep.configs_simulated == 5
                    if stream:
                        events = [event async for event in client.stream(message)]
                    else:
                        events = []
                        await client.job(message, on_event=events.append)
                    await client.close()
                    names = [event["event"] for event in events]
                    progress = names.count("progress")
                    assert names == ["queued", "running", *["progress"] * progress, "done"]
                    assert bool(progress) == stream
                    assert len({event["ticket"] for event in events}) == 1
                    assert all(not e["coalesced"] for e in events if "coalesced" in e)
                    done = events[-1]
                    assert set(done["timings"]) == {
                        "queue_wait_seconds", "execution_seconds", "total_seconds"
                    }
                    assert done["stats"]["sweep"]["configs_simulated"] == 0
                    expected, _ = execute_request(parse_request(message), service.session)
                    assert done["result"] == decode(encode(expected))

        run(scenario())

    @pytest.mark.parametrize("stream", [False, True], ids=["plain", "stream"])
    @pytest.mark.parametrize("message", WARM_MESSAGES, ids=["simulate", "fig9"])
    def test_a_repeat_replays_the_inline_answer_without_executing(
        self, message, stream, monkeypatch
    ):
        """The second warm answer of a request is replayed: the same events,
        ``result`` and ``stats`` as the inline execution it repeats, and no
        execution at all.  Executing once more, without the record, sends
        them again."""

        async def scenario():
            async with ExperimentService(cache_dir=None, workers=2) as service:
                await _answer(service, message)
                inline = await _events(service, message, stream)
                executions = _count_executions(monkeypatch)
                replay = await _events(service, message, stream)
                assert executions == []
                assert replay == inline
                names = [event["event"] for event in replay]
                assert names[:2] == ["queued", "running"] and names[-1] == "done"
                assert ("progress" in names) == stream
                queue = (await service.stats())["queue"]
                assert (queue["inline"], queue["replayed"], queue["completed"]) == (2, 1, 3)
                service.pool._replays.clear()
                assert await _events(service, message, stream) == replay
                assert executions == [True]

        run(scenario())

    @pytest.mark.parametrize("fault", ["gc", "clear", "touch", "trace"])
    def test_a_repeat_whose_reads_left_the_process_executes_again(
        self, tmp_path, monkeypatch, fault
    ):
        """A unit ``gc`` or ``clear`` dropped, a due LRU touch or an evicted
        trace: the repeat is not replayed but takes the queue, as it did
        before replay existed, with the same events and result."""
        from repro.runtime import cache as cache_module

        message = FIG9 if fault == "trace" else SIMULATE

        async def scenario():
            async with ExperimentService(cache_dir=tmp_path, workers=1) as service:
                await _answer(service, message)
                inline = await _events(service, message)
                cache = service.session.cache
                if fault == "gc":
                    size = cache.usage()["disk_bytes"]
                    assert cache.gc(max_bytes=size - 1).removed_entries == 1
                elif fault == "clear":
                    cache.clear()
                elif fault == "touch":
                    slot = next(iter(cache._memory.values()))
                    slot[1] -= cache_module.USE_GRANULARITY
                else:
                    service.session.traces._traces.clear()
                executions = _count_executions(monkeypatch)
                again = await _events(service, message)
                # One inline attempt that gave up, then the worker's execution.
                assert executions == [True, False]
                assert [e["event"] for e in again] == [e["event"] for e in inline]
                assert again[-1]["result"] == inline[-1]["result"]
                queue = (await service.stats())["queue"]
                assert (queue["inline"], queue["replayed"]) == (1, 0)

        run(scenario())

    def test_the_replay_table_keeps_its_bound_least_recently_used_out_first(
        self, monkeypatch
    ):
        from repro.serve import workers

        monkeypatch.setattr(workers, "REPLAY_ENTRIES", 2)
        a, b, c = ({**SIMULATE, "seed": seed} for seed in range(3))
        ka, kb, kc = (parse_request(message).key() for message in (a, b, c))

        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                table = service.pool._replays

                async def warm(message):
                    await _answer(service, message)  # cold, on a worker
                    await _answer(service, message)  # inline, recorded
                    assert len(table) <= 2

                await warm(a)
                await warm(b)
                assert list(table) == [ka, kb]
                await _answer(service, a)  # replayed: now the most recent
                assert (service.pool.replayed, list(table)) == (1, [kb, ka])
                await warm(c)
                assert list(table) == [ka, kc]
                await _answer(service, b)  # evicted: executed inline again
                assert service.pool.replayed == 1
                assert list(table) == [kc, kb]

        run(scenario())

    def test_a_failed_inline_answer_is_not_recorded(self, monkeypatch):
        def broken(result):
            raise RuntimeError("boom")

        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                await _answer(service, SIMULATE)
                monkeypatch.setattr("repro.serve.workers.network_result_to_dict", broken)
                failed = await _answer(service, SIMULATE)
                assert (failed["event"], failed["error"]) == ("failed", "RuntimeError: boom")
                assert not service.pool._replays
                monkeypatch.undo()
                executed = await _answer(service, SIMULATE)
                replayed = await _answer(service, SIMULATE)
                assert executed["result"] == replayed["result"]
                queue = (await service.stats())["queue"]
                assert (queue["inline"], queue["replayed"], queue["failed"]) == (3, 1, 1)

        run(scenario())

    def test_a_memo_resident_simulate_runs_inline_without_a_backend_call(self, tmp_path):
        backend = _CountingBackend(tmp_path)

        async def scenario():
            async with ExperimentService(cache_backend=backend, workers=1) as service:
                cold = await _answer(service, SIMULATE)
                assert cold["stats"]["sweep"]["configs_simulated"] == 5
                assert service.queue.inline == 0
                backend.calls.clear()
                warm = await _answer(service, SIMULATE)
                assert warm["event"] == "done"
                assert warm["stats"]["cache"] == {"hits": 5, "misses": 0, "stores": 0, "errors": 0}
                assert warm["timings"]["queue_wait_seconds"] < 0.01
                assert (await service.stats())["queue"]["inline"] == 1
                assert not backend.calls

        run(scenario())

    def test_an_inline_job_ends_before_a_cancel_and_a_stopped_service_runs_none(self):
        async def scenario():
            service = ExperimentService(cache_dir=None, workers=1)
            async with service:
                await _answer(service, SIMULATE)
                ticket = await service.submit(parse_request(SIMULATE))
                assert (ticket.state, service.queue.inline) == ("done", 1)
                cancel = service.cancel(ticket.ticket_id)
                assert cancel == {"event": "error", "error": f"unknown ticket {ticket.ticket_id!r}"}
            late = await _answer(service, SIMULATE)
            assert late["event"] == "failed" and "rejected" in late["error"]
            assert service.queue.inline == 1

        run(scenario())

    def test_a_repeat_warm_only_on_disk_loads_on_a_worker_then_runs_inline(self, tmp_path):
        async def scenario():
            async with ExperimentService(cache_dir=tmp_path, workers=1) as service:
                await _answer(service, SIMULATE)
            backend = _CountingBackend(tmp_path)
            async with ExperimentService(cache_backend=backend, workers=1) as fresh:
                first = await _answer(fresh, SIMULATE)
                assert first["stats"]["cache"]["hits"] == 5
                assert first["stats"]["sweep"]["configs_simulated"] == 0
                assert fresh.queue.inline == 0
                assert backend.calls == {"load": 5}  # none on the loop
                backend.calls.clear()
                await _answer(fresh, SIMULATE)
                assert fresh.queue.inline == 1
                assert not backend.calls

        run(scenario())

    def test_a_due_lru_touch_is_made_on_a_worker(self, tmp_path, monkeypatch):
        backend = _CountingBackend(tmp_path)

        async def scenario():
            async with ExperimentService(cache_backend=backend, workers=1) as service:
                await _answer(service, SIMULATE)
                monkeypatch.setattr("repro.runtime.cache.USE_GRANULARITY", 0.0)
                backend.calls.clear()
                warm = await _answer(service, SIMULATE)
                assert warm["stats"]["cache"]["hits"] == 5
                assert service.queue.inline == 0
                assert backend.calls == {"touch": 5}  # none on the loop

        run(scenario())

    def test_a_partly_resident_fig9_falls_back_and_streams_each_event_once(
        self, tmp_path, monkeypatch
    ):
        """The inline attempt reads AlexNet's units, misses VGG-M's and is
        dropped: its progress events and job session's counters reach
        nobody, though the shared cache answered its reads."""
        from repro.experiments import fig9
        from repro.runtime.cache import ResultCache
        from repro.serve.workers import execute_request

        message = {"op": "run_experiment", "experiment": "fig9", "overrides": TINY2}
        request = parse_request(message)
        answered = []  # every payload the shared cache returned
        get = ResultCache.get

        def counted_get(*args, **kwargs):
            payload = get(*args, **kwargs)
            if payload is not None:
                answered.append(payload)
            return payload

        monkeypatch.setattr(ResultCache, "get", counted_get)

        async def scenario():
            async with ExperimentService(cache_dir=tmp_path, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    assert (await client.job(message)).ok
                    alexnet, vgg_m = fig9.plan(request.resolved_preset(), request.seed)
                    assert vgg_m.trace.network == "vgg_m"
                    for key in vgg_m.keys().values():
                        service.session.cache._memo_drop(key)
                    answered.clear()
                    events = [event async for event in client.stream(message)]
                    await client.close()
                assert service.queue.inline == 0
                # AlexNet's 5 hits in the abandoned attempt, then the thread
                # path's 10.
                assert len(answered) == 15
                progress = [
                    (event["progress"]["stage"], event["progress"].get("network"))
                    for event in events
                    if event["event"] == "progress"
                ]
                assert progress == [
                    ("experiment", None), ("network", "alexnet"), ("network", "vgg_m")
                ]
                _, thread_path = execute_request(request, service.session)
                assert events[-1]["stats"] == thread_path
                assert thread_path["cache"]["hits"] == 10

        run(scenario())

    def test_a_fig9_whose_trace_is_not_built_builds_it_on_a_worker(self, tmp_path, monkeypatch):
        from repro.runtime import TraceSpec

        build = TraceSpec.build
        builders = []

        def recording_build(spec, *args, **kwargs):
            builders.append(threading.current_thread())
            return build(spec, *args, **kwargs)

        async def scenario():
            async with ExperimentService(cache_dir=tmp_path, workers=1) as service:
                await _answer(service, FIG9)
            monkeypatch.setattr(TraceSpec, "build", recording_build)
            async with ExperimentService(cache_dir=tmp_path, workers=1) as fresh:
                # The simulate op reads fig9's units into the memo, and needs
                # no trace to do it.
                await _answer(fresh, SIMULATE)
                assert builders == []
                response = await _answer(fresh, FIG9)
                assert response["event"] == "done"
                assert response["stats"]["traces_built"] == 1
                assert fresh.queue.inline == 0
                assert len(builders) == 1
                assert builders[0] is not threading.main_thread()

        run(scenario())

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "run_experiment", "experiment": "table2", "overrides": TINY},
            {"op": "run_all", "overrides": TINY},
        ],
        ids=["table2", "run_all"],
    )
    def test_requests_that_compute_outside_the_cache_never_run_inline(self, message):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                first = await _answer(service, message)
                again = await _answer(service, message)
                assert first["event"] == again["event"] == "done"
                assert again["stats"]["cache"]["misses"] == 0
                assert again["stats"]["sweep"]["configs_simulated"] == 0
                assert service.queue.inline == 0

        run(scenario())

    def test_an_inline_failure_ends_failed_and_the_connection_answers_on(self, monkeypatch):
        def broken(result):
            raise RuntimeError("boom")

        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    assert (await client.job(SIMULATE)).ok
                    monkeypatch.setattr("repro.serve.workers.network_result_to_dict", broken)
                    inline = await client.job(SIMULATE)
                    assert inline.events == ["queued", "running", "failed"]
                    assert service.queue.inline == 1
                    # A due LRU touch sends the same request to a worker thread.
                    monkeypatch.setattr("repro.runtime.cache.USE_GRANULARITY", 0.0)
                    threaded = await client.job(SIMULATE)
                    assert service.queue.inline == 1
                    assert inline.error == threaded.error == "RuntimeError: boom"
                    monkeypatch.undo()
                    assert (await client.job(SIMULATE)).ok
                    stats = await client.stats()
                    assert (stats["queue"]["inline"], stats["queue"]["failed"]) == (2, 2)
                    await client.close()

        run(scenario())


# -------------------------------------------------------- cancellation/streaming
#: Two-network tiny workload for streaming acceptance tests.
TINY2 = {"networks": ["alexnet", "vgg_m"], "max_pallets": 2, "samples_per_layer": 1500}


class TestRunningCancellation:
    def test_cancel_running_sole_ticket_frees_worker_before_completion(self):
        """Acceptance: cancelling the only ticket of a running multi-network
        job frees its worker before the job would have finished — proven by
        event ordering: the interrupted job saw only a fraction of its
        experiments, and a job submitted *after* the cancel completes on the
        single worker."""

        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                events = []
                first_progress = asyncio.Event()

                def on_event(ticket, event):
                    events.append(("slow", event))

                def on_progress(ticket, payload):
                    events.append(("slow", f"progress:{payload['stage']}"))
                    first_progress.set()

                request = parse_request(
                    {"op": "run_all", "preset": "fast", "overrides": TINY2}
                )
                ticket = await service.submit(
                    request, on_event=on_event, on_progress=on_progress
                )
                await asyncio.wait_for(first_progress.wait(), timeout=60)
                response = service.cancel(ticket.ticket_id)
                assert response["event"] == "cancelled" and response["changed"]
                assert ticket.job.token.cancelled
                # The worker observes the next cooperative checkpoint and frees up.
                await asyncio.wait_for(ticket.job.done.wait(), timeout=60)
                assert ticket.job.state == "cancelled"
                assert service.queue.depth()["interrupted"] == 1
                # Far fewer experiments completed than run_all executes in full.
                done_experiments = [
                    e for e in events if e[1] == "progress:experiment_done"
                ]
                from repro.experiments.runner import EXPERIMENTS

                assert len(done_experiments) < len(EXPERIMENTS)
                # The freed worker picks up new work submitted after the cancel.
                quick = await service.submit(
                    ExperimentRequest("table3", preset="smoke"),
                    on_event=lambda t, e: events.append(("quick", e)),
                )
                result = await asyncio.wait_for(service.wait(quick), timeout=60)
                assert result["event"] == "done"
                # Wire-order: the slow job's cancelled strictly precedes the
                # quick job's done.
                assert events.index(("slow", "cancelled")) < events.index(
                    ("quick", "done")
                )
                assert ("slow", "done") not in events

        run(scenario())

    def test_cancel_with_surviving_coalesced_ticket_keeps_job_running(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                running = asyncio.Event()
                message = {
                    "op": "run_experiment",
                    "experiment": "fig9",
                    "preset": "fast",
                    "overrides": TINY,
                }
                first = await service.submit(
                    parse_request(message),
                    on_event=lambda t, e: running.set() if e == "running" else None,
                )
                second = await service.submit(parse_request(dict(message)))
                assert second.job is first.job and second.coalesced
                await asyncio.wait_for(running.wait(), timeout=30)
                changed, state = service.queue.cancel(second.ticket_id)
                assert changed and state == "cancelled"
                # Detach-only: a live ticket still wants the result.
                assert not first.job.token.cancelled
                response = await asyncio.wait_for(service.wait(first), timeout=60)
                assert response["event"] == "done"
                assert response["stats"]["sweep"]["configs_simulated"] == 5
                assert second.state == "cancelled"
                assert service.queue.depth()["interrupted"] == 0

        run(scenario())

    def test_cancel_then_result_ordering_on_the_wire(self):
        """After the terminal ``cancelled`` event, nothing else arrives for
        that request id — in particular no late ``done`` once the worker
        unwinds."""

        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    events = []
                    ticket = None
                    async for event in client.stream_run_all(
                        preset="fast", overrides=TINY2
                    ):
                        events.append(event["event"])
                        if event["event"] == "progress" and ticket is None:
                            # Take the Ticket first: a cancelled ticket leaves
                            # the queue's index.
                            ticket = service.queue.get(event["ticket"])
                            ack = await client.cancel(event["ticket"])
                            assert ack["event"] == "cancelled" and ack["changed"]
                    assert events[-1] == "cancelled"
                    assert "done" not in events and "failed" not in events
                    # Wait out the worker's unwind, then prove no stray event
                    # arrived for the cancelled request: ping round-trips on
                    # the same ordered connection.
                    await asyncio.wait_for(ticket.job.done.wait(), timeout=60)
                    assert ticket.job.state == "cancelled"
                    assert await client.ping()
                    await client.close()

        run(scenario())


class TestStreaming:
    def test_stream_run_all_yields_progress_per_network_before_done(self):
        """Acceptance: a ``stream: true`` run_all emits at least one progress
        event per network before the terminal done."""

        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    events = []
                    async for event in client.stream_run_all(
                        preset="fast", overrides=TINY2
                    ):
                        events.append(event)
                    assert events[-1]["event"] == "done"
                    progress = [e for e in events if e["event"] == "progress"]
                    assert progress, "no progress events on a streamed run_all"
                    networks = {
                        e["progress"].get("network")
                        for e in progress
                        if e["progress"]["stage"] in ("network", "layer", "statistics")
                    }
                    assert {"alexnet", "vgg_m"} <= networks
                    # Partial results stream per completed experiment.
                    partials = [
                        e["progress"]
                        for e in progress
                        if e["progress"]["stage"] == "experiment_done"
                    ]
                    assert partials and all("result" in p for p in partials)
                    assert events.index(
                        next(e for e in events if e["event"] == "progress")
                    ) < events.index(events[-1])
                    await client.close()

        run(scenario())

    def test_unstreamed_requests_receive_no_progress_events(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    response = await client.run_experiment(
                        "fig9", preset="fast", overrides=TINY
                    )
                    assert response.ok
                    assert "progress" not in response.events
                    await client.close()

        run(scenario())

    def test_stream_events_interleave_cleanly_under_two_clients(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=2) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    one = await ServeClient.connect("127.0.0.1", port)
                    two = await ServeClient.connect("127.0.0.1", port)

                    async def consume(client, message):
                        events = []
                        async for event in client.stream(message):
                            events.append(event)
                        return events

                    first, second = await asyncio.gather(
                        consume(
                            one,
                            {
                                "op": "run_experiment",
                                "experiment": "fig9",
                                "preset": "fast",
                                "overrides": TINY,
                            },
                        ),
                        consume(
                            two,
                            {
                                "op": "run_experiment",
                                "experiment": "fig10",
                                "preset": "fast",
                                "overrides": TINY,
                            },
                        ),
                    )
                    tickets = set()
                    for events in (first, second):
                        assert events[-1]["event"] == "done"
                        progress = [e for e in events if e["event"] == "progress"]
                        assert progress  # both streams saw incremental events
                        # Every event of one stream belongs to exactly one job.
                        own = {e["ticket"] for e in events if "ticket" in e}
                        assert len(own) == 1
                        tickets |= own
                    assert len(tickets) == 2  # no cross-talk between clients
                    await one.close()
                    await two.close()

        run(scenario())


class TestServedRunAll:
    """A served ``run_all`` executes the batch run's merged plan, experiment
    by experiment."""

    @staticmethod
    def _run_all(on_progress=None):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                request = parse_request({"op": "run_all", "overrides": TINY})
                ticket = await service.submit(request, on_progress=on_progress)
                return request, await service.wait(ticket)

        return run(scenario())

    def test_a_cold_run_all_does_the_batch_runs_work(self, monkeypatch):
        from repro.experiments.runner import EXPERIMENTS
        from repro.runtime import run_experiments
        from repro.runtime import session as session_module

        sweeps = []
        sweep = session_module.sweep_network

        def counted(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(session_module, "sweep_network", counted)
        request, response = self._run_all()
        served = len(sweeps)
        batch = run_experiments(
            list(EXPERIMENTS), preset=request.resolved_preset(), no_cache=True
        )
        assert response["stats"]["sweep"] == batch.stats.sweep.as_dict()
        assert response["stats"]["cache"] == batch.stats.cache.as_dict()
        assert served == batch.simulation_jobs > 0

    def test_experiments_finish_in_order_as_they_complete(self):
        from repro.experiments.runner import EXPERIMENTS

        progress = []
        _, response = self._run_all(lambda ticket, payload: progress.append(payload))
        assert response["event"] == "done"
        stages = [payload["stage"] for payload in progress]
        done = [payload for payload in progress if payload["stage"] == "experiment_done"]
        assert [payload["experiment"] for payload in done] == list(EXPERIMENTS)
        assert [payload["completed"] for payload in done] == list(range(1, len(done) + 1))
        assert {payload["total"] for payload in done} == {len(EXPERIMENTS)}
        # Each experiment reports when it finishes, not after the run's last
        # sweep: table1 (statistics only) is done before fig9 sweeps a layer.
        assert stages.index("experiment_done") < stages.index("layer")


# ------------------------------------------------------------------ disconnects
class TestDisconnectCleanup:
    def test_disconnect_cancels_sole_ticket_running_job_and_frees_worker(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(
                        encode(
                            {
                                "id": "c1",
                                "op": "run_all",
                                "preset": "fast",
                                "overrides": TINY2,
                                "stream": True,
                            }
                        )
                    )
                    await writer.drain()
                    ticket_id = None
                    while True:
                        payload = decode(await asyncio.wait_for(reader.readline(), 30))
                        if payload["event"] == "queued":
                            ticket_id = payload["ticket"]
                        if payload["event"] == "progress":
                            break  # the job is demonstrably mid-execution
                    ticket = service.queue.get(ticket_id)
                    writer.close()  # abrupt disconnect, no cancel op sent
                    # The server disowns the connection: callbacks neutralized,
                    # the sole-ticket job cooperatively cancelled, worker freed.
                    await asyncio.wait_for(ticket.job.done.wait(), timeout=60)
                    assert ticket.job.state == "cancelled"
                    assert ticket.on_event is None and ticket.on_progress is None
                    assert service.queue.depth()["interrupted"] == 1
                    follow_up = await service.submit(
                        ExperimentRequest("table3", preset="smoke")
                    )
                    result = await asyncio.wait_for(service.wait(follow_up), timeout=60)
                    assert result["event"] == "done"

        run(scenario())

    def test_connection_ticket_list_drops_finished_tickets(self):
        # Regression: the per-connection disown list must not pin every
        # finished job's result payload for the connection's lifetime.
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                sent: list = []
                context = ConnectionContext()
                tickets = context.tickets
                for seed in (0, 1, 2):
                    await service.handle_message(
                        {
                            "op": "run_experiment",
                            "experiment": "table3",
                            "preset": "smoke",
                            "seed": seed,
                        },
                        sent.append,
                        context,
                    )
                    await asyncio.wait_for(tickets[-1].job.done.wait(), timeout=30)
                # Each new submission pruned the finished predecessors.
                assert len(tickets) == 1
                assert [e["event"] for e in sent].count("done") == 3

        run(scenario())

    def test_disconnect_detaches_but_keeps_jobs_shared_with_others(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                running = asyncio.Event()
                message = {
                    "op": "run_experiment",
                    "experiment": "fig9",
                    "preset": "fast",
                    "overrides": TINY,
                }
                survivor = await service.submit(
                    parse_request(message),
                    on_event=lambda t, e: running.set() if e == "running" else None,
                )
                # A second "connection" submits the identical request...
                sent: list = []
                context = ConnectionContext()
                tickets = context.tickets
                await service.handle_message({**message, "id": "c9"}, sent.append, context)
                assert len(tickets) == 1 and tickets[0].job is survivor.job
                await asyncio.wait_for(running.wait(), timeout=30)
                # ... then dies.  Its ticket detaches; the shared job survives.
                service._disown_connection_tickets(tickets)
                assert tickets[0].cancelled
                assert not survivor.job.token.cancelled
                response = await asyncio.wait_for(service.wait(survivor), timeout=60)
                assert response["event"] == "done"

        run(scenario())


# ------------------------------------------------------------ out-of-process GC
class TestOutOfProcessGC:
    def test_batch_cache_gc_collects_a_served_directory(self, tmp_path, capsys):
        """A service runs no GC of its own: ``--cache-gc`` bounds its directory."""

        async def scenario():
            async with ExperimentService(cache_dir=tmp_path, workers=1) as service:
                message = {"op": "simulate", "network": "alexnet", "overrides": TINY}
                first = await service.wait(await service.submit(parse_request(message)))
                assert first["event"] == "done"
                assert (await service.stats())["cache"]["entries"] > 0
                argv = ["--cache-gc", "--max-bytes", "1", "--cache-dir", str(tmp_path)]
                assert runner_main(argv) == 0
                assert (await service.stats())["cache"]["entries"] == 0
                again = await service.wait(await service.submit(parse_request(message)))
                assert again["event"] == "done"
                assert again["result"] == first["result"]

        run(scenario())
        assert "evicted" in capsys.readouterr().out


# ---------------------------------------------------------------------- fronts
class TestFrontEnds:
    def test_stdio_protocol_round_trip(self):
        lines = [
            {"id": "1", "op": "ping"},
            {"id": "2", "op": "run_experiment", "experiment": "table3", "preset": "smoke"},
            {"op": "shutdown"},
        ]
        stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
        stdout = io.StringIO()

        async def scenario():
            service = ExperimentService(cache_dir=None, workers=1)
            await service.run_stdio(stdin=stdin, stdout=stdout)

        run(scenario())
        events = [json.loads(line) for line in stdout.getvalue().splitlines()]
        by_id = {}
        for event in events:
            by_id.setdefault(event.get("id"), []).append(event["event"])
        assert by_id["1"] == ["pong"]
        assert by_id["2"] == ["queued", "running", "done"]
        assert by_id[None] == ["shutdown"]
        done = [e for e in events if e["event"] == "done"][0]
        assert done["result"]["experiment"]["experiment"] == "table3"

    @pytest.mark.parametrize("ending", ["eof", "shutdown"])
    def test_stdio_answers_every_job_it_read_before_eof(self, ending):
        """EOF ends the input, not the work: three jobs queued behind one slot
        all reach ``done``.  A ``shutdown`` op still stops at once, failing
        the jobs that had not started."""
        names = ("fig9", "fig10", "fig12")

        async def executor(request, session, token):
            await asyncio.sleep(0.2)
            return {"experiment": request.experiment}, {}

        lines = [
            {"id": name, "op": "run_experiment", "experiment": name, "preset": "smoke"}
            for name in names
        ]
        if ending == "shutdown":
            lines.append({"op": "shutdown"})
        stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
        stdout = io.StringIO()

        async def scenario():
            service = ExperimentService(cache_dir=None, workers=1, executor=executor)
            await service.run_stdio(stdin=stdin, stdout=stdout)

        run(scenario())
        events = [json.loads(line) for line in stdout.getvalue().splitlines()]
        final = {
            event["id"]: event
            for event in events
            if event["event"] in ("done", "failed", "cancelled")
        }
        assert sorted(final) == sorted(names)
        if ending == "eof":
            assert {name: final[name]["event"] for name in names} == dict.fromkeys(
                names, "done"
            )
            assert all(final[name]["result"] == {"experiment": name} for name in names)
        else:
            assert final["fig12"]["event"] == "failed"
            assert final["fig12"]["error"] == "service stopped before this job ran"

    @pytest.mark.parametrize(
        "length, expected",
        [(64 * 1024, ["pong", "pong"]), (64 * 1024 + 1, ["error"]), (200_000, ["error"])],
        ids=["at-the-limit", "one-over", "200KB"],
    )
    def test_stdio_bounds_request_lines_as_tcp_does(self, length, expected):
        """An over-long line gets one ``error`` event, then nothing is read."""
        from repro.serve import service as serve_module

        assert serve_module.LINE_LIMIT == 64 * 1024
        padding = length - len(json.dumps({"op": "ping", "pad": ""}))
        line = json.dumps({"op": "ping", "pad": "x" * padding})
        assert len(line) == length
        stdin = io.StringIO(line + "\n" + json.dumps({"op": "ping"}) + "\n")
        stdout = io.StringIO()

        async def scenario():
            service = ExperimentService(cache_dir=None, workers=1)
            await service.run_stdio(stdin=stdin, stdout=stdout)

        run(scenario())
        events = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [event["event"] for event in events] == expected
        if expected == ["error"]:  # the message TCP answers with
            assert events[0]["error"] == serve_module.LINE_TOO_LONG

    def test_cli_rejects_bad_arguments(self):
        with pytest.raises(SystemExit):
            serve_main(["--workers", "0", "--stdio"])
        with pytest.raises(SystemExit):
            serve_main(["--tcp", "nonsense"])

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["--worker", "--auth-token", "t"], "--worker needs --tcp"),
            (["--worker", "--tcp", "127.0.0.1:0"], "--worker needs an auth token"),
            (["--worker", "--tcp", "127.0.0.1:0", "--auth-token", "t", "--no-cache"],
             "--worker needs the shared cache"),
        ],
        ids=["without-tcp", "without-token", "without-cache"],
    )
    def test_a_worker_without_what_it_needs_is_a_usage_error(
        self, argv, problem, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
        with pytest.raises(SystemExit) as raised:
            serve_main(argv)
        assert raised.value.code == 2
        assert problem in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("name", ["serve", "cacheserve"])
    def test_a_taken_port_ends_start_up_with_one_line(self, name, tmp_path, capsys):
        main, store = {
            "serve": (serve_main, "--no-cache"),
            "cacheserve": (cacheserve_main, f"--cache-dir={tmp_path}"),
        }[name]
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            assert main(["--tcp", f"127.0.0.1:{port}", store]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"repro {name}: ") and str(port) in line

    @pytest.mark.parametrize(
        "attempt",
        [
            lambda: serve_main(["--tcp", BAD_ENDPOINT]),
            lambda: cluster_main(["--workers", "0", "--connect", BAD_ENDPOINT, "--stdio"]),
            lambda: cacheserve_main(["--tcp", BAD_ENDPOINT]),
            lambda: loadgen_main(["--connect", BAD_ENDPOINT]),
            lambda: resolve_backend(f"remote://{BAD_ENDPOINT}"),
        ],
        ids=["serve", "cluster", "cacheserve", "loadgen", "resolve_backend"],
    )
    def test_out_of_range_port_rejected_when_parsed(self, attempt, capsys):
        with pytest.raises((SystemExit, ValueError)) as raised:
            attempt()
        if raised.type is SystemExit:  # a CLI: argparse usage error
            assert raised.value.code == 2
            message = capsys.readouterr().err
        else:
            message = str(raised.value)
        assert BAD_ENDPOINT in message

    @pytest.mark.parametrize(
        "main, argv",
        [
            pytest.param(
                runner_main, ["--experiment", "table3", "--no-cache", "--seed", "-1"],
                id="batch-seed",
            ),
            *(
                pytest.param(main, [*argv, "--cache-backend", spec], id=f"{name}-{kind}")
                for name, main, argv in (
                    ("batch", runner_main, ["--experiment", "table3"]),
                    ("serve", serve_main, ["--stdio"]),
                    ("cluster", cluster_main, ["--stdio"]),
                    ("loadgen", loadgen_main, ["--spawn", "serve"]),
                )
                for kind, spec in (
                    ("scheme", "bogus://x"),
                    ("port", f"remote://{BAD_ENDPOINT}"),
                    ("memory", "memory://"),
                    ("path", "cache-elsewhere"),
                )
            ),
        ],
    )
    def test_a_malformed_flag_is_a_usage_error_that_names_it(self, main, argv, capsys):
        """Refused while parsing (exit 2), before anything is mounted or spawned.

        A memory or directory spec names the flag that mounts that store.
        """
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert argv[-2] in message
        hint = {"memory://": "--no-cache", "cache-elsewhere": "--cache-dir"}.get(argv[-1])
        assert hint is None or hint in message

    def test_oversized_request_line_gets_a_typed_error(self):
        from repro.serve.service import LINE_LIMIT

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(encode({"id": "big", "op": "stats", "pad": "x" * 70_000}))
                    await writer.drain()
                    reply = decode(await asyncio.wait_for(reader.readline(), timeout=10))
                    assert reply["event"] == "error"
                    assert str(LINE_LIMIT) in reply["error"]
                    try:  # the server closed the connection after answering
                        rest = await asyncio.wait_for(reader.read(), timeout=10)
                    except ConnectionError:
                        rest = b""
                    assert rest == b""
                    writer.close()
                    # The server itself keeps serving.
                    client = await ServeClient.connect("127.0.0.1", port)
                    try:
                        assert await client.ping()
                    finally:
                        await client.close()
            return unhandled

        assert run(scenario()) == []

    @pytest.mark.parametrize(
        "line",
        [b"[" * 5000 + b"\n", b"\xff\xfe\n", b'{"op": "ping", "n": ' + b"1" * 5000 + b"}\n"],
        ids=["nested", "not-utf8", "long-integer"],
    )
    def test_a_line_the_parser_refuses_gets_an_error_and_the_connection_answers_on(
        self, line
    ):
        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(line + encode({"op": "ping"}))
                    await writer.drain()
                    replies = [
                        decode(await asyncio.wait_for(reader.readline(), timeout=10))
                        for _ in range(2)
                    ]
                    writer.close()
            return [reply["event"] for reply in replies], unhandled

        assert run(scenario()) == (["error", "pong"], [])

    def test_stdio_answers_a_nested_line_with_an_error_and_reads_on(self, monkeypatch):
        lines = "[" * 5000 + "\n" + json.dumps({"op": "ping"}) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert serve_main(["--stdio", "--no-cache"]) == 0
        events = [json.loads(line)["event"] for line in sys.stdout.getvalue().splitlines()]
        assert events == ["error", "pong"]

    def test_a_peer_that_stops_reading_is_dropped_at_the_outbox_bound(self, monkeypatch):
        """More replies than the outbox holds, to a peer whose ``drain()``
        never returns: the connection is aborted at once, without waiting out
        the close timeout, and the outbox never holds more than its bound."""
        from repro.serve.service import CLOSE_DRAIN_TIMEOUT, OUTBOX_LIMIT

        depths = []

        class RecordingQueue(asyncio.Queue):
            def put_nowait(self, item):
                super().put_nowait(item)
                depths.append(self.qsize())

        class StalledPeer:
            """A writer (and its transport) whose peer never reads."""

            def __init__(self):
                self.transport = self
                self.aborted = False

            def write(self, data):
                pass

            async def drain(self):
                await asyncio.Event().wait()

            def abort(self):
                self.aborted = True

            def close(self):
                pass

            async def wait_closed(self):
                pass

            def get_extra_info(self, name):
                return None

        monkeypatch.setattr(asyncio, "Queue", RecordingQueue)

        async def scenario():
            service = ExperimentService(cache_dir=None, workers=1)
            reader = asyncio.StreamReader()
            # No EOF follows: only the bound can end this connection.
            reader.feed_data(encode({"op": "ping"}) * (2 * OUTBOX_LIMIT))
            peer = StalledPeer()
            started = asyncio.get_running_loop().time()
            await asyncio.wait_for(
                service.handle_connection(reader, peer), timeout=CLOSE_DRAIN_TIMEOUT
            )
            assert asyncio.get_running_loop().time() - started < 1.0
            return peer

        peer = run(scenario())
        assert peer.aborted
        assert max(depths) == OUTBOX_LIMIT

    def test_non_string_names_get_a_typed_error_on_a_live_connection(self):
        assert run(self._typed_errors_scenario(NON_STRING_NAMES)) == []

    def test_unresolvable_names_get_a_typed_error_before_queueing(self):
        # Queued, each would hold a worker slot and then fail as a job with a
        # bare ZeroDivisionError, ValueError or KeyError.
        assert run(self._typed_errors_scenario(UNRESOLVABLE_NAMES)) == []

    @staticmethod
    async def _typed_errors_scenario(messages):
        """Send each message over TCP: each gets an ``error`` event, the
        connection keeps serving, nothing is submitted to the queue and the
        loop records no unhandled exception (returned)."""
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        async with ExperimentService(cache_dir=None, workers=1) as service:
            server = await service.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for index, message in enumerate(messages):
                    writer.write(encode({"id": f"bad{index}", **message}))
                    writer.write(encode({"id": f"ping{index}", "op": "ping"}))
                    await writer.drain()
                    replies = [
                        decode(await asyncio.wait_for(reader.readline(), timeout=10))
                        for _ in range(2)
                    ]
                    assert replies[0]["id"] == f"bad{index}", replies
                    assert replies[0]["event"] == "error", replies
                    assert replies[1] == {"id": f"ping{index}", "event": "pong"}
                writer.close()
                assert service.queue.depth()["submitted"] == 0
        return unhandled

    def test_client_response_lines_up_to_the_limit(self):
        """A stub server answers ``pad`` bytes per request, or never (``hold``)."""
        from repro.serve.client import RESPONSE_LIMIT

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            peer_gone = asyncio.Event()

            async def stub(reader, writer):
                try:
                    while line := await reader.readline():
                        message = decode(line)
                        if "pad" in message:
                            writer.write(
                                b'{"id": "%s", "event": "done", "result": {"pad": "%s"}}\n'
                                % (message["id"].encode(), b"x" * message["pad"])
                            )
                except ConnectionError:
                    pass  # the client dropped the link with a reply unread
                finally:
                    peer_gone.set()
                    writer.close()

            server = await asyncio.start_server(stub, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                client = await ServeClient.connect("127.0.0.1", port)
                large = await asyncio.wait_for(
                    client.job({"op": "stub", "pad": 200_000}), timeout=10
                )
                assert large.ok and large.result == {"pad": "x" * 200_000}
                assert not client.closed.is_set()
                assert (await client.job({"op": "stub", "pad": 10})).ok

                held = asyncio.create_task(client.job({"op": "stub", "hold": True}))
                await asyncio.sleep(0.05)
                oversized = await asyncio.wait_for(
                    client.job({"op": "stub", "pad": RESPONSE_LIMIT}), timeout=10
                )
                held = await asyncio.wait_for(held, timeout=10)
                for response in (oversized, held):
                    assert response.state == "failed"
                    assert str(RESPONSE_LIMIT) in response.error
                assert client.closed.is_set()
                await asyncio.wait_for(peer_gone.wait(), timeout=10)
                await client.close()
            return unhandled

        assert run(scenario()) == []

    def test_client_routes_are_popped_when_a_roundtrip_is_abandoned(self):
        """A timed-out control op, or a failed write, leaves no route behind."""

        async def scenario():
            async def silent(reader, writer):
                while await reader.readline():
                    pass  # read every request, answer none
                writer.close()

            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                client = await ServeClient.connect("127.0.0.1", port)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(client.stats(), 0.2)
                assert list(client._routes) == []

                async def broken_drain():
                    raise ConnectionResetError("peer reset")

                client._writer.drain = broken_drain
                with pytest.raises(ConnectionResetError):
                    await client.stats()
                assert list(client._routes) == []
                await client.close()

        run(scenario())

    def test_shutdown_op_stops_a_tcp_server(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    await client.shutdown()
                    # The front-end's wait returns promptly after the op.
                    await asyncio.wait_for(service.wait_shutdown(), timeout=5)
                    await client.close()

        run(scenario())

    def test_client_waiters_fail_fast_when_the_connection_dies(self):
        async def scenario():
            async with ExperimentService(cache_dir=None, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    # Pin the only worker with a long multi-experiment job so
                    # the client's request is still queued when its connection
                    # dies (single experiments finish too fast to race against).
                    running = asyncio.Event()
                    blocker = await service.submit(
                        parse_request(
                            {"op": "run_all", "preset": "fast", "overrides": TINY2}
                        ),
                        on_event=lambda t, e: running.set() if e == "running" else None,
                    )
                    await asyncio.wait_for(running.wait(), timeout=30)
                    client = await ServeClient.connect("127.0.0.1", port)
                    waiter = asyncio.create_task(
                        client.run_experiment("fig9", preset="fast", overrides=TINY)
                    )
                    await asyncio.sleep(0.1)  # request in flight (queued)
                    server.close()  # kill the transport under the client
                    client._writer.transport.abort()
                    response = await asyncio.wait_for(waiter, timeout=10)
                    assert not response.ok
                    assert response.error == "connection closed"
                    await client.close()
                    service.cancel(blocker.ticket_id)

        run(scenario())


class TestSpawnServer:
    """``spawn_server``: how a parent starts a serve, cluster or cacheserve
    process and learns its endpoint from the stderr banner."""

    BANNER = "print('repro serve: listening on 127.0.0.1:4242', file=sys.stderr, flush=True)"

    def _spawn(self, code: str):
        return spawn_server([sys.executable, "-c", f"import sys, time; {code}"], timeout=30)

    def test_a_line_before_the_banner_is_forwarded_and_the_banner_found(self, capsys):
        async def scenario():
            process, host, port = await self._spawn(
                f"print('warming up', file=sys.stderr); {self.BANNER}; time.sleep(30)"
            )
            await reap(process)
            return host, port

        assert run(scenario()) == ("127.0.0.1", 4242)
        err = capsys.readouterr().err
        assert "warming up" in err and "listening on" not in err

    def test_a_mebibyte_of_stderr_after_the_banner_never_blocks_the_child(self, capsys):
        async def scenario():
            process, _, _ = await self._spawn(
                f"{self.BANNER}; sys.stderr.write(('x' * 1023 + '\\n') * 1024)"
            )
            status = await asyncio.wait_for(process.wait(), timeout=30)
            # The forwarder may still hold the pipe's last lines: let it finish.
            forwarders = asyncio.all_tasks() - {asyncio.current_task()}
            await asyncio.wait_for(asyncio.gather(*forwarders), timeout=30)
            return status

        assert run(scenario()) == 0
        assert capsys.readouterr().err.count("x" * 1023) == 1024

    def test_a_child_that_exits_first_raises_naming_its_status(self):
        async def scenario():
            with pytest.raises(ChildProcessError, match="exited with status 3 before its banner"):
                await self._spawn("sys.exit(3)")

        run(scenario())
