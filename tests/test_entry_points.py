"""Every entry point gives the batch run's bytes, cold and warm.

One ``run_all`` and one ``simulate`` (CSD encoding) at a tiny ``fast``
preset run through each entry point that executes them: the batch
scheduler, serially and over a two-process pool (``run_all`` only); serve's
:func:`~repro.serve.workers.execute_request` on a worker thread; and a
coordinator with two in-process workers, over a cache directory and over a
network cache server.  Each cell runs cold, then warm over the same store.
Its ``experiments`` (or ``results``) section must equal the reference under
``json.dumps(..., sort_keys=True)``: the serial batch run for ``run_all``,
and :func:`repro.runtime.simulate` in a fresh session for ``simulate``.
"""

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cachenet import CacheServer
from repro.experiments.runner import EXPERIMENTS
from repro.runtime import RuntimeSession, build_session, run_experiments, simulate
from repro.runtime.serialization import network_result_to_dict
from repro.serve.protocol import parse_request
from repro.serve.workers import execute_request
from tests.test_cluster import _Cluster

TINY = {"networks": ["alexnet"], "max_pallets": 2, "samples_per_layer": 1500}

REQUESTS = {
    "run_all": parse_request({"op": "run_all", "preset": "fast", "overrides": TINY}),
    "simulate": parse_request(
        {"op": "simulate", "network": "alexnet", "encoding": "csd", "preset": "fast",
         "overrides": TINY}
    ),
}

#: The payload section each op's cells compare.
SECTIONS = {"run_all": "experiments", "simulate": "results"}


def _canonical(section: dict) -> str:
    return json.dumps(section, sort_keys=True)


@pytest.fixture(scope="module")
def references() -> dict[str, str]:
    run_all = REQUESTS["run_all"]
    batch = run_experiments(
        list(EXPERIMENTS), preset=run_all.resolved_preset(), seed=run_all.seed, no_cache=True
    )
    results = simulate(REQUESTS["simulate"].simulation_request(), session=RuntimeSession())
    return {
        "run_all": _canonical({name: r.to_dict() for name, r in batch.results.items()}),
        "simulate": _canonical(
            {label: network_result_to_dict(r) for label, r in results.items()}
        ),
    }


# Each entry point runs ``request`` cold, then warm over the same store, and
# returns both ``(payload, stats dict)`` outcomes.
def _batch(jobs: int):
    def run(request, tmp_path):
        outcomes = []
        for _ in range(2):
            report = run_experiments(
                list(EXPERIMENTS),
                preset=request.resolved_preset(),
                seed=request.seed,
                jobs=jobs,
                cache_dir=tmp_path / "cache",
            )
            experiments = {name: r.to_dict() for name, r in report.results.items()}
            outcomes.append(({"experiments": experiments}, report.stats.as_dict()))
        return outcomes

    return run


def _serve(request, tmp_path):
    shared = build_session(tmp_path / "cache")
    with ThreadPoolExecutor(1) as thread:  # serve executes jobs off the event loop
        return [thread.submit(execute_request, request, shared).result() for _ in range(2)]


def _cluster(remote: bool):
    async def scenario(request, cache_dir, options):
        async with _Cluster(cache_dir, **options) as cluster:
            outcomes = []
            for _ in range(2):
                ticket = await cluster.coordinator.submit(request)
                response = await cluster.coordinator.wait(ticket)
                assert response["event"] == "done", response.get("error")
                outcomes.append((response["result"], response["stats"]))
            return outcomes

    def run(request, tmp_path):
        if not remote:
            return asyncio.run(scenario(request, tmp_path / "cache", {}))
        server = CacheServer(directory=tmp_path / "remote")
        host, port = server.start()
        try:
            options = {"cache_backend": f"remote://{host}:{port}"}
            return asyncio.run(scenario(request, tmp_path / "cache", options))
        finally:
            server.stop()

    return run


ENTRY_POINTS = {
    "batch-jobs1": _batch(1),
    "batch-jobs2": _batch(2),
    "serve": _serve,
    "cluster-dir": _cluster(remote=False),
    "cluster-cachenet": _cluster(remote=True),
}

CELLS = [("run_all", entry) for entry in ENTRY_POINTS] + [
    ("simulate", entry) for entry in ("serve", "cluster-dir", "cluster-cachenet")
]


@pytest.mark.parametrize("op, entry", CELLS, ids=[f"{op}-{entry}" for op, entry in CELLS])
def test_each_entry_point_gives_the_reference_bytes_cold_and_warm(
    op, entry, references, tmp_path
):
    (cold, cold_stats), (warm, warm_stats) = ENTRY_POINTS[entry](REQUESTS[op], tmp_path)
    assert _canonical(cold[SECTIONS[op]]) == references[op]
    assert _canonical(warm[SECTIONS[op]]) == references[op]
    assert cold_stats["sweep"]["configs_simulated"] > 0
    assert warm_stats["sweep"]["configs_simulated"] == 0
