#!/usr/bin/env python3
"""Serving demo: concurrent clients sharing one warm experiment server.

This example walks the serving layer (``docs/serving.md``) end to end:

1. start an ``ExperimentService`` and a TCP endpoint in-process,
2. connect two independent async clients,
3. submit **concurrent identical cold** requests from both clients and show
   they coalesce onto one job (``coalesced`` flags) while it runs on a worker,
4. repeat them warm: every input is then resident in the server, so each is
   answered inline on its event loop, never queued, so never coalesced (the
   first executes, the second replays the first's answer), and
5. show via the per-request ``RunStats`` counters that the warm answers
   recompute nothing (``simulated 0 configs``).

Run it with::

    python examples/serve_client.py

It uses a tiny workload (AlexNet only, two pallets per layer) so the cold
pass takes seconds; drop the ``overrides`` for a full ``fast``-preset run.
"""

from __future__ import annotations

import asyncio

from repro.serve import ExperimentService, ServeClient

#: Shrink the fast preset so the demo's cold pass takes seconds.
OVERRIDES = {"networks": ["alexnet"], "max_pallets": 2, "samples_per_layer": 1500}


async def main() -> None:
    service = ExperimentService(cache_dir=None, workers=2)
    async with service:
        server = await service.serve_tcp("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        print(f"server listening on 127.0.0.1:{port}")
        async with server:
            alice = await ServeClient.connect("127.0.0.1", port)
            bob = await ServeClient.connect("127.0.0.1", port)

            # --- concurrent identical cold requests: one job, one pass ------
            cold_a, cold_b = await asyncio.gather(
                alice.run_experiment("fig9", preset="fast", overrides=OVERRIDES),
                bob.run_experiment("fig9", preset="fast", overrides=OVERRIDES),
            )
            _show("concurrent identical cold requests", cold_a, cold_b)
            assert {cold_a.coalesced, cold_b.coalesced} == {True, False}
            assert cold_a.stats.sweep.configs_simulated > 0

            # --- the same requests warm: answered inline, one by replay -----
            warm_a, warm_b = await asyncio.gather(
                alice.run_experiment("fig9", preset="fast", overrides=OVERRIDES),
                bob.run_experiment("fig9", preset="fast", overrides=OVERRIDES),
            )
            _show("the same requests, warm", warm_a, warm_b)
            assert (warm_a.coalesced, warm_b.coalesced) == (False, False)
            for response in (warm_a, warm_b):
                assert response.stats.sweep.configs_simulated == 0
                assert response.stats.cache.misses == 0
            queue = (await alice.stats())["queue"]
            assert (queue["inline"], queue["replayed"]) == (2, 1)

            # --- the cache also serves *different* overlapping requests -----
            sim = await bob.simulate(
                "alexnet", variants="fig9", preset="fast", overrides={"max_pallets": 2}
            )
            print(
                f"\nsimulate op (same design points): "
                f"cache {sim.stats.cache.hits} hits / {sim.stats.cache.misses} misses, "
                f"simulated {sim.stats.sweep.configs_simulated} configs"
            )

            # --- server-side totals ------------------------------------------
            stats = await alice.stats()
            queue = stats["queue"]
            print(
                f"\nserver: {queue['submitted']} submitted, "
                f"{queue['coalesced']} coalesced, {queue['completed']} executed, "
                f"{queue['inline']} of them inline ({queue['replayed']} replayed); "
                f"session totals: {stats['stats']['sweep']['configs_simulated']} "
                f"configs simulated in {stats['cache']['entries']} cache entries"
            )

            await alice.close()
            await bob.close()


def _show(title: str, *responses) -> None:
    """Print each response's lifecycle events and what it cost."""
    print(f"\n{title}:")
    for name, response in zip(("alice", "bob"), responses):
        print(
            f"  {name}: ticket={response.ticket} events={response.events} "
            f"coalesced={response.coalesced} "
            f"simulated={response.stats.sweep.configs_simulated} configs, "
            f"cache {response.stats.cache.hits} hits / "
            f"{response.stats.cache.misses} misses"
        )


if __name__ == "__main__":
    asyncio.run(main())
