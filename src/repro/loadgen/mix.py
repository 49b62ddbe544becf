"""Declarative request mixes and the deterministic seeded scheduler.

A :class:`MixSpec` describes *what* traffic a load run replays — how many
requests, over how many concurrent clients, which experiments and presets
(weighted), how much of it re-requests a small **hot** working set versus
**cold** never-seen-before keys, how much streams progress versus plain
batch request/response, and what fraction is cancelled mid-flight.

:meth:`MixSpec.schedule` compiles the spec into a concrete list of
:class:`PlannedRequest`\\ s with a private ``random.Random(seed)``: the same
spec always produces byte-identical schedules, so two load runs on different
PRs replay *exactly* the same traffic and their reports are comparable.
Wall-clock interleaving still depends on the machine, but the requests, their
client assignment, hot/cold choice, stream/cancel flags and think times do
not.  ``docs/loadgen.md`` documents the JSON spec format.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["MixError", "MixSpec", "PlannedRequest"]


class MixError(ValueError):
    """An invalid mix specification."""


#: Cold requests draw their seeds from this offset upward so they can never
#: collide with the hot pool's small fixed seeds (or with each other).
_COLD_SEED_BASE = 1000


@dataclass(frozen=True)
class PlannedRequest:
    """One concrete request of a compiled schedule."""

    index: int
    client: int
    message: dict
    hot: bool
    stream: bool
    cancel: bool
    #: Client-side delay before issuing this request (seconds).
    think_seconds: float


def _weighted(pairs: object, what: str, allowed: set[str] | None = None) -> tuple:
    """Validate a ``{name: weight}`` mapping into sorted ``(name, weight)`` pairs."""
    if isinstance(pairs, (list, tuple)):
        pairs = dict(pairs)
    if not isinstance(pairs, dict) or not pairs:
        raise MixError(f"{what} must be a non-empty object of name: weight")
    items = []
    for name in sorted(pairs):
        weight = pairs[name]
        if not isinstance(name, str):
            raise MixError(f"{what} names must be strings")
        if allowed is not None and name not in allowed:
            raise MixError(
                f"unknown {what[:-1]} {name!r}; available: {', '.join(sorted(allowed))}"
            )
        if isinstance(weight, bool) or not isinstance(weight, (int, float)) or weight <= 0:
            raise MixError(f"{what}[{name!r}] weight must be a positive number")
        items.append((name, float(weight)))
    return tuple(items)


def _ratio(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MixError(f"{what} must be a number in [0, 1]")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise MixError(f"{what} must be within [0, 1], got {value}")
    return value


def _non_negative(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
        raise MixError(f"{what} must be a non-negative number")
    return float(value)


def _positive_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise MixError(f"{what} must be a positive integer")
    return value


def _pick(rng: random.Random, pairs: tuple) -> str:
    total = sum(weight for _, weight in pairs)
    roll = rng.random() * total
    for name, weight in pairs:
        roll -= weight
        if roll < 0:
            return name
    return pairs[-1][0]


@dataclass(frozen=True)
class MixSpec:
    """One load run's traffic shape (all fields have safe defaults).

    The default experiment mix leans on the cheap analytic/statistics
    experiments so smoke runs finish in seconds even on a cold cache; point
    ``experiments`` at the sweep-heavy figures (and raise ``requests``) for a
    real soak.
    """

    requests: int = 24
    clients: int = 4
    seed: int = 0
    #: Fraction of requests drawn from the small hot pool (identical repeats
    #: that exercise coalescing and the warm cache); the rest are cold —
    #: every one carries a never-seen seed, forcing fresh work.
    hot_ratio: float = 0.5
    #: Distinct request shapes in the hot pool.
    hot_pool: int = 3
    #: Fraction of requests submitted with ``stream: true`` (progress events).
    stream_ratio: float = 0.25
    #: Fraction of requests cancelled as soon as their first event arrives.
    #: Nonzero by default: sustained traffic includes clients that walk away.
    cancel_rate: float = 0.125
    #: Weighted experiment distribution (name-sorted, like parsed specs).
    experiments: tuple = (("fig2", 1.0), ("fig3", 1.0), ("table1", 2.0), ("table3", 3.0))
    #: Weighted preset distribution.
    presets: tuple = (("smoke", 1.0),)
    #: Fraction of *cold* requests issued as single-network ``simulate`` ops
    #: instead of ``run_experiment`` (0 keeps the pre-simulate schedules
    #: byte-identical: no extra RNG draws happen when this is 0).
    simulate_ratio: float = 0.0
    #: Weighted network distribution for simulate ops.
    networks: tuple = (("alexnet", 1.0),)
    #: Variant group simulate ops request (a :data:`repro.serve.protocol.VARIANT_GROUPS` name).
    variants: str = "fig9"
    #: Weighted oneffset-encoding distribution for simulate ops
    #: (:mod:`repro.numerics.encodings` registry names).
    encodings: tuple = (("positional", 1.0),)
    #: Preset overrides applied to every request (bounds hermetic run cost).
    overrides: tuple = ()
    #: Start of client ``k`` is delayed by ``k * ramp_seconds`` — a linear
    #: concurrency ramp instead of a thundering herd.
    ramp_seconds: float = 0.0
    #: Mean client think time between requests (exponential, sampled into the
    #: schedule so it is deterministic too).  0 disables pacing.
    think_seconds: float = 0.0

    # ------------------------------------------------------------------ parsing
    @classmethod
    def from_dict(cls, data: object) -> "MixSpec":
        """Validate a JSON object into a spec; raises :class:`MixError`."""
        from repro.experiments.base import PRESETS
        from repro.experiments.runner import EXPERIMENTS
        from repro.serve.protocol import VARIANT_GROUPS, ProtocolError, _normalize_overrides

        if not isinstance(data, dict):
            raise MixError("mix spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise MixError(
                f"unknown mix field(s) {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        kwargs: dict = {}
        if "requests" in data:
            kwargs["requests"] = _positive_int(data["requests"], "requests")
        if "clients" in data:
            kwargs["clients"] = _positive_int(data["clients"], "clients")
        if "hot_pool" in data:
            kwargs["hot_pool"] = _positive_int(data["hot_pool"], "hot_pool")
        if "seed" in data:
            seed = data["seed"]
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise MixError("seed must be an integer")
            kwargs["seed"] = seed
        for name in ("hot_ratio", "stream_ratio", "cancel_rate"):
            if name in data:
                kwargs[name] = _ratio(data[name], name)
        for name in ("ramp_seconds", "think_seconds"):
            if name in data:
                kwargs[name] = _non_negative(data[name], name)
        if "experiments" in data:
            kwargs["experiments"] = _weighted(
                data["experiments"], "experiments", allowed=set(EXPERIMENTS)
            )
        if "presets" in data:
            kwargs["presets"] = _weighted(data["presets"], "presets", allowed=set(PRESETS))
        if "simulate_ratio" in data:
            kwargs["simulate_ratio"] = _ratio(data["simulate_ratio"], "simulate_ratio")
        if "networks" in data:
            from repro.nn.networks import NETWORK_NAMES

            kwargs["networks"] = _weighted(
                data["networks"], "networks", allowed=set(NETWORK_NAMES)
            )
        if "variants" in data:
            variants = data["variants"]
            if not isinstance(variants, str) or variants not in VARIANT_GROUPS:
                raise MixError(
                    f"unknown variants group {variants!r}; "
                    f"available: {', '.join(VARIANT_GROUPS)}"
                )
            kwargs["variants"] = variants
        if "encodings" in data:
            from repro.numerics.encodings import encoding_names

            kwargs["encodings"] = _weighted(
                data["encodings"], "encodings", allowed=set(encoding_names())
            )
        if kwargs.get("variants") == "encodings" and tuple(
            name for name, _ in kwargs.get("encodings", ())
        ) not in ((), ("positional",)):
            raise MixError(
                "the 'encodings' variant group already spans every encoding; "
                "drop the encodings weights"
            )
        if "overrides" in data:
            try:
                kwargs["overrides"] = _normalize_overrides(data["overrides"])
            except ProtocolError as error:
                raise MixError(str(error)) from error
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "MixSpec":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise MixError(f"cannot read mix spec {path}: {error}") from error
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "clients": self.clients,
            "seed": self.seed,
            "hot_ratio": self.hot_ratio,
            "hot_pool": self.hot_pool,
            "stream_ratio": self.stream_ratio,
            "cancel_rate": self.cancel_rate,
            "experiments": dict(self.experiments),
            "presets": dict(self.presets),
            "simulate_ratio": self.simulate_ratio,
            "networks": dict(self.networks),
            "variants": self.variants,
            "encodings": dict(self.encodings),
            "overrides": {key: list(value) if isinstance(value, tuple) else value
                          for key, value in self.overrides},
            "ramp_seconds": self.ramp_seconds,
            "think_seconds": self.think_seconds,
        }

    # --------------------------------------------------------------- scheduling
    def _message(self, experiment: str, preset: str, seed: int) -> dict:
        message = {
            "op": "run_experiment",
            "experiment": experiment,
            "preset": preset,
            "seed": seed,
        }
        overrides = {key: list(value) if isinstance(value, tuple) else value
                     for key, value in self.overrides}
        if overrides:
            message["overrides"] = overrides
        return message

    def _simulate_message(
        self, network: str, encoding: str, preset: str, seed: int
    ) -> dict:
        message = {
            "op": "simulate",
            "network": network,
            "variants": self.variants,
            "preset": preset,
            "seed": seed,
        }
        if encoding != "positional":
            message["encoding"] = encoding
        overrides = {key: list(value) if isinstance(value, tuple) else value
                     for key, value in self.overrides}
        if overrides:
            message["overrides"] = overrides
        return message

    def schedule(self) -> list[PlannedRequest]:
        """Compile the spec into a deterministic, replayable request list.

        Requests are assigned to clients round-robin (client assignment is
        part of the schedule, not the runtime); every random draw comes from
        one ``random.Random(self.seed)``, so identical specs produce
        identical schedules.
        """
        rng = random.Random(self.seed)
        # The hot pool: a few fixed request shapes drawn once, re-requested
        # verbatim for every hot slot (identical content keys → coalescing
        # and warm-cache hits on the server).
        pool = [
            self._message(_pick(rng, self.experiments), _pick(rng, self.presets), hot_seed)
            for hot_seed in range(self.hot_pool)
        ]
        planned: list[PlannedRequest] = []
        for index in range(self.requests):
            hot = rng.random() < self.hot_ratio
            if hot:
                message = dict(pool[rng.randrange(len(pool))])
            elif self.simulate_ratio and rng.random() < self.simulate_ratio:
                # The leading truthiness guard keeps simulate-free specs free
                # of extra RNG draws, so their schedules stay byte-identical
                # to the pre-simulate format.
                message = self._simulate_message(
                    _pick(rng, self.networks),
                    _pick(rng, self.encodings),
                    _pick(rng, self.presets),
                    _COLD_SEED_BASE + index,
                )
            else:
                message = self._message(
                    _pick(rng, self.experiments),
                    _pick(rng, self.presets),
                    _COLD_SEED_BASE + index,
                )
            think = rng.expovariate(1.0 / self.think_seconds) if self.think_seconds else 0.0
            planned.append(
                PlannedRequest(
                    index=index,
                    client=index % self.clients,
                    message=message,
                    hot=hot,
                    stream=rng.random() < self.stream_ratio,
                    cancel=rng.random() < self.cancel_rate,
                    think_seconds=round(think, 6),
                )
            )
        return planned
