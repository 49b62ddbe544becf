"""Typed requests and the line-delimited JSON wire format of ``repro serve``.

Every message on the wire is one JSON object per ``\\n``-terminated line.
Client → server messages carry an ``op`` plus op-specific fields and an
optional correlation ``id`` the server echoes back on every event for that
request.  Server → client messages carry an ``event`` (``queued``,
``running``, ``done``, ``failed``, ``cancelled`` for job lifecycles; single
shot events for control ops).  A job op may set ``"stream": true`` to
additionally receive incremental ``progress`` events (per-layer/per-network/
per-experiment reports under a ``"progress"`` key) while the job runs; the
flag affects delivery only and never enters a request's deduplication key,
so streamed and unstreamed twins still coalesce.  A job op may also carry a
``"priority"`` integer (default 0): queued jobs execute highest-priority
first, FIFO within a level, and like ``stream`` the field never enters the
deduplication key — a coalescing ticket with a higher priority simply raises
the pending job's priority.

The job-submitting ops parse into frozen dataclasses — the *typed* form the
queue, the workers and the in-process API all share — and each request type
knows its deduplication key, built on the runtime's content fingerprints so
identical in-flight requests coalesce onto one job.  ``docs/serving.md``
documents the protocol with examples.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass

from repro.core.variants import (
    encoding_variants,
    fig9_variants,
    fig10_variants,
    fig12_variants,
)
from repro.experiments.base import PRESETS, Preset, get_preset
from repro.nn.calibration import REPRESENTATIONS
from repro.nn.networks import get_network
from repro.numerics.encodings import encoding_names
from repro.runtime import SimulationRequest, TraceSpec, fingerprint

__all__ = [
    "ProtocolError",
    "ExperimentRequest",
    "RunAllRequest",
    "SimulateRequest",
    "ServeRequest",
    "parse_request",
    "encode",
    "decode",
    "JOB_OPS",
    "CONTROL_OPS",
    "VARIANT_GROUPS",
]

#: Ops that enqueue work (parsed into typed requests).
JOB_OPS = ("run_experiment", "run_all", "simulate")

#: Ops answered immediately by the service (``gc`` garbage-collects the
#: shared disk cache: optional ``max_bytes``/``max_age`` bounds, LRU-first;
#: ``auth`` presents the shared secret of a token-protected server — on such
#: a server it must be the connection's first message).
CONTROL_OPS = ("cancel", "stats", "gc", "list", "ping", "auth", "shutdown")

#: The variant groups a ``simulate`` op (or a loadgen mix) names: the
#: design-point families of :mod:`repro.core.variants`, by name.
VARIANT_GROUPS = {
    "fig9": fig9_variants,
    "fig10": fig10_variants,
    "fig12": fig12_variants,
    "encodings": encoding_variants,
}

#: Preset fields a request may override.
_OVERRIDE_FIELDS = ("networks", "samples_per_layer", "max_pallets")


class ProtocolError(ValueError):
    """A malformed or unsupported protocol message."""


def _check_network(name: str) -> None:
    """Refuse a name :func:`~repro.nn.networks.get_network` cannot resolve."""
    try:
        get_network(name)
    except KeyError as error:
        raise ProtocolError(error.args[0]) from None


def _normalize_overrides(overrides: object) -> tuple[tuple[str, object], ...]:
    """Validate and canonicalize a JSON ``overrides`` object."""
    if overrides is None:
        return ()
    if not isinstance(overrides, dict):
        raise ProtocolError("overrides must be an object of preset fields")
    items: list[tuple[str, object]] = []
    for key in sorted(overrides):
        value = overrides[key]
        if key not in _OVERRIDE_FIELDS:
            raise ProtocolError(
                f"unknown preset override {key!r}; allowed: {', '.join(_OVERRIDE_FIELDS)}"
            )
        if key == "networks":
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(item, str) for item in value
            ):
                raise ProtocolError("networks override must be a list of names")
            if not value:
                raise ProtocolError("networks override must name at least one network")
            for name in value:
                _check_network(name)
            items.append((key, tuple(value)))
        else:
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ProtocolError(f"{key} override must be a positive integer")
            items.append((key, value))
    return tuple(items)


def _resolve_preset(preset: str, overrides: tuple[tuple[str, object], ...]) -> Preset:
    """The effective :class:`Preset` of a request (name kept for display)."""
    base = get_preset(preset)
    if not overrides:
        return base
    return dataclasses.replace(base, name=f"{base.name}+overrides", **dict(overrides))


def _preset_content(preset: Preset) -> Preset:
    """The preset stripped of its display name (names never affect results)."""
    return dataclasses.replace(preset, name="")


def _with_overrides(message: dict, overrides: tuple[tuple[str, object], ...]) -> dict:
    """``message`` plus ``overrides`` as the JSON object :func:`parse_request` reads."""
    if overrides:
        message["overrides"] = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in overrides
        }
    return message


@dataclass(frozen=True)
class ExperimentRequest:
    """Run one experiment: ``{"op": "run_experiment", "experiment": "fig9", ...}``."""

    experiment: str
    preset: str = "fast"
    seed: int = 0
    overrides: tuple[tuple[str, object], ...] = ()

    op = "run_experiment"

    def resolved_preset(self) -> Preset:
        return _resolve_preset(self.preset, self.overrides)

    def key(self) -> str:
        """Content hash for in-flight deduplication (display names excluded)."""
        return fingerprint(
            {
                "op": self.op,
                "experiment": self.experiment,
                "preset": _preset_content(self.resolved_preset()),
                "seed": self.seed,
            }
        )

    def describe(self) -> str:
        return f"run_experiment {self.experiment} --preset {self.preset} --seed {self.seed}"

    def to_message(self) -> dict:
        """The wire form :func:`parse_request` parses back into this request."""
        return _with_overrides(
            {"op": self.op, "experiment": self.experiment, "preset": self.preset, "seed": self.seed},
            self.overrides,
        )


@dataclass(frozen=True)
class RunAllRequest:
    """Run every experiment in presentation order: ``{"op": "run_all", ...}``."""

    preset: str = "fast"
    seed: int = 0
    overrides: tuple[tuple[str, object], ...] = ()

    op = "run_all"

    def resolved_preset(self) -> Preset:
        return _resolve_preset(self.preset, self.overrides)

    def key(self) -> str:
        return fingerprint(
            {
                "op": self.op,
                "preset": _preset_content(self.resolved_preset()),
                "seed": self.seed,
            }
        )

    def describe(self) -> str:
        return f"run_all --preset {self.preset} --seed {self.seed}"

    def to_message(self) -> dict:
        """The wire form :func:`parse_request` parses back into this request."""
        return _with_overrides(
            {"op": self.op, "preset": self.preset, "seed": self.seed}, self.overrides
        )


@dataclass(frozen=True)
class SimulateRequest:
    """Simulate one named variant group over one network trace.

    ``{"op": "simulate", "network": "alexnet", "variants": "fig9", ...}`` —
    the variant groups are the named design-point families of
    :mod:`repro.core.variants`.  An optional ``"encoding"`` selects a
    registered oneffset encoding (:mod:`repro.numerics.encodings`) for every
    configuration of the group; the default is the paper's ``positional``
    representation.
    """

    network: str
    variants: str = "fig9"
    representation: str = "fixed16"
    encoding: str = "positional"
    preset: str = "fast"
    seed: int = 0
    overrides: tuple[tuple[str, object], ...] = ()

    op = "simulate"

    def resolved_preset(self) -> Preset:
        return _resolve_preset(self.preset, self.overrides)

    def simulation_request(self) -> SimulationRequest:
        """The runtime simulation request this wire request resolves to.

        Resolved once: parsing, the deduplication key and the worker share
        one instance, so its unit keys are derived once per request.
        """
        return self._simulation_request

    @functools.cached_property
    def _simulation_request(self) -> SimulationRequest:
        if self.variants not in VARIANT_GROUPS:
            raise ProtocolError(
                f"unknown variant group {self.variants!r}; "
                f"available: {', '.join(VARIANT_GROUPS)}"
            )
        if self.encoding not in encoding_names():
            raise ProtocolError(
                f"unknown encoding {self.encoding!r}; available: "
                f"{', '.join(encoding_names())}"
            )
        configs = dict(VARIANT_GROUPS[self.variants]())
        if self.encoding != "positional":
            if self.variants == "encodings":
                raise ProtocolError(
                    "the 'encodings' variant group already spans every encoding; "
                    "drop the encoding field"
                )
            configs = {
                label: dataclasses.replace(config, encoding=self.encoding)
                for label, config in configs.items()
            }
        return SimulationRequest(
            trace=TraceSpec(
                network=self.network, representation=self.representation, seed=self.seed
            ),
            configs=tuple(configs.items()),
            sampling=self.resolved_preset().sampling(),
        )

    def key(self) -> str:
        """Content hash: the runtime cache keys of the underlying simulations."""
        return fingerprint(
            {"op": self.op, "units": sorted(self.simulation_request().keys().values())}
        )

    def describe(self) -> str:
        return f"simulate {self.network} variants={self.variants} --preset {self.preset}"

    def to_message(self) -> dict:
        """The wire form :func:`parse_request` parses back into this request."""
        return _with_overrides(
            {
                "op": self.op,
                "network": self.network,
                "variants": self.variants,
                "representation": self.representation,
                "encoding": self.encoding,
                "preset": self.preset,
                "seed": self.seed,
            },
            self.overrides,
        )


ServeRequest = ExperimentRequest | RunAllRequest | SimulateRequest


def parse_request(message: dict) -> ServeRequest:
    """Parse (and validate) a job-submitting protocol message."""
    op = message.get("op")
    if op not in JOB_OPS:
        raise ProtocolError(f"unknown job op {op!r}; job ops: {', '.join(JOB_OPS)}")
    preset = message.get("preset", "fast")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ProtocolError(f"unknown preset {preset!r}; available: {', '.join(PRESETS)}")
    seed = message.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ProtocolError("seed must be a non-negative integer")
    overrides = _normalize_overrides(message.get("overrides"))

    if op == "run_experiment":
        from repro.experiments.runner import EXPERIMENTS

        experiment = message.get("experiment")
        if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
            raise ProtocolError(
                f"unknown experiment {experiment!r}; available: {', '.join(EXPERIMENTS)}"
            )
        return ExperimentRequest(
            experiment=experiment, preset=preset, seed=seed, overrides=overrides
        )
    if op == "run_all":
        return RunAllRequest(preset=preset, seed=seed, overrides=overrides)

    network = message.get("network")
    if not isinstance(network, str) or not network:
        raise ProtocolError("simulate requires a network name")
    strings = {
        "variants": message.get("variants", "fig9"),
        "representation": message.get("representation", "fixed16"),
        "encoding": message.get("encoding", "positional"),
    }
    for field, value in strings.items():
        if not isinstance(value, str) or not value:
            raise ProtocolError(f"{field} must be a non-empty string")
    _check_network(network)
    if strings["representation"] not in REPRESENTATIONS:
        raise ProtocolError(
            f"unknown representation {strings['representation']!r}; "
            f"available: {', '.join(REPRESENTATIONS)}"
        )
    request = SimulateRequest(
        network=network, preset=preset, seed=seed, overrides=overrides, **strings
    )
    request.simulation_request()  # rejects unknown variants and encodings eagerly
    return request


def encode(message: dict) -> bytes:
    """One protocol message as a ``\\n``-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=False) + "\n").encode(
        "utf-8"
    )


def decode(line: bytes | str) -> dict:
    """Parse one protocol line into a message dict.

    A line that is not a JSON object raises :class:`ProtocolError`, and so
    does one the parser refuses: invalid UTF-8, nesting too deep to recurse
    into, or an integer longer than Python converts.
    """
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        message = json.loads(line)
    except (ValueError, RecursionError) as error:
        raise ProtocolError(f"invalid JSON line: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("protocol messages must be JSON objects")
    return message
