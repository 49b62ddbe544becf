"""Stable content fingerprints for cache keys.

Cache correctness rests on two properties of the fingerprint:

* **stability** — the same logical inputs hash identically across processes
  and sessions (so a warm cache survives restarts and process-pool workers
  share entries), and
* **sensitivity** — anything that can change a simulation's numbers (trace
  spec, sampling config, accelerator config, the simulation code itself) is
  part of the key, and nothing else is (display labels are excluded so that
  identically-parameterized configurations share entries across experiments).

Fingerprints are SHA-256 hex digests of a canonical JSON rendering.  The code
version component hashes the source of every package whose code determines the
simulated numbers (``core``, ``nn``, ``arch``, ``baselines``, ``numerics``);
editing the runtime or an experiment's presentation logic intentionally does
not invalidate cached simulations.  ``docs/runtime.md`` documents the full
key scheme and this invalidation rule.

The code fingerprint is fixed for a process's life, so a key is a pure
function of its arguments: :func:`simulation_key` and :func:`statistics_key`
recall repeated keys from one bounded memo per process.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable

__all__ = [
    "canonicalize",
    "fingerprint",
    "code_fingerprint",
    "statistics_code_fingerprint",
    "trace_code_fingerprint",
    "simulation_key",
    "statistics_key",
    "calibration_key",
]

#: Bump to invalidate every existing cache entry on a schema change.
CACHE_SCHEMA_VERSION = 1

#: Subpackages whose source participates in the code fingerprint — exactly the
#: ones the cycle simulations execute.
_CODE_PACKAGES = ("core", "nn", "arch", "baselines", "numerics")

#: Statistics passes additionally execute the analysis helpers, so their keys
#: must also be invalidated by ``analysis`` edits.
_STATISTICS_PACKAGES = _CODE_PACKAGES + ("analysis",)

#: Persisted calibrations (the trace fabric) depend only on the packages that
#: determine trace *values*: the generator/calibration code in ``nn`` and the
#: bit-level helpers in ``numerics``.  Editing ``arch`` or ``baselines``
#: invalidates simulations but keeps persisted calibrations valid.
_TRACE_PACKAGES = ("nn", "numerics")

#: Bound of the key memo.  An entry is one argument ``repr`` (~0.5–1 KiB) and
#: its 64-character key, so a full memo holds about 1 MiB.
KEY_MEMO_ENTRIES = 1024

_key_memo: OrderedDict[str, str] = OrderedDict()
_key_memo_lock = threading.Lock()


def canonicalize(obj: object) -> object:
    """Recursively normalize ``obj`` into JSON-representable primitives.

    Dataclasses are rendered as ``[qualified-name, {field: value, ...}]`` so
    two different configuration types with coincidentally equal fields cannot
    collide.  Mappings are sorted by key; sets are sorted; tuples and lists
    are rendered as lists.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: canonicalize(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
            if not field.name.startswith("_")
        }
        return [type(obj).__qualname__, fields]
    if isinstance(obj, dict):
        return {str(key): canonicalize(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonicalize(item) for item in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}: {obj!r}")


def fingerprint(obj: object) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``obj``."""
    payload = json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=4)
def _package_fingerprint(packages: tuple[str, ...]) -> str:
    """Fingerprint of the package version plus the given subpackages' source."""
    import repro

    digest = hashlib.sha256()
    digest.update(f"schema={CACHE_SCHEMA_VERSION};version={repro.__version__};".encode())
    root = Path(repro.__file__).resolve().parent
    for package in packages:
        for source in sorted((root / package).glob("*.py")):
            digest.update(source.name.encode())
            digest.update(source.read_bytes())
    return digest.hexdigest()


def code_fingerprint() -> str:
    """Fingerprint of the simulation source code (see module docstring)."""
    return _package_fingerprint(_CODE_PACKAGES)


def statistics_code_fingerprint() -> str:
    """Like :func:`code_fingerprint`, but also covering ``analysis``.

    The statistics passes cached by :func:`repro.runtime.engine.analyze`
    execute `repro.analysis` code, so editing the analysis helpers must
    invalidate statistics entries (while still leaving cached cycle
    simulations valid).
    """
    return _package_fingerprint(_STATISTICS_PACKAGES)


def trace_code_fingerprint() -> str:
    """Fingerprint of the source that determines trace values.

    The invalidation rule of the trace fabric (``docs/runtime.md``): a
    persisted calibration stays valid until the ``nn`` or ``numerics``
    source changes, exactly as a cached simulation stays valid until the
    simulation source changes.
    """
    return _package_fingerprint(_TRACE_PACKAGES)


def calibration_key(
    network: str,
    representation: str,
    suffix_bits: int,
    samples_per_layer: int,
    seed: int,
    dense_first_layer: bool,
) -> str:
    """Cache key of one persisted :class:`~repro.nn.calibration.NetworkCalibration`.

    Covers every argument of :func:`repro.nn.calibration.calibrate_network`
    plus the trace code fingerprint, so a persisted calibration is exactly as
    valid as the bisection it replaces.
    """
    return fingerprint(
        {
            "kind": "trace_calibration",
            "code": trace_code_fingerprint(),
            "network": network,
            "representation": representation,
            "suffix_bits": suffix_bits,
            "samples_per_layer": samples_per_layer,
            "seed": seed,
            "dense_first_layer": dense_first_layer,
        }
    )


def _memoized(kind: str, derive: Callable[..., str], *args: object) -> str:
    """``derive(*args)``, recalled from the process's bounded LRU key memo.

    The memo token is ``kind`` plus the ``repr`` of the arguments, not the
    arguments themselves.  Dataclass equality would alias ``1``, ``1.0``,
    ``True`` and ``np.int64(1)``, which canonicalize to different keys (or,
    for the numpy scalar, to none), and a list field is unhashable although
    it keys.  The generated ``repr`` of the key dataclasses shows every field,
    and each leaf's ``repr`` tells its type, so equal tokens render equal
    canonical JSON.  A derivation that raises stores nothing.
    """
    token = kind + repr(args)
    with _key_memo_lock:
        key = _key_memo.get(token)
        if key is not None:
            _key_memo.move_to_end(token)
            return key
    key = derive(*args)
    with _key_memo_lock:
        _key_memo[token] = key
        if len(_key_memo) > KEY_MEMO_ENTRIES:
            _key_memo.popitem(last=False)
    return key


def simulation_key(trace_spec: object, sampling: object, config: object) -> str:
    """Cache key of one ``(trace spec, sampling, accelerator config)`` simulation.

    The configuration's display ``label`` is excluded: it names the result but
    does not influence any simulated number, and excluding it lets experiments
    that evaluate the same design point under different names (e.g. Figure 9's
    ``4-bit`` and PRAsingle) share one cache entry.

    A default (``positional``) ``encoding`` field is dropped from the
    canonical form: positional configurations key exactly as they did before
    encodings became a config axis, so warm caches stay warm across the
    refactor, while every non-default encoding keys (and therefore caches)
    independently.
    """
    return _memoized("simulation", _derive_simulation_key, trace_spec, sampling, config)


def _derive_simulation_key(trace_spec: object, sampling: object, config: object) -> str:
    if dataclasses.is_dataclass(config) and hasattr(config, "label"):
        config = dataclasses.replace(config, label=None)
    canonical_config = canonicalize(config)
    if (
        isinstance(canonical_config, list)
        and len(canonical_config) == 2
        and isinstance(canonical_config[1], dict)
        and canonical_config[1].get("encoding") == "positional"
    ):
        canonical_config[1].pop("encoding")
    return fingerprint(
        {
            "kind": "simulation",
            "code": code_fingerprint(),
            "trace": canonicalize(trace_spec),
            "sampling": canonicalize(sampling),
            "config": canonical_config,
        }
    )


def statistics_key(statistic: str, trace_spec: object, samples_per_layer: int) -> str:
    """Cache key of one per-network statistics pass (fig2/fig3/table1).

    Statistics entries live in the same content-addressed cache as simulation
    results but under their own ``kind`` namespace; the key covers the
    statistic's identity, the trace it measures, the sample budget, and the
    code fingerprint.
    """
    return _memoized(
        "statistics", _derive_statistics_key, statistic, trace_spec, samples_per_layer
    )


def _derive_statistics_key(
    statistic: str, trace_spec: object, samples_per_layer: int
) -> str:
    return fingerprint(
        {
            "kind": "statistics",
            "statistic": statistic,
            "code": statistics_code_fingerprint(),
            "trace": canonicalize(trace_spec),
            "samples_per_layer": samples_per_layer,
        }
    )
