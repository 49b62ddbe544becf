"""repro.cachenet — the network cache tier (``docs/cachenet.md``).

A standalone cache server (``python -m repro cacheserve``) exposes one
content-addressed entry store — the same gzip entry codec and directory-scan
lifecycle every filesystem cache uses — over a length-prefixed JSON frame
protocol, so many hosts share one warm cache instead of each keeping its own.
The client side plugs into the runtime through the
:class:`~repro.runtime.backends.CacheBackend` seam:
:class:`~repro.cachenet.backend.RemoteBackend`, what
``--cache-backend remote://host:port`` mounts, is a synchronous TCP client
with connect/request timeouts, bounded retry with exponential backoff and
jitter, and a circuit breaker that degrades to cache-miss (a simulation
never fails because the cache tier is down).

``docs/cachenet.md`` documents the protocol, the failure/degradation
semantics and the backend URI scheme.
"""

from repro.cachenet.backend import RemoteBackend, resolve_backend
from repro.cachenet.server import CacheServer

__all__ = ["RemoteBackend", "resolve_backend", "CacheServer"]
