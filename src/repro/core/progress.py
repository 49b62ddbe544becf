"""Cooperative cancellation and progress reporting for long simulations.

A :class:`ProgressToken` is the handle the serving layer threads down through
:mod:`repro.runtime` into :func:`repro.core.sweep.sweep_network`.  The sweep
calls :meth:`ProgressToken.checkpoint` between layers and drain groups — the
natural unit boundaries of the paper's cost model — and raises
:class:`SweepCancelled` as soon as the token has been cancelled, so a worker
executing an abandoned request frees up after at most one drain-group's worth
of extra work, plus the pallet draws in flight when the sweep draws ahead (at
most two layers' samples, which it waits out), instead of finishing the whole
network.

Checkpoints deliberately sit *between* cache writes, never inside them: a
cancelled sweep simply never produced the results it was asked for, and
everything it did complete before the cancellation is still valid (and, one
level up, already cached).  Cancellation therefore cannot corrupt the result
cache.

The same token carries progress *out*: :meth:`ProgressToken.emit` forwards
structured progress events (per-layer, per-network, per-experiment) to an
observer callback.  Observers run on the simulating thread and must be cheap;
an observer that raises is disarmed rather than allowed to abort the sweep.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["ProgressToken", "SweepCancelled"]


class SweepCancelled(RuntimeError):
    """Raised at a cooperative checkpoint after the token was cancelled."""


class ProgressToken:
    """Cancel flag + progress sink shared between a controller and a sweep.

    Thread-safe by construction: the controller (an event loop, a signal
    handler, another thread) calls :meth:`cancel`; the simulating thread polls
    via :meth:`checkpoint`.  ``on_progress`` may be (re)assigned at any time;
    ``None`` disables event emission entirely.
    """

    def __init__(
        self, on_progress: Callable[[dict], None] | None = None
    ) -> None:
        self._cancelled = threading.Event()
        self.on_progress = on_progress
        #: Optional callback invoked (once) when cancellation is requested.
        #: The sweep itself polls via :meth:`checkpoint`; this hook exists for
        #: controllers that must *forward* a cancellation instead of polling —
        #: the cluster coordinator uses it to relay a client's cancel to the
        #: worker process that owns the running job.  Runs on the cancelling
        #: thread; a raising callback is disarmed, never propagated.  Note the
        #: hook is consumed at cancel time — a callback assigned *after*
        #: cancellation must pair the assignment with a ``cancelled`` check.
        self.on_cancel: Callable[[], None] | None = None
        self._cancel_lock = threading.Lock()

    # ----------------------------------------------------------- cancellation
    def cancel(self) -> None:
        """Request cooperative cancellation (idempotent, thread-safe)."""
        self._cancelled.set()
        # Atomically consume the hook so concurrent cancels from two threads
        # cannot both observe it — the callback runs exactly once.
        with self._cancel_lock:
            observer, self.on_cancel = self.on_cancel, None
        if observer is not None:
            try:
                observer()
            except Exception:
                pass

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._cancelled.is_set()

    def checkpoint(self) -> None:
        """Raise :class:`SweepCancelled` if cancellation has been requested.

        Call this only at points where abandoning the work is safe — between
        layers, drain groups, networks or experiments; never between a
        computation and the cache write that persists it.
        """
        if self._cancelled.is_set():
            raise SweepCancelled("cancelled at a cooperative checkpoint")

    # --------------------------------------------------------------- progress
    def emit(self, event: dict) -> None:
        """Deliver one progress event to the observer (if any).

        Events are plain dicts with at least a ``"stage"`` key (``"layer"``,
        ``"network"``, ``"statistics"``, ``"experiment"`` …).  A raising
        observer is disarmed so simulation work is never lost to a broken
        progress consumer.
        """
        observer = self.on_progress
        if observer is None:
            return
        try:
            observer(event)
        except Exception:
            self.on_progress = None
