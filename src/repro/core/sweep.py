"""The Pragmatic cycle simulator: design-space sweeps over one trace.

The paper's figures evaluate many configurations over the same traces.  The
expensive part of the cycle simulation — computing per-column drain cycles from
the neuron term planes — only depends on the first-stage shifter width, on
whether software trimming is applied and on the oneffset encoding, not on the
synchronization scheme or the SSR count.  :func:`sweep_network` therefore
samples each layer's pallets once, plans every
``(first_stage_bits, software_trimming, encoding)`` drain group up front, and
dispatches each layer's groups through the batched drain kernel
(:mod:`repro.core.kernels`): the layer's sample is trimmed once per trimming
flag, the trimmed values are packed once per ``(trimming, encoding)`` pair and
all first-stage reaches are evaluated over that packed tensor in one call.
Every requested configuration's cycle count is then derived from its group's
drains.  Each layer's sample comes from its own stream, so the sweep draws the
next :data:`LOOKAHEAD` layers' samples on :data:`DRAWERS` threads of its own
while the calling thread packs and drains the current one.  Only a sweep on
the process's main thread draws ahead (a server sweeps on worker threads,
which draw in line), and the values are the same either way.  A
configuration's result does not depend on which other configurations share
its sweep, so simulating one design is a one-entry sweep;
``tests/test_core_kernels.py`` checks the results exactly against a model
built on the Figure 7 oracle
(:func:`repro.core.pip.serial_term_schedule`).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.arch.memory import NeuronMemory
from repro.arch.tiling import SamplingConfig, sample_pallet_values
from repro.baselines.dadiannao import DaDianNaoModel
from repro.core.accelerator import LayerResult, NetworkResult, PragmaticConfig
from repro.core.kernels import batched_drain_cycles, packed_essential_terms
from repro.core.progress import ProgressToken, SweepCancelled
from repro.core.scheduling import encoded_drain_masks, ssr_pipeline_cycles
from repro.core.software import SoftwareGuidance
from repro.nn.traces import NetworkTrace

__all__ = [
    "ProgressToken",
    "SweepCancelled",
    "SweepStats",
    "sweep_network",
    "cycles_from_drain",
]


@dataclass
class SweepStats:
    """Counters of the work a sweep actually performed.

    The runtime layer passes one instance through every sweep of a session so
    run summaries can state exactly how much cycle simulation was recomputed
    (a warm-cache run reports zero on both counters).
    """

    configs_simulated: int = 0
    drain_groups_computed: int = 0

    def merge(self, other: "SweepStats | dict") -> None:
        """Accumulate counters from another stats object (or its dict form)."""
        if isinstance(other, SweepStats):
            other = other.as_dict()
        self.configs_simulated += other.get("configs_simulated", 0)
        self.drain_groups_computed += other.get("drain_groups_computed", 0)

    def as_dict(self) -> dict[str, int]:
        return {
            "configs_simulated": self.configs_simulated,
            "drain_groups_computed": self.drain_groups_computed,
        }


def cycles_from_drain(
    drain: np.ndarray,
    config: PragmaticConfig,
    min_step_cycles: int,
    sb_read_cycles: int = 1,
) -> np.ndarray:
    """Per-pallet cycles from precomputed drain counts ``[pallets, steps, windows]``.

    Every brick step costs at least ``min_step_cycles``: the single cycle a
    null pallet still takes and the NM fetch overlap floor
    (``max(NM_cycles, processing)`` of Section V-A4).  Per-pallet
    synchronization charges each step its slowest column; per-column
    synchronization runs :func:`~repro.core.scheduling.ssr_pipeline_cycles`.
    """
    if min_step_cycles < 1:
        raise ValueError("min_step_cycles must be at least 1")
    clamped = np.maximum(drain, min_step_cycles)
    if clamped.ndim != 3:
        raise ValueError(
            f"drain must be shaped [pallets, steps, windows], got shape {clamped.shape}"
        )
    if config.synchronization == "pallet":
        return clamped.max(axis=2).sum(axis=1)
    return ssr_pipeline_cycles(clamped, config.ssr_count, sb_read_cycles=sb_read_cycles)


@dataclass
class _DrainGroup:
    """Drain tensors shared by all configurations with the same bit behaviour."""

    drain: np.ndarray
    terms: float


#: Drawer threads of a sweep that draws ahead.  A second drawer takes the
#: draws that outlast a layer's own work in 1- and 4-config sweeps: over a
#: cold ``--all --preset fast`` the calling thread waited 0.47 s in total on
#: drawn samples with two, and 1.08-1.30 s with one drawing one layer ahead
#: (2-vCPU VM).
DRAWERS = 2

#: Layers drawn ahead of the one being drained: one per drawer, so both stay
#: busy and no draw waits in the pool's queue, and a sweep that stops waits
#: for at most this many draws.  Each holds one more sample: perfbench
#: ``cold_all`` peak RSS read 78.5 MiB with two, against 72.1 MiB with one
#: drawer one layer ahead (medians of 5 pairs).
LOOKAHEAD = 2


@contextmanager
def _layer_samples(
    trace: NetworkTrace, sampling: SamplingConfig
) -> Iterator[Callable[[int], tuple[np.ndarray, int]]]:
    """Yield ``take(i)``, layer ``i``'s :func:`sample_pallet_values`, taken in layer order.

    A sweep on the process's main thread draws the next :data:`LOOKAHEAD`
    layers on a pool of :data:`DRAWERS` threads while its caller works on
    layer ``i``; a sweep on any other thread draws each layer in line.  Each
    layer's sample comes from its own stream, so both give the same values.
    A drawer's exception re-raises from ``take``; on any exit the pool waits
    for the draws in flight, so no drawer outlives the sweep.

    The batch CLI and each ``--jobs N`` pool worker sweep on their main
    thread, so at most one sweep per process draws ahead.  A server (serve, a
    cluster worker) sweeps on worker threads while its main thread runs the
    event loop that answers warm requests inline, and drawer threads there
    take the GIL and the cores from it: when worker threads drew ahead,
    perfbench ``cluster_mixed`` p50 read 39.2 ms against 34.1 ms and its
    throughput 55.2 against 62.7 rps (medians of 4 pairs).
    """
    if threading.current_thread() is not threading.main_thread():
        yield lambda layer_index: sample_pallet_values(trace, layer_index, sampling)
        return
    with ThreadPoolExecutor(DRAWERS, thread_name_prefix="sweep-drawer") as pool:
        drawn: dict[int, Future] = {}

        def draw(layer_index: int) -> None:
            if layer_index < trace.network.num_layers:
                # The module-level name, looked up per call, so a wrapper
                # bound over it (a tracer, a test) sees every draw.
                drawn[layer_index] = pool.submit(
                    sample_pallet_values, trace, layer_index, sampling
                )

        def take(layer_index: int) -> tuple[np.ndarray, int]:
            sample = drawn.pop(layer_index).result()
            draw(layer_index + LOOKAHEAD)
            return sample

        for layer_index in range(LOOKAHEAD):
            draw(layer_index)
        yield take


def sweep_network(
    trace: NetworkTrace,
    configs: dict[str, PragmaticConfig],
    sampling: SamplingConfig = SamplingConfig(),
    stats: SweepStats | None = None,
    progress: ProgressToken | None = None,
) -> dict[str, NetworkResult]:
    """Simulate every configuration over one traced network.

    Parameters
    ----------
    trace:
        Calibrated activation trace.
    configs:
        Mapping of result label to configuration.  All configurations must share
        the same chip structure (they do for every paper experiment).
    sampling:
        Pallet sampling configuration.
    stats:
        Optional :class:`SweepStats` accumulating how much simulation work the
        sweep performed (used by :mod:`repro.runtime` run summaries).
    progress:
        Optional :class:`ProgressToken`.  The sweep checks it at cooperative
        checkpoints — between layers and between drain groups, never inside a
        unit of work — raising :class:`SweepCancelled` once cancellation has
        been requested, and emits one ``"layer"`` progress event per completed
        layer.

    Returns
    -------
    dict
        Label → :class:`NetworkResult`; each configuration's result is
        bit-identical to a sweep of that configuration alone with the same
        sampling seed.
    """
    if not configs:
        raise ValueError("configs must not be empty")
    if progress is not None:
        progress.checkpoint()
    chips = {config.chip for config in configs.values()}
    if len(chips) != 1:
        raise ValueError("all configurations in one sweep must share the same chip")
    chip = next(iter(chips))
    baseline = DaDianNaoModel(chip)
    memory = NeuronMemory(chip)

    per_config_layers: dict[str, list[LayerResult]] = {label: [] for label in configs}
    storage_bits = trace.storage_bits
    if stats is not None:
        stats.configs_simulated += len(configs)

    # Plan every (first_stage_bits, software_trimming, encoding) drain group
    # up front; each layer then makes one batched kernel call per
    # (trimming, encoding) pair: the packed term masks and per-column
    # statistics are shared by all first-stage reaches of that pair.
    group_keys: list[tuple[int, bool, str]] = []
    for config in configs.values():
        key = (config.first_stage_bits, config.software_trimming, config.encoding)
        if key not in group_keys:
            group_keys.append(key)
    pairs = list(dict.fromkeys(key[1:] for key in group_keys))

    num_layers = trace.network.num_layers
    with _layer_samples(trace, sampling) as take_sample:
        for layer_index in range(num_layers):
            if progress is not None:
                progress.checkpoint()
            layer = trace.layer(layer_index)
            values, total_pallets = take_sample(layer_index)
            min_step = max(1, memory.pallet_fetch_cycles(layer))
            passes = layer.filter_passes(chip.filters_per_cycle)
            baseline_cycles = float(baseline.layer_cycles(layer))
            baseline_terms = float(baseline.layer_terms(layer, storage_bits))

            # One trimmed sample per trimming flag, shared by its encodings.
            trimmed_by_flag: dict[bool, np.ndarray] = {}
            groups: dict[tuple[int, bool, str], _DrainGroup] = {}
            for trimming, encoding in pairs:
                if progress is not None:
                    progress.checkpoint()
                flag_keys = [key for key in group_keys if key[1:] == (trimming, encoding)]
                trimmed = trimmed_by_flag.get(trimming)
                if trimmed is None:
                    guidance = SoftwareGuidance.from_trace(trace, enabled=trimming)
                    trimmed = trimmed_by_flag[trimming] = guidance.apply(values, layer_index)
                masks = encoded_drain_masks(trimmed, storage_bits, encoding)
                drains = batched_drain_cycles(
                    masks, [1 << bits for bits, _, _ in flag_keys]
                )
                terms_per_neuron = packed_essential_terms(masks) / max(1, trimmed.size)
                if stats is not None:
                    stats.drain_groups_computed += len(flag_keys)
                for slot, key in enumerate(flag_keys):
                    groups[key] = _DrainGroup(
                        drain=drains[slot], terms=terms_per_neuron * layer.macs
                    )

            for label, config in configs.items():
                group = groups[
                    (config.first_stage_bits, config.software_trimming, config.encoding)
                ]
                per_pallet = cycles_from_drain(group.drain, config, min_step)
                cycles = float(per_pallet.mean()) * total_pallets * passes
                per_config_layers[label].append(
                    LayerResult(
                        layer_name=layer.name,
                        cycles=cycles,
                        baseline_cycles=baseline_cycles,
                        terms=group.terms,
                        baseline_terms=baseline_terms,
                    )
                )
            if progress is not None:
                progress.emit(
                    {
                        "stage": "layer",
                        "network": trace.network.name,
                        "layer": layer.name,
                        "index": layer_index,
                        "layers": num_layers,
                    }
                )

    return {
        label: NetworkResult(
            network=trace.network.name,
            accelerator=configs[label].name,
            layers=tuple(layers),
        )
        for label, layers in per_config_layers.items()
    }
