"""Tests for the runtime cache-key fingerprints."""

import asyncio
import copy
import dataclasses
import importlib
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.config import ChipConfig
from repro.arch.tiling import SamplingConfig
from repro.core.accelerator import PragmaticConfig
from repro.core.variants import pallet_variant
from repro.experiments.base import PRESETS
from repro.nn.calibration import REPRESENTATIONS
from repro.nn.networks import NETWORK_NAMES
from repro.numerics.encodings import encoding_names
from repro.runtime.engine import STATISTICS
from repro.runtime.fingerprint import (
    canonicalize,
    code_fingerprint,
    fingerprint,
    simulation_key,
    statistics_code_fingerprint,
    statistics_key,
)
from repro.runtime.trace_store import TraceSpec

#: The module itself: ``repro.runtime`` re-exports a function named
#: ``fingerprint``, which shadows the submodule as a package attribute.
keys_module = importlib.import_module("repro.runtime.fingerprint")


@pytest.fixture
def fresh_key_memo():
    """An empty key memo, emptied again afterwards (for patched fingerprints)."""
    keys_module._key_memo.clear()
    yield
    keys_module._key_memo.clear()


class TestCanonicalize:
    def test_primitives_pass_through(self):
        assert canonicalize(3) == 3
        assert canonicalize("x") == "x"
        assert canonicalize(None) is None
        assert canonicalize(1.5) == 1.5

    def test_dataclasses_render_with_type_name(self):
        rendered = canonicalize(SamplingConfig(max_pallets=2, seed=7))
        assert rendered[0] == "SamplingConfig"
        assert rendered[1]["max_pallets"] == 2
        assert rendered[1]["seed"] == 7

    def test_mappings_are_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_unknown_types_are_rejected(self):
        with pytest.raises(TypeError):
            fingerprint(object())


class TestSimulationKey:
    SPEC = TraceSpec(network="alexnet", seed=0)
    SAMPLING = SamplingConfig(max_pallets=2, seed=0)

    def test_stable_across_calls(self):
        config = pallet_variant(2)
        assert simulation_key(self.SPEC, self.SAMPLING, config) == simulation_key(
            self.SPEC, self.SAMPLING, config
        )

    def test_label_is_excluded(self):
        # PRAsingle is pallet_variant(4) under a different display label; both
        # must address the same cache entry.
        single = dataclasses.replace(pallet_variant(4), label="PRA-single")
        assert simulation_key(self.SPEC, self.SAMPLING, pallet_variant(4)) == simulation_key(
            self.SPEC, self.SAMPLING, single
        )

    def test_config_changes_change_the_key(self):
        base = simulation_key(self.SPEC, self.SAMPLING, pallet_variant(2))
        assert base != simulation_key(self.SPEC, self.SAMPLING, pallet_variant(3))
        assert base != simulation_key(
            self.SPEC, self.SAMPLING, pallet_variant(2, software_trimming=False)
        )

    def test_positional_canonical_form_predates_the_encoding_axis(self):
        """The canonical rendering of a positional config is structurally
        identical to the pre-encoding-registry one (no ``encoding`` entry at
        all), so warm caches carried across that refactor still hit.  This
        pins the exact payload a pre-refactor build would have hashed."""
        import dataclasses as dc

        from repro.core.accelerator import PragmaticConfig

        config = dc.replace(pallet_variant(2), label=None)
        canonical = canonicalize(config)
        assert canonical[1].get("encoding") == "positional"
        canonical[1].pop("encoding")
        pre_refactor = [
            "PragmaticConfig",
            {
                "first_stage_bits": 2,
                "synchronization": "pallet",
                "ssr_count": 1,
                "software_trimming": True,
                "chip": [
                    "ChipConfig",
                    {
                        "tiles": 16,
                        "filters_per_tile": 16,
                        "synapses_per_filter_lane": 16,
                        "pallet_windows": 16,
                        "storage_bits": 16,
                        "frequency_ghz": 0.606,
                        "nm_row_bytes": 512,
                        "sb_bytes_per_tile": 2097152,
                        "nm_bytes": 4194304,
                        "nbin_bytes": 2048,
                        "nbout_bytes": 2048,
                    },
                ],
                "label": None,
            },
        ]
        assert canonical == pre_refactor
        # And the stripping happens inside simulation_key: an explicitly
        # positional config and the field-defaulted one share a key, while a
        # non-default encoding gets its own.
        base = simulation_key(self.SPEC, self.SAMPLING, pallet_variant(2))
        assert base == simulation_key(
            self.SPEC, self.SAMPLING, dc.replace(pallet_variant(2), encoding="positional")
        )
        assert base != simulation_key(
            self.SPEC, self.SAMPLING, dc.replace(pallet_variant(2), encoding="csd")
        )
        assert PragmaticConfig().encoding == "positional"

    def test_sampling_changes_change_the_key(self):
        base = simulation_key(self.SPEC, self.SAMPLING, pallet_variant(2))
        wider = SamplingConfig(max_pallets=4, seed=0)
        assert base != simulation_key(self.SPEC, wider, pallet_variant(2))

    def test_trace_spec_changes_change_the_key(self):
        base = simulation_key(self.SPEC, self.SAMPLING, pallet_variant(2))
        other_seed = TraceSpec(network="alexnet", seed=1)
        other_net = TraceSpec(network="vgg_m", seed=0)
        assert base != simulation_key(other_seed, self.SAMPLING, pallet_variant(2))
        assert base != simulation_key(other_net, self.SAMPLING, pallet_variant(2))


class TestCodeFingerprint:
    def test_is_cached_and_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_statistics_fingerprint_also_covers_analysis(self):
        # Statistics passes execute repro.analysis code, so their code
        # fingerprint must differ from the simulation-only one (editing
        # analysis invalidates statistics entries but not simulations).
        assert statistics_code_fingerprint() != code_fingerprint()
        assert len(statistics_code_fingerprint()) == 64


class TestStatisticsKey:
    SPEC = TraceSpec(network="alexnet", representation="fixed16", seed=0)

    def test_every_component_changes_the_key(self):
        base = statistics_key("fig2_terms", self.SPEC, 2000)
        assert base != statistics_key("fig3_terms", self.SPEC, 2000)
        assert base != statistics_key("fig2_terms", self.SPEC, 4000)
        assert base != statistics_key(
            "fig2_terms", TraceSpec(network="vgg_m", representation="fixed16"), 2000
        )

    def test_statistics_and_simulation_keys_never_collide(self):
        sampling = SamplingConfig(max_pallets=2, seed=0)
        assert statistics_key("fig2_terms", self.SPEC, 2000) != simulation_key(
            self.SPEC, sampling, pallet_variant(2)
        )


# ------------------------------------------------------------------ key memo
#: The public key functions and the derivations they memoize.
KEY_FUNCTIONS = {
    "simulation": (simulation_key, "_derive_simulation_key"),
    "statistics": (statistics_key, "_derive_statistics_key"),
}


def _equal_values(value):
    """``value``, then values of other types equal to it, or a list in its place."""
    if isinstance(value, bool):
        return [value, int(value), float(value), np.bool_(value)]
    if isinstance(value, int):
        same = [value, float(value), np.int64(value)]
        return same + [bool(value)] if value in (0, 1) else same
    if isinstance(value, float):
        return [value, np.float64(value)] + ([int(value)] if value.is_integer() else [])
    if isinstance(value, tuple):
        return [value, list(value)]
    if isinstance(value, str):
        return [value, [value]]
    return [value]


def _swap_leaves(draw, value):
    """``value`` with some leaves swapped for an equal value of another type.

    Fields are set past ``__post_init__``: the key functions must answer for
    whatever they are handed, validated or not.
    """
    if dataclasses.is_dataclass(value):
        clone = copy.copy(value)
        if draw(st.booleans()):
            for field in dataclasses.fields(value):
                swapped = _swap_leaves(draw, getattr(value, field.name))
                object.__setattr__(clone, field.name, swapped)
        return clone
    return draw(st.sampled_from(_equal_values(value)))


TRACE_SPECS = st.builds(
    TraceSpec,
    network=st.sampled_from(NETWORK_NAMES),
    representation=st.sampled_from(REPRESENTATIONS),
    seed=st.integers(0, 2),
    precisions=st.none() | st.tuples(st.integers(1, 16), st.integers(1, 16)),
)

CONFIGS = st.builds(
    PragmaticConfig,
    first_stage_bits=st.integers(0, 4),
    synchronization=st.sampled_from(["pallet", "column"]),
    ssr_count=st.sampled_from([1, 2, None]),
    encoding=st.sampled_from(encoding_names()),
    label=st.sampled_from([None, "4-bit", "PRAsingle"]),
)

SAMPLINGS = st.sampled_from([preset.sampling() for preset in PRESETS.values()])

KEY_INPUTS = st.one_of(
    st.tuples(st.just("simulation"), st.tuples(TRACE_SPECS, SAMPLINGS, CONFIGS)),
    st.tuples(
        st.just("statistics"),
        st.tuples(
            st.sampled_from(sorted(STATISTICS)),
            TRACE_SPECS,
            st.sampled_from([preset.samples_per_layer for preset in PRESETS.values()]),
        ),
    ),
)


@st.composite
def key_calls(draw):
    """Calls on one input and on copies with swapped leaves, in a drawn order."""
    kind, args = draw(KEY_INPUTS)
    inputs = [args] + [
        tuple(_swap_leaves(draw, arg) for arg in args) for _ in range(draw(st.integers(1, 3)))
    ]
    order = draw(st.lists(st.integers(0, len(inputs) - 1), min_size=1, max_size=8))
    return [(kind, inputs[index]) for index in order]


def _outcome(function, args):
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 - the exception type is the outcome
        return type(error)


SPEC = TraceSpec(network="alexnet", seed=0)
SAMPLING = SamplingConfig(max_pallets=2, seed=0)


class TestKeyMemo:
    @settings(max_examples=80, deadline=None)
    @given(calls=key_calls())
    # The three ways a memo keyed by argument equality goes wrong: an alias
    # (seed 1 and True), a key where derivation raises (a numpy scalar) and
    # an unhashable argument where derivation succeeds (a list).
    @example(
        calls=[
            ("simulation", (TraceSpec("alexnet", seed=1), SAMPLING, pallet_variant(2))),
            ("simulation", (TraceSpec("alexnet", seed=True), SAMPLING, pallet_variant(2))),
        ]
    )
    @example(
        calls=[
            ("simulation", (TraceSpec("alexnet", seed=0), SAMPLING, pallet_variant(2))),
            ("simulation", (TraceSpec("alexnet", seed=np.int64(0)), SAMPLING, pallet_variant(2))),
        ]
    )
    @example(calls=[("statistics", ("fig2_terms", TraceSpec("alexnet", ["fixed16"]), 2000))])
    def test_memoized_key_is_the_derived_key(self, calls):
        keys_module._key_memo.clear()
        try:
            for kind, args in calls:
                memoized, derivation = KEY_FUNCTIONS[kind]
                expected = _outcome(getattr(keys_module, derivation), args)
                assert _outcome(memoized, args) == expected, (kind, args)
        finally:
            keys_module._key_memo.clear()

    def test_keys_match_digests_taken_before_the_memo(self, monkeypatch, fresh_key_memo):
        """Byte pin: with the code fingerprints fixed, one input per key kind
        hashes to the digest the un-memoized functions gave."""
        monkeypatch.setattr(keys_module, "code_fingerprint", lambda: "c" * 64)
        monkeypatch.setattr(keys_module, "statistics_code_fingerprint", lambda: "s" * 64)
        csd = dataclasses.replace(pallet_variant(2), encoding="csd")
        for _ in range(2):  # a derivation, then a memo hit
            assert simulation_key(SPEC, SAMPLING, pallet_variant(2)) == (
                "c2fc21b73a81290b6416166c527c241149f8a5eefb8b1e10dbbbf761f05e010d"
            )
            assert simulation_key(SPEC, SAMPLING, csd) == (
                "5519b14727db6c5ad78dfacf20e2977eddbf82306ca8f4179767cd6f34695c20"
            )
            assert statistics_key("fig2_terms", SPEC, 2000) == (
                "9861aaa19d910be09f6e75253f09631fda87fd84fa378ab1599cdbc574b76730"
            )

    @pytest.mark.parametrize("cls", [TraceSpec, SamplingConfig, PragmaticConfig, ChipConfig])
    def test_key_dataclasses_repr_every_field(self, cls):
        """The memo token is the arguments' ``repr``: it is only as fine as
        the canonical JSON while ``repr`` shows every key field."""
        instance = cls(network="alexnet") if cls is TraceSpec else cls()
        shown = ", ".join(
            f"{field.name}={getattr(instance, field.name)!r}"
            for field in dataclasses.fields(cls)
        )
        assert repr(instance) == f"{cls.__qualname__}({shown})"

    def test_the_memo_is_bounded_and_keeps_recent_keys(self, monkeypatch, fresh_key_memo):
        monkeypatch.setattr(keys_module, "KEY_MEMO_ENTRIES", 4)
        specs = [TraceSpec(network="alexnet", seed=seed) for seed in range(6)]
        for spec in specs:
            simulation_key(spec, SAMPLING, pallet_variant(2))
        assert len(keys_module._key_memo) == 4
        derived = Counter()
        derive = keys_module._derive_simulation_key

        def counted(*args):
            derived["keys"] += 1
            return derive(*args)

        monkeypatch.setattr(keys_module, "_derive_simulation_key", counted)
        simulation_key(specs[-1], SAMPLING, pallet_variant(2))
        assert derived["keys"] == 0
        simulation_key(specs[0], SAMPLING, pallet_variant(2))
        assert derived["keys"] == 1

    def test_threads_sharing_the_memo_get_their_own_keys(self, monkeypatch, fresh_key_memo):
        """More threads than cores, a small bound and a short switch interval:
        a lost update or a mixed-up entry shows as a wrong key."""
        monkeypatch.setattr(keys_module, "KEY_MEMO_ENTRIES", 8)
        inputs = [
            (TraceSpec(network=network, seed=seed), SAMPLING, pallet_variant(bits))
            for network in ("alexnet", "nin")
            for seed in range(3)
            for bits in (0, 2, 4)
        ]
        expected = [keys_module._derive_simulation_key(*args) for args in inputs]
        wrong = []

        def worker(offset):
            for step in range(200):
                index = (offset + step * 7) % len(inputs)
                if simulation_key(*inputs[index]) != expected[index]:
                    wrong.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(keys_module._key_memo) <= 8


class TestOneSimulateOp:
    def test_a_simulate_op_resolves_its_request_and_keys_once(
        self, monkeypatch, fresh_key_memo
    ):
        """Parsing, the queue's deduplication key and the worker share one
        resolved request: one variant-group build and one key per unit."""
        from repro.runtime import engine
        from repro.serve import ConnectionContext, ExperimentService
        from repro.serve.protocol import VARIANT_GROUPS

        calls = Counter()

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            engine, "simulation_key", counting("simulation_key", engine.simulation_key)
        )
        monkeypatch.setattr(
            keys_module,
            "_derive_simulation_key",
            counting("derived", keys_module._derive_simulation_key),
        )
        monkeypatch.setitem(
            VARIANT_GROUPS, "fig9", counting("fig9_variants", VARIANT_GROUPS["fig9"])
        )
        message = {
            "op": "simulate",
            "network": "alexnet",
            "variants": "fig9",
            "preset": "smoke",
            "overrides": {"networks": ["alexnet"], "max_pallets": 2, "samples_per_layer": 1500},
        }

        async def scenario():
            sent, context = [], ConnectionContext()
            async with ExperimentService(cache_dir=None, workers=1) as service:
                await service.handle_message(message, sent.append, context)
                await asyncio.wait_for(context.tickets[-1].job.done.wait(), timeout=60)
            return sent

        sent = asyncio.run(scenario())
        assert sent[-1]["event"] == "done"
        assert len(sent[-1]["result"]["results"]) == 5
        assert calls == {"simulation_key": 5, "derived": 5, "fig9_variants": 1}
