"""Unit tests for the Table I calibration of synthetic traces."""

import numpy as np
import pytest

from repro.nn.calibration import (
    TABLE1_TARGETS,
    _generation_windows,
    _image_layer_params,
    _layer_shape,
    _layer_sigma,
    _nz_fraction_evaluator,
    calibrate_network,
    calibrated_trace,
    storage_bits_for,
)
from repro.nn.networks import NETWORK_NAMES, get_network
from repro.nn.traces import LayerTraceParams, generate_layer_values
from repro.numerics.fixedpoint import popcount

#: ``calibrate_network`` outputs recorded while every bisection step still
#: re-drew its samples through ``generate_layer_values``:
#: ``(network, representation, suffix_bits, dense_first_layer) ->
#: (alpha.hex(), achieved_nz_fraction.hex())``.  ``np.exp`` and the
#: generator's libm ``exp`` can differ in the last ULP, so this grid, not the
#: construction, is what shows a calibration drawn once is the same.
CALIBRATION_GOLDENS = {
    ("alexnet", "fixed16", 0, True): ("0x1.a773baf8d04b2p-3", "0x1.72b0695dca0f9p-3"),
    ("alexnet", "fixed16", 0, False): ("0x1.024f329b741d4p-2", "0x1.72af6b677b760p-3"),
    ("alexnet", "fixed16", 1, True): ("0x1.a827a54bf5734p-4", "0x1.72b1b369d2f23p-3"),
    ("alexnet", "fixed16", 1, False): ("0x1.024f18c8b4ed0p-3", "0x1.72b002da859b6p-3"),
    ("alexnet", "fixed16", 2, True): ("0x1.a7a681d065778p-5", "0x1.72b09a3cc7bdep-3"),
    ("alexnet", "fixed16", 2, False): ("0x1.021bc8d3d46b2p-4", "0x1.72b10debd6976p-3"),
    ("alexnet", "fixed16", 3, True): ("0x1.a773baf84b517p-6", "0x1.72aed2aa59dadp-3"),
    ("alexnet", "fixed16", 3, False): ("0x1.024f329bb19fcp-5", "0x1.72b1021aebaadp-3"),
    ("alexnet", "quant8", 2, True): ("0x1.7276ec225cdc6p-2", "0x1.c5a14f4f005c8p-2"),
    ("alexnet", "quant8", 2, False): ("0x1.a7cdbc86d1908p-2", "0x1.c5a15b369778bp-2"),
    ("nin", "fixed16", 0, True): ("0x1.0e3ee73bdc430p-2", "0x1.c49ac6b25b63cp-3"),
    ("nin", "fixed16", 0, False): ("0x1.67ea9a6e7d1e5p-2", "0x1.c49b31f4ff165p-3"),
    ("nin", "fixed16", 1, True): ("0x1.0e3aa6242b2d4p-3", "0x1.c49b78ded3cf6p-3"),
    ("nin", "fixed16", 1, False): ("0x1.68e22fe09cdd0p-3", "0x1.c49b885cbaf95p-3"),
    ("nin", "fixed16", 2, True): ("0x1.0d5b66cdff457p-4", "0x1.c49a6d4a4721fp-3"),
    ("nin", "fixed16", 2, False): ("0x1.68bd4fc834e7ap-4", "0x1.c49d2021d82b0p-3"),
    ("nin", "fixed16", 3, True): ("0x1.0e3ee73c19c58p-5", "0x1.c49c5887b6bfep-3"),
    ("nin", "fixed16", 3, False): ("0x1.68bd4fc84ee90p-5", "0x1.c49d2021d82b0p-3"),
    ("nin", "quant8", 2, True): ("0x1.1c3dc9d35a408p-3", "0x1.7ef9cba71d452p-2"),
    ("nin", "quant8", 2, False): ("0x1.b3aedacee6b7ap-3", "0x1.7ef8f9981f6cbp-2"),
    ("googlenet", "fixed16", 0, True): ("0x1.87d80cf13aa45p-4", "0x1.851e7149db925p-3"),
    ("googlenet", "fixed16", 0, False): ("0x1.c33a78b875b46p-4", "0x1.851e794b757dep-3"),
    ("googlenet", "fixed16", 1, True): ("0x1.87cbcad56a40ep-5", "0x1.851ee22d3c3f4p-3"),
    ("googlenet", "fixed16", 1, False): ("0x1.c334cf4756892p-5", "0x1.851e821a05344p-3"),
    ("googlenet", "fixed16", 2, True): ("0x1.8825a516e66dcp-6", "0x1.851ef7cb28a1cp-3"),
    ("googlenet", "fixed16", 2, False): ("0x1.c3c042aa8f359p-6", "0x1.851ede2c6f497p-3"),
    ("googlenet", "fixed16", 3, True): ("0x1.87d827ef44760p-7", "0x1.851ee4941d9f8p-3"),
    ("googlenet", "fixed16", 3, False): ("0x1.c321484a711ecp-7", "0x1.851f1236d7c4cp-3"),
    ("googlenet", "quant8", 2, True): ("0x1.4452d71b330f4p-2", "0x1.b4394ea955110p-2"),
    ("googlenet", "quant8", 2, False): ("0x1.71dbf294e7a2ap-2", "0x1.b439b1236d7c5p-2"),
    ("vgg_m", "fixed16", 0, True): ("0x1.22b7521ca268ep-4", "0x1.51ebe7a72c50ep-3"),
    ("vgg_m", "fixed16", 0, False): ("0x1.ceff84699627ep-3", "0x1.51eb946582498p-3"),
    ("vgg_m", "fixed16", 1, True): ("0x1.22b7521c7c6aep-5", "0x1.51eb51a39c06fp-3"),
    ("vgg_m", "fixed16", 1, False): ("0x1.ceff84698328cp-4", "0x1.51eafe61f1ff9p-3"),
    ("vgg_m", "fixed16", 2, True): ("0x1.23db3953ec4c3p-6", "0x1.51ebdb26e04abp-3"),
    ("vgg_m", "fixed16", 2, False): ("0x1.cf0ed77c4170ep-5", "0x1.51eb91c060063p-3"),
    ("vgg_m", "fixed16", 3, True): ("0x1.22b4ffcc6633ap-7", "0x1.51eafa2187dbdp-3"),
    ("vgg_m", "fixed16", 3, False): ("0x1.ceff846a112cbp-6", "0x1.51eb946582498p-3"),
    ("vgg_m", "quant8", 2, True): ("0x1.e98398e141629p-2", "0x1.e55f0f593f6c6p-2"),
    ("vgg_m", "quant8", 2, False): ("0x1.0d2b06b5db1fap-1", "0x1.e55f2444ec17cp-2"),
    ("vgg_s", "fixed16", 0, True): ("0x1.0baa3cecf5ca6p-4", "0x1.5604a5d517b5dp-3"),
    ("vgg_s", "fixed16", 0, False): ("0x1.1efb34ce3ee92p-3", "0x1.5603c59dbd71dp-3"),
    ("vgg_s", "fixed16", 1, True): ("0x1.0baa3ced0fcc0p-5", "0x1.5604a5d517b5dp-3"),
    ("vgg_s", "fixed16", 1, False): ("0x1.1ef375e41ccd5p-4", "0x1.56043749a2b3ap-3"),
    ("vgg_s", "fixed16", 2, True): ("0x1.0ba98a60e8593p-6", "0x1.56044ef9ef08cp-3"),
    ("vgg_s", "fixed16", 2, False): ("0x1.1ef375e436ceep-5", "0x1.56043749a2b3ap-3"),
    ("vgg_s", "fixed16", 3, True): ("0x1.0baa3ced2bd56p-7", "0x1.5604a5d517b5dp-3"),
    ("vgg_s", "fixed16", 3, False): ("0x1.1ef375e46ad1dp-6", "0x1.56043749a2b3ap-3"),
    ("vgg_s", "quant8", 2, True): ("0x1.c1ca7a19e22f1p-2", "0x1.d709b62311957p-2"),
    ("vgg_s", "quant8", 2, False): ("0x1.e6fca847ea67bp-2", "0x1.d70a52781732ep-2"),
    ("vgg19", "fixed16", 0, True): ("0x1.d752041baadb2p-5", "0x1.ef9dc71c71c72p-3"),
    ("vgg19", "fixed16", 0, False): ("0x1.d7503fbf10064p-5", "0x1.ef9e115062effp-3"),
    ("vgg19", "fixed16", 1, True): ("0x1.d752073359cd5p-6", "0x1.ef9d9f89467e2p-3"),
    ("vgg19", "fixed16", 1, False): ("0x1.d7503fbf44091p-6", "0x1.ef9e115062effp-3"),
    ("vgg19", "fixed16", 2, True): ("0x1.d752041bc6e4ap-7", "0x1.ef9dc71c71c72p-3"),
    ("vgg19", "fixed16", 2, False): ("0x1.d7503fbeac106p-7", "0x1.ef9cd4b708a83p-3"),
    ("vgg19", "fixed16", 3, True): ("0x1.d6fa8d41e507ep-8", "0x1.ef9d8bbfb0d9bp-3"),
    ("vgg19", "fixed16", 3, False): ("0x1.d6f98e4786cc0p-8", "0x1.ef9e96e115063p-3"),
    ("vgg19", "quant8", 2, True): ("0x1.4b80b28d0e1c2p-4", "0x1.29fc09e4cad24p-2"),
    ("vgg19", "quant8", 2, False): ("0x1.55ecf4f585052p-4", "0x1.29fae6076b982p-2"),
}


class TestTargets:
    def test_targets_cover_all_networks_and_representations(self):
        for representation in ("fixed16", "quant8"):
            for statistic in ("all", "nz"):
                assert set(TABLE1_TARGETS[representation][statistic]) == set(NETWORK_NAMES)

    def test_nz_always_exceeds_all(self):
        for representation in ("fixed16", "quant8"):
            for name in NETWORK_NAMES:
                assert (
                    TABLE1_TARGETS[representation]["nz"][name]
                    > TABLE1_TARGETS[representation]["all"][name]
                )

    def test_storage_bits_for(self):
        assert storage_bits_for("fixed16") == 16
        assert storage_bits_for("quant8") == 8
        with pytest.raises(ValueError):
            storage_bits_for("int4")


class TestCalibration:
    def test_calibration_hits_target_within_tolerance(self):
        calibration = calibrate_network("alexnet")
        assert calibration.achieved_nz_fraction == pytest.approx(
            calibration.target_nz_fraction, rel=0.05
        )

    def test_zero_fraction_consistent_with_table1(self):
        calibration = calibrate_network("vgg_m")
        targets = TABLE1_TARGETS["fixed16"]
        expected = 1.0 - targets["all"]["vgg_m"] / targets["nz"]["vgg_m"]
        assert calibration.zero_fraction == pytest.approx(expected, abs=1e-9)

    def test_calibration_is_cached_and_deterministic(self):
        first = calibrate_network("nin")
        second = calibrate_network("nin")
        assert first is second

    def test_quant8_calibration_targets_quant_table(self):
        calibration = calibrate_network("alexnet", representation="quant8")
        assert calibration.representation == "quant8"
        assert calibration.target_nz_fraction == TABLE1_TARGETS["quant8"]["nz"]["alexnet"]

    def test_unknown_network_rejected(self):
        with pytest.raises(KeyError):
            calibrate_network("lenet")


def _reference_nz_fraction(name, representation, suffix_bits, dense, alpha):
    """The per-alpha fraction as ``generate_layer_values`` draws it, layer by
    layer, with ``calibrate_network``'s default samples and seed."""
    network = get_network(name)
    storage_bits = storage_bits_for(representation)
    windows = _generation_windows(network, representation, suffix_bits)
    fractions = []
    for index, window in enumerate(windows):
        if dense and index == 0:
            params = _image_layer_params(storage_bits)
        else:
            params = LayerTraceParams(
                sigma=_layer_sigma(window, alpha),
                zero_fraction=0.0,
                max_magnitude=(1 << storage_bits) - 1,
                shape=_layer_shape(representation),
            )
        rng = np.random.default_rng((12345, index))
        values = generate_layer_values((8192,), params, rng)
        fractions.append(popcount(values, bits=storage_bits).mean() / storage_bits)
    weights = [layer.neuron_stream_length() for layer in network.layers]
    return float(np.average(fractions, weights=weights))


class TestCalibrationEquality:
    def test_grid_matches_goldens(self):
        mismatches = {}
        for (name, representation, suffix_bits, dense), expected in CALIBRATION_GOLDENS.items():
            calibration = calibrate_network(
                name,
                representation=representation,
                suffix_bits=suffix_bits,
                dense_first_layer=dense,
            )
            got = (calibration.alpha.hex(), calibration.achieved_nz_fraction.hex())
            if got != expected:
                mismatches[(name, representation, suffix_bits, dense)] = got
        assert len(CALIBRATION_GOLDENS) == 60
        assert mismatches == {}

    @pytest.mark.parametrize(
        "name, representation, suffix_bits, dense",
        [
            ("alexnet", "fixed16", 2, True),
            ("googlenet", "fixed16", 0, False),
            ("vgg19", "quant8", 2, True),
        ],
    )
    def test_evaluator_matches_generator_reference(self, name, representation, suffix_bits, dense):
        network = get_network(name)
        evaluate = _nz_fraction_evaluator(
            network,
            _generation_windows(network, representation, suffix_bits),
            storage_bits=storage_bits_for(representation),
            samples_per_layer=8192,
            seed=12345,
            dense_first_layer=dense,
            shape=_layer_shape(representation),
        )
        for alpha in (1e-4, 0.01, 0.2, 4.0):
            assert evaluate(alpha) == _reference_nz_fraction(
                name, representation, suffix_bits, dense, alpha
            ), alpha


class TestCalibratedTrace:
    def test_trace_covers_all_layers(self):
        trace = calibrated_trace("alexnet")
        assert trace.network.num_layers == len(trace.params) == len(trace.precisions)
        assert trace.storage_bits == 16

    def test_quant8_trace_uses_eight_bits(self):
        trace = calibrated_trace("alexnet", representation="quant8")
        assert trace.storage_bits == 8
        values = trace.sample_layer_values(1, 2000)
        assert values.max() <= 255

    def test_first_layer_is_dense_by_default(self):
        trace = calibrated_trace("alexnet")
        first = trace.sample_layer_values(0, 4000)
        later = trace.sample_layer_values(2, 4000)
        assert np.count_nonzero(first == 0) / first.size < 0.05
        assert np.count_nonzero(later == 0) / later.size > 0.3

    def test_sparse_first_layer_option(self):
        trace = calibrated_trace("alexnet", dense_first_layer=False)
        first = trace.sample_layer_values(0, 4000)
        assert np.count_nonzero(first == 0) / first.size > 0.3

    def test_nonzero_bit_content_tracks_target(self):
        trace = calibrated_trace("vgg19")
        target = TABLE1_TARGETS["fixed16"]["nz"]["vgg19"]
        fractions = []
        for index in range(1, trace.network.num_layers):
            values = trace.sample_layer_values(index, 4000)
            nonzero = values[values != 0]
            fractions.append(popcount(nonzero, 16).mean() / 16)
        measured = float(np.mean(fractions))
        assert measured == pytest.approx(target, rel=0.25)

    def test_explicit_precisions_change_trace_windows(self):
        trace = calibrated_trace("alexnet", precisions=(4, 4, 4, 4, 4))
        assert all(p.width == 4 for p in trace.precisions)

    def test_explicit_precisions_rejected_for_quant8(self):
        with pytest.raises(ValueError):
            calibrated_trace("alexnet", representation="quant8", precisions=(4,) * 5)

    def test_seed_changes_values_not_calibration(self):
        a = calibrated_trace("alexnet", seed=0).sample_layer_values(1, 200)
        b = calibrated_trace("alexnet", seed=1).sample_layer_values(1, 200)
        assert not np.array_equal(a, b)
