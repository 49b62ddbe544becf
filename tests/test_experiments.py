"""Tests for the experiment harness (registry, presets, light experiments)."""

import dataclasses
import json

import pytest

from repro.experiments import runner
from repro.experiments.base import (
    PRESETS,
    RESULT_SCHEMA,
    ExperimentResult,
    Preset,
    export_results,
    get_preset,
)
from repro.experiments import table3, table4

#: Tiny preset used to exercise the trace/cycle experiments quickly.
TINY = Preset(name="tiny", networks=("alexnet",), samples_per_layer=1500, max_pallets=2)


class TestPresets:
    def test_known_presets_exist(self):
        assert {"smoke", "fast", "full"} <= set(PRESETS)

    def test_get_preset_by_name_and_object(self):
        assert get_preset("fast").name == "fast"
        assert get_preset(TINY) is TINY

    def test_get_preset_rejects_unknown(self):
        with pytest.raises(KeyError):
            get_preset("enormous")

    def test_sampling_uses_preset_pallets(self):
        assert get_preset("fast").sampling().max_pallets == PRESETS["fast"].max_pallets

    def test_a_preset_without_networks_is_refused(self):
        # One typed error at construction, instead of a ZeroDivisionError,
        # a geomean ValueError or a header-only table from the experiments.
        with pytest.raises(ValueError, match="preset 'e' names no networks"):
            Preset(name="e", networks=())
        with pytest.raises(ValueError, match="'fast'"):
            dataclasses.replace(PRESETS["fast"], networks=())


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "fig2",
            "fig3",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "ablation",
            "extension_csd",
            "encodings",
        }
        assert expected == set(runner.EXPERIMENTS)

    def test_run_experiment_rejects_unknown(self):
        with pytest.raises(KeyError):
            runner.run_experiment("fig99")

    def test_cli_requires_an_action(self, capsys):
        with pytest.raises(SystemExit):
            runner.main([])

    def test_cli_runs_single_experiment(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["--experiment", "table3", "--preset", "smoke", "--cache-dir", cache]
        assert runner.main(argv) == 0
        output = capsys.readouterr().out
        assert "Table III" in output
        assert "PRA-2b" in output
        assert "== run summary ==" in output

    def test_cli_lists_experiments(self, capsys):
        assert runner.main(["--list"]) == 0
        output = capsys.readouterr().out
        for name in runner.EXPERIMENTS:
            assert name in output
        assert "Table V" in output  # descriptions come from module docstrings

    def test_cli_rejects_bad_jobs(self):
        with pytest.raises(SystemExit):
            runner.main(["--experiment", "table3", "--jobs", "0"])

    def test_cli_exports_artifacts(self, capsys, tmp_path):
        out = tmp_path / "artifacts"
        argv = [
            "--experiment",
            "table3",
            "--preset",
            "smoke",
            "--no-cache",
            "--out",
            str(out),
        ]
        assert runner.main(argv) == 0
        payload = json.loads((out / "table3.json").read_text())
        assert payload["experiment"] == "table3"
        assert payload["headers"][0] == "design"

    def test_module_dispatches_runner_and_serve(self, capsys):
        import repro.__main__ as entry

        # Anything but "serve" is the batch runner CLI.
        assert entry.main(["--list"]) == 0
        assert "fig9" in capsys.readouterr().out
        # "serve" routes to the serving CLI (its parser rejects bad workers).
        with pytest.raises(SystemExit):
            entry.main(["serve", "--workers", "0"])


class TestArtifacts:
    def test_result_json_round_trip(self):
        result = table3.run(preset="smoke")
        payload = json.loads(result.to_json())
        assert payload == {"schema": RESULT_SCHEMA, **dataclasses.asdict(result)}

    def test_export_results_writes_one_file_per_experiment(self, tmp_path):
        result = table3.run(preset="smoke")
        paths = export_results({"table3": result}, tmp_path)
        assert [path.name for path in paths] == ["table3.json"]
        assert json.loads(paths[0].read_text())["metadata"]["DaDN:chip_w"] == pytest.approx(
            result.metadata["DaDN:chip_w"]
        )


class TestEnergyTables:
    def test_table3_rows_cover_all_designs(self):
        result = table3.run(preset="smoke")
        assert isinstance(result, ExperimentResult)
        designs = [row[0] for row in result.rows]
        assert designs == ["DaDN", "Stripes", "PRA-0b", "PRA-1b", "PRA-2b", "PRA-3b", "PRA-4b"]

    def test_result_renders_to_text(self):
        text = table4.run(preset="smoke").to_text()
        assert "Table IV" in text
        assert "PRA-2b-16R" in text


class TestTraceExperiments:
    def test_table1_measures_both_representations(self):
        from repro.experiments import table1

        result = table1.run(preset=TINY)
        assert "fixed16:alexnet:nz" in result.metadata
        assert "quant8:alexnet:nz" in result.metadata
        assert 0.0 < result.metadata["fixed16:alexnet:nz"] < 0.5

    def test_fig2_pragmatic_needs_fewest_terms(self):
        from repro.experiments import fig2

        result = fig2.run(preset=TINY)
        assert (
            result.metadata["geomean:PRA-red"]
            <= result.metadata["geomean:PRA-fp16"]
            < result.metadata["geomean:Stripes"]
        )

    def test_table2_reports_published_and_profiled(self):
        from repro.experiments import table2

        result = table2.run(preset=TINY)
        assert result.rows[0][1].startswith("9-8-5-5-7")

    def test_fig9_orders_engines_correctly(self):
        from repro.experiments import fig9

        result = fig9.run(preset=TINY)
        stripes = result.metadata["geomean:Stripes"]
        zero_bit = result.metadata["geomean:0-bit"]
        four_bit = result.metadata["geomean:4-bit"]
        assert 1.0 < stripes < zero_bit <= four_bit
        assert result.metadata["geomean:2-bit"] == pytest.approx(four_bit, rel=0.05)


class TestEncodingExperiments:
    """The registry-backed encoding experiments against pre-refactor goldens."""

    def test_extension_csd_pins_pre_registry_numbers(self):
        """extension_csd now counts terms via the registry; the alexnet row
        and metadata must be bit-identical to the pre-registry term counting
        (smoke preset, seed 0 goldens)."""
        from repro.experiments import extension_csd

        result = extension_csd.run(preset="smoke", seed=0)
        assert result.rows[0] == ["alexnet", "43.2%", "8.5%", "7.1%", "16.1%"]
        golden = {
            "alexnet:Stripes": 0.4323407543723599,
            "alexnet:PRA-fp16": 0.08501699631123717,
            "alexnet:PRA-csd": 0.07131134218329231,
            "alexnet:reduction": 0.16121075458570755,
            "geomean:Stripes": 0.44268374470294847,
            "geomean:PRA-fp16": 0.07252983180103656,
            "geomean:PRA-csd": 0.060960373237296236,
            "geomean:reduction": 0.15951310345621095,
        }
        for key, value in golden.items():
            assert result.metadata[key] == pytest.approx(value, rel=1e-12), key

    def test_encodings_positional_matches_fig9_two_bit(self):
        """The positional column of the encodings experiment is the PRA-2b
        point of Figure 9 — same configs, same cache entries, same numbers."""
        from repro.experiments import encodings, fig9

        encoded = encodings.run(preset=TINY)
        figure = fig9.run(preset=TINY)
        assert encoded.metadata["alexnet:positional"] == pytest.approx(
            figure.metadata["alexnet:2-bit"], rel=1e-12
        )

    def test_encodings_covers_every_registered_encoding(self):
        from repro.experiments import encodings
        from repro.numerics.encodings import encoding_names

        result = encodings.run(preset=TINY)
        for name in encoding_names():
            assert f"alexnet:{name}" in result.metadata
            assert f"geomean:{name}" in result.metadata
        # Signed encodings reduce term traffic below positional; binary is
        # the degenerate lossy floor.
        assert result.metadata["alexnet:csd:terms"] < 1.0
        assert result.metadata["alexnet:hese:terms"] < 1.0
        assert (
            result.metadata["alexnet:binary:terms"]
            < result.metadata["alexnet:csd:terms"]
        )
        assert (
            result.metadata["alexnet:positional"]
            <= result.metadata["alexnet:csd"]
        )
        assert "binar" in result.notes

    def test_encodings_plan_exposes_job_graph(self):
        """The runner's dedup hook sees one request per network, each
        spanning the full registry."""
        from repro.experiments import encodings
        from repro.numerics.encodings import encoding_names

        requests = encodings.plan(preset=TINY)
        assert len(requests) == 1
        (request,) = requests
        assert tuple(name for name, _ in request.configs) == encoding_names()
        for name, config in request.configs:
            assert config.encoding == name
