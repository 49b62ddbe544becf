"""The paper's qualitative claims, asserted on one cold run of every experiment.

One module-scoped run regenerates all 14 experiments at the ``fast`` preset
(seed 0) through the merged plan, in memory, so the experiments share their
traces and simulations as a user's ``python -m repro --all`` does.  Each test
then asserts what the paper claims about one table or figure.  The bounds are
deliberately loose: they check the shape of each result (orderings, ranges,
ties), not the exact numbers, which the goldens elsewhere pin.
"""

import pytest

from repro.experiments.runner import EXPERIMENTS
from repro.experiments.table3 import PAPER_TABLE3
from repro.experiments.table4 import PAPER_TABLE4
from repro.nn.calibration import TABLE1_TARGETS
from repro.nn.networks import NETWORK_NAMES
from repro.runtime import RuntimeSession, build_plan, run_experiments


@pytest.fixture(scope="module")
def paper_run():
    """One cold, in-memory ``--all --preset fast`` run."""
    return run_experiments(list(EXPERIMENTS), preset="fast", no_cache=True)


def _geomeans(result):
    """``{"Stripes": …, "4-bit": …}`` from ``geomean:<label>`` metadata keys."""
    return {
        key.split(":")[1]: value
        for key, value in result.metadata.items()
        if key.startswith("geomean:")
    }


def test_every_cache_miss_is_a_planned_unit(paper_run):
    # A run() that asks for a config its plan() never declared simulates it
    # outside the merged plan, and shows up here as an extra miss.
    plan = build_plan(list(EXPERIMENTS), "fast", 0, RuntimeSession())
    planned = sum(len(job.request.configs) for job in plan.simulations) + len(plan.statistics)
    assert paper_run.stats.cache.misses == planned


def test_table1(paper_run):
    result = paper_run.results["table1"]
    # The calibrated traces must stay close to the paper's NZ statistic, which is
    # the quantity the whole evaluation rests on.
    for network in NETWORK_NAMES:
        measured = result.metadata[f"fixed16:{network}:nz"]
        paper = TABLE1_TARGETS["fixed16"]["nz"][network]
        assert abs(measured - paper) / paper < 0.35, network
    # The 8-bit quantized representation carries denser codes than 16-bit fixed point.
    for network in NETWORK_NAMES:
        assert (
            result.metadata[f"quant8:{network}:all"]
            > result.metadata[f"fixed16:{network}:all"]
        )


def test_fig2(paper_run):
    geomean = _geomeans(paper_run.results["fig2"])
    # Pragmatic needs by far the fewest terms; software guidance helps further.
    assert geomean["PRA-red"] <= geomean["PRA-fp16"] < 0.25
    assert geomean["PRA-fp16"] < geomean["Stripes"] < 1.0
    assert geomean["PRA-fp16"] < geomean["ZN"] <= geomean["CVN"] <= 1.0


def test_fig3(paper_run):
    result = paper_run.results["fig3"]
    pra = result.metadata["geomean:PRA"]
    zero_skip = result.metadata["geomean:ZN"]
    # Paper: skipping zero neurons removes only ~30% of terms, Pragmatic up to ~71%.
    assert pra < zero_skip <= 1.0
    assert pra < 0.5


def test_table2(paper_run):
    result = paper_run.results["table2"]
    # Profiled widths must track the published profiles (same order of magnitude,
    # never collapsing to the full 16-bit storage width on average).
    for network in NETWORK_NAMES:
        published = result.metadata[f"{network}:published_mean"]
        profiled = result.metadata[f"{network}:profiled_mean"]
        assert 4.0 <= profiled <= 16.0
        assert abs(profiled - published) <= 5.0, network


def test_fig9(paper_run):
    geo = _geomeans(paper_run.results["fig9"])
    # Engine ordering: DaDN < Stripes < PRA-0b < ... and PRA-2b within a whisker of PRA-4b.
    assert 1.0 < geo["Stripes"] < geo["0-bit"]
    assert geo["0-bit"] <= geo["1-bit"] <= geo["2-bit"] <= geo["4-bit"] * 1.001
    assert geo["2-bit"] == pytest.approx(geo["4-bit"], rel=0.02)
    # Paper headline numbers: Stripes 1.85x, PRA-single 2.59x (shape: 1.3-2.4 / 2.0-3.5).
    assert 1.3 <= geo["Stripes"] <= 2.4
    assert 2.0 <= geo["4-bit"] <= 3.5
    # Pragmatic-without-first-stage-shifters still beats Stripes (paper: ~20%).
    assert geo["0-bit"] / geo["Stripes"] > 1.1


def test_table3(paper_run):
    result = paper_run.results["table3"]
    for design, (unit, _, power) in PAPER_TABLE3.items():
        assert result.metadata[f"{design}:unit_mm2"] == pytest.approx(unit, rel=0.05)
        assert result.metadata[f"{design}:chip_w"] == pytest.approx(power, rel=0.05)
    # Area and power grow monotonically with the first-stage shifter width.
    units = [result.metadata[f"PRA-{bits}b:unit_mm2"] for bits in range(5)]
    assert units == sorted(units)


def test_fig10(paper_run):
    geo = _geomeans(paper_run.results["fig10"])
    # More SSRs monotonically approach the ideal configuration.
    assert geo["1-reg"] <= geo["4-regs"] <= geo["16-regs"] <= geo["perCol-ideal"] * 1.001
    # One register already captures most of the benefit (paper: 3.1x of 3.45x ideal).
    assert geo["1-reg"] >= 0.85 * geo["perCol-ideal"]
    # Column synchronization clearly beats Stripes and lands in the paper's range.
    assert geo["1-reg"] > geo["Stripes"]
    assert 2.4 <= geo["1-reg"] <= 4.2
    assert geo["perCol-ideal"] == pytest.approx(geo["16-regs"], rel=0.05)


def test_table4(paper_run):
    result = paper_run.results["table4"]
    for design, (unit, _, power) in PAPER_TABLE4.items():
        assert result.metadata[f"{design}:unit_mm2"] == pytest.approx(unit, rel=0.05)
        assert result.metadata[f"{design}:chip_w"] == pytest.approx(power, rel=0.05)
    # SSRs are cheap: one register costs only a few percent of the PRA-2b unit.
    assert (
        result.metadata["PRA-2b-1R:unit_mm2"] - result.metadata["PRA-2b-16R:unit_mm2"] < 0
    )


def test_fig11(paper_run):
    geo = _geomeans(paper_run.results["fig11"])
    # Paper: PRA-4b's power overhead cancels its speedup (~0.95x); PRA-2b is ~1.28x
    # and the column-synchronized PRA-2b-1R is the most efficient (~1.48x).
    assert geo["PRA-4b"] < geo["PRA-2b"] < geo["PRA-2b-1R"]
    assert 0.7 <= geo["PRA-4b"] <= 1.2
    assert 1.0 <= geo["PRA-2b"] <= 1.7
    assert 1.1 <= geo["PRA-2b-1R"] <= 2.0
    assert geo["Stripes"] > 1.0


def test_table5(paper_run):
    result = paper_run.results["table5"]
    average = result.metadata["average:benefit"]
    # Paper: software guidance contributes 19% on average (10%-23% per network);
    # the reproduction should land in the same band.
    assert 0.05 <= average <= 0.40
    for key, value in result.metadata.items():
        if key.endswith(":benefit") and not key.startswith(("average", "geomean")):
            assert value >= 0.0, key


def test_fig12(paper_run):
    geo = _geomeans(paper_run.results["fig12"])
    # Pragmatic's benefits persist with the quantized representation (paper: ~3.5x
    # for the column-synchronized PRA-2b); per-column beats per-pallet, and the
    # 2-bit first stage stays close to the single-stage design.
    assert geo["perPall-2bit"] > geo["Stripes"]
    assert geo["perCol-1reg-2bit"] > geo["perPall-2bit"]
    assert geo["perCol-1reg-2bit"] <= geo["perCol-ideal-2bit"] * 1.001
    assert 1.5 <= geo["perPall-2bit"] <= 3.5
    assert 2.0 <= geo["perCol-1reg-2bit"] <= 4.5


def test_ablation(paper_run):
    result = paper_run.results["ablation"]
    # Deeper trimmable suffixes increase the software-guided speedup monotonically.
    suffixes = [
        result.metadata[f"suffix={bits}, dense first layer:geomean"] for bits in (0, 1, 2, 3)
    ]
    assert suffixes == sorted(suffixes)
    # Modelling the first layer as sparse ReLU output overstates the speedup.
    dense = result.metadata["suffix=2, dense first layer:geomean"]
    sparse = result.metadata["suffix=2, sparse first layer:geomean"]
    assert sparse >= dense


def test_extension_csd(paper_run):
    result = paper_run.results["extension_csd"]
    # CSD never needs more terms than the positional encoding and should shave a
    # meaningful fraction off the already-small PRA term count.
    assert result.metadata["geomean:PRA-csd"] <= result.metadata["geomean:PRA-fp16"]
    assert 0.05 <= result.metadata["geomean:reduction"] <= 0.6
    assert result.metadata["geomean:PRA-csd"] < result.metadata["geomean:Stripes"]
