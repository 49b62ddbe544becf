"""Shared helpers for the benchmark harness.

Each benchmark regenerates one paper table or figure through the experiment
harness, measures how long the reproduction takes (one round — these are
simulations, not micro-kernels), asserts the qualitative claims the paper makes
about that artifact, and writes the reproduced rows to
``benchmarks/reports/<experiment>.txt`` so the output survives the run.  The
reports are deterministic, so a run leaves the checkout unchanged; wall times
stay in pytest-benchmark's own output.

Every measured run executes inside an isolated runtime session so the shared
result cache of :mod:`repro.runtime` cannot let one benchmark reuse another's
simulations — each benchmark pays the full cost of its own reproduction.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.runner import run_experiment
from repro.runtime import isolated_session

#: Directory the benchmark reports are written to.
REPORTS_DIR = Path(__file__).parent / "reports"

#: Preset used by every benchmark run.
BENCHMARK_PRESET = "fast"


def _run_isolated(experiment: str, preset: str) -> ExperimentResult:
    """Run one experiment in a fresh runtime session (no cross-benchmark reuse)."""
    with isolated_session():
        return run_experiment(experiment, preset=preset)


def run_and_report(benchmark, experiment: str, preset: str = BENCHMARK_PRESET) -> ExperimentResult:
    """Run one experiment under pytest-benchmark and persist its report."""
    result = benchmark.pedantic(
        _run_isolated, args=(experiment, preset), rounds=1, iterations=1
    )
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / f"{experiment}.txt").write_text(result.to_text() + "\n")
    return result


@pytest.fixture
def report(benchmark):
    """Fixture exposing :func:`run_and_report` bound to the active benchmark."""

    def runner(experiment: str, preset: str = BENCHMARK_PRESET) -> ExperimentResult:
        return run_and_report(benchmark, experiment, preset)

    return runner
