"""Experiment registry and command-line entry point.

Run a single experiment::

    python -m repro.experiments.runner --experiment fig9 --preset fast

regenerate every table and figure in parallel with a warm result cache::

    python -m repro.experiments.runner --all --preset full --jobs 4

list what is available::

    python -m repro.experiments.runner --list

or maintain the on-disk result cache::

    python -m repro.experiments.runner --cache-stats
    python -m repro.experiments.runner --cache-gc --max-bytes 500M --max-age 30d
    python -m repro.experiments.runner --cache-clear

``python -m repro`` is an alias for this module, and the installed console
script is ``repro-experiments``.  Runs are executed by :mod:`repro.runtime`:
``--jobs N`` fans simulation and experiment jobs out over a process pool,
``--cache-dir`` places the content-addressed result cache (``--no-cache``
keeps it in memory), and ``--out DIR`` exports one JSON artifact per
experiment.  The cache verbs scan the cache directory, which is its own
index (:mod:`repro.runtime.lifecycle`): ``--cache-stats`` only reads it, and
garbage collection evicts least-recently-used entries (oldest file mtime)
first.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from repro.experiments import (
    ablation,
    encodings,
    extension_csd,
    fig2,
    fig3,
    fig9,
    fig10,
    fig11,
    fig12,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.base import (
    ExperimentResult,
    PRESETS,
    Preset,
    export_results,
    parse_age,
    parse_size,
)

__all__ = [
    "EXPERIMENTS",
    "experiment_description",
    "run_experiment",
    "main",
]


def _format_bytes(count: int) -> str:
    """Human-readable rendering next to the exact byte count."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{count} B"  # pragma: no cover - loop always returns


def _cache_maintenance(args) -> int:
    """Handle ``--cache-stats`` / ``--cache-gc`` / ``--cache-clear``."""
    from repro.runtime import ResultCache, default_cache_dir

    directory = Path(args.cache_dir or default_cache_dir()).expanduser()
    if not directory.is_dir():
        # Read-only verbs must not conjure directories (a typo'd --cache-dir
        # would silently look like an empty cache).  An explicit --trace-dir
        # is an independent tier and still gets reported/maintained.
        print(f"cache dir: {directory} (does not exist)")
        if args.cache_clear or args.cache_gc:
            _trace_tier_maintenance(args, directory)
        else:
            _trace_tier_stats(args, directory)
        return 0
    cache = ResultCache(directory=directory)
    if args.cache_clear:
        removed = cache.clear()
        print(f"cache dir: {cache.directory}")
        print(f"cleared {removed} entries")
        _trace_tier_maintenance(args, directory)
        return 0
    if args.cache_gc:
        result = cache.gc(max_bytes=args.max_bytes, max_age=args.max_age)
        print(f"cache dir: {cache.directory}")
        print(f"gc: {result.summary()}")
        _trace_tier_maintenance(args, directory)
        return 0
    usage = cache.usage()
    print(f"cache dir: {cache.directory}")
    print(f"entries: {usage['entries']}")
    print(f"disk bytes: {usage['disk_bytes']} ({_format_bytes(usage['disk_bytes'])})")
    if usage["lru_age_seconds"] is not None:
        print(f"least-recently-used age: {usage['lru_age_seconds']:.0f}s")
    _trace_tier_stats(args, directory)
    return 0


def _trace_dir_for(args, cache_directory: Path):
    """The trace tier the maintenance verbs operate on (or ``None``)."""
    from repro.runtime.session import resolve_trace_dir

    trace_dir = resolve_trace_dir(
        cache_directory,
        getattr(args, "trace_dir", None),
        getattr(args, "no_trace_cache", False),
    )
    if trace_dir is None or not trace_dir.is_dir():
        return None
    return trace_dir


def _trace_tier_maintenance(args, cache_directory: Path) -> None:
    """Apply ``--cache-gc``/``--cache-clear`` to the trace-artifact tier."""
    from repro.runtime import TraceArtifactStore

    trace_dir = _trace_dir_for(args, cache_directory)
    if trace_dir is None:
        return
    store = TraceArtifactStore(trace_dir)
    if args.cache_clear:
        removed = store.clear()
        print(f"cleared {removed} trace artifacts")
    else:
        result = store.gc(max_bytes=args.max_bytes, max_age=args.max_age)
        print(f"trace gc: {result.summary()}")


def _trace_tier_stats(args, cache_directory: Path) -> None:
    """Report the trace-artifact tier alongside ``--cache-stats`` output."""
    from repro.runtime import TraceArtifactStore

    trace_dir = _trace_dir_for(args, cache_directory)
    if trace_dir is None:
        print("trace dir: (no artifacts)")
        return
    usage = TraceArtifactStore(trace_dir).usage()
    print(f"trace dir: {usage['directory']}")
    print(f"trace artifacts: {usage['entries']} entries")
    print(
        f"trace disk bytes: {usage['disk_bytes']} "
        f"({_format_bytes(usage['disk_bytes'])})"
    )

#: Registry of experiment id → run function, in the paper's presentation order.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "table2": table2.run,
    "fig9": fig9.run,
    "table3": table3.run,
    "fig10": fig10.run,
    "table4": table4.run,
    "fig11": fig11.run,
    "table5": table5.run,
    "fig12": fig12.run,
    "ablation": ablation.run,
    "extension_csd": extension_csd.run,
    "encodings": encodings.run,
}


def experiment_description(name: str) -> str:
    """One-line description of an experiment (its module docstring's first line)."""
    module = sys.modules[EXPERIMENTS[name].__module__]
    doc = module.__doc__ or ""
    first = doc.strip().splitlines()[0] if doc.strip() else ""
    return first.rstrip(".")


def run_experiment(
    name: str, preset: str | Preset = "fast", seed: int = 0
) -> ExperimentResult:
    """Run one experiment by id (within the caller's runtime session).

    If the active session carries a :class:`~repro.core.progress.ProgressToken`
    the run checks it before starting (so cancelling a multi-experiment job
    also stops between experiments, even when every sweep is a warm cache hit)
    and announces the experiment through it.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}")
    from repro.runtime.session import current_session

    progress = getattr(current_session(), "progress", None)
    if progress is not None:
        progress.checkpoint()
        progress.emit({"stage": "experiment", "experiment": name})
    return EXPERIMENTS[name](preset=preset, seed=seed)


def main(argv: list[str] | None = None) -> int:
    """Command-line interface."""
    from repro.cachenet.backend import parse_backend_spec

    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the tables and figures of the Bit-Pragmatic paper.",
    )
    parser.add_argument("--experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and descriptions"
    )
    parser.add_argument("--preset", choices=sorted(PRESETS), default="fast")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the run (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk result cache directory (default: ~/.cache/repro-pragmatic "
        "or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="keep results in memory: nothing persists, and the run still "
        "reuses what its own jobs computed",
    )
    parser.add_argument(
        "--cache-backend",
        type=parse_backend_spec,
        default=None,
        metavar="SPEC",
        help="network cache tier instead of --cache-dir: remote://HOST:PORT "
        "(see docs/cachenet.md)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="trace-fabric directory (default: <cache-dir>/traces); "
        "processes sharing it calibrate each network once",
    )
    parser.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable the trace fabric (calibrate each network in-process)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="export one JSON artifact per experiment into DIR",
    )
    maintenance = parser.add_argument_group("cache maintenance")
    maintenance.add_argument(
        "--cache-stats",
        action="store_true",
        help="report entry count, disk usage and least-recently-used age "
        "from one scan of the cache directory",
    )
    maintenance.add_argument(
        "--cache-gc",
        action="store_true",
        help="garbage-collect the cache (LRU-first) down to --max-bytes/--max-age",
    )
    maintenance.add_argument(
        "--cache-clear", action="store_true", help="delete every cache entry"
    )
    maintenance.add_argument(
        "--max-bytes",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="gc byte cap (plain bytes or K/M/G suffix, e.g. 500M)",
    )
    maintenance.add_argument(
        "--max-age",
        type=parse_age,
        default=None,
        metavar="AGE",
        help="gc age cap on last use (seconds or s/m/h/d suffix, e.g. 30d)",
    )
    args = parser.parse_args(argv)

    if args.cache_stats or args.cache_gc or args.cache_clear:
        if args.no_cache:
            parser.error("cache maintenance verbs require a disk cache (drop --no-cache)")
        if args.cache_backend is not None:
            parser.error(
                "cache maintenance verbs act on a local directory, not --cache-backend: "
                "send the cache server a gc op, or run the verb with its --cache-dir"
            )
        if args.cache_gc and args.max_bytes is None and args.max_age is None:
            parser.error("--cache-gc needs --max-bytes and/or --max-age")
        return _cache_maintenance(args)

    if args.list:
        width = max(len(name) for name in EXPERIMENTS)
        for name in EXPERIMENTS:
            print(f"{name:<{width}}  {experiment_description(name)}")
        return 0

    if not args.all and not args.experiment:
        parser.error("specify --experiment NAME, --all, or --list")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    from repro.runtime import resolve_cache_dir, run_experiments

    names = list(EXPERIMENTS) if args.all else [args.experiment]
    report = run_experiments(
        names,
        preset=args.preset,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=resolve_cache_dir(args.cache_dir, args.no_cache, args.cache_backend),
        no_cache=args.no_cache,
        trace_dir=args.trace_dir,
        no_trace_cache=args.no_trace_cache,
        cache_backend=args.cache_backend,
    )

    for result in report.results.values():
        print(result.to_text())
        print()
    if args.out:
        paths = export_results(report.results, args.out)
        print(f"exported {len(paths)} artifact(s) to {args.out}")
    print(report.summary())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
