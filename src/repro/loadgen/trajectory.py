"""The schema-versioned append-only performance trajectory.

``benchmarks/reports/bench_summary.json`` used to be a single overwritten
snapshot (schema 1: ``{"schema": 1, "experiments": {...}}``); it is now a
**trajectory** — one record per PR — so "faster" claims are checkable against
history instead of vanishing with each overwrite:

.. code-block:: json

    {"schema": 2, "records": [
        {"index": 0, "recorded_at": "2026-08-08T12:00:00Z",
         "git_sha": "b67db10...", "label": "PR 5",
         "experiments": {"fig9": {"preset": "fast", "wall_seconds": 34.7}},
         "loadgen": {"serve": {"p95_seconds": 0.41, "throughput_rps": 12.3}}}
    ]}

Records append; existing records are never rewritten except the **head**
record of the same ``git_sha``, which loadgen appends update in place (one
record per PR, filled in by several runs).  A legacy
schema-1 snapshot is migrated on load into record 0 — the ingestion shim —
and a corrupt or missing file restarts the trajectory rather than failing.

:mod:`repro.loadgen.gate` consumes the two newest records; ``docs/loadgen.md``
documents the record contract.
"""

from __future__ import annotations

import datetime
import json
import subprocess
from pathlib import Path

__all__ = [
    "TRAJECTORY_SCHEMA",
    "current_git_sha",
    "load_trajectory",
    "save_trajectory",
    "upsert_record",
    "append_loadgen_section",
]

#: Current schema of the trajectory file.
TRAJECTORY_SCHEMA = 2

#: Schema of the pre-trajectory single-snapshot format this module ingests.
_SNAPSHOT_SCHEMA = 1


def current_git_sha(root: str | Path | None = None) -> str | None:
    """The repo's HEAD sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root else None,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _empty() -> dict:
    return {"schema": TRAJECTORY_SCHEMA, "records": []}


def _migrate_snapshot(snapshot: dict) -> dict:
    """Ingest a schema-1 single snapshot as record 0 of a fresh trajectory."""
    return {
        "schema": TRAJECTORY_SCHEMA,
        "records": [
            {
                "index": 0,
                "recorded_at": _utc_now(),
                "git_sha": None,
                "label": "migrated schema-1 snapshot",
                "experiments": dict(snapshot.get("experiments", {})),
            }
        ],
    }


def load_trajectory(path: str | Path) -> dict:
    """Load (and, for a legacy snapshot, migrate) the trajectory at ``path``.

    Never raises on a missing or corrupt file — the trajectory restarts
    empty, exactly like the old snapshot's recovery rule.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return _empty()
    if not isinstance(data, dict):
        return _empty()
    if data.get("schema") == _SNAPSHOT_SCHEMA and isinstance(data.get("experiments"), dict):
        return _migrate_snapshot(data)
    if data.get("schema") == TRAJECTORY_SCHEMA and isinstance(data.get("records"), list):
        return data
    return _empty()


def save_trajectory(path: str | Path, trajectory: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def upsert_record(
    trajectory: dict, git_sha: str | None, label: str | None = None
) -> dict:
    """The head record for ``git_sha``, appending a fresh one when needed.

    The head record is only reused when its sha matches (several tools fill
    in one PR's record; measurements from two different PRs never merge —
    outside a git checkout, where shas are unknowable, consecutive runs do
    share the ``None`` record).  ``label`` (e.g. ``"PR 6"``) is set on
    creation and updated when given.
    """
    records = trajectory["records"]
    head = records[-1] if records else None
    if head is None or head.get("git_sha") != git_sha:
        head = {
            "index": (head["index"] + 1) if head else 0,
            "recorded_at": _utc_now(),
            "git_sha": git_sha,
            "experiments": {},
        }
        records.append(head)
    if label:
        head["label"] = label
    return head


def append_loadgen_section(
    path: str | Path,
    target: str,
    section: dict,
    git_sha: str | None = None,
    label: str | None = None,
) -> dict:
    """Record one loadgen report's trajectory section under the head record."""
    trajectory = load_trajectory(path)
    record = upsert_record(trajectory, git_sha, label=label)
    record.setdefault("loadgen", {})[target] = section
    record["recorded_at"] = _utc_now()
    save_trajectory(path, trajectory)
    return record
