"""Run manifests: a durable record of every observed experiment run.

A manifest is written next to the cache entries (``<cache
root>/manifests/<run_id>.json``) whenever a plan is evaluated with
observation on (``repro.api.run_table(..., observe=True)``, or the CLI
``tables`` command, which observes by default).  It captures everything
needed to account for the run after the fact:

* identity -- run id, table id, creation time, git SHA of the checkout;
* configuration -- worker count, cache enablement, cell count, and the
  model fingerprint the run's cache keys were built under;
* timings -- wall seconds, summed and max sweep-group seconds, queue
  wait;
* a full metrics snapshot (:mod:`repro.obs.metrics`);
* the span trace (:mod:`repro.obs.tracing`), one span per sweep group.

``python -m repro stats`` renders manifests as a per-run breakdown
table; ``python -m repro trace-export`` converts a manifest's spans to
Chrome ``trace_event`` JSON.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "RunManifest",
    "current_git_sha",
    "latest_manifest",
    "list_manifests",
    "load_manifest",
    "manifest_dir",
    "new_run_id",
    "write_manifest",
]

#: Manifest schema version; bump on incompatible layout changes.  v2
#: names the timings ``group_seconds``/``max_group_seconds``; v1 had
#: ``cell_seconds`` (the same per-group sum) and ``max_cell_seconds``
#: (the largest even per-cell share, no group's time).
MANIFEST_VERSION = 2


@functools.lru_cache(maxsize=None)
def current_git_sha(cwd: Optional[os.PathLike] = None) -> Optional[str]:
    """The checkout's HEAD SHA, or None outside a repository (fail-soft).

    Computed once per process (and *cwd*): the first call spawns
    ``git rev-parse HEAD``, every later one returns the cached answer,
    so a commit made while the process runs is not seen.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def new_run_id(table_id: str) -> str:
    """A sortable, collision-resistant run id."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{table_id}-{os.getpid()}-{os.urandom(3).hex()}"


@dataclass
class RunManifest:
    """Everything recorded about one observed plan evaluation."""

    run_id: str
    table_id: str
    created: str  # ISO-8601 UTC
    git_sha: Optional[str]
    config: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    version: int = MANIFEST_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "run_id": self.run_id,
            "table_id": self.table_id,
            "created": self.created,
            "git_sha": self.git_sha,
            "config": dict(self.config),
            "timings": dict(self.timings),
            "metrics": dict(self.metrics),
            "spans": list(self.spans),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        return cls(
            run_id=data["run_id"],
            table_id=data["table_id"],
            created=data["created"],
            git_sha=data.get("git_sha"),
            config=dict(data.get("config", {})),
            timings=dict(data.get("timings", {})),
            metrics=dict(data.get("metrics", {})),
            spans=list(data.get("spans", [])),
            version=int(data.get("version", MANIFEST_VERSION)),
        )

    # -- derived accounting (used by ``repro stats``) ------------------

    def counter(self, name: str) -> float:
        return float(self.metrics.get("counters", {}).get(name, 0.0))

    @property
    def cache_hit_rate(self) -> Optional[float]:
        hits = self.counter("cache.result.hits")
        misses = self.counter("cache.result.misses")
        total = hits + misses
        return hits / total if total else None

    @property
    def worker_utilization(self) -> Dict[str, float]:
        """Per-worker busy fraction of the run's wall time."""
        gauges = self.metrics.get("gauges", {})
        return {
            name.split(".")[1]: value
            for name, value in gauges.items()
            if name.startswith("worker.") and name.endswith(".utilization")
        }

    def group_timings(self) -> List[Dict[str, Any]]:
        """Sweep-group spans (name, seconds, pid, attrs), slowest first.

        Every group of cells sharing a trace source is one ``sweep:``
        span, whether its cells were served from the cache or computed
        (its ``cells`` and ``hits`` attributes say which).
        """
        groups = [
            {
                "name": span["name"],
                "seconds": float(span["end"]) - float(span["start"]),
                "pid": span.get("pid", 0),
                "attrs": span.get("attrs", {}),
            }
            for span in self.spans
            if span.get("end") is not None
            and span["name"].startswith("sweep:")
        ]
        groups.sort(key=lambda g: g["seconds"], reverse=True)
        return groups


# ----------------------------------------------------------------------
# Storage (next to the cache entries)
# ----------------------------------------------------------------------

def manifest_dir(root: os.PathLike) -> Path:
    return Path(root) / "manifests"


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_manifest(manifest: RunManifest, root: os.PathLike) -> Optional[Path]:
    """Persist *manifest* under ``<root>/manifests``; best-effort."""
    path = manifest_dir(root) / f"{manifest.run_id}.json"
    try:
        _atomic_write_text(
            path, json.dumps(manifest.to_dict(), sort_keys=True, indent=1)
        )
    except OSError:
        return None
    return path


def load_manifest(path: os.PathLike) -> RunManifest:
    with open(path) as handle:
        return RunManifest.from_dict(json.load(handle))


def list_manifests(
    root: os.PathLike, *, limit: Optional[int] = None
) -> List[RunManifest]:
    """Stored manifests under *root*, newest first; corrupt files skipped."""
    directory = manifest_dir(root)
    if not directory.is_dir():
        return []
    manifests: List[RunManifest] = []
    for path in directory.glob("*.json"):
        try:
            manifests.append(load_manifest(path))
        except (OSError, ValueError, KeyError):
            continue
    manifests.sort(key=lambda m: (m.created, m.run_id), reverse=True)
    return manifests[:limit] if limit is not None else manifests


def latest_manifest(root: os.PathLike) -> Optional[RunManifest]:
    manifests = list_manifests(root, limit=1)
    return manifests[0] if manifests else None


def find_manifest(root: os.PathLike, run_id: str) -> Optional[RunManifest]:
    """The manifest with exactly or uniquely-prefixed *run_id*, or None."""
    directory = manifest_dir(root)
    exact = directory / f"{run_id}.json"
    if exact.is_file():
        try:
            return load_manifest(exact)
        except (OSError, ValueError, KeyError):
            return None
    matches = [m for m in list_manifests(root) if m.run_id.startswith(run_id)]
    return matches[0] if len(matches) == 1 else None
