"""Live engine progress: per-group completion events for ``run_plan``.

The engine evaluates a plan as sweep groups -- one per trace source --
over a process pool; until a run finishes, the only signal is the final
footer.  This module defines the streaming contract:
``run_plan(progress=...)`` invokes the callback in the *parent* process
once per completed group, as worker results arrive (completion order,
not plan order -- the deterministic merge is unaffected).  The CLI
renders the stream as a live ticker (``repro tables --progress``) or as
one JSON object per line (``--progress-format jsonl``), the seed of the
serve-layer streaming API.

Callbacks run on the engine's result-collection path: keep them cheap
and never raise (a raising callback aborts the run, exactly like any
other exception in the parent).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

__all__ = ["ProgressCallback", "ProgressEvent"]


@dataclass(frozen=True)
class ProgressEvent:
    """One completed sweep group.

    Attributes:
        table_id: the plan being evaluated.
        completed: groups finished so far (this one included).
        total: groups in the plan (its distinct trace sources).
        source: trace-source spec of the group's trace.
        cells: plan cells in the group.
        hits: cells served from the result cache.
        seconds: the group's measured time in its worker.
        pid: the worker process that evaluated the group.
    """

    table_id: str
    completed: int
    total: int
    source: str
    cells: int
    hits: int
    seconds: float
    pid: int

    def to_payload(self) -> dict:
        """Flat JSON-ready mapping (one ``--progress-format jsonl`` line)."""
        return asdict(self)


#: The ``run_plan(progress=...)`` contract.
ProgressCallback = Callable[[ProgressEvent], None]
