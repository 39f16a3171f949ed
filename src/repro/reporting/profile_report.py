"""Per-stage profile table from an observability metrics snapshot.

Consumes the JSON-serializable snapshot produced by
:meth:`repro.obs.Metrics.snapshot` and renders the stage breakdown the
paper-style runtime analyses need: wall time (total / mean / p95), call
counts, and peak RSS per instrumented stage, sorted by total time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.reporting.tables import format_table

__all__ = [
    "stage_rows",
    "profile_table",
    "counters_table",
    "write_metrics_json",
]

_WALL_SUFFIX = ".wall_s"


def stage_rows(snapshot: Dict[str, dict]) -> List[dict]:
    """Extract per-stage stats from a metrics snapshot.

    A *stage* is any name with a ``<stage>.wall_s`` histogram (that is,
    anything measured with :class:`repro.obs.timed`).  Returns one dict
    per stage with ``stage``, ``calls``, ``total_s``, ``mean_s``,
    ``p95_s``, ``max_s``, ``peak_rss_kb`` (None when absent), sorted by
    descending total wall time.
    """
    rows = []
    for name, snap in snapshot.items():
        if not name.endswith(_WALL_SUFFIX) or snap.get("type") != "histogram":
            continue
        stage = name[: -len(_WALL_SUFFIX)]
        calls_snap = snapshot.get(f"{stage}.calls", {})
        rss_snap = snapshot.get(f"{stage}.peak_rss_kb", {})
        rows.append(
            {
                "stage": stage,
                "calls": int(calls_snap.get("value", snap["count"])),
                "total_s": snap["sum"],
                "mean_s": snap["mean"],
                "p95_s": snap["p95"],
                "max_s": snap["max"] or 0.0,
                "peak_rss_kb": rss_snap.get("value"),
            }
        )
    rows.sort(key=lambda r: -r["total_s"])
    return rows


def profile_table(
    snapshot: Dict[str, dict], title: str = "Stage profile"
) -> str:
    """Render the per-stage breakdown as an ASCII table."""
    rows = stage_rows(snapshot)
    if not rows:
        return f"{title}: no stages recorded (is observability enabled?)"
    # Stages nest (flow.run contains flow.sta), so percentages are of the
    # largest single stage rather than a meaningless grand sum.
    top = max(r["total_s"] for r in rows)
    table_rows = [
        [
            r["stage"],
            r["calls"],
            f"{r['total_s']:.3f}",
            f"{100.0 * r['total_s'] / top:.1f}%" if top > 0 else "-",
            f"{r['mean_s'] * 1e3:.1f}",
            f"{r['p95_s'] * 1e3:.1f}",
            f"{r['max_s'] * 1e3:.1f}",
            f"{r['peak_rss_kb'] / 1024.0:.1f}"
            if r["peak_rss_kb"] is not None
            else "-",
        ]
        for r in rows
    ]
    return format_table(
        ["stage", "calls", "total s", "% of top", "mean ms", "p95 ms",
         "max ms", "peak RSS MB"],
        table_rows,
        title=title,
    )


def counters_table(
    snapshot: Dict[str, dict],
    prefix: str = "",
    title: str = "Counters",
) -> str:
    """Render plain counters (optionally filtered by name prefix).

    Stage bookkeeping counters (``*.calls`` / ``*.errors``) belong to the
    stage table and are excluded here; what remains are the event
    counters — e.g. the ``resilience.*`` supervision counters or the
    ``flow.incremental.*`` cache statistics.  Returns ``""`` when no
    counter matches, so callers can print conditionally.
    """
    rows = [
        [name, int(snap["value"])]
        for name, snap in snapshot.items()
        if snap.get("type") == "counter"
        and name.startswith(prefix)
        and not name.endswith((".calls", ".errors"))
    ]
    if not rows:
        return ""
    return format_table(["counter", "value"], rows, title=title)


def write_metrics_json(
    snapshot: Dict[str, dict],
    path: Union[str, Path],
    extra: Optional[dict] = None,
) -> Path:
    """Archive a snapshot as JSON (``repro profile --json``).

    ``extra`` entries (e.g. design name, git SHA, budget knobs) are stored
    under a ``"meta"`` key beside the ``"metrics"`` payload.
    """
    path = Path(path)
    payload = {"meta": extra or {}, "metrics": snapshot}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
