"""On-disk job journal: the daemon's crash-survivable memory.

Layout of one state directory::

    <state_dir>/
      jobs/<job_id>.json          # JobRecord journal entries (atomic)
      checkpoints/<job_id>/       # per-job explorer run directory

Every state transition rewrites the job's journal file through
:func:`repro.resilience.checkpoint.atomic_write_text` (tmp + fsync +
rename, collision-free tmp names per thread), so a killed daemon never
leaves a torn record.  On restart, ``load_all``
returns every journaled record; the scheduler re-enqueues the
non-terminal ones (with ``resume=True`` so their explorer checkpoints
continue bitwise) and keeps the terminal ones queryable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ServiceError
from repro.resilience.checkpoint import atomic_write_text, probe_writable
from repro.service.jobs import JobRecord

__all__ = ["JobStore"]

JOURNAL_SCHEMA_VERSION = 1


class JobStore:
    """Atomic per-job JSON journal in one state directory."""

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.checkpoints_dir = self.state_dir / "checkpoints"
        try:
            probe_writable(self.state_dir)
            self.jobs_dir.mkdir(exist_ok=True)
            self.checkpoints_dir.mkdir(exist_ok=True)
        except OSError as exc:
            raise ServiceError(
                f"service state directory {self.state_dir} is not "
                f"writable ({exc}); pass a writable --state-dir"
            ) from exc

    # -- paths ----------------------------------------------------------- #

    def journal_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.checkpoints_dir / job_id

    # -- persistence ------------------------------------------------------ #

    def save(self, record: JobRecord) -> None:
        self.write_snapshot(record.job_id, self.snapshot(record))

    def snapshot(self, record: JobRecord) -> str:
        """Serialize ``record``'s current state (no I/O).

        Splitting serialization from the write lets the scheduler take
        the snapshot on the event loop — where the record is mutated —
        and push only the finished text to a worker thread, so the
        threaded write never reads the live object.
        """
        body = record.to_journal()
        body["schema_version"] = JOURNAL_SCHEMA_VERSION
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def write_snapshot(self, job_id: str, text: str) -> None:
        """Atomically replace ``job_id``'s journal with ``text``."""
        path = self.journal_path(job_id)
        try:
            atomic_write_text(path, text)
        except OSError as exc:
            raise ServiceError(
                f"cannot journal job {job_id} to {path}: {exc}"
            ) from exc

    def load(self, job_id: str) -> Optional[JobRecord]:
        path = self.journal_path(job_id)
        if not path.exists():
            return None
        return self._read(path)

    def load_all(self) -> List[JobRecord]:
        """Every journaled record, ordered by job id (submission order)."""
        records: Dict[str, JobRecord] = {}
        for path in sorted(self.jobs_dir.glob("*.json")):
            record = self._read(path)
            records[record.job_id] = record
        return [records[k] for k in sorted(records)]

    def _read(self, path: Path) -> JobRecord:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"corrupt job journal {path} ({exc}); delete it or "
                f"start a fresh --state-dir"
            ) from exc
        if not isinstance(payload, dict):
            raise ServiceError(f"job journal {path} is not a JSON object")
        version = payload.get("schema_version")
        if version != JOURNAL_SCHEMA_VERSION:
            raise ServiceError(
                f"job journal {path} has schema version {version!r} but "
                f"this build reads {JOURNAL_SCHEMA_VERSION}; start a "
                f"fresh --state-dir"
            )
        return JobRecord.from_journal(payload)
