"""Campaign checkpoint journal (JSON + per-chunk npz archives).

A chunked campaign (see :func:`repro.resilience.run_campaign`) records
every completed launch chunk so a crash, ``KeyboardInterrupt`` or
deadline does not force a full re-run. The journal is one JSON file::

    {
      "format_version": 1,
      "fingerprint": {...},          # identity of the campaign
      "chunks": {"0": {"file": "...", "quarantine": [...]}, ...},
      "payloads": {"start-0": {...}, ...}
    }

Chunk trajectories live in sibling ``<stem>.chunk<index>.npz`` archives
(the :mod:`repro.io.results` format); ``payloads`` carries small
free-form JSON entries (parameter-estimation restarts journal their
per-start optima there). The fingerprint is compared on open: resuming
a journal that belongs to a *different* campaign raises
:class:`~repro.errors.ResilienceError` instead of silently splicing
mismatched trajectories.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import FormatError, ResilienceError
from ..gpu.batch_result import BatchSolveResult
from .results import load_result, save_result

_JOURNAL_VERSION = 1


@dataclass
class CampaignCheckpoint:
    """One campaign's resumable journal."""

    path: Path
    fingerprint: dict
    chunks: dict[int, dict] = field(default_factory=dict)
    payloads: dict[str, dict] = field(default_factory=dict)

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path,
             fingerprint: dict) -> "CampaignCheckpoint":
        """Load an existing journal (verifying identity) or create one."""
        path = Path(path)
        if path.is_file():
            try:
                with path.open("r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                raise ResilienceError(
                    f"cannot read campaign journal {path}: {error}") \
                    from None
            version = data.get("format_version")
            if version != _JOURNAL_VERSION:
                raise ResilienceError(
                    f"unsupported journal format version {version!r} "
                    f"in {path}")
            recorded = data.get("fingerprint", {})
            if recorded != fingerprint:
                raise ResilienceError(
                    f"journal {path} belongs to a different campaign: "
                    f"recorded fingerprint {recorded!r} does not match "
                    f"{fingerprint!r}")
            chunks = {int(k): v for k, v in data.get("chunks", {}).items()}
            return cls(path, fingerprint, chunks,
                       dict(data.get("payloads", {})))
        checkpoint = cls(path, fingerprint)
        checkpoint._write()
        return checkpoint

    def _write(self) -> None:
        """Atomic journal rewrite (write temp, rename over)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format_version": _JOURNAL_VERSION,
            "fingerprint": self.fingerprint,
            "chunks": {str(k): v for k, v in sorted(self.chunks.items())},
            "payloads": self.payloads,
        }
        temporary = self.path.with_suffix(self.path.suffix + ".tmp")
        with temporary.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        os.replace(temporary, self.path)

    # -- chunk results ---------------------------------------------------

    def chunk_file(self, index: int) -> Path:
        return self.path.parent / f"{self.path.stem}.chunk{index:05d}.npz"

    def has_chunk(self, index: int) -> bool:
        return index in self.chunks and self.chunk_file(index).is_file()

    def save_chunk(self, index: int, result: BatchSolveResult,
                   quarantine: list[dict] | None = None) -> None:
        """Persist one completed chunk and journal it durably."""
        file = save_result(self.chunk_file(index), result)
        self.chunks[index] = {"file": file.name,
                              "quarantine": quarantine or []}
        self._write()

    def load_chunk(self, index: int) -> tuple[BatchSolveResult, list[dict]]:
        """Reload a completed chunk's result and quarantine entries.

        A corrupt or truncated chunk archive raises
        :class:`~repro.errors.ResilienceError` naming the file: delete
        it (the journal entry is then ignored by :meth:`has_chunk`) and
        re-run the campaign to re-execute just that chunk.
        """
        if index not in self.chunks:
            raise ResilienceError(
                f"journal {self.path} has no chunk {index}")
        file = self.chunk_file(index)
        try:
            result, _ = load_result(file)
        except (FormatError, OSError, EOFError,
                zipfile.BadZipFile) as error:
            raise ResilienceError(
                f"chunk archive {file} is corrupt or truncated "
                f"({error}); delete {file.name} and re-run the campaign "
                f"to re-execute chunk {index}") from None
        return result, list(self.chunks[index].get("quarantine", []))

    # -- free-form payloads ---------------------------------------------

    def set_payload(self, key: str, value: dict) -> None:
        self.payloads[key] = value
        self._write()

    def get_payload(self, key: str) -> dict | None:
        return self.payloads.get(key)

    # -- cleanup ---------------------------------------------------------

    def cleanup(self) -> None:
        """Delete the journal and every chunk archive it references."""
        for index in list(self.chunks):
            file = self.chunk_file(index)
            if file.is_file():
                file.unlink()
        if self.path.is_file():
            self.path.unlink()
        self.chunks.clear()
        self.payloads.clear()
