"""Artifact provenance: register derived outputs against their inputs.

Figure tables and saved sweep reports (``sweep --json/--csv``) are
*derived* artifacts: their numbers are a function of (a) the experiment cells
they were computed from and (b) the code revision that computed them.  This
module makes that function explicit:

* :func:`build_provenance` returns the standard provenance block — git SHA
  (+ a ``dirty`` flag), package version, timestamp, and the store keys of the
  cells the artifact was derived from — which producers can embed in the
  artifact itself.
* :class:`ArtifactRegistry` is an append-mostly JSON ledger
  (``artifacts.json``, by default inside a :class:`~repro.store.store.ResultStore`
  directory) mapping each registered artifact file to its provenance and a
  content hash, so every registered output can be traced back to the exact
  configs and revision that produced it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.io.serialization import from_jsonable, to_jsonable
from repro.robustness.faults import maybe_torn

__all__ = ["git_sha", "git_dirty", "build_provenance", "ArtifactRegistry"]


@lru_cache(maxsize=None)
def _git(cwd: str, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", *args], cwd=cwd or None,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def git_sha(cwd: str | Path | None = None) -> Optional[str]:
    """HEAD commit SHA of the repo containing ``cwd``, or ``None``."""
    return _git(str(cwd or os.getcwd()), "rev-parse", "HEAD")


def git_dirty(cwd: str | Path | None = None) -> Optional[bool]:
    """Whether the working tree has uncommitted changes (``None``: no repo)."""
    status = _git(str(cwd or os.getcwd()), "status", "--porcelain")
    return None if status is None else bool(status)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def build_provenance(cell_keys: Union[Mapping[str, str], Iterable[str], None] = None,
                     extra: Optional[Dict[str, Any]] = None,
                     cwd: str | Path | None = None) -> Dict[str, Any]:
    """The standard provenance block embedded in derived artifacts.

    ``cell_keys`` may be a mapping (display label → store key) or a flat
    iterable of keys; both land under ``"cell_keys"`` unchanged in shape.
    """
    from repro import __version__

    if cell_keys is None:
        keys: Any = {}
    elif isinstance(cell_keys, Mapping):
        keys = dict(cell_keys)
    else:
        keys = list(cell_keys)
    provenance: Dict[str, Any] = {
        "git_sha": git_sha(cwd),
        "git_dirty": git_dirty(cwd),
        "package_version": __version__,
        "created_at": _utcnow(),
        "cell_keys": keys,
    }
    if extra:
        provenance.update(extra)
    return provenance


class ArtifactRegistry:
    """A JSON ledger of derived artifacts and the store keys behind them."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def records(self) -> List[Dict[str, Any]]:
        if not self.path.exists():
            return []
        try:
            data = from_jsonable(json.loads(self.path.read_text()))
            return list(data.get("artifacts", []))
        except (json.JSONDecodeError, AttributeError, TypeError, ValueError):
            return []

    def register(self, artifact_path: str | Path, kind: str,
                 cell_keys: Union[Mapping[str, str], Iterable[str], None] = None,
                 extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Append (or refresh) the ledger entry for one artifact file.

        Re-registering the same path replaces its previous entry, so the
        ledger tracks the latest generation of each artifact.
        """
        artifact_path = Path(artifact_path)
        try:   # ledger-relative paths keep the ledger portable/committable
            display = artifact_path.resolve().relative_to(
                self.path.resolve().parent)
        except ValueError:
            display = artifact_path
        record = {
            "path": str(display),
            "kind": kind,
            "sha256": (hashlib.sha256(artifact_path.read_bytes()).hexdigest()
                       if artifact_path.exists() else None),
            "provenance": build_provenance(cell_keys, extra=extra),
        }
        records = [r for r in self.records() if r.get("path") != record["path"]]
        records.append(record)
        self._write(records)
        return record

    def _write(self, records: List[Dict[str, Any]]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": 1, "artifacts": records}
        text = json.dumps(to_jsonable(payload), indent=2, allow_nan=False) + "\n"
        # fault seam: a torn ledger write must be tolerated by records()
        text = maybe_torn("store.artifact_write", text, path=str(self.path))
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, self.path)

    @staticmethod
    def _record_cell_keys(record: Mapping[str, Any]) -> List[str]:
        keys = record.get("provenance", {}).get("cell_keys", {})
        return list(keys.values()) if isinstance(keys, Mapping) else list(keys)

    def flag_dangling(self, valid_keys: Iterable[str]) -> int:
        """Flag records whose input cells are gone; return how many dangle.

        ``repro-consensus store gc`` calls this after validating payloads: an
        artifact derived from cells that were since dropped or quarantined
        can no longer be traced back to live data, so its ledger entry gains
        a ``dangling_cell_keys`` list (the missing keys).  The flag is
        recomputed on every pass — an entry whose cells come back (e.g. the
        sweep was re-run) is unflagged again.  Flagging is deliberately
        non-destructive: the record itself still documents what the artifact
        *was* derived from.
        """
        valid = set(valid_keys)
        records = self.records()
        flagged = 0
        changed = False
        for record in records:
            dangling = sorted(k for k in self._record_cell_keys(record)
                              if k not in valid)
            if dangling:
                flagged += 1
                if record.get("dangling_cell_keys") != dangling:
                    record["dangling_cell_keys"] = dangling
                    changed = True
            elif "dangling_cell_keys" in record:
                del record["dangling_cell_keys"]
                changed = True
        if changed:
            self._write(records)
        return flagged
