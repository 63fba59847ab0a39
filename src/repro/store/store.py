"""Directory-backed, content-addressed store of executed experiment cells.

Layout
------
::

    <store_dir>/
        index.json            # key -> display metadata (rebuildable cache)
        cells/<key>.json      # one schema-versioned record per executed cell
        cells/<key>.npz       # optional rounds sidecar (see below)
        quarantine/           # corrupted payloads, moved aside by get()/gc()
        artifacts.json        # provenance ledger (see repro.store.artifacts)
        shard/                # lease files + execution log (repro.store.shard)

Each payload record carries::

    {
      "schema": 1,
      "key": "<sha256 of the canonical cell dict>",
      "config": {...},        # the config as submitted (incl. name/engine)
      "result": {...},        # CellResult.to_dict()
      "provenance": {seed, engine (resolved), elapsed_s, package_version,
                     git_sha, created_at},
      "integrity": {"algo": "sha256", "sha256": "<hash of the record body>"}
    }

The payload files are the source of truth: ``contains``/``get`` go straight
to ``cells/<key>.json`` and ``index.json`` is a regenerable convenience for
``repro-consensus store ls``.  All writes are atomic (temp file +
``os.replace``), so a sweep killed mid-write never leaves a half-record — at
worst the interrupted cell is re-executed on resume.  A payload that fails to
parse (or lacks its required fields) is *quarantined*: moved into
``quarantine/`` and treated as a cache miss, never deleted silently.

Integrity verification happens on **read**, not just during ``gc``:
``put`` stamps every record with a sha256 over its canonical body, and
``get`` recomputes it (after the schema check — an intact record from
another version is a *miss*, never corruption).  A mismatch — bit rot, a
torn write that still parses, a hand-edited payload — quarantines the
payload (and its sidecar) with one :class:`StoreIntegrityWarning`, and the
cell is recomputed transparently by the next coordinated run.  Records
written before the integrity field existed verify by parse/shape alone.

NPZ rounds sidecars
-------------------
JSON lists of per-run rounds are fine at R ≤ a few thousand, but at large R
they dominate payload size and parse time.  A store constructed with
``rounds_sidecar_at=R0`` moves the ``rounds`` array of any result with
``len(rounds) >= R0`` into a compressed sidecar ``cells/<key>.npz`` (array
name ``"rounds"``, float64 — the dtype the engines emit, so the round trip
is bit-exact).  The JSON payload stays the canonical record: its ``result``
keeps an empty ``rounds`` list plus a ``rounds_ref`` block
``{"format": "npz", "file": "<key>.npz", "sha256": ..., "count": R}``, and
the content-addressed *key* is a hash of the cell config alone, so sidecars
never affect addressing.  Readers always honor ``rounds_ref`` regardless of
their own threshold; a payload whose sidecar is missing or corrupt is
quarantined together with whatever is left of the sidecar, and ``gc``
additionally sweeps *orphaned* sidecars (no payload references them) into
quarantine.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.results import CellResult
from repro.io.serialization import from_jsonable, to_jsonable
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.robustness import StoreIntegrityWarning
from repro.robustness.faults import fault_point
from repro.store.hashing import cell_key, short_key

__all__ = ["STORE_SCHEMA_VERSION", "StoreRecord", "ResultStore"]

#: Version of the on-disk payload record format.  Bump on incompatible
#: changes; ``get`` treats records with a different version as misses and
#: ``gc(drop_schema_mismatch=True)`` clears them out.
STORE_SCHEMA_VERSION = 1


@dataclass
class StoreRecord:
    """One stored cell: its key, config, result and execution provenance."""

    key: str
    config: Dict[str, Any]
    result: CellResult
    provenance: Dict[str, Any] = field(default_factory=dict)
    schema: int = STORE_SCHEMA_VERSION


def _atomic_write_json(path: Path, payload: Any,
                       seam: Optional[str] = None) -> None:
    text = json.dumps(to_jsonable(payload), indent=2, allow_nan=False)
    if seam is not None:
        # fault seam: ``raise``/``delay`` apply here; ``torn-write`` models a
        # non-atomic writer (crash between write and fsync) by letting the
        # truncated text reach the canonical file — read-time verification
        # must catch it
        spec = fault_point(seam, path=str(path))
        if spec is not None and spec.shape == "torn-write":
            text = text[:max(1, len(text) // 2)]
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _integrity_digest(jsonable_record: Dict[str, Any]) -> str:
    """sha256 over the canonical dump of a record body (sans ``integrity``)."""
    return hashlib.sha256(
        json.dumps(jsonable_record, sort_keys=True, separators=(",", ":"),
                   allow_nan=False).encode()).hexdigest()


class ResultStore:
    """Content-addressed persistence of :class:`CellResult` records.

    Parameters
    ----------
    root:
        Store directory (created on first use).
    rounds_sidecar_at:
        When set, results with at least this many per-run rounds are written
        with an NPZ rounds sidecar instead of an inline JSON list (see the
        module docstring).  Reading honors sidecars regardless of this value.
    """

    def __init__(self, root: str | Path,
                 rounds_sidecar_at: Optional[int] = None) -> None:
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.quarantine_dir = self.root / "quarantine"
        self.index_path = self.root / "index.json"
        self.rounds_sidecar_at = rounds_sidecar_at
        self.cells_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # key plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(config: ExperimentConfig) -> str:
        """The store key of a cell (see :mod:`repro.store.hashing`)."""
        return cell_key(config)

    def _payload_path(self, key: str) -> Path:
        return self.cells_dir / f"{key}.json"

    def _sidecar_path(self, key: str) -> Path:
        return self.cells_dir / f"{key}.npz"

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #
    def contains(self, config_or_key: ExperimentConfig | str) -> bool:
        """Whether a *loadable* record exists for the given cell/key.

        Equivalent to ``get(...) is not None`` (including the quarantining of
        corrupted payloads), so skip-if-exists orchestration built on
        ``contains`` never skips a cell it cannot actually read back.
        """
        return self.get(config_or_key) is not None

    def put(self, config: ExperimentConfig, result: CellResult,
            provenance: Optional[Dict[str, Any]] = None) -> str:
        """Persist one executed cell; returns its key.

        An existing record under the same key is overwritten (the content
        hash guarantees it described the same cell).
        """
        key = self.key_for(config)
        result_dict = result.to_dict()
        sidecar = self._sidecar_path(key)
        use_sidecar = (self.rounds_sidecar_at is not None
                       and len(result.rounds) >= self.rounds_sidecar_at)
        if use_sidecar:
            # sidecar first, payload second: a crash in between leaves an
            # orphaned .npz (gc sweeps those), never a dangling reference
            tmp = sidecar.with_name(sidecar.name + ".tmp")
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh, rounds=np.asarray(result.rounds, dtype=np.float64))
            data = tmp.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            # fault seam: a torn sidecar keeps the payload's reference hash
            # of the *intended* bytes, so the mismatch is detectable on read
            spec = fault_point("store.sidecar_write", key=key)
            if spec is not None and spec.shape == "torn-write":
                tmp.write_bytes(data[:max(1, len(data) // 2)])
            os.replace(tmp, sidecar)
            result_dict["rounds"] = []
            result_dict["rounds_ref"] = {
                "format": "npz",
                "file": sidecar.name,
                "sha256": digest,
                "count": len(result.rounds),
            }
        record = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            "config": config.to_dict(),
            "result": result_dict,
            "provenance": dict(provenance or {}),
        }
        record["integrity"] = {"algo": "sha256",
                               "sha256": _integrity_digest(to_jsonable(record))}
        # the payload is the source of truth; the display index is refreshed
        # lazily by ls_rows()/gc(), keeping this per-cell hot path O(1)
        _atomic_write_json(self._payload_path(key), record,
                           seam="store.payload_write")
        if not use_sidecar and sidecar.exists():
            sidecar.unlink()   # overwrite dropped the reference: no orphan
        obs_metrics.count("store.put")
        return key

    def delete(self, key: str) -> bool:
        """Drop a stored cell (payload and sidecar) — the ``--rerun`` escape
        hatch; ``True`` iff a payload was removed."""
        payload = self._payload_path(key)
        removed = payload.exists()
        payload.unlink(missing_ok=True)
        # payload first: a crash in between leaves an orphaned sidecar (gc
        # sweeps those), never a payload referencing a missing one
        self._sidecar_path(key).unlink(missing_ok=True)
        return removed

    def get(self, config_or_key: ExperimentConfig | str) -> Optional[StoreRecord]:
        """Load a record, or ``None`` on miss / schema mismatch / corruption.

        Every read verifies the record: JSON parse, the ``integrity`` sha256
        stamped by :meth:`put` (checked *after* the schema gate, so intact
        records from other versions stay plain misses), and the sidecar hash
        when a ``rounds_ref`` is present.  A payload that fails any check is
        moved to ``quarantine/`` (preserved for inspection) with one
        :class:`StoreIntegrityWarning` and reported as a miss — the cell is
        recomputed transparently by the next coordinated run.
        """
        key = (config_or_key if isinstance(config_or_key, str)
               else self.key_for(config_or_key))
        path = self._payload_path(key)
        if not path.exists():
            obs_metrics.count("store.get.miss")
            return None
        try:
            raw = self._load_verified(path)
            if raw is None:
                obs_metrics.count("store.get.miss")
                return None   # written by another version: a miss, not damage
            self._attach_sidecar_rounds(raw, key)
            obs_metrics.count("store.get.hit")
            return StoreRecord(
                key=raw["key"],
                config=dict(raw["config"]),
                result=CellResult.from_dict(raw["result"]),
                provenance=dict(raw.get("provenance", {})),
                schema=int(raw["schema"]),
            )
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError,
                ValueError) as exc:
            self._quarantine(path)
            sidecar = self._sidecar_path(key)
            if sidecar.exists():
                self._quarantine(sidecar)   # keep the pair inspectable together
            message = (f"store entry {short_key(key)} failed verification and "
                       f"was quarantined ({exc}); the cell will be recomputed")
            warnings.warn(message, StoreIntegrityWarning, stacklevel=2)
            obs_trace.warning_event("StoreIntegrityWarning", message, cell=key)
            obs_metrics.count("store.quarantine")
            obs_metrics.count("store.get.miss")
            return None

    def _load_verified(self, path: Path) -> Optional[Dict[str, Any]]:
        """Parse + verify one payload; ``None`` = stale miss, raise = damage.

        The order matters: the schema gate runs on the parsed body *before*
        the integrity hash is checked, so records written under another
        schema version — intact data this process simply cannot serve — are
        misses, while a body that no longer matches its own stamp (bit rot,
        torn write, hand edit) raises ``ValueError`` into the quarantine
        path.  Pre-integrity records (no ``integrity`` field) verify by
        parse/shape alone.
        """
        parsed = json.loads(path.read_text())
        integrity = parsed.pop("integrity", None)
        if not self._schema_compatible(parsed):
            return None
        if integrity is not None:
            recorded = (integrity.get("sha256")
                        if isinstance(integrity, dict) else None)
            if _integrity_digest(parsed) != recorded:
                raise ValueError("payload body does not match its integrity "
                                 "sha256")
        return from_jsonable(parsed)

    def _attach_sidecar_rounds(self, raw: Dict[str, Any], key: str) -> None:
        """Inline a payload's sidecar rounds; raise ``ValueError`` on damage.

        A payload without a ``rounds_ref`` is returned untouched.  A missing,
        unreadable or hash-mismatched sidecar raises, which the callers treat
        exactly like payload corruption (quarantine both files, report a
        miss).
        """
        result = raw.get("result")
        ref = result.get("rounds_ref") if isinstance(result, dict) else None
        if ref is None:
            return
        sidecar = self._sidecar_path(key)
        if not sidecar.exists():
            raise ValueError(f"rounds sidecar {sidecar.name} is missing")
        data = sidecar.read_bytes()
        expected = ref.get("sha256")
        if expected and hashlib.sha256(data).hexdigest() != expected:
            raise ValueError(f"rounds sidecar {sidecar.name} hash mismatch")
        try:
            import io as _io

            with np.load(_io.BytesIO(data)) as npz:
                rounds = np.asarray(npz["rounds"], dtype=np.float64)
        except Exception as exc:   # zipfile/format errors: damaged sidecar
            raise ValueError(f"rounds sidecar {sidecar.name} unreadable: "
                             f"{exc}") from exc
        if "count" in ref and int(ref["count"]) != rounds.shape[0]:
            raise ValueError(f"rounds sidecar {sidecar.name} has "
                             f"{rounds.shape[0]} rounds, payload says "
                             f"{ref['count']}")
        result["rounds"] = [float(r) for r in rounds]

    @staticmethod
    def _schema_compatible(raw: Any) -> bool:
        """Whether a parsed payload was written under schemas we can read.

        Covers both the record envelope (:data:`STORE_SCHEMA_VERSION`) and
        the embedded result dict (:data:`RESULT_SCHEMA_VERSION`): a record
        from a newer package version is intact data, so it must be treated
        as a plain miss — never quarantined as corruption.

        Also rejects (as stale, not corrupt) pre-backend-unification pooled
        records — marked ``extra: {"parallel": true}`` — which carried
        aggregate metrics only (no per-run rounds).  Serving them as hits
        would make a warm report differ from a cold serial run depending on
        which backend happened to populate the store; recomputing them once
        upgrades the store in place.  ``gc --drop-schema-mismatch`` clears
        them out.
        """
        from repro.experiments.results import RESULT_SCHEMA_VERSION

        if raw.get("schema") != STORE_SCHEMA_VERSION:
            return False
        result = raw.get("result")
        if not isinstance(result, dict):
            raise ValueError("payload has no result dict")
        if int(result.get("schema", 1)) > RESULT_SCHEMA_VERSION:
            return False
        extra = result.get("extra")
        return not (isinstance(extra, dict) and extra.get("parallel"))

    def keys(self) -> List[str]:
        """Keys of every payload currently on disk (valid or not)."""
        return sorted(p.stem for p in self.cells_dir.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    # ------------------------------------------------------------------ #
    # quarantine & garbage collection
    # ------------------------------------------------------------------ #
    def _quarantine(self, path: Path) -> Path:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = self.quarantine_dir / path.name
        counter = 0
        while dest.exists():
            counter += 1
            dest = self.quarantine_dir / f"{path.name}.{counter}"
        os.replace(path, dest)
        return dest

    def gc(self, drop_schema_mismatch: bool = False,
           drop_quarantine: bool = False) -> Dict[str, int]:
        """Validate every payload (and sidecar) and rebuild the index.

        Corrupted payloads are quarantined (together with their sidecars);
        sidecars no valid payload references are *orphans* and are swept into
        quarantine too; artifact-ledger records whose input cells no longer
        load are flagged (see
        :meth:`repro.store.artifacts.ArtifactRegistry.flag_dangling`).
        ``drop_schema_mismatch`` deletes records written under a different
        :data:`STORE_SCHEMA_VERSION`; ``drop_quarantine`` empties the
        quarantine directory.  Returns counts of what was kept / quarantined /
        dropped / orphaned / dangling.
        """
        kept = quarantined = dropped = orphan_sidecars = 0
        valid_keys: set = set()
        referenced_sidecars: set = set()
        for path in sorted(self.cells_dir.glob("*.json")):
            key = path.stem
            try:
                raw = self._load_verified(path)
                if raw is None:
                    # intact record from another version: stale, not corrupt
                    stale = from_jsonable(json.loads(path.read_text()))
                    if drop_schema_mismatch:
                        path.unlink()
                        dropped += 1
                    elif isinstance(stale.get("result"), dict) and \
                            stale["result"].get("rounds_ref"):
                        referenced_sidecars.add(key)   # keep its sidecar too
                    continue
                self._attach_sidecar_rounds(raw, key)
                CellResult.from_dict(raw["result"])   # validates the payload
                kept += 1
                valid_keys.add(key)
                if raw["result"].get("rounds_ref"):
                    referenced_sidecars.add(key)
            except (json.JSONDecodeError, AttributeError, KeyError, TypeError,
                    ValueError):
                self._quarantine(path)
                sidecar = self._sidecar_path(key)
                if sidecar.exists():
                    self._quarantine(sidecar)
                quarantined += 1
        for sidecar in sorted(self.cells_dir.glob("*.npz")):
            if sidecar.stem not in referenced_sidecars:
                self._quarantine(sidecar)
                orphan_sidecars += 1
        if drop_quarantine and self.quarantine_dir.exists():
            for path in self.quarantine_dir.iterdir():
                path.unlink()
                dropped += 1
        dangling_artifacts = self._flag_dangling_artifacts(valid_keys)
        self.rebuild_index()
        return {"kept": kept, "quarantined": quarantined, "dropped": dropped,
                "orphan_sidecars": orphan_sidecars,
                "dangling_artifacts": dangling_artifacts}

    def _flag_dangling_artifacts(self, valid_keys: set) -> int:
        """Flag ledger entries whose input cells no longer load (see gc)."""
        from repro.store.artifacts import ArtifactRegistry

        ledger = self.root / "artifacts.json"
        if not ledger.exists():
            return 0
        return ArtifactRegistry(ledger).flag_dangling(valid_keys)

    # ------------------------------------------------------------------ #
    # index (display metadata; rebuildable from the payloads)
    # ------------------------------------------------------------------ #
    def _load_index(self) -> Dict[str, Any]:
        if not self.index_path.exists():
            return {"schema": STORE_SCHEMA_VERSION, "entries": {}}
        try:
            index = json.loads(self.index_path.read_text())
            if not isinstance(index.get("entries"), dict):
                raise ValueError("malformed index")
            return index
        except (json.JSONDecodeError, ValueError):
            return self.rebuild_index()

    @staticmethod
    def _index_entry(config: Dict[str, Any],
                     provenance: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "name": config.get("name", ""),
            "workload": config.get("workload", ""),
            "n": int(config.get("workload_params", {}).get("n", 0)),
            "rule": config.get("rule", ""),
            "adversary": config.get("adversary", ""),
            "T": config.get("adversary_budget", 0),
            "runs": config.get("num_runs", 0),
            "engine": provenance.get("engine", config.get("engine", "")),
            "kernel": provenance.get("multinomial_kernel", ""),
            "created_at": provenance.get("created_at", ""),
        }

    def rebuild_index(self) -> Dict[str, Any]:
        """Regenerate ``index.json`` by scanning the payload directory."""
        fault_point("store.index_rebuild", root=str(self.root))
        entries: Dict[str, Any] = {}
        for path in sorted(self.cells_dir.glob("*.json")):
            try:
                raw = from_jsonable(json.loads(path.read_text()))
                entries[path.stem] = self._index_entry(
                    dict(raw.get("config", {})), dict(raw.get("provenance", {})))
            except (json.JSONDecodeError, AttributeError, TypeError, ValueError):
                continue   # gc() handles quarantining; the index just skips it
        index = {"schema": STORE_SCHEMA_VERSION, "entries": entries}
        _atomic_write_json(self.index_path, index)
        return index

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def ls_rows(self) -> List[Dict[str, Any]]:
        """Index entries as display rows for ``repro-consensus store ls``.

        The index is refreshed here when it lags the payload directory
        (``put`` deliberately does not touch it — see :meth:`put`).
        """
        index = self._load_index()
        on_disk = set(self.keys())
        if not on_disk <= set(index["entries"]):
            index = self.rebuild_index()
        rows = []
        for key, entry in sorted(index["entries"].items()):
            if key not in on_disk:
                continue
            rows.append({"key": short_key(key), **entry})
        return rows

    def info(self) -> Dict[str, Any]:
        """Aggregate store facts for ``repro-consensus store info``."""
        keys = self.keys()
        size = sum(p.stat().st_size for p in self.cells_dir.glob("*.json"))
        sidecars = list(self.cells_dir.glob("*.npz"))
        n_quarantined = (len(list(self.quarantine_dir.iterdir()))
                         if self.quarantine_dir.exists() else 0)
        # which multinomial kernels produced the cached cells (cell *keys*
        # are kernel-independent; the bit streams are not, so attribution
        # lives in provenance and is surfaced here)
        kernels: Dict[str, int] = {}
        for row in self.ls_rows():
            label = row.get("kernel") or "unrecorded"
            kernels[label] = kernels.get(label, 0) + 1
        info = {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "entries": len(keys),
            "payload_bytes": size,
            "sidecars": len(sidecars),
            "sidecar_bytes": sum(p.stat().st_size for p in sidecars),
            "quarantined": n_quarantined,
            "multinomial_kernels": ", ".join(
                f"{k}={v}" for k, v in sorted(kernels.items())) or "none",
        }
        info.update(self._trace_info())
        return info

    def _trace_info(self) -> Dict[str, Any]:
        """Aggregate telemetry facts when the store carries a trace directory.

        ``sweep --trace`` defaults its trace directory to ``<store>/obs``,
        so ``store info`` is the natural place to surface the merged
        counters of the last traced run(s).  Empty dict when no trace
        exists — the historical ``info()`` shape is unchanged for untraced
        stores.
        """
        trace_dir = self.root / "obs"
        if not trace_dir.is_dir():
            return {}
        from repro.obs.export import merge_trace

        merged = merge_trace(trace_dir)
        summary = merged.summary()
        return {
            "trace_files": summary["files"],
            "trace_lines": summary["lines"],
            "trace_torn_lines": summary["torn_lines"],
            "trace_processes": summary["processes"],
            "trace_warnings": summary["warnings"],
            "trace_counters": ", ".join(
                f"{name}={value:g}"
                for name, value in sorted(merged.counters.items())) or "none",
        }
