"""HTTP lease coordinator: the shard protocol served over the wire.

The shard backend (:mod:`repro.store.shard`) gives exactly-once cells,
stale-lease reclaim and crash-safe workers — but only over a *shared
filesystem*, which caps the fleet at one host.  This module serves the same
protocol over plain HTTP so workers on **disjoint filesystems** coordinate
through canonical cell hashes:

* :class:`CoordinatorServer` — a stdlib ``http.server`` front end over one
  real :class:`~repro.store.store.ResultStore` plus one real server-side
  :class:`~repro.store.shard.LeaseManager`.  Every lease rule (atomic
  ``O_CREAT | O_EXCL`` create, failure markers, stale reclaim, the
  append-only ``shard/executions.jsonl`` ledger) stays **one
  implementation**: the server runs the lease manager's
  :meth:`~repro.store.shard.LeaseManager.claim` and
  :meth:`~repro.store.shard.LeaseManager.complete` on behalf of remote
  callers, writing their full identity (worker, pid, host, nonce) into the
  lease files and ledger lines.  Staleness of a remote worker's lease falls
  to the mtime-age TTL (its host differs from the server's), with the
  future-mtime clamp of :meth:`LeaseManager._age_stale` guarding against
  skewed client clocks.
* :class:`CoordinatorClient` — a thin ``urllib`` JSON transport with a
  budgeted retry loop.  Connection-level failures raise
  :class:`CoordinatorError`, a ``ConnectionError`` subclass, so the retry
  policy's name-based classifier files them as *transient* and the shard
  worker loop leaves the affected cell pending instead of dying — a
  coordinator outage stalls the fleet, it does not kill it.
* :class:`CoordinatorStore` — duck-types the ``ResultStore`` surface the
  runner and workers touch (``key_for`` / ``get`` / ``get_many`` / ``put``
  / ``contains`` / ``delete``), so
  :class:`~repro.store.runner.CachedSweepRunner` and
  :class:`~repro.store.shard.ShardWorker` run unchanged against a URL.
  ``get_many`` is one request for a whole batch of cells.  ``put`` uploads
  the full ``CellResult`` (rounds inline on the wire); the *server's*
  sidecar policy decides whether rounds land as NPZ sidecars on its disk,
  and reads return sidecar rounds re-inlined — payload *and* sidecar
  round-trip without the worker ever seeing the store directory.
* :class:`HttpLeaseClient` — the lease surface a shard worker uses
  (claim / complete / release / mark-failed / clear-failures), one request
  per call, carrying the worker's full identity so ownership comparisons
  behave exactly as on a shared filesystem.
* :class:`HttpBackend` — ``backend="http"``: the shard fleet loop
  (:class:`~repro.store.shard.ShardBackend`) with spawned worker processes
  whose store and leases all live behind a coordinator URL.

A computed cell costs two requests: ``POST /api/v1/lease/acquire`` (the
claim) and ``PUT /api/v1/cells/<key>`` carrying the worker's identity (the
complete).  A sweep's partition, its failure-marker clear and each worker
pass's payload read are one request each.

Exactly-once across retried requests: the lease acquire inside a claim is
decided by the server's ``O_EXCL`` create, so a *retried* claim whose first
attempt won (but whose acknowledgement was lost) finds the caller's own
abandoned lease, releases it (ownership-checked) and acquires afresh.  A
retried complete overwrites the same payload, its ledger line is
deduplicated server-side by ``(key, worker)``, and its release is
ownership-checked, so a lost acknowledgement cannot double-book a compute;
a genuine same-worker recompute (quarantined payload) is *under*-counted,
the ledger's documented safe direction.
"""

from __future__ import annotations

import errno
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.results import CellResult
from repro.io.serialization import from_jsonable, to_jsonable
from repro.obs import metrics as obs_metrics
from repro.robustness.faults import InjectedFault
from repro.robustness.retry import Deadline, RetryPolicy
from repro.store.hashing import cell_key
from repro.store.shard import (
    DEFAULT_POLL_INTERVAL,
    DEFAULT_STALE_AFTER,
    Claim,
    LeaseManager,
    ShardBackend,
    ShardWorker,
    worker_identity,
)
from repro.store.store import STORE_SCHEMA_VERSION, ResultStore, StoreRecord

__all__ = ["CoordinatorServer", "CoordinatorClient", "CoordinatorError",
           "CoordinatorStore", "HttpLeaseClient", "HttpBackend",
           "DEFAULT_COORDINATOR_ADDR", "DEFAULT_TRANSPORT_RETRY"]

#: Default serve address for ``sweep --serve`` (loopback, fixed port so the
#: quickstart's attach commands can be typed without reading the serve log).
DEFAULT_COORDINATOR_ADDR = "127.0.0.1:8765"

#: Transport-level retry budget for one coordinator request.  Deliberately
#: small: the shard worker loop above it already re-polls pending cells, so
#: the transport only needs to ride out sub-second blips — longer outages
#: surface as a pending cell the loop retries on its own schedule.
DEFAULT_TRANSPORT_RETRY = RetryPolicy(max_attempts=4, base_delay_s=0.05,
                                      max_delay_s=0.5)

_API = "/api/v1"


class CoordinatorError(ConnectionError):
    """A coordinator request failed at the transport level.

    Subclasses ``ConnectionError`` (hence ``OSError``) on purpose: the
    name-based :func:`~repro.robustness.retry.classify_error` files it as
    transient, and the shard worker loop's ``except (InjectedFault,
    OSError)`` keeps the affected cell *pending* instead of crashing the
    worker — budgeted client retries plus the poll loop ride out a
    coordinator outage.
    """


# ---------------------------------------------------------------------- #
# server
# ---------------------------------------------------------------------- #
class _CoordinatorHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference to its coordinator."""

    daemon_threads = True
    # lets a restarted coordinator bind the same address while a dying
    # predecessor's last connections drain (no-op before Python 3.11)
    allow_reuse_port = True
    coordinator: "CoordinatorServer"


class _Handler(BaseHTTPRequestHandler):
    """JSON route handler; all state lives on ``server.coordinator``.

    Deliberately one request per connection (the HTTP/1.0 default): a
    keep-alive handler thread parked on a drained connection would hold
    its socket — and therefore the port — long after ``stop()``, making a
    same-address coordinator restart fail with ``EADDRINUSE``.
    """

    # -- plumbing ------------------------------------------------------- #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass   # quiet: telemetry goes through repro.obs, not stderr

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        body = self.rfile.read(length)
        try:
            parsed = from_jsonable(json.loads(body))
        except (json.JSONDecodeError, ValueError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(parsed, dict):
            raise ValueError("request body must be a JSON object")
        return parsed

    def _send_json(self, code: int, payload: Any) -> None:
        body = json.dumps(to_jsonable(payload), allow_nan=False).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        try:
            code, payload = self.server.coordinator.handle(
                method, self.path, self._read_json() if method != "GET"
                else {})
        except (KeyError, ValueError, TypeError) as exc:
            code, payload = 400, {"error": f"{type(exc).__name__}: {exc}"}
        except (InjectedFault, OSError) as exc:
            # transient server-side trouble (injected fault, disk hiccup):
            # 503 tells the budgeted client transport to retry
            code, payload = 503, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:   # noqa: BLE001 — the server must survive
            code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            self._send_json(code, payload)
        except OSError:
            pass   # client went away mid-response; its transport retries

    def do_GET(self) -> None:      # noqa: N802 — BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:     # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:      # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:   # noqa: N802
        self._dispatch("DELETE")


class CoordinatorServer:
    """Serve one :class:`ResultStore` + lease protocol over HTTP.

    The store and the :class:`LeaseManager` are the *real* single-host
    implementations — the server is a transport, not a re-implementation,
    so lease semantics cannot drift between local and fleet execution.
    ``ThreadingHTTPServer`` handles each request on its own thread; every
    lease operation is already atomic at the filesystem level (``O_EXCL``
    create, ``flock`` reclaim mutex, ``O_APPEND`` ledger writes), so
    concurrent requests serialize exactly like concurrent local workers.

    Usable as a context manager::

        with CoordinatorServer(store_dir) as server:
            ...  # server.url is live

    or started/stopped explicitly (``start()`` runs ``serve_forever`` on a
    daemon thread; ``serve_forever()`` blocks for CLI use).
    """

    def __init__(self, store: "ResultStore | str | Path",
                 host: str = "127.0.0.1", port: int = 0,
                 stale_after: float = DEFAULT_STALE_AFTER,
                 bind_grace_s: float = 5.0) -> None:
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.leases = LeaseManager(store.root, stale_after=stale_after,
                                   store=store)
        # a coordinator restarted on its predecessor's fixed address may
        # race the predecessor's draining connections: retry the bind for
        # a short grace window instead of failing the whole fleet
        deadline = time.monotonic() + (bind_grace_s if port else 0.0)
        while True:
            try:
                self._httpd = _CoordinatorHTTPServer((host, int(port)),
                                                     _Handler)
                break
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE \
                        or time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)
        self._httpd.coordinator = self
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------ #
    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "CoordinatorServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-coordinator", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "CoordinatorServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- routing -------------------------------------------------------- #
    def handle(self, method: str, path: str,
               body: Dict[str, Any]) -> "tuple[int, Any]":
        """Dispatch one request; returns ``(status, jsonable payload)``."""
        obs_metrics.count("coordinator.requests")
        if not path.startswith(_API + "/"):
            return 404, {"error": f"unknown path {path!r}"}
        parts = path[len(_API) + 1:].rstrip("/").split("/")
        if parts == ["ping"] and method == "GET":
            return 200, {"ok": True, "store": str(self.store.root),
                         "worker": self.leases.worker}
        if parts == ["cells"] and method == "POST":
            # the batched read: one record (or null) per requested key
            records = self.store.get_many([str(k) for k in body["keys"]])
            return 200, {"records": [None if r is None else _record_to_wire(r)
                                     for r in records]}
        if parts[0] == "cells" and len(parts) == 2:
            return self._handle_cell(method, parts[1], body)
        if parts[0] == "lease" and len(parts) == 2 and method == "POST":
            return self._handle_lease(parts[1], body)
        return 404, {"error": f"no route for {method} {path}"}

    def _handle_cell(self, method: str, key: str,
                     body: Dict[str, Any]) -> "tuple[int, Any]":
        if method == "PUT":
            config = ExperimentConfig.from_dict(dict(body["config"]))
            if self.store.key_for(config) != key:
                raise ValueError(f"config hashes to "
                                 f"{self.store.key_for(config)}, "
                                 f"not the addressed key {key}")
            result = CellResult.from_dict(dict(body["result"]))
            provenance = dict(body.get("provenance") or {})
            if "identity" not in body:
                return 200, {"key": self.store.put(config, result, provenance)}
            # a worker's complete: payload, ledger line and lease release
            # in one request, deduplicated against retried deliveries
            released = self.leases.complete(
                config, key, result, provenance,
                identity=dict(body["identity"]), dedup=True)
            return 200, {"key": key, "released": released}
        if method == "DELETE":
            return 200, {"removed": self.store.delete(key)}
        return 405, {"error": f"cells: unsupported method {method}"}

    def _handle_lease(self, op: str,
                      body: Dict[str, Any]) -> "tuple[int, Any]":
        if op == "clear-failures":
            keys = [str(k) for k in body["keys"]]
            return 200, {"cleared": self.leases.clear_failures(keys)}
        key = str(body["key"])
        if op == "acquire":
            claim = self.leases.claim(
                key, start=bool(body["start"]),
                max_attempts=int(body["max_attempts"]),
                identity=dict(body["identity"]))
            return 200, {"state": claim.state,
                         "record": None if claim.record is None
                         else _record_to_wire(claim.record),
                         "marker": claim.marker,
                         "prior_attempts": claim.prior_attempts}
        if op == "release":
            self.leases.release(key, worker=str(body["worker"]))
            return 200, {"released": True}
        if op == "mark-failed":
            self.leases.mark_failed(
                key, str(body.get("cell", "")), str(body.get("error", "")),
                attempts=int(body.get("attempts", 1)),
                kind=body.get("kind"), identity=dict(body["identity"]))
            return 200, {"marked": True}
        return 404, {"error": f"lease: unknown operation {op!r}"}


def _record_to_wire(record: StoreRecord) -> Dict[str, Any]:
    # sidecar rounds were re-inlined by store.get: the wire payload is
    # always the complete result
    return {"key": record.key, "schema": record.schema,
            "config": record.config, "result": record.result.to_dict(),
            "provenance": record.provenance}


def _record_from_wire(raw: Dict[str, Any]) -> StoreRecord:
    return StoreRecord(
        key=str(raw["key"]),
        config=dict(raw["config"]),
        result=CellResult.from_dict(dict(raw["result"])),
        provenance=dict(raw.get("provenance") or {}),
        schema=int(raw.get("schema", STORE_SCHEMA_VERSION)),
    )


def _cell_body(config: ExperimentConfig, result: CellResult,
               provenance: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``PUT /cells/<key>`` body of one computed cell."""
    return {"config": config.to_dict(), "result": result.to_dict(),
            "provenance": dict(provenance or {})}


# ---------------------------------------------------------------------- #
# client transport
# ---------------------------------------------------------------------- #
class CoordinatorClient:
    """Budgeted JSON-over-HTTP transport to one coordinator.

    ``request`` retries transport failures (connection refused/reset,
    timeouts, 5xx) under ``retry`` with the policy's deterministic jittered
    backoff, then raises :class:`CoordinatorError` — transient by
    classification, so callers above (the worker loop) keep the cell
    pending.  A 404 returns ``None`` (the miss encoding); a 4xx raises
    ``ValueError`` (permanent: a protocol bug, not weather).
    """

    def __init__(self, base_url: str, timeout: float = 10.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retry = retry or DEFAULT_TRANSPORT_RETRY

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None) -> Optional[Any]:
        attempts = 0
        while True:
            attempts += 1
            try:
                return self._once(method, path, payload)
            except CoordinatorError:
                if attempts >= self.retry.max_attempts:
                    obs_metrics.count("coordinator.errors")
                    raise
                obs_metrics.count("coordinator.retries")
                time.sleep(self.retry.backoff_s(attempts, token=path))

    def _once(self, method: str, path: str,
              payload: Optional[Dict[str, Any]]) -> Optional[Any]:
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(to_jsonable(payload), allow_nan=False).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(self.base_url + path, data=data,
                                     method=method, headers=headers)
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:
            detail = self._error_detail(exc)
            if exc.code == 404:
                return None
            if 400 <= exc.code < 500:
                raise ValueError(f"coordinator rejected {method} {path}: "
                                 f"{detail}") from exc
            raise CoordinatorError(f"coordinator {method} {path} -> "
                                   f"{exc.code}: {detail}") from exc
        except (urllib.error.URLError, ConnectionError, TimeoutError,
                socket.timeout, OSError) as exc:
            raise CoordinatorError(f"coordinator unreachable "
                                   f"({method} {self.base_url}{path}): "
                                   f"{exc}") from exc
        finally:
            obs_metrics.observe("coordinator.request_s",
                                time.perf_counter() - t0)
        return from_jsonable(json.loads(body)) if body else {}

    @staticmethod
    def _error_detail(exc: urllib.error.HTTPError) -> str:
        try:
            parsed = json.loads(exc.read())
            return str(parsed.get("error", parsed))
        except Exception:   # noqa: BLE001 — detail is best-effort
            return str(exc)


# ---------------------------------------------------------------------- #
# store + lease surfaces over the transport
# ---------------------------------------------------------------------- #
class CoordinatorStore:
    """The ``ResultStore`` surface the runner/workers touch, over HTTP.

    Reads go through one batched request (``get`` is a batch of one), whose
    misses come back as ``None``; ``put`` uploads config + result +
    provenance and lets the *server's* sidecar policy place the rounds.
    ``root`` is the coordinator URL so runner messages and artifact
    registration read sensibly.
    """

    def __init__(self, client: "CoordinatorClient | str") -> None:
        if isinstance(client, str):
            client = CoordinatorClient(client)
        self.client = client

    @property
    def root(self) -> str:
        return self.client.base_url

    @staticmethod
    def key_for(config: ExperimentConfig) -> str:
        return cell_key(config)

    def get(self, config_or_key: "ExperimentConfig | str"
            ) -> Optional[StoreRecord]:
        return self.get_many([config_or_key])[0]

    def get_many(self, configs_or_keys: "Iterable[ExperimentConfig | str]"
                 ) -> List[Optional[StoreRecord]]:
        """Every requested cell's record (or ``None``), in one request."""
        keys = [item if isinstance(item, str) else self.key_for(item)
                for item in configs_or_keys]
        out = self.client.request("POST", f"{_API}/cells", {"keys": keys})
        return [None if raw is None else _record_from_wire(raw)
                for raw in out["records"]]

    def put(self, config: ExperimentConfig, result: CellResult,
            provenance: Optional[Dict[str, Any]] = None) -> str:
        key = self.key_for(config)
        self.client.request("PUT", f"{_API}/cells/{key}",
                            _cell_body(config, result, provenance))
        return key

    def contains(self, config_or_key: "ExperimentConfig | str") -> bool:
        return self.get(config_or_key) is not None

    def delete(self, key: str) -> bool:
        """Drop a payload server-side (the ``--rerun`` escape hatch)."""
        out = self.client.request("DELETE", f"{_API}/cells/{key}")
        return bool(out and out.get("removed"))


class HttpLeaseClient:
    """A shard worker's lease surface, forwarded to a coordinator.

    :meth:`claim` and :meth:`complete` are the server's
    :meth:`LeaseManager.claim` / :meth:`LeaseManager.complete`, one request
    each, made with this worker's *full* identity (worker, pid, host,
    nonce) so the server-side lease files and ledger lines record the true
    remote owner.  Staleness and reclaim are evaluated server-side, where
    the lease files (and the reclaim ``flock`` mutex) live.
    """

    def __init__(self, client: "CoordinatorClient | str",
                 worker: Optional[str] = None) -> None:
        if isinstance(client, str):
            client = CoordinatorClient(client)
        self.client = client
        self.worker = worker or worker_identity()

    identity = LeaseManager.identity

    def claim(self, key: str, start: bool = True,
              max_attempts: int = 1) -> Claim:
        out = self.client.request("POST", f"{_API}/lease/acquire", {
            "key": key, "start": bool(start),
            "max_attempts": int(max_attempts), "identity": self.identity()})
        return Claim(str(out["state"]),
                     record=None if out["record"] is None
                     else _record_from_wire(out["record"]),
                     marker=out["marker"],
                     prior_attempts=int(out["prior_attempts"]))

    def complete(self, cell: ExperimentConfig, key: str, result: CellResult,
                 provenance: Dict[str, Any]) -> bool:
        out = self.client.request("PUT", f"{_API}/cells/{key}", {
            **_cell_body(cell, result, provenance),
            "identity": self.identity()})
        return bool(out["released"])

    def release(self, key: str) -> None:
        self.client.request("POST", f"{_API}/lease/release",
                            {"key": key, "worker": self.worker})

    def mark_failed(self, key: str, cell_name: str, error: str,
                    attempts: int = 1, kind: Optional[str] = None) -> None:
        self.client.request("POST", f"{_API}/lease/mark-failed", {
            "key": key, "cell": cell_name, "error": error,
            "attempts": int(attempts), "kind": kind,
            "identity": self.identity()})

    def clear_failures(self, keys: "Iterable[str]") -> int:
        out = self.client.request("POST", f"{_API}/lease/clear-failures",
                                  {"keys": list(keys)})
        return int(out["cleared"])


# ---------------------------------------------------------------------- #
# the http execution backend
# ---------------------------------------------------------------------- #
class HttpBackend(ShardBackend):
    """The ``http`` execution backend: a worker fleet over a coordinator.

    The shard fleet loop (see :class:`~repro.store.shard.ShardBackend` for
    ``workers``; ``0`` is the CLI ``--worker --coordinator URL`` attach
    mode) — except every store and lease operation travels through the
    coordinator, so the workers need no access to the store directory at
    all.  An unreachable coordinator at startup degrades to pool execution
    (results are computed but not persisted — the store-unwritable rung of
    the ladder absorbs the failed puts).
    """

    name = "http"
    rung = "http-to-pool"
    # spawn, not fork: forked children would inherit the coordinator's
    # listening socket fd, keeping a zombie listener alive after a server
    # restart (SO_REUSEPORT then load-balances connects onto it and they
    # hang).  spawn also matches the semantics being modelled — workers on
    # disjoint machines share no process state.
    start_method = "spawn"

    def __init__(self, coordinator: str, workers: Optional[int] = None,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 timeout: float = 10.0) -> None:
        super().__init__(workers, poll_interval=poll_interval)
        self.coordinator = coordinator.rstrip("/")
        self.timeout = float(timeout)

    def connect(self, store: Any) -> HttpLeaseClient:
        client = CoordinatorClient(self.coordinator, timeout=self.timeout)
        client.request("GET", f"{_API}/ping")
        return HttpLeaseClient(client)

    def unavailable(self, store: Any, exc: OSError) -> str:
        return (f"http backend: coordinator {self.coordinator} unreachable "
                f"({exc}); degrading to pool execution")

    def worker(self, store: Any, worker: str, retry: RetryPolicy,
               deadline: Optional[Deadline]) -> ShardWorker:
        client = CoordinatorClient(self.coordinator, timeout=self.timeout)
        return ShardWorker(CoordinatorStore(client),
                           poll_interval=self.poll_interval, retry=retry,
                           deadline=deadline,
                           leases=HttpLeaseClient(client, worker=worker),
                           backend_label=self.name)
