"""The flow's two persistent stores, their shared tiered core and on-disk format.

Both stores are a thread-safe in-memory LRU over an optional on-disk tier
of verified blobs, and share one implementation of it:

* :class:`ArtifactStore` — content-addressed stage artifacts for the
  staged :class:`~repro.flow.graph.FlowGraph`, addressed by
  ``(stage, key)`` where ``key`` is the stage's input content hash.
* :class:`ResultStore` — one :class:`~repro.flow.runner.CampaignRecord`
  per evaluated grid point, keyed by :func:`result_key` over everything
  the record depends on (the :func:`setup_digest` of the experiment
  baseline, the canonical strategy spec, the requested overhead, the
  *resolved* thermal-solver backend, the execution engine and whether
  timing was analysed).  Records are published as each point completes,
  so a repeated sweep recomputes nothing, an extended sweep computes only
  the new points, and an interrupted run resumes where it stopped.

The two differ only in where an entry lives on disk and in
:meth:`ResultStore.compute_if_missing`, which adds *cross-process*
single-flight via ``O_EXCL`` claim files so exactly one process computes
a missing point while the others wait and then hit.  Both count the same
:class:`StoreStats`.

On-disk format (shared, and owned by this module)::

    <root>/<stage>/<key>.art            artifact entry
    <root>/<key[:2]>/<key>.res          result entry
    <root>/<key[:2]>/<key>.lock         single-flight claim
    <entry path stem>.tmp.<pid>.<tid>   staging file of an unpublished write
    <root>/.quarantine/                 entries ``repro fsck`` set aside

An entry is ``magic + sha256(payload) + "\\n" + payload`` (a pickle),
published by an atomic rename, so a reader sees the old entry or the new
one and a damaged or truncated entry is detected, evicted and recomputed
— never deserialized blindly.  Disk writes are best-effort: a failed
write is logged and counted in ``write_errors`` and the value stays
served from memory.  :func:`iter_store_files` is the one walker that
classifies the files of either layout; :func:`scan_store` and
:func:`prune_store` (``repro cache``) and :mod:`repro.flow.recover`
(``repro fsck`` and startup recovery) all use it.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple, Union

from ..faults import InjectedFault, inject
from .artifacts import (
    FLOW_KEY_VERSION,
    hash_parts,
    netlist_digest,
    package_digest,
    placement_digest,
    power_digest,
    thermal_map_digest,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------

#: Entry header magic; the version participates so format changes
#: invalidate old entries instead of misparsing them.
_MAGIC = b"repro-artifact/1\n"

#: Filename suffix of artifact-store entries.
ARTIFACT_SUFFIX = ".art"

#: Filename suffix of result-store entries.
RESULT_SUFFIX = ".res"

_ENTRY_SUFFIXES = (ARTIFACT_SUFFIX, RESULT_SUFFIX)

#: Filename suffix of single-flight claim files.
CLAIM_SUFFIX = ".lock"

#: Marker of a staging file: ``<stem>.tmp.<pid>.<thread id>``.
_TMP_MARKER = ".tmp."

#: Directory (under the store root) damaged entries are quarantined into.
QUARANTINE_DIR = ".quarantine"

#: Length of a store key: :func:`~repro.flow.artifacts.hash_parts` is a
#: 16-byte blake2b, hex-encoded.
_KEY_HEX_LEN = 32

#: A single-flight claim older than this is considered abandoned (its
#: owner crashed without unlinking) and is broken by the next writer.
STALE_CLAIM_S = 600.0


class BlobIntegrityError(Exception):
    """An on-disk entry exists but its payload failed verification.

    Raised by :func:`read_blob` for truncated, bit-flipped or otherwise
    damaged entries — anything whose SHA-256 does not match its header, or
    that matches but does not deserialize.  Callers evict and recompute.
    """


def write_blob(path: Path, obj) -> None:
    """Atomically publish ``obj`` to ``path`` as a verified pickle blob.

    The blob is written to a process/thread-unique staging file and
    :func:`os.replace`\\ d into place — a concurrent reader sees the old
    entry or the new one, never a half-written file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    blob = _MAGIC + hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload
    tmp = path.with_suffix(f"{_TMP_MARKER}{os.getpid()}.{threading.get_ident()}")
    tmp.write_bytes(blob)
    # Crash seam: an injected ``kind="exit"`` here simulates a kill -9
    # between staging and publication — the ``.tmp.*`` debris left behind
    # is what ``repro fsck`` audits and repairs.
    inject("store.publish", {"path": path.name})
    os.replace(tmp, path)


def read_blob(path: Path):
    """Read and verify a blob written by :func:`write_blob`.

    Returns:
        The deserialized object.

    Raises:
        OSError: The entry does not exist (or cannot be read).
        BlobIntegrityError: The entry exists but fails the integrity check
            or does not unpickle.
    """
    blob = path.read_bytes()
    if not blob.startswith(_MAGIC):
        raise BlobIntegrityError(f"{path}: bad magic")
    header_end = len(_MAGIC) + 64 + 1
    expected = blob[len(_MAGIC):header_end - 1].decode("ascii", "replace")
    payload = blob[header_end:]
    if hashlib.sha256(payload).hexdigest() != expected:
        raise BlobIntegrityError(f"{path}: payload digest mismatch")
    try:
        return pickle.loads(payload)
    except Exception as error:
        # A payload that hashes correctly but does not deserialize (e.g.
        # written by an incompatible code version despite the magic) is
        # treated exactly like corruption.
        raise BlobIntegrityError(f"{path}: payload does not deserialize") from error


def is_store_key(text: str) -> bool:
    """Whether ``text`` (an entry's file stem) is a well-formed store key."""
    return len(text) == _KEY_HEX_LEN and all(c in "0123456789abcdef" for c in text)


def tmp_writer_pid(path: Path) -> Optional[int]:
    """The pid in a staging file's name, or ``None`` when it carries none."""
    _, marker, rest = path.name.partition(_TMP_MARKER)
    pid = rest.split(".")[0]
    return int(pid) if marker and pid.isdigit() else None


def iter_store_files(root: Path) -> Iterator[Tuple[Path, str]]:
    """Yield ``(path, kind)`` for every store file under ``root``, sorted.

    ``kind`` is ``"entry"`` (a published ``.art``/``.res`` blob),
    ``"claim"`` (a ``.lock`` single-flight claim) or ``"tmp"`` (a staging
    file).  The quarantine directory and foreign files (README drops,
    operator notes, ...) are skipped.
    """
    for path in sorted(root.rglob("*")):
        if QUARANTINE_DIR in path.relative_to(root).parts or not path.is_file():
            continue
        if path.suffix == CLAIM_SUFFIX:
            yield path, "claim"
        elif _TMP_MARKER in path.name:
            yield path, "tmp"
        elif path.suffix in _ENTRY_SUFFIXES:
            yield path, "entry"


# ---------------------------------------------------------------------------
# Result keys
# ---------------------------------------------------------------------------


def setup_digest(setup) -> str:
    """Content digest of everything an evaluation reads from its baseline.

    Covers the placed design (structure + coordinates), the per-cell power
    report, the baseline thermal map (both the outcome's reduction
    reference and the warm-start field), the package stack, the grid
    resolution, the baseline utilization and the timing reference the
    overhead is measured against.  Anything that could change a
    :class:`~repro.flow.experiment.StrategyOutcome` changes this digest.
    """
    return hash_parts(
        "setup",
        netlist_digest(setup.placement.netlist),
        placement_digest(setup.placement),
        power_digest(setup.power),
        thermal_map_digest(setup.thermal_map),
        package_digest(setup.package),
        setup.grid_nx,
        setup.grid_ny,
        setup.base_utilization,
        setup.timing.clock_period_ps,
        setup.timing.critical_path_ps,
    )


def result_key(
    setup_fingerprint: str,
    strategy_spec: str,
    overhead: float,
    method: str,
    engine: str,
    analyze_timing: bool,
) -> str:
    """The store key of one campaign point.

    Args:
        setup_fingerprint: :func:`setup_digest` of the experiment baseline.
        strategy_spec: *Canonical* strategy spec string (``"eri"``,
            ``"hw:ring_um=8.0"``) — canonicalise with
            :func:`~repro.core.resolve_strategy` first so spelling variants
            share an entry.
        overhead: Requested area-overhead fraction (hashed as raw IEEE-754
            bits, so hash-equal means bitwise-equal).
        method: *Resolved* thermal-solver backend (``"lu"`` or
            ``"multigrid"``, never ``"auto"``) — the two backends agree to
            tolerance, not bitwise, so they must not share records.
        engine: Active execution engine (``"compiled"``/``"reference"``).
        analyze_timing: Whether the record carries a timing overhead.
    """
    return hash_parts(
        FLOW_KEY_VERSION, "result",
        setup_fingerprint, strategy_spec, overhead, method, engine,
        analyze_timing,
    )


# ---------------------------------------------------------------------------
# Tiered store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoreStats:
    """Store counters at one point in time.

    Attributes:
        hits: Lookups answered from the store (memory or disk).
        misses: Lookups that found nothing usable.
        disk_hits: Subset of ``hits`` read (and verified) from disk.
        writes: Values inserted.
        corrupt_evictions: Disk entries evicted because their payload
            failed the integrity check, did not deserialize, or hit an
            injected ``store.read`` fault.
        single_flight_waits: ``compute_if_missing`` calls that waited on
            another process's computation instead of computing (always 0
            for an artifact store).
        memory_size: Entries currently held in memory.
        write_errors: Disk publications that failed (the value stayed in
            memory and the caller continued; durability only degrades).
    """

    hits: int
    misses: int
    disk_hits: int
    writes: int
    corrupt_evictions: int
    single_flight_waits: int
    memory_size: int
    write_errors: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for JSON metadata."""
        return {**asdict(self), "hit_rate": self.hit_rate}


class _TieredStore:
    """Memory LRU over an optional verified disk tier.

    Subclasses map an in-memory entry to its file with :meth:`_path`.
    Instances pickle by configuration (root + bound), not contents: a
    worker process that receives one attaches to the same on-disk tier
    with fresh counters.

    Args:
        root: Directory of the on-disk tier, created on first write;
            ``None`` keeps the store memory-only.
        maxsize: In-memory LRU bound (``None`` = unbounded, 0 = keep
            nothing in memory).
    """

    def __init__(
        self, root: Optional[Union[str, Path]] = None, maxsize: Optional[int] = None
    ) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError("maxsize must be None or >= 0")
        self.root = Path(root) if root is not None else None
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._memory: "OrderedDict[Hashable, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._writes = 0
        self._corrupt_evictions = 0
        self._single_flight_waits = 0
        self._write_errors = 0

    def __getstate__(self):
        return {"root": self.root, "maxsize": self.maxsize}

    def __setstate__(self, state):
        self.__init__(root=state["root"], maxsize=state["maxsize"])

    def _path(self, entry: Hashable) -> Path:
        raise NotImplementedError

    # -- lookup / publish ----------------------------------------------------

    def _get(self, entry: Hashable):
        with self._lock:
            cached = self._memory.get(entry)
            if cached is not None:
                self._hits += 1
                self._memory.move_to_end(entry)
                return cached
        if self.root is not None:
            value = self._read_disk(entry)
            if value is not None:
                self._adopt_disk_hit(entry, value)
                return value
        with self._lock:
            self._misses += 1
        return None

    def _put(self, entry: Hashable, value) -> None:
        with self._lock:
            self._writes += 1
            self._insert_memory(entry, value)
        if self.root is None:
            return
        path = self._path(entry)
        try:
            inject("store.write", {"key": path.stem})
            write_blob(path, value)
        except (OSError, InjectedFault) as error:
            with self._lock:
                self._write_errors += 1
            logger.warning(
                "%s: failed to persist %s (%r); kept in memory only",
                type(self).__name__, path, error,
            )

    def _insert_memory(self, entry: Hashable, value) -> None:
        """Insert under the held lock, enforcing the LRU bound."""
        if self.maxsize == 0:
            return
        self._memory[entry] = value
        self._memory.move_to_end(entry)
        while self.maxsize is not None and len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)

    def _adopt_disk_hit(self, entry: Hashable, value, waited: bool = False) -> None:
        with self._lock:
            self._hits += 1
            self._disk_hits += 1
            self._single_flight_waits += waited
            self._insert_memory(entry, value)

    def _read_disk(self, entry: Hashable):
        """The verified disk value of ``entry``; damaged entries are evicted."""
        path = self._path(entry)
        try:
            # An injected ``store.read`` fault models a damaged entry:
            # evicted and recomputed, exactly like an integrity failure.
            inject("store.read", {"key": path.stem})
            return read_blob(path)
        except OSError:
            return None
        except (BlobIntegrityError, InjectedFault):
            with self._lock:
                self._corrupt_evictions += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    # -- bookkeeping ---------------------------------------------------------

    def stats(self) -> StoreStats:
        """Snapshot of the store counters."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                disk_hits=self._disk_hits,
                writes=self._writes,
                corrupt_evictions=self._corrupt_evictions,
                single_flight_waits=self._single_flight_waits,
                memory_size=len(self._memory),
                write_errors=self._write_errors,
            )

    def clear_memory(self) -> None:
        """Drop the in-memory tier (disk entries and counters are kept)."""
        with self._lock:
            self._memory.clear()

    def shrink(self, max_entries: int) -> int:
        """Evict least-recently-used entries until at most ``max_entries``.

        The LRU shrink hook for the service tier's resource governor:
        under memory pressure it trims the memory tier without touching
        disk entries or ``maxsize`` (set ``maxsize=0`` separately to stop
        re-growth).  Returns the number of entries evicted.
        """
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        evicted = 0
        with self._lock:
            while len(self._memory) > max_entries:
                self._memory.popitem(last=False)
                evicted += 1
        return evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, entry: Hashable) -> bool:
        with self._lock:
            return entry in self._memory


class ArtifactStore(_TieredStore):
    """Content-addressed store of flow-stage artifacts (memory + optional disk).

    Entries are addressed by ``(stage, key)`` where ``key`` is the stage's
    input content hash; the store never interprets keys.  With ``root``
    every insert is also persisted to ``<root>/<stage>/<key>.art`` so
    later processes resume sweeps incrementally.
    """

    def _path(self, entry: Tuple[str, str]) -> Path:
        stage, key = entry
        return self.root / stage / f"{key}{ARTIFACT_SUFFIX}"

    def get(self, stage: str, key: str):
        """The stored artifact for ``(stage, key)``, or ``None`` on a miss."""
        return self._get((stage, key))

    def put(self, stage: str, key: str, artifact) -> None:
        """Insert an artifact (memory, and disk when configured)."""
        self._put((stage, key), artifact)


class ResultStore(_TieredStore):
    """Persistent, shareable store of evaluated campaign records.

    Layout: ``<root>/<key[:2]>/<key>.res`` — the two-character shard keeps
    directories small for million-record stores.  With ``root=None`` the
    store is memory-only (still single-flight across threads), which is
    what short-lived in-process campaigns use.  Threads, sharded worker
    processes and the ``repro serve`` daemon may share one root: writers
    racing on a key all publish the same content through atomic renames.
    """

    def __init__(
        self, root: Optional[Union[str, Path]] = None, maxsize: Optional[int] = None
    ) -> None:
        super().__init__(root, maxsize)
        self._inflight: Dict[str, threading.Lock] = {}

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{RESULT_SUFFIX}"

    def _claim_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{CLAIM_SUFFIX}"

    def get(self, key: str):
        """The stored record for ``key``, or ``None`` on a miss."""
        return self._get(key)

    def put(self, key: str, record) -> None:
        """Publish a record (memory, and disk when configured)."""
        self._put(key, record)

    # -- single-flight -------------------------------------------------------

    def compute_if_missing(
        self,
        key: str,
        compute: Callable[[], object],
        poll_s: float = 0.02,
        wait_timeout_s: float = 300.0,
    ) -> Tuple[object, bool]:
        """Return the record for ``key``, computing it at most once globally.

        Single-flight spans both threads (a per-key in-process lock) and
        processes (an ``O_CREAT | O_EXCL`` claim file next to the entry):
        the first caller to claim computes and publishes; everyone else
        polls until the entry appears and hits.  A claim left behind by a
        crashed owner goes stale after :data:`STALE_CLAIM_S` and is broken.

        Args:
            key: The result key.
            compute: Zero-argument callable producing the record.
            poll_s: Wait-side polling interval.
            wait_timeout_s: After this long waiting on another computer,
                give up and compute locally anyway (the claim holder may be
                livelocked); correctness is unaffected since both publish
                identical content.

        Returns:
            ``(record, computed)`` where ``computed`` says whether *this*
            call ran ``compute``.
        """
        record = self.get(key)
        if record is not None:
            return record, False

        with self._lock:
            thread_gate = self._inflight.setdefault(key, threading.Lock())
        try:
            with thread_gate:
                record = self.get(key)
                if record is not None:
                    return record, False
                if self.root is None:
                    record = compute()
                    self.put(key, record)
                    return record, True
                return self._compute_cross_process(
                    key, compute, poll_s, wait_timeout_s
                )
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    def _compute_cross_process(
        self,
        key: str,
        compute: Callable[[], object],
        poll_s: float,
        wait_timeout_s: float,
    ) -> Tuple[object, bool]:
        claim = self._claim_path(key)
        claim.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + wait_timeout_s
        waited = False
        while True:
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                # Someone else is computing: wait for their publication.
                waited = True
                record = self._read_disk(key)
                if record is not None:
                    self._adopt_disk_hit(key, record, waited=True)
                    return record, False
                try:
                    age = time.time() - claim.stat().st_mtime
                except OSError:
                    continue  # claim released between open and stat: retry
                if age > STALE_CLAIM_S:
                    try:
                        claim.unlink()
                    except OSError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    break  # claim holder livelocked: compute locally
                time.sleep(poll_s)
                continue
            # Claimed: we are the one computer for this key.
            os.close(fd)
            try:
                # Crash seam: an injected ``kind="exit"`` here simulates a
                # kill -9 between claiming and publishing — the orphaned
                # claim file is exactly what ``repro fsck`` must repair
                # (an ordinary raise still unlinks it in the finally).
                inject("store.claim", {"key": key})
                record = self._read_disk(key)
                if record is not None:
                    self._adopt_disk_hit(key, record, waited=waited)
                    return record, False
                record = compute()
                self.put(key, record)
                return record, True
            finally:
                try:
                    claim.unlink()
                except OSError:
                    pass
        record = compute()
        self.put(key, record)
        return record, True


# ---------------------------------------------------------------------------
# Disk usage & pruning (``repro cache``)
# ---------------------------------------------------------------------------


@dataclass
class StoreUsage:
    """Disk usage of one on-disk store.

    Attributes:
        root: The scanned directory.
        entries: Number of valid-looking entry files.
        total_bytes: Their cumulative size.
        by_group: ``group -> (entries, bytes)``; the group is the
            artifact-store stage directory (``synth``, ``thermal``, ...)
            or ``"results"`` for result-store shards.
        stray_files: Leftover ``.tmp.*`` / ``.lock`` files found (these are
            cleaned by :func:`prune_store`).
    """

    root: Path
    entries: int = 0
    total_bytes: int = 0
    by_group: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    stray_files: int = 0


@dataclass
class PruneReport:
    """What one :func:`prune_store` pass removed.

    Attributes:
        removed: Entry files deleted.
        freed_bytes: Bytes reclaimed (entries only).
        kept: Entry files remaining.
        strays_removed: Stale ``.tmp.*`` / ``.lock`` files deleted.
    """

    removed: int = 0
    freed_bytes: int = 0
    kept: int = 0
    strays_removed: int = 0


def _store_group(path: Path) -> str:
    """Display group of one entry: its stage directory, or ``results``."""
    return "results" if path.suffix == RESULT_SUFFIX else path.parent.name


def _walk(root: Path) -> Tuple[List[Tuple[Path, os.stat_result]], List[Path]]:
    """``(entries with their stat, stray claim/tmp files)`` under ``root``."""
    entries: List[Tuple[Path, os.stat_result]] = []
    strays: List[Path] = []
    for path, kind in iter_store_files(root):
        if kind != "entry":
            strays.append(path)
            continue
        try:
            entries.append((path, path.stat()))
        except OSError:
            continue
    return entries, strays


def scan_store(root: Union[str, Path]) -> StoreUsage:
    """Measure the disk usage of an artifact or result store."""
    root = Path(root)
    usage = StoreUsage(root=root)
    if not root.exists():
        return usage
    entries, strays = _walk(root)
    for path, stat in entries:
        usage.entries += 1
        usage.total_bytes += stat.st_size
        group = _store_group(path)
        count, size = usage.by_group.get(group, (0, 0))
        usage.by_group[group] = (count + 1, size + stat.st_size)
    usage.stray_files = len(strays)
    return usage


def prune_store(
    root: Union[str, Path],
    max_age_days: Optional[float] = None,
    max_size_mb: Optional[float] = None,
    now: Optional[float] = None,
    dry_run: bool = False,
    min_age_s: float = 60.0,
) -> PruneReport:
    """Prune an on-disk store by age and/or total size.

    Entries older than ``max_age_days`` are removed first; if the store is
    still larger than ``max_size_mb``, the oldest remaining entries (by
    mtime) go next until it fits.  Stale ``.tmp.*`` and ``.lock`` files
    older than :data:`STALE_CLAIM_S` are always cleaned up.  Pruning is
    safe against live stores: entries younger than ``min_age_s`` are never
    touched (so a blob a concurrent writer just published, or a claim it
    just took, cannot be deleted out from under it), and a concurrently
    re-inserted entry simply reappears on the next run's write.

    Args:
        root: Store directory.
        max_age_days: Remove entries older than this many days.
        max_size_mb: Shrink the store below this size (megabytes).
        now: Reference time (``time.time()`` when omitted; injectable for
            tests).
        dry_run: Report what would be removed without deleting anything.
        min_age_s: Live-writer guard — entries newer than this survive any
            age or size pressure.
    """
    root = Path(root)
    report = PruneReport()
    if not root.exists():
        return report
    reference = time.time() if now is None else now
    fresh_after = reference - min_age_s

    walked, strays = _walk(root)
    entries: List[Tuple[Path, float, int]] = [
        (path, stat.st_mtime, stat.st_size) for path, stat in walked
    ]
    entries.sort(key=lambda item: item[1])  # oldest first

    doomed: List[Tuple[Path, int]] = []
    survivors: List[Tuple[Path, float, int]] = []
    if max_age_days is not None:
        cutoff = reference - max_age_days * 86400.0
        for path, mtime, size in entries:
            if mtime < cutoff and mtime <= fresh_after:
                doomed.append((path, size))
            else:
                survivors.append((path, mtime, size))
    else:
        survivors = entries

    if max_size_mb is not None:
        budget = max_size_mb * 1024.0 * 1024.0
        total = sum(size for _path, _mtime, size in survivors)
        index = 0
        while total > budget and index < len(survivors):
            path, mtime, size = survivors[index]
            if mtime > fresh_after:
                # Oldest-first order: everything from here on is fresher
                # still, so nothing else is prunable under the guard.
                break
            doomed.append((path, size))
            total -= size
            index += 1
        survivors = survivors[index:]

    for path, size in doomed:
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue
        report.removed += 1
        report.freed_bytes += size
    report.kept = len(survivors)

    for path in strays:
        try:
            if reference - path.stat().st_mtime <= STALE_CLAIM_S:
                continue
        except OSError:
            continue
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue
        report.strays_removed += 1
    return report


__all__ = [
    "ArtifactStore",
    "ResultStore",
    "StoreStats",
    "setup_digest",
    "result_key",
    "scan_store",
    "prune_store",
    "StoreUsage",
    "PruneReport",
    "BlobIntegrityError",
    "write_blob",
    "read_blob",
    "iter_store_files",
    "ARTIFACT_SUFFIX",
    "RESULT_SUFFIX",
    "CLAIM_SUFFIX",
    "QUARANTINE_DIR",
    "STALE_CLAIM_S",
]
