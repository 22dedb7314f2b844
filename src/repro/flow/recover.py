"""Crash-consistent store auditing and repair (``repro fsck``).

A hard kill (``kill -9``, OOM) can interrupt the artifact and result
stores at exactly one seam: between staging a ``.tmp.*`` blob and the
atomic ``os.replace`` that publishes it.  That seam cannot corrupt a
*published* entry — readers always see the old blob or the new one — but
the stale temp files left behind accumulate forever.  Damaged entries
(torn by the filesystem itself, bit-flipped, truncated) are a second
category: the read path already self-heals them on access, but an audit
should find them *before* a campaign trips over them.

Two entry points:

* :func:`fsck_store` — the operator-grade auditor behind ``repro fsck``.
  Scans one store root for temp debris, entries whose key does not parse,
  and (unless disabled) blobs whose SHA-256 fails verification.  With
  ``repair=True`` debris is deleted and damaged entries are quarantined
  atomically under ``<root>/.quarantine/``.  The tool assumes the store is
  quiesced — temp files are treated as garbage regardless of age.
* :func:`recover_store` — the fast startup pass :class:`~repro.flow.runner.Campaign`
  and the serve daemon run before touching a store.  It must be safe
  against *live* peers sharing the store, so it only removes temp files
  whose writer process is verifiably gone; blob payloads are not verified
  (corrupt entries self-heal on first read).

The on-disk layout, and the one walker that classifies store files as
entries or staging files, live in :mod:`repro.flow.store`; this module
holds only the audit and repair policy on top of them.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from .store import (
    QUARANTINE_DIR,
    BlobIntegrityError,
    is_store_key,
    iter_store_files,
    read_blob,
    tmp_writer_pid,
)

logger = logging.getLogger(__name__)


@dataclass
class FsckReport:
    """What one :func:`fsck_store` (or :func:`recover_store`) pass found.

    Path lists hold everything *found*; ``num_repaired`` counts how many
    of them were actually deleted or quarantined (0 on a check-only run).
    """

    root: Path
    entries_checked: int = 0
    stale_tmp: List[Path] = field(default_factory=list)
    corrupt_blobs: List[Path] = field(default_factory=list)
    bad_keys: List[Path] = field(default_factory=list)
    num_repaired: int = 0
    repair_errors: int = 0

    @property
    def num_problems(self) -> int:
        return len(self.stale_tmp) + len(self.corrupt_blobs) + len(self.bad_keys)

    @property
    def clean(self) -> bool:
        """True when the scan found nothing wrong."""
        return self.num_problems == 0

    def summary(self) -> str:
        """One human line: what was found, and what was done about it."""
        if self.clean:
            return (
                f"{self.root}: clean "
                f"({self.entries_checked} entr{'y' if self.entries_checked == 1 else 'ies'} verified)"
            )
        parts = []
        if self.stale_tmp:
            parts.append(f"{len(self.stale_tmp)} stale tmp file(s)")
        if self.corrupt_blobs:
            parts.append(f"{len(self.corrupt_blobs)} corrupt blob(s)")
        if self.bad_keys:
            parts.append(f"{len(self.bad_keys)} unparseable key(s)")
        action = (
            f"repaired {self.num_repaired}"
            if self.num_repaired
            else "not repaired (run with --repair)"
        )
        if self.repair_errors:
            action += f", {self.repair_errors} repair error(s)"
        return f"{self.root}: {', '.join(parts)} - {action}"


def _writer_alive(path: Path) -> Optional[bool]:
    """Whether the process that staged a ``.tmp.<pid>.<tid>`` file lives.

    Returns ``None`` when the name carries no parseable pid (treated as
    abandoned debris by callers that must stay conservative elsewhere).
    """
    pid = tmp_writer_pid(path)
    if pid is None:
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return None
    return True


def _remove(path: Path, report: FsckReport) -> None:
    try:
        path.unlink()
        report.num_repaired += 1
    except FileNotFoundError:
        report.num_repaired += 1  # a concurrent repair beat us to it
    except OSError as error:
        report.repair_errors += 1
        logger.warning("fsck: could not remove %s: %s", path, error)


def _quarantine(root: Path, path: Path, report: FsckReport) -> None:
    """Atomically move a damaged entry under ``<root>/.quarantine/``."""
    target_dir = root / QUARANTINE_DIR
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        if target.exists():
            target = target_dir / f"{path.name}.{int(time.time() * 1e6)}"
        os.replace(path, target)
        report.num_repaired += 1
    except OSError as error:
        report.repair_errors += 1
        logger.warning("fsck: could not quarantine %s: %s", path, error)


def fsck_store(
    root: Union[str, Path],
    repair: bool = False,
    verify_blobs: bool = True,
) -> FsckReport:
    """Audit (and optionally repair) one artifact- or result-store root.

    Finds, in one pass over the tree:

    * **Stale temp files** — ``.tmp.*`` staging files a crashed writer
      never published.  The store is assumed quiesced, so every one found
      is reported (and, with ``repair``, deleted).
    * **Corrupt blobs** — entries whose magic, SHA-256 or pickling fails
      (``verify_blobs=False`` skips the payload reads for very large
      stores).  Quarantined under ``<root>/.quarantine/`` so an operator
      can inspect them; a rerun then recomputes the affected points.
    * **Unparseable keys** — entry files whose stem is not a store key
      (e.g. a partially renamed file); quarantined likewise.

    Args:
        root: Store directory (missing roots report clean).
        repair: Actually delete/quarantine what the scan finds.
        verify_blobs: Read and checksum every entry payload.

    Returns:
        A :class:`FsckReport`; ``report.clean`` on a healthy store.
    """
    root = Path(root)
    report = FsckReport(root=root)
    if not root.exists():
        return report
    for path, kind in iter_store_files(root):
        if kind == "tmp":
            report.stale_tmp.append(path)
            if repair:
                _remove(path, report)
            continue
        if not is_store_key(path.stem):
            report.bad_keys.append(path)
            if repair:
                _quarantine(root, path, report)
            continue
        report.entries_checked += 1
        if not verify_blobs:
            continue
        try:
            read_blob(path)
        except OSError:
            continue  # vanished mid-scan (concurrent prune): not a fault
        except BlobIntegrityError:
            report.corrupt_blobs.append(path)
            if repair:
                _quarantine(root, path, report)
    return report


def recover_store(root: Union[str, Path]) -> FsckReport:
    """Fast startup recovery: clear a crashed predecessor's debris.

    Unlike :func:`fsck_store` this runs while *other* campaigns, shard
    workers or serve daemons may legitimately share the store, so it only
    removes ``.tmp.*`` files whose staging writer process no longer exists
    (the pid is part of the filename); files with a live or unverifiable
    writer are left alone.

    Blob payloads are not verified: a corrupt entry is evicted and
    recomputed by the read path the moment anything touches it.
    Everything removed is also recorded in the returned report's
    ``stale_tmp`` list.
    """
    root = Path(root)
    report = FsckReport(root=root)
    if not root.exists():
        return report
    for path, kind in iter_store_files(root):
        if kind == "tmp" and _writer_alive(path) is False:
            report.stale_tmp.append(path)
            _remove(path, report)
    return report


def recover_at_startup(root: Union[str, Path], owner: str) -> None:
    """:func:`recover_store` as a campaign or serve daemon runs it before
    touching its store: repairs are logged as warnings under ``owner``'s
    name, and a pass that fails with an ``OSError`` is logged, not raised
    (the read path still self-heals whatever it left behind)."""
    try:
        recovered = recover_store(root)
        if recovered.num_repaired:
            logger.warning(
                "%s: recovered result store %s (%s)", owner, root, recovered.summary()
            )
    except OSError as error:
        logger.warning("%s: store recovery pass failed: %s", owner, error)


__all__ = [
    "FsckReport",
    "fsck_store",
    "recover_at_startup",
    "recover_store",
]
