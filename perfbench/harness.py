"""Shared pieces of the benchmark: import path, statistics, provenance,
reference outcomes and the output check.

Nothing here imports the program at module load, so the statistics and
the request generators can be tested without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

#: Repository root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: The five built-in whitespace strategies.
STRATEGIES = ("default", "eri", "hw", "hybrid", "gradient")

#: The paper's Figure-6 overhead grid.
PAPER_OVERHEADS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)

#: Every overhead the benchmark may request: the paper grid plus midpoints,
#: so ``serve_mixed`` has enough never-asked points for its misses.
ALL_OVERHEADS = tuple(round(0.05 + 0.025 * step, 3) for step in range(15))

#: Relative tolerance on the thermal and timing figures of an outcome.
#: Batched multi-RHS lanes differ from single solves by <= 6e-16 relative,
#: and STA runs at the solved peak temperature, so 1e-9 leaves ample room
#: while any real change of behaviour is far larger.
REL_TOL = 1e-9

#: Fields that must match the reference exactly.
EXACT_FIELDS = ("inserted_rows", "num_fillers", "actual_overhead")

#: Fields compared with :data:`REL_TOL`.
TOLERANT_FIELDS = ("temperature_reduction", "peak_rise", "timing_overhead")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def use_repo_source() -> None:
    """Put ``<root>/src`` first on ``sys.path`` so ``import repro`` finds
    the checkout's package; exit with status 2 when it is missing."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no program source at {package.parent}", file=sys.stderr)
        raise SystemExit(2)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# -- statistics --------------------------------------------------------------


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of a non-empty sample."""
    if not samples:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summarize_timing(samples: Sequence[float]) -> Dict[str, float]:
    """Median plus every tail percentile backed by at least ten samples.

    A percentile ``p`` is reported only when ``n * (1 - p)`` samples lie
    beyond it, so p90 needs 100 samples and p99 needs 1000; the sample
    count is always part of the result.
    """
    summary: Dict[str, float] = {"count": len(samples)}
    if not samples:
        return summary
    summary["p50"] = quantile(samples, 0.5)
    for name, q in (("p90", 0.90), ("p99", 0.99), ("p999", 0.999)):
        if len(samples) * (1.0 - q) >= 10.0 - 1e-9:
            summary[name] = quantile(samples, q)
    return summary


def overlaps(interval: Sequence[float], busy: Sequence[Sequence[float]]) -> bool:
    """Whether the ``(start, end)`` interval overlaps any ``busy`` one."""
    start, end = interval
    return any(start < busy_end and busy_start < end for busy_start, busy_end in busy)


# -- provenance --------------------------------------------------------------


def _git_sha(root: Path) -> Optional[str]:
    """HEAD of ``root/.git`` read from disk, or ``None`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest(root: Path = ROOT) -> str:
    """SHA-256 over the program's Python sources (identifies a checkout
    that is not a git clone)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, extra: Optional[Mapping] = None) -> Dict:
    """Machine, library and source facts recorded in every result file."""
    import numpy
    import scipy

    facts = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(ROOT),
        "source_digest": source_digest(),
    }
    facts.update(extra or {})
    return facts


# -- reference outcomes ------------------------------------------------------


def point_key(workload: str, strategy: str, overhead: float) -> str:
    """Reference-table key of one grid point."""
    return f"{workload}|{strategy}|{overhead!r}"


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, Dict]:
    """The reference outcomes, keyed by :func:`point_key`."""
    return json.loads(path.read_text())["points"]


def outcome_fields(outcome) -> Dict[str, object]:
    """The checked fields of a ``StrategyOutcome``."""
    return {
        name: getattr(outcome, name) for name in EXACT_FIELDS + TOLERANT_FIELDS
    }


def check_outcome(reference: Mapping[str, Dict], workload: str, outcome) -> List[str]:
    """Differences between one outcome and its reference (empty when equal)."""
    key = point_key(workload, outcome.strategy, outcome.requested_overhead)
    expected = reference.get(key)
    if expected is None:
        return [f"{key}: no reference outcome"]
    problems = []
    got = outcome_fields(outcome)
    for name in EXACT_FIELDS:
        if got[name] != expected[name]:
            problems.append(f"{key}: {name} {got[name]!r} != {expected[name]!r}")
    for name in TOLERANT_FIELDS:
        want, have = expected[name], got[name]
        if want is None or have is None:
            if want is not have:
                problems.append(f"{key}: {name} {have!r} != {want!r}")
        elif abs(have - want) > REL_TOL * max(abs(want), 1e-12):
            problems.append(f"{key}: {name} {have!r} differs from {want!r}")
    return problems
