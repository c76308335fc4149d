"""Statistics, output digests and provenance shared by the benchmark scripts."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

# Percentiles offered as the tail of a timing distribution, in per mille
# (exact integers), highest last.
_TAIL_LADDER = (500, 900, 990, 999)


def median(values) -> float:
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return float(s[mid]) if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def trimmed_mean(values, cut: float = 0.2) -> float:
    """Mean after dropping the ``cut`` share of values (rounded down) at each end."""
    s = sorted(values)
    if not s:
        raise ValueError("trimmed mean of no values")
    k = int(len(s) * cut)
    kept = s[k:len(s) - k]
    return sum(kept) / len(kept)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """Highest ladder percentile with at least ``beyond`` of n samples above it.

    None when even the median has fewer than ``beyond`` samples beyond it.
    """
    best = None
    for per_mille in _TAIL_LADDER:
        if n * (1000 - per_mille) >= beyond * 1000:
            best = per_mille / 10
    return best


def summarize(values) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    values = list(values)
    out = {"n": len(values), "median": median(values) if values else 0.0,
           "tail_pct": 0.0, "tail": 0.0}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_pct"] = p
        out["tail"] = percentile(values, p)
    return out


def calibration_seconds() -> float:
    """Wall seconds of a fixed mix of interpreter and small-array numpy work.

    The mix resembles odlisim's own code but calls none of it, so its time
    tracks only how fast the host runs such code at that moment.
    """
    a = np.arange(4096, dtype=float).reshape(64, 64) / 4096.0
    b = np.linspace(0.0, 1.0, 4096)
    t0 = time.perf_counter()
    table, s = {}, 0.0
    for i in range(450_000):
        x = i * 0.5
        s += x if i & 1 else -x
        table[i & 1023] = s
    for _ in range(4_500):
        m = np.maximum(a, a.T)
        s += float(np.sum(m[:, 3] * 0.5)) + float(np.cumsum(b)[-1])
    return time.perf_counter() - t0


def tree_digests(directory: Path) -> dict[str, str]:
    """sha256 of every regular file directly under ``directory``, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(directory).iterdir()) if p.is_file()}


def digest_mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Names of files missing, unexpected, or whose digest differs."""
    return sorted(name for name in set(expected) | set(actual)
                  if expected.get(name) != actual.get(name))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def provenance(root: Path, numpy_version: str) -> dict:
    """Machine and source identity, so runs from different hosts never mix."""
    src = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        src.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
    }
