"""Run manifest, fresh-interpreter import timings and the digest registry."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

IMPORT_CLI = "import ldpvec.cli"


def _python_env(root: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def setup_seconds(root: Path, times: int, clock, tally) -> list[float]:
    """Times by ``clock`` of ``times`` fresh interpreters that import the CLI module."""
    out = []
    for _ in range(times):
        _, seconds, problems = clock(
            lambda: subprocess.run([sys.executable, "-c", IMPORT_CLI], cwd=root, env=_python_env(root), check=True)
        )
        tally.record("fresh interpreter imports the CLI", problems)
        out.append(seconds)
    return out


def import_seconds(root: Path, modules: tuple[str, ...], times: int) -> dict[str, float]:
    """Median cumulative import time per module, from ``python -X importtime``.

    The CLI is imported first, so a module it imports is timed as part of
    the CLI's start-up; a module it does not import is timed on its own.
    """
    samples: dict[str, list[float]] = {m: [] for m in modules}
    for _ in range(times):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import " + ", ".join(modules)],
            cwd=root, env=_python_env(root), check=True, capture_output=True, text=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        for module in modules:
            samples[module].append(cumulative[module])
    return {m: statistics.median(v) for m, v in samples.items()}


def source_digest(root: Path, bench_dir: Path) -> str:
    """sha256 over the program's and the benchmark's source files."""
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted(bench_dir.glob("*.py")) + [bench_dir / "reference.json"]
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cache_sizes() -> dict[str, str]:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        out = ""
    sizes = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if "cache" in key.lower():
            sizes[key.strip()] = value.strip()
    if not sizes:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind = _read(index / "level").strip(), _read(index / "type").strip()
            sizes[f"L{level} {kind}"] = _read(index / "size").strip()
    return sizes


def manifest(root: Path, bench_dir: Path, workload: str, seed: int) -> dict:
    git_rev = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_rev = proc.stdout.strip() or None
    model = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    mem = re.search(r"^MemTotal:\s*(\d+) kB", _read("/proc/meminfo"), re.M)
    return {
        "git_revision": git_rev,
        "source_sha256": source_digest(root, bench_dir),
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1).strip() if model else platform.processor(),
        "caches": _cache_sizes(),
        "mem_total_mb": int(mem.group(1)) // 1024 if mem else None,
    }


def check_registry(path: Path, key: str, digests: dict[str, str]) -> list[str]:
    """Compare this run's digests with earlier runs of the same code and seed, then store them."""
    registry = json.loads(path.read_text()) if path.exists() else {}
    known = registry.setdefault(key, {})
    problems = [
        f"digest of {name} differs from an earlier run of the same code and seed"
        for name, value in digests.items()
        if known.setdefault(name, value) != value
    ]
    path.write_text(json.dumps(registry, indent=1, sort_keys=True))
    return problems
