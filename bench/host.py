"""Host description: cache geometry, CPUs and NUMA nodes, and the
fingerprint recorded with every result."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

SYS_CPU = Path("/sys/devices/system/cpu")


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cache_geometry(cpu: int = 0) -> list[dict]:
    """The cache levels ``cpu`` sees, as listed under /sys."""
    out = []
    for index in sorted(glob.glob(str(SYS_CPU / f"cpu{cpu}" / "cache" / "index*"))):
        d = Path(index)
        try:
            out.append({
                "level": int((d / "level").read_text()),
                "type": (d / "type").read_text().strip(),
                "bytes": _size_bytes((d / "size").read_text()),
                "shared_cpus": (d / "shared_cpu_list").read_text().strip(),
            })
        except (OSError, ValueError):
            continue
    return out


def level_bytes(geometry: list[dict]) -> dict[str, int]:
    """Bytes of the L1 data, L2 and L3 caches; raises KeyError if one is
    not listed."""
    found = {}
    for c in geometry:
        if c["type"] in ("Data", "Unified") and 1 <= c["level"] <= 3:
            found[f"L{c['level']}"] = c["bytes"]
    return {lv: found[lv] for lv in ("L1", "L2", "L3")}


def cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def numa_nodes(cpu_ids) -> dict[int, int]:
    """NUMA node of each CPU (0 where /sys does not say)."""
    nodes = {}
    for c in cpu_ids:
        found = glob.glob(str(SYS_CPU / f"cpu{c}" / "node[0-9]*"))
        nodes[c] = int(Path(found[0]).name[4:]) if found else 0
    return nodes


def _first_line(cmd: list[str], cwd=None, env=None) -> str:
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=20, cwd=cwd,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    text = (res.stdout or res.stderr).strip().splitlines()
    return text[0] if res.returncode == 0 and text else "unavailable"


def source_digest(root: Path) -> str:
    """sha256 over the program's source tree, which names the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = root / "src"
    for p in sorted(src.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        thp = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text().strip()
    except OSError:
        thp = "unavailable"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "unavailable"
    return {
        # Only a repository at the checkout's root counts, not one above it.
        "git_commit": _first_line(["git", "rev-parse", "HEAD"], cwd=root,
                                  env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))),
        "source_sha256": source_digest(root),
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": cache_geometry(),
        "thp": thp,
        "kernel": platform.release(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "gcc": _first_line(["gcc", "--version"]),
    }
