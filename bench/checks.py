"""Output checks.  Each returns the number of result records it accepted
and raises :class:`CheckError` on the first wrong output.

CSV files are read with :mod:`csv` by column name, independently of
memchar's own reader, so a column added by a later schema still passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1e-9


class CheckError(Exception):
    pass


def read_rows(path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise CheckError(f"{Path(path).name}: {exc.strerror}") from None


def _num(row: dict, column: str, kind=float):
    try:
        value = kind(row[column])
    except KeyError:
        raise CheckError(f"missing column {column!r}") from None
    except (TypeError, ValueError):
        raise CheckError(f"column {column!r} holds {row.get(column)!r}") from None
    if kind is float and not math.isfinite(value):
        raise CheckError(f"column {column!r} is not finite: {value!r}")
    return value


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def check_latency(path, model, expected_rows: int, state: str, level: str, seed: int) -> int:
    """Each row's latency_cycles equals ``model.predict`` for its placement,
    state and level; one row per placement."""
    rows = read_rows(path)
    if len(rows) != expected_rows:
        raise CheckError(f"{len(rows)} rows for {expected_rows} placements")
    for i, row in enumerate(rows):
        requester = _num(row, "requester", int)
        owner = _num(row, "owner", int)
        home = _num(row, "home", int)
        if row.get("state") != state or row.get("level") != level:
            raise CheckError(f"row {i}: {row.get('state')}@{row.get('level')}, "
                             f"asked for {state}@{level}")
        if _num(row, "seed", int) != seed:
            raise CheckError(f"row {i}: seed {row['seed']}, asked for {seed}")
        expected = model.predict(requester, home, None if owner == requester else owner,
                                 state, level)
        got = _num(row, "latency_cycles")
        if got != expected:
            raise CheckError(f"row {i}: latency_cycles {got!r}, model predicts {expected!r}")
    return len(rows)


def check_record_relations(row: dict) -> None:
    """bytes_per_cycle = bytes_moved / elapsed_cycles and
    bandwidth_gbps = bytes_per_cycle * freq_mhz / 1000."""
    moved = _num(row, "bytes_moved", int)
    elapsed = _num(row, "elapsed_cycles")
    bpc = _num(row, "bytes_per_cycle")
    gbps = _num(row, "bandwidth_gbps")
    mhz = _num(row, "freq_mhz")
    if min(moved, elapsed, bpc, gbps, mhz) <= 0:
        raise CheckError("non-positive bandwidth quantity")
    if not _close(bpc * elapsed, moved):
        raise CheckError(f"bytes_per_cycle {bpc!r} x elapsed {elapsed!r} != bytes_moved {moved}")
    if not _close(gbps, bpc * mhz / 1000.0):
        raise CheckError(f"bandwidth_gbps {gbps!r} != bytes_per_cycle x MHz / 1000")


def _cores(row: dict) -> list[int]:
    try:
        return [int(c) for c in row["cores"].split(";") if c]
    except (KeyError, ValueError):
        raise CheckError(f"bad cores column {row.get('cores')!r}") from None


def level_ladder(caches: dict, level: str) -> list[int]:
    """Read-ladder dataset bytes: 1/4, 1/2, 1 and 2 times the level's
    capacity; 2 to 16 times the L3 domain for RAM."""
    l3 = int(caches["l3_mib"] * (1 << 20))
    if level == "RAM":
        return [2 * l3, 4 * l3, 8 * l3, 16 * l3]
    cap = {"L1": int(caches["l1_kib"] * 1024), "L2": int(caches["l2_kib"] * 1024),
           "L3": l3}[level]
    return [cap // 4, cap // 2, cap, 2 * cap]


def check_bandwidth(path, caches: dict, kernel: str, level: str, cores: list[int]) -> int:
    rows = read_rows(path)
    sizes = level_ladder(caches, level)
    if [_num(r, "bytes", int) for r in rows] != sizes:
        raise CheckError(f"dataset sizes {[r.get('bytes') for r in rows]}, ladder {sizes}")
    for i, row in enumerate(rows):
        check_record_relations(row)
        if _cores(row) != cores:
            raise CheckError(f"row {i}: cores differ from the request")
        if row.get("level") not in ("L1", "L2", "L3", "RAM"):
            raise CheckError(f"row {i}: level {row.get('level')!r}")
        degraded = row.get("degraded_from") == kernel and "width_degraded" in row.get("flags", "")
        if row.get("kernel") != kernel and not degraded:
            raise CheckError(f"row {i}: kernel {row.get('kernel')!r}, asked for {kernel}")
        if _num(row, "bytes_moved", int) != sizes[i] * len(cores):
            raise CheckError(f"row {i}: bytes_moved is not dataset x cores")
    return len(rows)


def check_triad(path, nbytes: int, nontemporal: bool, cores: list[int]) -> int:
    rows = read_rows(path)
    if len(rows) != 1:
        raise CheckError(f"{len(rows)} triad rows, expected 1")
    row = rows[0]
    check_record_relations(row)
    want = "triad-nt" if nontemporal else "triad"
    if row.get("kernel") != want or row.get("level") != "RAM":
        raise CheckError(f"kernel {row.get('kernel')!r} at {row.get('level')!r}, expected {want} at RAM")
    if _cores(row) != cores or _num(row, "bytes", int) != nbytes:
        raise CheckError("triad cores or array size differ from the request")
    if _num(row, "bytes_moved", int) != 3 * nbytes * len(cores):
        raise CheckError("triad bytes_moved is not 3 x array x cores")
    return 1


def check_replay(original, replayed) -> int:
    """The replayed CSV is byte-identical to the original."""
    try:
        a, b = Path(original).read_bytes(), Path(replayed).read_bytes()
    except OSError as exc:
        raise CheckError(f"replay output missing: {exc.strerror}") from None
    if a != b:
        raise CheckError(f"replayed {Path(replayed).name} differs from the original")
    return len(read_rows(replayed))


def check_report(txt_path, svg_path, csv_path) -> int:
    """The plot data holds every bandwidth of the CSV, by dataset size."""
    try:
        lines = Path(txt_path).read_text().splitlines()
        svg = Path(svg_path).read_text()
    except OSError as exc:
        raise CheckError(f"report output missing: {exc.strerror}") from None
    if "<svg" not in svg:
        raise CheckError("report SVG has no <svg> element")
    grid = [ln.split("\t") for ln in lines if ln and not ln.startswith("#")]
    if len(grid) < 2:
        raise CheckError("report plot data has no rows")
    x_labels = grid[0][1:]
    plotted = {}
    for row in grid[1:]:
        for x, v in zip(x_labels, row[1:]):
            plotted[(row[0], x)] = v
    for row in read_rows(csv_path):
        key = (row.get("kernel"), row.get("bytes"))
        if plotted.get(key) != row.get("bandwidth_gbps"):
            raise CheckError(f"plot data {plotted.get(key)!r} != CSV "
                             f"{row.get('bandwidth_gbps')!r} at {key}")
    return 0


def check_fit(out_dir, expected_params: tuple) -> str:
    """fitted_params.json holds finite values for exactly the template's
    parameters; returns the file text so repeats can be compared."""
    try:
        text = (Path(out_dir) / "fitted_params.json").read_text()
        residuals = (Path(out_dir) / "residuals.txt").read_text()
    except OSError as exc:
        raise CheckError(f"fit output missing: {exc.strerror}") from None
    try:
        params = json.loads(text)
    except ValueError:
        raise CheckError("fitted_params.json is not JSON") from None
    if sorted(params) != sorted(expected_params):
        raise CheckError(f"fitted parameters {sorted(params)}, expected {sorted(expected_params)}")
    if not all(isinstance(v, float) and math.isfinite(v) for v in params.values()):
        raise CheckError("fitted parameter not finite")
    if "max_abs_residual" not in residuals:
        raise CheckError("residuals.txt lacks max_abs_residual")
    return text


def check_chain_words(words, base: int, alignment: int, successors, indices) -> None:
    """Slot ``i`` of materialized memory points at ``base + successors[i] *
    alignment`` for each ``i`` in ``indices``."""
    for i in indices:
        want = base + int(successors[i]) * alignment
        if int(words[i]) != want:
            raise CheckError(f"slot {i} holds {int(words[i]):#x}, expected {want:#x}")


def walk_chain(words, base: int, alignment: int, element_count: int) -> None:
    """Follow the pointers from ``base``: the walk must visit
    ``element_count`` distinct slots and then return to the base."""
    values = words[:element_count]
    values = values.tolist() if hasattr(values, "tolist") else list(values)
    slots = [w - base for w in values]
    seen = bytearray(element_count)
    addr_slot = 0
    for step in range(element_count):
        if seen[addr_slot]:
            raise CheckError(f"walk revisits slot {addr_slot} after {step} steps")
        seen[addr_slot] = 1
        offset = slots[addr_slot]
        if offset % alignment or not 0 <= offset // alignment < element_count:
            raise CheckError(f"slot {addr_slot} points outside the chain ({offset:#x})")
        addr_slot = offset // alignment
    if addr_slot != 0:
        raise CheckError(f"walk ends at slot {addr_slot}, not at the base")
