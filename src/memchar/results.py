"""Result persistence: versioned CSV schemas and run manifests.

Cycles are the primary unit everywhere; nanoseconds are derived at read
time, never stored.  Column layouts are fixed per schema version so result
files diff cleanly across runs; any column change bumps the version.

Every run writes a manifest alongside its results.  A manifest is the
run's inputs and nothing else: the subcommand's argv as parsed and the
``MEMCHAR_*`` variables then in effect.  Replay re-parses that argv under
those variables, so on the simulated backend it reproduces the CSVs byte
for byte.  Floats are serialized with ``repr`` (shortest round-trip form),
so parse(write(x)) is the identity.

Every output file the package writes (result CSVs, manifests, plots and
their data, fit parameters and residuals) goes through
:func:`write_output`, which overwrites the file in place: it opens without
``O_TRUNC``, writes from offset 0 and cuts the file with ``ftruncate`` only
when its size differs.  Runs are repeated into the same ``--out``, so most
writes replace a file already on disk, and on ext4 a truncating open of
one frees its blocks and makes ``close`` start writeback
(``auto_da_alloc``).  Rewriting files of 0.6-2.5 KB on an ext4 root (2-vCPU
KVM guest, median per file over 400 files, several runs) took 66-204 us
truncating, 9-17 us in place, 87-242 us to unlink and create, and 251-490
us through a temporary file and ``os.replace``.  Nothing is fsynced.  A
crash mid-write can leave the new bytes followed by the tail of the old
file, where a truncating write could leave a truncated file.

A result file is written with one ``write_output`` call.  Each row is
its fields joined by commas; a row with a field that holds a comma, a
quote, ``\r`` or ``\n`` goes through ``csv.writer``, which quotes such a
field, so every file is the bytes ``csv.writer`` gives, except that a
field with a ``\r`` is always quoted: ``csv.writer`` with a ``\n`` line
end leaves a lone ``\r`` bare, and ``csv.reader`` then ends the row
there.  A ``;``-joined float column formats each distinct value once, and
a column of one repeated value (a simulated point's samples) formats it
once and repeats the text.  The fields every record of a sweep shares
(backend, state, level, sizes, frequency, reducer, alignment, huge pages,
seed, overhead) are formatted once per run of records holding the same
objects for them, which keeps 0.0 and -0.0 apart.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
from dataclasses import dataclass
from pathlib import Path

from .bandwidth import BandwidthRecord
from .harness import ENV_VARS, MeasurementRecord
from .topology import Placement

__all__ = [
    "SCHEMA_VERSION",
    "ResultError",
    "RunManifest",
    "ResultSet",
    "LATENCY_COLUMNS",
    "BANDWIDTH_COLUMNS",
    "write_output",
]

SCHEMA_VERSION = 1

LATENCY_COLUMNS = [
    "backend",
    "requester",
    "owner",
    "home",
    "forwarder",
    "state",
    "level",
    "bytes",
    "samples",
    "min_cycles",
    "max_cycles",
    "median_cycles",
    "freq_mhz",
    "latency_cycles",
    "reducer",
    "sizes",
    "alignment",
    "huge_pages",
    "seed",
    "overhead_cycles",
    "label",
]

BANDWIDTH_COLUMNS = [
    "backend",
    "kernel",
    "cores",
    "level",
    "bytes",
    "bytes_moved",
    "elapsed_cycles",
    "bandwidth_gbps",
    "bytes_per_cycle",
    "freq_mhz",
    "flags",
    "degraded_from",
]


class ResultError(Exception):
    pass


def write_output(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``: the bytes ``open(path, "w",
    newline="").write(text)`` leaves, UTF-8 encoded, without truncating
    first.

    The file is opened without ``O_TRUNC`` (created with mode 0o666 under
    the umask, like ``open``), overwritten from offset 0, and cut with
    ``ftruncate`` only when its size then differs.  Nothing is fsynced: a
    crash mid-write can leave new bytes followed by the old file's tail,
    where a truncating write would leave a truncated file.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if os.fstat(fd).st_size != len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _f(x: float) -> str:
    return repr(float(x))


def _join_f(values: tuple) -> str:
    """``;``-joined reprs, each distinct value formatted once.  Equal floats
    share one repr, except 0.0 and -0.0, which take the per-value path."""
    first = values[0] if values else 0.0
    if first != 0.0 and values.count(first) == len(values):
        text = _f(first)
        return (text + ";") * (len(values) - 1) + text
    text = {v: _f(v) for v in set(values)}
    if 0.0 in text:
        return ";".join(map(_f, values))
    return ";".join(map(text.__getitem__, values))


def _csv_line(fields: list[str]) -> str:
    """One CSV row as ``csv.writer(lineterminator="\\n")`` writes it, with
    every field that holds a ``\\r`` quoted."""
    line = ",".join(fields)
    if line.count(",") == len(fields) - 1 and not (
        '"' in line or "\r" in line or "\n" in line
    ):
        return line + "\n"
    # csv.writer quotes the characters of its line end: with "\r\n", a
    # field holding a \r but no \n is quoted too.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def _join_i(values) -> str:
    return ";".join(str(int(v)) for v in values)


@dataclass(frozen=True)
class RunManifest:
    """A run's inputs: ``argv``, the subcommand's argv as parsed (``--out``
    included), and ``environment``, each ``MEMCHAR_*`` variable's value then
    in effect (``None`` where it was unset).  Replay re-parses ``argv`` under
    ``environment``."""

    argv: list
    environment: dict

    def __post_init__(self):
        argv, env = self.argv, self.environment
        if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
            raise ResultError(f"manifest argv must be a non-empty list of strings, got {argv!r}")
        if not isinstance(env, dict) or set(env) != set(ENV_VARS) or not all(
            v is None or isinstance(v, str) for v in env.values()
        ):
            raise ResultError(
                f"manifest environment must map each of {', '.join(ENV_VARS)} "
                f"to a string or null, got {env!r}"
            )

    @classmethod
    def record(cls, argv) -> "RunManifest":
        """The manifest of ``argv`` run under the current environment."""
        return cls(list(argv), {name: os.environ.get(name) for name in ENV_VARS})

    @property
    def command(self) -> str:
        return self.argv[0]

    def save(self, path: str | Path) -> None:
        doc = {"argv": self.argv, "environment": self.environment}
        write_output(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ResultError(f"{path}: unreadable manifest: {exc}") from None
        if not isinstance(doc, dict) or set(doc) != {"argv", "environment"}:
            raise ResultError(f"{path}: a manifest holds exactly the keys argv and environment")
        return cls(doc["argv"], doc["environment"])


@dataclass
class ResultSet:
    """A list of latency or bandwidth records and its CSV form."""

    records: list

    @property
    def kind(self) -> str:
        if not self.records:
            return "latency"
        return "bandwidth" if isinstance(self.records[0], BandwidthRecord) else "latency"

    # -- latency ----------------------------------------------------------

    @staticmethod
    def _latency_row(r: MeasurementRecord, shared: tuple) -> list[str]:
        """The row of ``r``, given the texts of the fields it shares with the
        other records of its sweep (see :meth:`_latency_rows`)."""
        backend, state, level, nbytes, mhz, reducer, sizes, alignment, huge, seed, overhead = (
            shared
        )
        p = r.placement
        return [
            backend,
            str(p.requester),
            str(p.owner),
            str(p.home_node),
            "" if p.forwarder_node is None else str(p.forwarder_node),
            state,
            level,
            nbytes,
            _join_f(r.samples),
            _f(r.min_cycles),
            _f(r.max_cycles),
            _f(r.median_cycles),
            mhz,
            _f(r.latency_cycles),
            reducer,
            sizes,
            alignment,
            huge,
            seed,
            overhead,
            p.label,
        ]

    @classmethod
    def _latency_rows(cls, records) -> list[list[str]]:
        """Every record's row.  The fields every record of a sweep shares are
        formatted again only where a record's values for them are not the
        previous record's objects: the same object has the same text, and
        0.0 and -0.0 stay apart."""
        rows, values, texts = [], (), ()
        for r in records:
            mine = (r.backend, r.state, r.level, r.dataset_bytes, r.frequency_mhz, r.reducer,
                    r.dataset_sizes, r.alignment, r.huge_pages, r.seed, r.overhead_cycles)
            if not (values and all(map(operator.is_, mine, values))):
                values = mine
                texts = (r.backend, r.state, r.level, str(r.dataset_bytes),
                         _f(r.frequency_mhz), r.reducer, _join_i(r.dataset_sizes),
                         str(r.alignment), "1" if r.huge_pages else "0", str(r.seed),
                         _f(r.overhead_cycles))
            rows.append(cls._latency_row(r, texts))
        return rows

    @staticmethod
    def _latency_record(row: dict) -> MeasurementRecord:
        placement = Placement(
            requester=int(row["requester"]),
            owner=int(row["owner"]),
            home_node=int(row["home"]),
            forwarder_node=int(row["forwarder"]) if row["forwarder"] else None,
            label=row["label"],
        )
        return MeasurementRecord(
            placement=placement,
            state=row["state"],
            level=row["level"],
            dataset_bytes=int(row["bytes"]),
            dataset_sizes=tuple(int(v) for v in row["sizes"].split(";") if v),
            latency_cycles=float(row["latency_cycles"]),
            min_cycles=float(row["min_cycles"]),
            max_cycles=float(row["max_cycles"]),
            median_cycles=float(row["median_cycles"]),
            samples=tuple(float(v) for v in row["samples"].split(";") if v),
            frequency_mhz=float(row["freq_mhz"]),
            backend=row["backend"],
            alignment=int(row["alignment"]),
            huge_pages=row["huge_pages"] == "1",
            seed=int(row["seed"]),
            overhead_cycles=float(row["overhead_cycles"]),
            reducer=row["reducer"],
        )

    # -- bandwidth ----------------------------------------------------------

    @staticmethod
    def _bandwidth_row(r: BandwidthRecord) -> list[str]:
        return [
            r.backend,
            r.kernel,
            _join_i(r.core_set),
            r.level,
            str(r.dataset_bytes),
            str(r.bytes_moved),
            _f(r.elapsed_cycles),
            _f(r.bandwidth_gbps),
            _f(r.bytes_per_cycle),
            _f(r.frequency_mhz),
            ";".join(r.flags),
            r.degraded_from or "",
        ]

    @staticmethod
    def _bandwidth_record(row: dict) -> BandwidthRecord:
        return BandwidthRecord(
            kernel=row["kernel"],
            dataset_bytes=int(row["bytes"]),
            core_set=tuple(int(v) for v in row["cores"].split(";") if v),
            level=row["level"],
            bytes_moved=int(row["bytes_moved"]),
            elapsed_cycles=float(row["elapsed_cycles"]),
            bandwidth_gbps=float(row["bandwidth_gbps"]),
            bytes_per_cycle=float(row["bytes_per_cycle"]),
            frequency_mhz=float(row["freq_mhz"]),
            backend=row["backend"],
            flags=tuple(v for v in row["flags"].split(";") if v),
            degraded_from=row["degraded_from"] or None,
        )

    # -- files ----------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        cols = BANDWIDTH_COLUMNS if self.kind == "bandwidth" else LATENCY_COLUMNS
        rows = (
            [self._bandwidth_row(r) for r in self.records]
            if self.kind == "bandwidth"
            else self._latency_rows(self.records)
        )
        write_output(path, "".join(map(_csv_line, [cols, *rows])))

    @classmethod
    def from_csv(cls, path: str | Path) -> "ResultSet":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ResultError(f"{path}: empty result file") from None
            if header == LATENCY_COLUMNS:
                build, cols = cls._latency_record, LATENCY_COLUMNS
            elif header == BANDWIDTH_COLUMNS:
                build, cols = cls._bandwidth_record, BANDWIDTH_COLUMNS
            else:
                raise ResultError(
                    f"{path}: unknown result schema (header {header[:4]}...)"
                )
            records = [build(dict(zip(cols, row))) for row in reader]
        return cls(records=records)
