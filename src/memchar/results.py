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
its fields joined by commas.  Only text fields (backend, state, level,
reducer, label, and the bandwidth kernel, flags and degraded-from) can
hold a comma, a quote, ``\r`` or ``\n``; ``csv.writer`` quotes each such
field on its own, so every file is the bytes ``csv.writer`` gives, except
that a field with a ``\r`` is always quoted: ``csv.writer`` with a ``\n``
line end leaves a lone ``\r`` bare, and ``csv.reader`` then ends the row
there.  A ``;``-joined float column of one repeated nonzero value (a
simulated point's samples) formats the value once and repeats the text.

A latency file pays per row only for what differs per row, and it
recognises shared work by object identity alone.  The fields every record
of a sweep shares (backend, state, level, sizes, frequency, reducer,
alignment, huge pages, seed, overhead) are formatted once per run of
records holding the same objects for them.  Within such a run, the "value
block", the text from ``samples`` through ``overhead_cycles``, is formatted
once per combination of samples, min, max, median and latency objects,
keyed by their ids.  :func:`harness.measure_sweep` gives every point of one
value one samples tuple and one float, so a simulated sweep's rows are the
placement's ids, a cached block and the label.  Exact by construction:
identical objects format identically, and every record stays alive while
its file is built, so no id is reused; no float is compared.

Reading a result file checks it: a row whose field count differs from the
header's, a cell that does not parse, or a row ``csv.reader`` refuses is a
:class:`ResultError` naming the file, the line and, for a cell, the
column.
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
    """``;``-joined reprs.  A column of one repeated nonzero value formats
    it once: equal nonzero floats share one repr, 0.0 and -0.0 do not."""
    first = values[0] if values else 0.0
    if first != 0.0 and values.count(first) == len(values):
        text = _f(first)
        return (text + ";") * (len(values) - 1) + text
    return ";".join(map(_f, values))


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


def _csv_field(text: str) -> str:
    """``text`` as :func:`_csv_line` writes it in any row: ``csv.writer``
    quotes each field on its own, and only a field holding a comma, a
    quote, ``\\r`` or ``\\n``."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return _csv_line([text])[:-1]
    return text


def _join_i(values) -> str:
    return ";".join(str(int(v)) for v in values)


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(";") if v)


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(";") if v)


def _cell(row: dict, column: str, convert):
    """``convert(row[column])``; a cell it cannot parse is a
    :class:`ResultError` naming the column."""
    try:
        return convert(row[column])
    except ValueError:
        raise ResultError(f"column {column}: cannot parse {row[column]!r}") from None


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
    def _latency_lines(records: list) -> list[str]:
        """Every record's CSV line (see the module docstring).

        The fields a sweep's records share are formatted once per run of
        records holding the same objects for them, and within that run the
        value block once per combination of samples, min, max, median and
        latency objects.  Per row, only the placement is formatted.
        ``records`` holds every record until the lines are built, so an
        object's id stays its own.
        """
        lines = []
        shared = None
        for r in records:
            mine = (r.backend, r.state, r.level, r.dataset_bytes, r.frequency_mhz, r.reducer,
                    r.dataset_sizes, r.alignment, r.huge_pages, r.seed, r.overhead_cycles)
            if not (shared and all(map(operator.is_, mine, shared))):
                shared = mine
                backend, state, level, reducer = map(
                    _csv_field, (r.backend, r.state, r.level, r.reducer)
                )
                middle = f"{state},{level},{r.dataset_bytes},"
                mhz = _f(r.frequency_mhz)
                tail = (f"{reducer},{_join_i(r.dataset_sizes)},{r.alignment},"
                        f"{1 if r.huge_pages else 0},{r.seed},{_f(r.overhead_cycles)},")
                blocks: dict[tuple, str] = {}
            key = (id(r.samples), id(r.min_cycles), id(r.max_cycles), id(r.median_cycles),
                   id(r.latency_cycles))
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = (
                    f"{_join_f(r.samples)},{_f(r.min_cycles)},{_f(r.max_cycles)},"
                    f"{_f(r.median_cycles)},{mhz},{_f(r.latency_cycles)},{tail}"
                )
            p = r.placement
            forwarder = "" if p.forwarder_node is None else p.forwarder_node
            lines.append(f"{backend},{p.requester},{p.owner},{p.home_node},{forwarder},"
                         f"{middle}{block}{_csv_field(p.label)}\n")
        return lines

    @staticmethod
    def _latency_record(row: dict) -> MeasurementRecord:
        placement = Placement(
            requester=_cell(row, "requester", int),
            owner=_cell(row, "owner", int),
            home_node=_cell(row, "home", int),
            forwarder_node=_cell(row, "forwarder", int) if row["forwarder"] else None,
            label=row["label"],
        )
        return MeasurementRecord(
            placement=placement,
            state=row["state"],
            level=row["level"],
            dataset_bytes=_cell(row, "bytes", int),
            dataset_sizes=_cell(row, "sizes", _ints),
            latency_cycles=_cell(row, "latency_cycles", float),
            min_cycles=_cell(row, "min_cycles", float),
            max_cycles=_cell(row, "max_cycles", float),
            median_cycles=_cell(row, "median_cycles", float),
            samples=_cell(row, "samples", _floats),
            frequency_mhz=_cell(row, "freq_mhz", float),
            backend=row["backend"],
            alignment=_cell(row, "alignment", int),
            huge_pages=row["huge_pages"] == "1",
            seed=_cell(row, "seed", int),
            overhead_cycles=_cell(row, "overhead_cycles", float),
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
            dataset_bytes=_cell(row, "bytes", int),
            core_set=_cell(row, "cores", _ints),
            level=row["level"],
            bytes_moved=_cell(row, "bytes_moved", int),
            elapsed_cycles=_cell(row, "elapsed_cycles", float),
            bandwidth_gbps=_cell(row, "bandwidth_gbps", float),
            bytes_per_cycle=_cell(row, "bytes_per_cycle", float),
            frequency_mhz=_cell(row, "freq_mhz", float),
            backend=row["backend"],
            flags=tuple(v for v in row["flags"].split(";") if v),
            degraded_from=row["degraded_from"] or None,
        )

    # -- files ----------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        if self.kind == "bandwidth":
            lines = map(_csv_line, [BANDWIDTH_COLUMNS, *map(self._bandwidth_row, self.records)])
        else:
            lines = [_csv_line(LATENCY_COLUMNS), *self._latency_lines(self.records)]
        write_output(path, "".join(lines))

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
            records = []
            try:
                for row in reader:
                    if len(row) != len(cols):
                        raise ResultError(f"{len(row)} fields, the header has {len(cols)}")
                    records.append(build(dict(zip(cols, row))))
            except (ResultError, csv.Error) as exc:
                raise ResultError(f"{path}: line {reader.line_num}: {exc}") from None
        return cls(records=records)
