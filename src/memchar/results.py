"""Result persistence: versioned CSV schemas and run manifests.

Cycles are the primary unit everywhere; nanoseconds are derived at read
time, never stored.  Column layouts are fixed per schema version so result
files diff cleanly across runs; any column change bumps the version.

Each schema is one table, :data:`LATENCY_TABLE` and :data:`BANDWIDTH_TABLE`,
with a row per column in file order: the header, the record field the
column holds, how a cell parses and whether (and how) a plot reads it; a
bandwidth row also writes its cell.  The header lists, both readers, the
bandwidth row writer and the fields :mod:`memchar.plots` plots all come
from these tables.  The latency writer is hand-tuned (below) and has no
writer column; tests hold its bytes to those ``csv.writer`` gives for the
record's fields.

Every run writes a manifest alongside its results.  A run is its argv:
every setting comes from a flag, none from the environment, so a manifest
is the subcommand's argv as parsed and nothing else.  Replay re-parses
that argv, so on the simulated backend it reproduces the CSVs byte for
byte.  Floats are serialized with ``repr`` (shortest round-trip form),
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
its file is built, so no id is reused; no float is compared.  It is the one
place in the package that recognises work by identity: keyed by value,
``0.0`` and ``-0.0``, equal and of one hash, would share a block.

Reading a result file checks it: a row whose field count differs from the
header's, a cell that does not parse (a float cell holding NaN or an
infinity does not: no file memchar writes holds one), or a row
``csv.reader`` refuses is a :class:`ResultError` naming the file, the line
and, for a cell, the column; of two bad cells, the first in column order
is named (:func:`parse_cell`, which the fit-input reader uses too).  Bytes
that are not UTF-8, the encoding every file is written in, are one naming
the file.  Any field the writer writes reads back, however long: the csv
module's field limit is raised to the file's size for the read.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path

from .bandwidth import BandwidthRecord
from .harness import MeasurementRecord
from .topology import Placement, _known

__all__ = [
    "SCHEMA_VERSION",
    "ResultError",
    "RunManifest",
    "ResultSet",
    "LATENCY_TABLE",
    "BANDWIDTH_TABLE",
    "LATENCY_COLUMNS",
    "BANDWIDTH_COLUMNS",
    "write_output",
    "parse_cell",
    "finite_float",
]

SCHEMA_VERSION = 1

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


def finite_float(text: str) -> float:
    """``float(text)``, refusing NaN and the infinities with a
    ``ValueError``: no file memchar writes holds one."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _floats(text: str) -> tuple:
    return tuple(finite_float(v) for v in text.split(";") if v)


# The result schemas, one row per column in file order: (header, record
# field, cell parser, plotted).  A placement field is "placement.<field>".
# "plotted" is False, True (a plot reads the field) or the getter of the
# plotted value.  The latency rows are written by ResultSet._latency_lines.
LATENCY_TABLE = (
    ("backend", "backend", str, False),
    ("requester", "placement.requester", int, True),
    ("owner", "placement.owner", int, True),
    ("home", "placement.home_node", int, True),
    ("forwarder", "placement.forwarder_node", lambda t: int(t) if t else None, True),
    ("state", "state", str, True),
    ("level", "level", str, True),
    ("bytes", "dataset_bytes", int, False),
    ("samples", "samples", _floats, False),
    ("min_cycles", "min_cycles", finite_float, True),
    ("max_cycles", "max_cycles", finite_float, True),
    ("median_cycles", "median_cycles", finite_float, True),
    ("freq_mhz", "frequency_mhz", finite_float, False),
    ("latency_cycles", "latency_cycles", finite_float, True),
    ("reducer", "reducer", str, False),
    ("sizes", "dataset_sizes", _ints, False),
    ("alignment", "alignment", int, False),
    ("huge_pages", "huge_pages", lambda t: t == "1", False),
    ("seed", "seed", int, False),
    ("overhead_cycles", "overhead_cycles", finite_float, False),
    ("label", "placement.label", str, True),
)

# As LATENCY_TABLE, plus each cell's writer.  A plot of cores reads the
# core count.
BANDWIDTH_TABLE = (
    ("backend", "backend", str, False, lambda r: r.backend),
    ("kernel", "kernel", str, True, lambda r: r.kernel),
    ("cores", "core_set", _ints, lambda r: len(r.core_set), lambda r: _join_i(r.core_set)),
    ("level", "level", str, True, lambda r: r.level),
    ("bytes", "dataset_bytes", int, True, lambda r: str(r.dataset_bytes)),
    ("bytes_moved", "bytes_moved", int, False, lambda r: str(r.bytes_moved)),
    ("elapsed_cycles", "elapsed_cycles", finite_float, False, lambda r: _f(r.elapsed_cycles)),
    ("bandwidth_gbps", "bandwidth_gbps", finite_float, True, lambda r: _f(r.bandwidth_gbps)),
    ("bytes_per_cycle", "bytes_per_cycle", finite_float, True, lambda r: _f(r.bytes_per_cycle)),
    ("freq_mhz", "frequency_mhz", finite_float, False, lambda r: _f(r.frequency_mhz)),
    ("flags", "flags", lambda t: tuple(v for v in t.split(";") if v), False,
     lambda r: ";".join(r.flags)),
    ("degraded_from", "degraded_from", lambda t: t or None, False,
     lambda r: r.degraded_from or ""),
)

LATENCY_COLUMNS = [column[0] for column in LATENCY_TABLE]
BANDWIDTH_COLUMNS = [column[0] for column in BANDWIDTH_TABLE]


def parse_cell(convert, row: dict, column: str, line: int, path):
    """``convert(row[column])``; a cell it cannot parse is a
    :class:`ResultError` naming the file, the line and the column."""
    try:
        return convert(row[column])
    except (TypeError, ValueError):
        raise ResultError(
            f"{path}: line {line}, column {column}: {row[column]!r} is not a number"
        ) from None


@dataclass(frozen=True)
class RunManifest:
    """A run's inputs: ``argv``, the subcommand's argv as parsed (``--out``
    included).  A run takes every setting from its flags, so replay
    re-parses ``argv`` and nothing else."""

    argv: list

    def __post_init__(self):
        argv = self.argv
        if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
            raise ResultError(f"manifest argv must be a non-empty list of strings, got {argv!r}")

    @property
    def command(self) -> str:
        return self.argv[0]

    def save(self, path: str | Path) -> None:
        write_output(path, json.dumps({"argv": self.argv}, indent=1, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ResultError(f"{path}: unreadable manifest: {exc}") from None
        if not isinstance(doc, dict) or "argv" not in doc:
            raise ResultError(f"{path}: a manifest holds exactly the key argv")
        _known(doc, ("argv",), f"{path}: the manifest", ResultError)
        return cls(doc["argv"])


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

    # -- bandwidth ----------------------------------------------------------

    @staticmethod
    def _bandwidth_row(r: BandwidthRecord) -> list[str]:
        return [column[4](r) for column in BANDWIDTH_TABLE]

    # -- files ----------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        if self.kind == "bandwidth":
            lines = map(_csv_line, [BANDWIDTH_COLUMNS, *map(self._bandwidth_row, self.records)])
        else:
            lines = [_csv_line(LATENCY_COLUMNS), *self._latency_lines(self.records)]
        write_output(path, "".join(lines))

    @classmethod
    def from_csv(cls, path: str | Path) -> "ResultSet":
        with open(path, newline="", encoding="utf-8") as fh:
            # No field is longer than the file, and a latency row's samples
            # can pass the csv module's default limit (131072 characters).
            limit = csv.field_size_limit()
            csv.field_size_limit(max(limit, os.fstat(fh.fileno()).st_size))
            try:
                return cls(records=cls._read_records(csv.reader(fh), path))
            except UnicodeDecodeError as exc:
                raise ResultError(f"{path}: not UTF-8 text: {exc}") from None
            finally:
                csv.field_size_limit(limit)

    @staticmethod
    def _read_records(reader, path) -> list:
        try:
            header = next(reader)
        except StopIteration:
            raise ResultError(f"{path}: empty result file") from None
        if header == LATENCY_COLUMNS:
            table, build = LATENCY_TABLE, _latency_record
        elif header == BANDWIDTH_COLUMNS:
            table, build = BANDWIDTH_TABLE, lambda fields: BandwidthRecord(**fields)
        else:
            raise ResultError(f"{path}: unknown result schema (header {header[:4]}...)")
        _, fields, parsers, *_ = zip(*table)
        records = []
        try:
            for row in reader:
                if len(row) != len(header):
                    raise csv.Error(f"{len(row)} fields, the header has {len(header)}")
                try:
                    values = [parse(text) for parse, text in zip(parsers, row)]
                except (TypeError, ValueError):
                    # Parse again cell by cell: the first bad one raises.
                    cells = dict(zip(header, row))
                    for name, parse in zip(header, parsers):
                        parse_cell(parse, cells, name, reader.line_num, path)
                records.append(build(dict(zip(fields, values))))
        except csv.Error as exc:
            raise ResultError(f"{path}: line {reader.line_num}: {exc}") from None
        return records


def _latency_record(fields: dict) -> MeasurementRecord:
    """The record of a latency row's parsed ``fields``, keyed as in
    :data:`LATENCY_TABLE`."""
    placement = Placement(**{
        field.removeprefix("placement."): fields.pop(field)
        for field in list(fields) if field.startswith("placement.")
    })
    return MeasurementRecord(placement=placement, **fields)
