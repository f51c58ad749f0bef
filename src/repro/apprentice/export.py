"""Apprentice-style summary files: exporter and parser.

The paper (Section 3) describes the data flow of COSY: *"After program
execution Apprentice is started.  Apprentice then computes summary data for
program regions … The resulting information is written to a file and
transferred into the database."*

This module defines that intermediate summary-file format for the simulated
measurement environment.  :class:`ApprenticeExport` serialises a populated
:class:`~repro.datamodel.PerformanceDatabase` into a line-oriented text file;
:class:`ApprenticeParser` reads such a file back into a repository.  The
round trip is exact up to floating-point formatting (12 significant digits)
and is covered by property-based tests.

Format (one record per line, fields separated by ``|``)::

    APPRENTICE-SUMMARY|1.0
    PROGRAM|<name>
    VERSION|<label>|<compilation iso-datetime>
    SOURCE|<path>|<number of lines>          (source text follows, prefixed '>')
    RUN|<run id>|<start iso-datetime>|<nope>|<clock MHz>
    FUNCTION|<name>
    REGION|<name>|<kind>|<parent name or ->|<file>|<first line>|<last line>
    TOTAL|<region>|<run id>|<excl>|<incl>|<ovhd>
    TYPED|<region>|<run id>|<timing type>|<time>
    CALLSITE|<id>|<function>|<region>|<callee>
    CALLTIMING|<callsite id>|<run id>|<min calls>|<max calls>|<mean calls>|
        <stdev calls>|<min time>|<max time>|<mean time>|<stdev time>|
        <min calls pe>|<max calls pe>|<min time pe>|<max time pe>
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, List, Optional, TextIO, Tuple

from repro.datamodel import (
    CallTiming,
    Function,
    FunctionCall,
    PerformanceDatabase,
    Program,
    ProgVersion,
    Region,
    RegionKind,
    TestRun,
    TimingType,
    TotalTiming,
    TypedTiming,
)

__all__ = ["ApprenticeExport", "ApprenticeParser", "ApprenticeFormatError"]

_FORMAT_VERSION = "1.0"
_SEP = "|"


class ApprenticeFormatError(ValueError):
    """Raised when an Apprentice summary file is malformed."""

    def __init__(self, message: str, lineno: Optional[int] = None) -> None:
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


def _fmt_float(value: float) -> str:
    return format(float(value), ".12g")


def _fmt_dt(value: _dt.datetime) -> str:
    return value.isoformat()


class ApprenticeExport:
    """Serialise a performance repository into the summary-file format."""

    def __init__(self, database: PerformanceDatabase) -> None:
        self.database = database

    def dumps(self) -> str:
        """Return the summary file as a string."""
        lines: List[str] = [f"APPRENTICE-SUMMARY{_SEP}{_FORMAT_VERSION}"]
        for program in self.database.programs:
            self._dump_program(program, lines)
        return "\n".join(lines) + "\n"

    def dump(self, stream: TextIO) -> None:
        """Write the summary file to an open text stream."""
        stream.write(self.dumps())

    def dump_path(self, path: str) -> None:
        """Write the summary file to ``path``."""
        with open(path, "w", encoding="utf-8") as stream:
            self.dump(stream)

    # ------------------------------------------------------------------ #

    def _dump_program(self, program: Program, lines: List[str]) -> None:
        lines.append(f"PROGRAM{_SEP}{program.Name}")
        for version in program.Versions:
            self._dump_version(version, lines)

    def _dump_version(self, version: ProgVersion, lines: List[str]) -> None:
        lines.append(
            f"VERSION{_SEP}{version.label}{_SEP}{_fmt_dt(version.Compilation)}"
        )
        for path, text in sorted(version.Code.files.items()):
            source_lines = text.splitlines()
            lines.append(f"SOURCE{_SEP}{path}{_SEP}{len(source_lines)}")
            lines.extend(">" + line for line in source_lines)
        for run in version.Runs:
            lines.append(
                _SEP.join(
                    [
                        "RUN",
                        str(run.uid),
                        _fmt_dt(run.Start),
                        str(run.NoPe),
                        str(run.Clockspeed),
                    ]
                )
            )
        for function in version.Functions:
            self._dump_function(function, lines)

    def _dump_function(self, function: Function, lines: List[str]) -> None:
        lines.append(f"FUNCTION{_SEP}{function.Name}")
        for region in function.Regions:
            parent = region.ParentRegion.name if region.ParentRegion else "-"
            lines.append(
                _SEP.join(
                    [
                        "REGION",
                        region.name,
                        region.kind.value,
                        parent,
                        region.source_file or "-",
                        str(region.first_line),
                        str(region.last_line),
                    ]
                )
            )
        for region in function.Regions:
            for total in region.TotTimes:
                lines.append(
                    _SEP.join(
                        [
                            "TOTAL",
                            region.name,
                            str(total.Run.uid),
                            _fmt_float(total.Excl),
                            _fmt_float(total.Incl),
                            _fmt_float(total.Ovhd),
                        ]
                    )
                )
            for typed in region.TypTimes:
                lines.append(
                    _SEP.join(
                        [
                            "TYPED",
                            region.name,
                            str(typed.Run.uid),
                            typed.Type.value,
                            _fmt_float(typed.Time),
                        ]
                    )
                )
        for call in function.Calls:
            lines.append(
                _SEP.join(
                    [
                        "CALLSITE",
                        str(call.uid),
                        function.Name,
                        call.CallingReg.name,
                        call.callee_name or "-",
                    ]
                )
            )
            for timing in call.Sums:
                lines.append(
                    _SEP.join(
                        [
                            "CALLTIMING",
                            str(call.uid),
                            str(timing.Run.uid),
                            _fmt_float(timing.MinCalls),
                            _fmt_float(timing.MaxCalls),
                            _fmt_float(timing.MeanCalls),
                            _fmt_float(timing.StdevCalls),
                            _fmt_float(timing.MinTime),
                            _fmt_float(timing.MaxTime),
                            _fmt_float(timing.MeanTime),
                            _fmt_float(timing.StdevTime),
                            str(timing.MinCallsPe),
                            str(timing.MaxCallsPe),
                            str(timing.MinTimePe),
                            str(timing.MaxTimePe),
                        ]
                    )
                )


class ApprenticeParser:
    """Parse an Apprentice summary file back into a performance repository."""

    def __init__(self) -> None:
        self._database = PerformanceDatabase()
        self._program: Optional[Program] = None
        self._version: Optional[ProgVersion] = None
        self._function: Optional[Function] = None
        self._runs: Dict[str, TestRun] = {}
        self._regions: Dict[str, Region] = {}
        self._calls: Dict[str, FunctionCall] = {}
        self._pending_source: Optional[Tuple[str, int, List[str]]] = None

    # ------------------------------------------------------------------ #

    def loads(self, text: str) -> PerformanceDatabase:
        """Parse ``text`` and return the populated repository."""
        lines = text.splitlines()
        if not lines or not lines[0].startswith("APPRENTICE-SUMMARY"):
            raise ApprenticeFormatError(
                "missing APPRENTICE-SUMMARY header", lineno=1
            )
        header = lines[0].split(_SEP)
        if len(header) != 2 or header[1] != _FORMAT_VERSION:
            raise ApprenticeFormatError(
                f"unsupported summary format version {header[1:]}", lineno=1
            )
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            self._parse_line(line, lineno)
        if self._pending_source is not None:
            raise ApprenticeFormatError(
                f"source block for {self._pending_source[0]!r} is truncated"
            )
        self._database.validate()
        return self._database

    def load(self, stream: TextIO) -> PerformanceDatabase:
        """Parse from an open text stream."""
        return self.loads(stream.read())

    def load_path(self, path: str) -> PerformanceDatabase:
        """Parse the file at ``path``."""
        with open(path, "r", encoding="utf-8") as stream:
            return self.load(stream)

    # ------------------------------------------------------------------ #

    def _parse_line(self, line: str, lineno: int) -> None:
        if self._pending_source is not None:
            path, remaining, collected = self._pending_source
            if not line.startswith(">"):
                raise ApprenticeFormatError(
                    f"expected {remaining} more source lines for {path!r}", lineno
                )
            collected.append(line[1:])
            if len(collected) == remaining:
                if self._version is None:
                    raise ApprenticeFormatError(
                        f"source lines for {path!r} outside a version record",
                        lineno,
                    )
                self._version.Code.add_file(path, "\n".join(collected) + "\n")
                self._pending_source = None
            return

        fields = line.split(_SEP)
        record = fields[0]
        handler = _RECORD_HANDLERS.get(record.upper())
        if handler is None:
            raise ApprenticeFormatError(f"unknown record type {record!r}", lineno)
        try:
            handler(self, fields, lineno)
        except (ValueError, KeyError) as exc:
            if isinstance(exc, ApprenticeFormatError):
                raise
            raise ApprenticeFormatError(str(exc), lineno) from exc

    # -- record handlers -----------------------------------------------------

    def _require(self, fields: List[str], count: int, lineno: int) -> None:
        if len(fields) != count:
            raise ApprenticeFormatError(
                f"record {fields[0]} expects {count} fields, got {len(fields)}",
                lineno,
            )

    def _parse_program(self, fields: List[str], lineno: int) -> None:
        self._require(fields, 2, lineno)
        self._program = self._database.create_program(fields[1])
        self._version = None

    def _parse_version(self, fields: List[str], lineno: int) -> None:
        self._require(fields, 3, lineno)
        if self._program is None:
            raise ApprenticeFormatError("VERSION before PROGRAM", lineno)
        self._version = ProgVersion(
            Compilation=_dt.datetime.fromisoformat(fields[2]), label=fields[1]
        )
        self._program.add_version(self._version)
        self._function = None
        self._runs = {}
        self._regions = {}
        self._calls = {}

    def _parse_source(self, fields: List[str], lineno: int) -> None:
        self._require(fields, 3, lineno)
        if self._version is None:
            raise ApprenticeFormatError("SOURCE before VERSION", lineno)
        count = int(fields[2])
        if count == 0:
            self._version.Code.add_file(fields[1], "")
        else:
            self._pending_source = (fields[1], count, [])

    def _parse_run(self, fields: List[str], lineno: int) -> None:
        self._require(fields, 5, lineno)
        if self._version is None:
            raise ApprenticeFormatError("RUN before VERSION", lineno)
        run = TestRun(
            Start=_dt.datetime.fromisoformat(fields[2]),
            NoPe=int(fields[3]),
            Clockspeed=int(fields[4]),
        )
        self._version.add_run(run)
        self._runs[fields[1]] = run

    def _parse_function(self, fields: List[str], lineno: int) -> None:
        self._require(fields, 2, lineno)
        if self._version is None:
            raise ApprenticeFormatError("FUNCTION before VERSION", lineno)
        self._function = Function(Name=fields[1])
        self._version.add_function(self._function)

    def _parse_region(self, fields: List[str], lineno: int) -> None:
        self._require(fields, 7, lineno)
        if self._function is None:
            raise ApprenticeFormatError("REGION before FUNCTION", lineno)
        parent = None
        if fields[3] != "-":
            parent = self._regions.get(fields[3])
            if parent is None:
                raise ApprenticeFormatError(
                    f"region {fields[1]!r} references unknown parent {fields[3]!r}",
                    lineno,
                )
        region = Region(
            name=fields[1],
            kind=RegionKind(fields[2]),
            ParentRegion=parent,
            source_file="" if fields[4] == "-" else fields[4],
            first_line=int(fields[5]),
            last_line=int(fields[6]),
        )
        self._function.add_region(region)
        self._regions[region.name] = region

    def _parse_total(self, fields: List[str], lineno: int) -> None:
        self._require(fields, 6, lineno)
        region = self._lookup_region(fields[1], lineno)
        run = self._lookup_run(fields[2], lineno)
        region.add_total_timing(
            TotalTiming(
                Run=run,
                Excl=float(fields[3]),
                Incl=float(fields[4]),
                Ovhd=float(fields[5]),
            )
        )

    def _parse_typed(self, fields: List[str], lineno: int) -> None:
        self._require(fields, 5, lineno)
        region = self._lookup_region(fields[1], lineno)
        run = self._lookup_run(fields[2], lineno)
        region.add_typed_timing(
            TypedTiming(
                Run=run,
                Type=TimingType.from_name(fields[3]),
                Time=float(fields[4]),
            )
        )

    def _parse_callsite(self, fields: List[str], lineno: int) -> None:
        self._require(fields, 5, lineno)
        if self._version is None:
            raise ApprenticeFormatError("CALLSITE before VERSION", lineno)
        function = self._version.function_by_name(fields[2])
        region = self._lookup_region(fields[3], lineno)
        call = FunctionCall(
            Caller=function,
            CallingReg=region,
            callee_name="" if fields[4] == "-" else fields[4],
        )
        function.add_call(call)
        self._calls[fields[1]] = call

    def _parse_calltiming(self, fields: List[str], lineno: int) -> None:
        self._require(fields, 15, lineno)
        call = self._calls.get(fields[1])
        if call is None:
            raise ApprenticeFormatError(
                f"CALLTIMING references unknown call site {fields[1]!r}", lineno
            )
        run = self._lookup_run(fields[2], lineno)
        call.add_call_timing(
            CallTiming(
                Run=run,
                MinCalls=float(fields[3]),
                MaxCalls=float(fields[4]),
                MeanCalls=float(fields[5]),
                StdevCalls=float(fields[6]),
                MinTime=float(fields[7]),
                MaxTime=float(fields[8]),
                MeanTime=float(fields[9]),
                StdevTime=float(fields[10]),
                MinCallsPe=int(fields[11]),
                MaxCallsPe=int(fields[12]),
                MinTimePe=int(fields[13]),
                MaxTimePe=int(fields[14]),
            )
        )

    # -- lookup helpers --------------------------------------------------------

    def _lookup_region(self, name: str, lineno: int) -> Region:
        region = self._regions.get(name)
        if region is None:
            raise ApprenticeFormatError(f"unknown region {name!r}", lineno)
        return region

    def _lookup_run(self, run_id: str, lineno: int) -> TestRun:
        run = self._runs.get(run_id)
        if run is None:
            raise ApprenticeFormatError(f"unknown run id {run_id!r}", lineno)
        return run


#: Record type → the :class:`ApprenticeParser` method parsing its fields.
_RECORD_HANDLERS = {
    "PROGRAM": ApprenticeParser._parse_program,
    "VERSION": ApprenticeParser._parse_version,
    "SOURCE": ApprenticeParser._parse_source,
    "RUN": ApprenticeParser._parse_run,
    "FUNCTION": ApprenticeParser._parse_function,
    "REGION": ApprenticeParser._parse_region,
    "TOTAL": ApprenticeParser._parse_total,
    "TYPED": ApprenticeParser._parse_typed,
    "CALLSITE": ApprenticeParser._parse_callsite,
    "CALLTIMING": ApprenticeParser._parse_calltiming,
}
