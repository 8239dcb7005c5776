"""Access-log-style event lines: write, parse, and aggregate.

Wire format, one event per line, LF-terminated:

    <tick> <agent_id> "GET /m/<meme_id>" <event_kind>

`tick`, `agent_id` and `meme_id` are unsigned ASCII decimal integers and
`event_kind` is one of RECRUIT, CREATE, SHARE, EXPOSE, INFECT, RECOVER.
RECRUIT events carry no meme, so their request path is the bare site
root: `"GET /"`.  write_lines is the one serializer of the grammar and
parse_line its inverse: parsing a written line gives back its record.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

from .core import EventKind, EventRecord, InputError

_KIND_BY_NAME = {kind.value: kind for kind in EventKind}

DEFAULT_COUNTED_KINDS = frozenset({EventKind.EXPOSE})


class LogParseError(ValueError):
    """A line violates the grammar; carries the line number and bad token."""

    def __init__(self, message, lineno=None, token=None):
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(f"{where}{message}")
        self.lineno = lineno
        self.token = token


# ---------------------------------------------------------------------------
# Line codec
# ---------------------------------------------------------------------------

def write_lines(fh, ticks, kinds, agents, memes):
    """Write events given as columns, one line each, to the text file `fh`.

    kinds[i] is the index of the event's kind in EventKind, and memes[i] is
    negative for a RECRUIT, which carries no meme.
    """
    names = [kind.value for kind in EventKind]
    write = fh.write
    for tick, code, agent, meme in zip(ticks, kinds, agents, memes):
        path = "/" if meme < 0 else f"/m/{meme}"
        write(f'{tick} {agent} "GET {path}" {names[code]}\n')


def parse_line(line: str, lineno: int | None = None) -> EventRecord:
    """Parse one log line (trailing LF optional); total over valid lines."""
    if not line.isascii():
        # str.isdigit and int accept non-ASCII digits such as '²' and '٣'.
        raise LogParseError("line is not ASCII", lineno, token=line.rstrip("\n"))
    text = line[:-1] if line.endswith("\n") else line
    chunks = text.split('"')
    if len(chunks) != 3:
        raise LogParseError("request must be a double-quoted token", lineno,
                            token=text)
    head, request, tail = chunks
    head_fields = head.split(" ")
    if len(head_fields) != 3 or head_fields[2] != "":
        raise LogParseError(f"expected '<tick> <agent_id> ' before the request,"
                            f" got {head!r}", lineno, token=head)
    tick_s, agent_s = head_fields[0], head_fields[1]
    if not tick_s.isdigit():
        raise LogParseError(f"tick must be an unsigned integer, got {tick_s!r}",
                            lineno, token=tick_s)
    if not agent_s.isdigit():
        raise LogParseError(f"agent_id must be an unsigned integer, got {agent_s!r}",
                            lineno, token=agent_s)
    kind_s = tail[1:] if tail.startswith(" ") else None
    if not kind_s or " " in kind_s:
        raise LogParseError(f"expected ' <event_kind>' after the request, got {tail!r}",
                            lineno, token=tail)
    kind = _KIND_BY_NAME.get(kind_s)
    if kind is None:
        raise LogParseError(f"unknown event kind {kind_s!r}", lineno, token=kind_s)

    meme_id = None
    if request == "GET /":
        if kind is not EventKind.RECRUIT:
            raise LogParseError(f"bare-root request is only valid for RECRUIT,"
                                f" got {kind_s}", lineno, token=request)
    elif request.startswith("GET /m/"):
        meme_s = request[len("GET /m/"):]
        if not meme_s.isdigit():
            raise LogParseError(f"meme_id must be an unsigned integer, got {meme_s!r}",
                                lineno, token=meme_s)
        if kind is EventKind.RECRUIT:
            raise LogParseError("RECRUIT records carry no meme path", lineno,
                                token=request)
        meme_id = int(meme_s)
    else:
        raise LogParseError(f"malformed request {request!r}", lineno, token=request)
    return EventRecord(tick=int(tick_s), kind=kind, agent_id=int(agent_s),
                       meme_id=meme_id)


def parse_lines(lines):
    """Yield records from an iterable of lines; errors carry 1-based numbers."""
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        yield parse_line(line, lineno=lineno)


def read_log(path):
    """Stream records from a log file.

    Undecodable bytes become lone surrogates, so they fail parse_line's
    ASCII check with a line number instead of a UnicodeDecodeError.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        yield from parse_lines(fh)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class HitSummary:
    """Per-meme popularity statistics over one pass of a log."""

    total_hits: int
    meme_count: int
    max_hits: int
    median_hits: float
    fraction_below_2: float
    per_meme: dict
    bins: dict
    bin_width_ticks: int
    counted_kinds: tuple

    def to_json_dict(self) -> dict:
        return {
            "total_hits": self.total_hits,
            "meme_count": self.meme_count,
            "max_hits": self.max_hits,
            "median_hits": self.median_hits,
            "fraction_below_2": self.fraction_below_2,
            "bin_width_ticks": self.bin_width_ticks,
            "counted_kinds": list(self.counted_kinds),
        }


def summary_from_counts(per_meme: dict, bins: dict, bin_width_ticks: int,
                        counted_kinds) -> HitSummary:
    """Build a HitSummary from already-aggregated tables (e.g. engine output)."""
    counts = list(per_meme.values())
    total = sum(counts)
    return HitSummary(
        total_hits=total,
        meme_count=len(per_meme),
        max_hits=max(counts) if counts else 0,
        median_hits=float(statistics.median(counts)) if counts else 0.0,
        fraction_below_2=(sum(1 for c in counts if c < 2) / len(counts))
        if counts else 0.0,
        per_meme=per_meme,
        bins=bins,
        bin_width_ticks=bin_width_ticks,
        counted_kinds=tuple(sorted(k.value for k in counted_kinds)),
    )


def aggregate_hits(records, counted_kinds=None, bin_width_ticks: int = 1) -> HitSummary:
    """Single streaming pass over records; memory scales with memes + bins.

    Per-meme counts cover `counted_kinds` (default: EXPOSE only).  The meme
    universe for the median and fraction statistics is every meme that shows
    up in a CREATE or EXPOSE record, so created-but-never-viewed memes count
    as zero-hit memes; memes seen only via other counted kinds are included
    too, to keep the table consistent with total_hits.
    """
    if bin_width_ticks < 1:
        raise InputError(f"bin width must be >= 1, got {bin_width_ticks}")
    counted = (DEFAULT_COUNTED_KINDS if counted_kinds is None
               else frozenset(counted_kinds))
    per_meme = {}
    bins = {}
    for record in records:
        meme_id = record.meme_id
        if meme_id is None:
            continue
        if record.kind is EventKind.CREATE or record.kind is EventKind.EXPOSE:
            per_meme.setdefault(meme_id, 0)
        if record.kind in counted:
            per_meme[meme_id] = per_meme.get(meme_id, 0) + 1
            bin_start = (record.tick // bin_width_ticks) * bin_width_ticks
            bins[bin_start] = bins.get(bin_start, 0) + 1
    return summary_from_counts(per_meme, bins, bin_width_ticks, counted)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def write_summary_json(summary: HitSummary, path):
    with open(path, "w", newline="") as fh:
        json.dump(summary.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_hits_csv(per_meme: dict, path):
    with open(path, "w", newline="") as fh:
        fh.write("meme_id,hits\n")
        for meme_id in sorted(per_meme):
            fh.write(f"{meme_id},{per_meme[meme_id]}\n")


def write_bins_csv(bins: dict, path):
    with open(path, "w", newline="") as fh:
        fh.write("bin_start_tick,hits\n")
        for start in sorted(bins):
            fh.write(f"{start},{bins[start]}\n")
