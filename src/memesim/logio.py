"""Access-log-style event lines: write, parse, and aggregate.

Wire format, one event per line, LF-terminated:

    <tick> <agent_id> "GET /m/<meme_id>" <event_kind>

`tick`, `agent_id` and `meme_id` are unsigned ASCII decimal integers that
fit in a signed 64-bit integer, and `event_kind` is one of RECRUIT, CREATE,
SHARE, EXPOSE, INFECT, RECOVER.  RECRUIT events carry no meme, so their
request path is the bare site root: `"GET /"`.  write_lines, the one
serializer, writes column blocks as bytes, a bounded chunk of events per
numpy pass; parse_line defines the grammar one line at a time; and
read_columns(path), the inverse of write_lines, gives back the written
records as blocks.  Blank lines are skipped; `\n`, `\r\n` and `\r` all
end a line when lines are numbered.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .core import EventKind, EventRecord, InputError

_INT64_MAX = 2**63 - 1

# read_columns reads this many bytes at a time, so its memory is bounded by
# one block (plus the longest line) whatever the size of the log.
_BLOCK_BYTES = 1 << 20

# A grammar-valid line, as a whole line of a block.  It cannot span lines
# and contains no \r, so a \r-ended line never matches.
_LINE = re.compile(
    rb'^\d+ \d+ "GET /(?:m/\d+)?" (?:'
    + b"|".join(kind.name.encode() for kind in EventKind) + rb")$",
    re.ASCII | re.MULTILINE)
# A line of ASCII whitespace (the empty line after a final \n included),
# which every reader skips as blank.
_BLANK = re.compile(rb"^[ \t\x0b\x0c\r]*$", re.ASCII | re.MULTILINE)


class LogParseError(InputError):
    """A line violates the grammar; carries the line number and bad token."""

    reason = "parse-error"

    def __init__(self, message, lineno=None, token=None):
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(f"{where}{message}")
        self.lineno = lineno
        self.token = token


# ---------------------------------------------------------------------------
# Line codec
# ---------------------------------------------------------------------------

def write_lines(fh, blocks):
    """Write column blocks (ticks, kinds, agents, memes), as read_columns
    yields them, to the binary file `fh` as ASCII bytes, one line per
    event.  kinds are EventKind values, memes are negative for a RECRUIT
    (no meme), and every other value is non-negative.

    Consecutive blocks are formatted together, _CHUNK_EVENTS events at a
    time, so many small blocks cost one numpy pass and memory stays
    bounded by one chunk whatever the size of the log.
    """
    for chunk in _chunks(blocks):
        fh.write(_format_chunk(*chunk))


# write_lines formats this many events at a time: enough that numpy's
# per-call cost is small, few enough that a chunk's working set stays near
# 1 MiB (65,536 added 9 MiB to the peak RSS of a 275k-event simulate).
_CHUNK_EVENTS = 16384

# Row k is the line tail '" <KIND>\n' of EventKind(k), NUL-padded to one width.
_TAIL_WIDTH = 3 + max(len(kind.name) for kind in EventKind)
_TAILS = np.frombuffer(b"".join(f'" {kind.name}\n'.encode().ljust(_TAIL_WIDTH, b"\0")
                                for kind in EventKind),
                       dtype=np.uint8).reshape(len(EventKind), _TAIL_WIDTH)


def _chunks(blocks):
    """The events of `blocks` as column tuples of at most _CHUNK_EVENTS
    events, in order: small blocks are joined and large ones sliced."""
    pending, count = [], 0
    for block in blocks:
        n, start = len(block[0]), 0
        while start < n:
            take = min(_CHUNK_EVENTS - count, n - start)
            pending.append([column[start:start + take] for column in block])
            count += take
            start += take
            if count == _CHUNK_EVENTS:
                yield [np.concatenate(columns) for columns in zip(*pending)]
                pending, count = [], 0
    if count:
        yield [np.concatenate(columns) for columns in zip(*pending)]


def _format_chunk(ticks, kinds, agents, memes) -> bytes:
    """The log lines of one chunk.  Each event is a fixed-width row of
    bytes, `<tick> <agent> "GET /m/<meme>` then its kind's tail, with NUL
    before the digits of each number, in place of a RECRUIT's `m/<meme>`
    and after the tail; dropping every NUL leaves the lines."""
    recruit = memes < 0
    memes = np.where(recruit, 0, memes)
    widths = [len(str(int(column.max()))) for column in (ticks, agents, memes)]
    texts = (b" ", b' "GET /m/', b"")       # after the tick, agent and meme
    out = np.empty((len(ticks), sum(widths) + len(b"".join(texts)) + _TAIL_WIDTH),
                   dtype=np.uint8)
    col = 0
    for column, width, text in zip((ticks, agents, memes), widths, texts):
        _put_digits(out[:, col:col + width], column)
        col += width
        out[:, col:col + len(text)] = np.frombuffer(text, dtype=np.uint8)
        col += len(text)
    out[recruit, col - widths[2] - 2:col] = 0
    out[:, col:] = _TAILS[kinds]
    return out.tobytes().replace(b"\0", b"")


def _put_digits(out, values):
    """Write the non-negative `values` in decimal, right-aligned in the
    columns of `out`, with NUL in place of leading zeros."""
    width = out.shape[1]
    # uint32 division is faster, and holds any value of nine digits.
    rest = values.astype(np.uint32 if width < 10 else np.uint64)
    for pos in range(width - 1, -1, -1):
        quotient = rest // 10
        digit = (rest - quotient * 10).astype(np.uint8)
        digit += ord("0")
        if pos < width - 1:
            digit *= rest != 0
        out[:, pos] = digit
        rest = quotient


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
    kind = EventKind.__members__.get(kind_s)
    if kind is None:
        raise LogParseError(f"unknown event kind {kind_s!r}", lineno, token=kind_s)

    meme_s = ""
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
    else:
        raise LogParseError(f"malformed request {request!r}", lineno, token=request)
    # Checked last, so a line that breaks the grammar elsewhere reports that.
    for name, digits in (("tick", tick_s), ("agent_id", agent_s), ("meme_id", meme_s)):
        if digits and int(digits) > _INT64_MAX:
            raise LogParseError(f"{name} must be at most {_INT64_MAX}, got {digits!r}",
                                lineno, token=digits)
    return EventRecord(tick=int(tick_s), kind=kind, agent_id=int(agent_s),
                       meme_id=int(meme_s) if meme_s else None)


def read_columns(path):
    """Yield the log at `path` as blocks of int64 columns
    (ticks, kinds, agents, memes), the inverse of write_lines: kinds are
    EventKind values and memes are -1 for RECRUIT.

    The file is read _BLOCK_BYTES at a time and cut after its last line end.
    A LogParseError names the first bad line with its line number in the
    whole file, exactly as parse_line reports it.
    """
    lineno = 0
    with open(path, "rb") as fh:
        pending = b""
        while chunk := fh.read(_BLOCK_BYTES):
            pending += chunk
            # A final \r may be the first half of a \r\n, so it waits.
            cut = 1 + max(pending.rfind(b"\n"),
                          pending.rfind(b"\r", 0, len(pending) - 1))
            if cut:
                block, pending = pending[:cut], pending[cut:]
                yield _parse_block(block, lineno)
                lineno += _count_lines(block)
        if pending:
            yield _parse_block(pending, lineno)


def _count_lines(block: bytes) -> int:
    if b"\r" in block:
        return len(block.splitlines())
    return block.count(b"\n") + (not block.endswith(b"\n"))


def _parse_block(block: bytes, lines_before: int):
    """Columns of the lines in `block`, which follows `lines_before` lines."""
    # Every piece between two \n must be a grammar-valid line or blank; the
    # piece after a final \n is empty, and only _BLANK counts it.
    pieces = block.count(b"\n") + 1
    valid = len(_LINE.findall(block))
    if (valid + block.endswith(b"\n") == pieces
            or valid + len(_BLANK.findall(block)) == pieces):
        columns = _columns_of_valid_lines(block, valid)
        if columns is not None:
            return columns
    return _parse_block_by_line(block, lines_before)


def _columns_of_valid_lines(block: bytes, valid: int):
    """Columns of a block of `valid` grammar-valid lines and blank lines, or
    None when a number is out of range or RECRUIT and bare root do not pair."""
    text = (block.replace(b' "GET /m/', b" ")
            .replace(b' "GET /"', b" -1")
            .replace(b'" ', b" "))
    for kind in EventKind:
        text = text.replace(kind.name.encode(), b"%d" % kind)
    # fromstring saturates a number above the int64 range at the maximum,
    # and reads a text of whitespace alone as one 0.
    values = (np.fromstring(text, dtype=np.int64, sep=" ") if valid
              else np.empty(0, dtype=np.int64)).reshape(valid, 4)
    ticks, agents, memes, kinds = values.T
    recruit = kinds == EventKind.RECRUIT
    if np.any((memes < 0) != recruit) or np.any(values == _INT64_MAX):
        return None
    return ticks, kinds, agents, memes


def _parse_block_by_line(block: bytes, lines_before: int):
    """The same columns by parse_line, one line at a time: raises at the
    first bad line, and skips blank lines of any Unicode whitespace."""
    rows = []
    for lineno, line in enumerate(block.splitlines(keepends=True),
                                  start=lines_before + 1):
        text = line.decode("utf-8", errors="surrogateescape")
        if text.strip() == "":
            continue
        record = parse_line(text, lineno)
        rows.append((record.tick, record.kind, record.agent_id,
                     -1 if record.meme_id is None else record.meme_id))
    ticks, kinds, agents, memes = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return ticks, kinds, agents, memes


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def hit_summary(hits, bin_width_ticks: int) -> dict:
    """summary.json's fields for the int64 per-meme hit counts `hits`."""
    n = len(hits)
    return {
        "total_hits": int(hits.sum()),
        "meme_count": n,
        "max_hits": int(hits.max(initial=0)),
        "median_hits": float(np.median(hits)) if n else 0.0,
        "fraction_below_2": np.count_nonzero(hits < 2) / n if n else 0.0,
        "bin_width_ticks": bin_width_ticks,
        "counted_kinds": [EventKind.EXPOSE.name],
    }


def aggregate_hits(blocks, bin_width_ticks: int = 1):
    """One pass over column blocks as read_columns yields them; returns the
    hit tables (memes, bins), each a pair (sorted distinct keys, int64
    counts).

    A hit is an EXPOSE record: one view of a meme.  The meme universe for
    the median and fraction statistics is every meme that shows up in a
    CREATE or EXPOSE record, so created-but-never-viewed memes count as
    zero-hit memes.  Memory is one block plus the distinct memes and bins,
    whatever the largest id or tick.
    """
    if bin_width_ticks < 1:
        raise InputError(f"bin width must be >= 1, got {bin_width_ticks}")
    empty = np.empty(0, dtype=np.int64)
    per_meme, bins = (empty, empty), (empty, empty)
    for ticks, kinds, _, memes in blocks:
        hit = kinds == EventKind.EXPOSE
        seen = hit | (kinds == EventKind.CREATE)
        per_meme = _add_counts(per_meme, memes[seen], hit[seen])
        if bin_width_ticks > _INT64_MAX:      # one bin from 0 holds every tick
            starts = np.zeros(np.count_nonzero(hit), dtype=np.int64)
        else:
            starts = ticks[hit] // bin_width_ticks * bin_width_ticks
        bins = _add_counts(bins, starts, np.ones(len(starts), dtype=np.int64))
    return per_meme, bins


def _add_counts(table, keys, counts):
    """The table of (sorted distinct keys, int64 counts) with `counts` added
    at `keys`."""
    merged, inverse = np.unique(np.concatenate([table[0], keys]), return_inverse=True)
    totals = np.zeros(len(merged), dtype=np.int64)
    np.add.at(totals, inverse, np.concatenate([table[1], counts]))
    return merged, totals


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def write_csv(path, header: str, rows):
    """Write the LF-ended `header`, then each flat row as a comma-joined line."""
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_summary_json(summary: dict, path):
    """`summary` as indented, key-sorted JSON: a summary.json, or fit's result."""
    with open(path, "w", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_hits_csv(table, path):
    write_csv(path, "meme_id,hits\n", zip(*(column.tolist() for column in table)))


def write_bins_csv(table, path):
    write_csv(path, "bin_start_tick,hits\n", zip(*(column.tolist() for column in table)))
