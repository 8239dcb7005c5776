"""Access-log-style event lines: write, parse, and aggregate.

Wire format, one event per line, LF-terminated:

    <tick> <agent_id> "GET /m/<meme_id>" <event_kind>

`tick`, `agent_id` and `meme_id` are unsigned ASCII decimal integers that
fit in a signed 64-bit integer, and `event_kind` is one of RECRUIT, CREATE,
SHARE, EXPOSE, INFECT, RECOVER.  RECRUIT events carry no meme, so their
request path is the bare site root: `"GET /"`.  write_lines, the one
serializer, writes column blocks; parse_line defines the grammar one line
at a time; and read_columns(path), the inverse of write_lines, gives back
the written records as blocks.  A line ends at LF, and one CR right before
the LF (or at the end of the file) belongs to the line end, so CRLF logs
read too; a CR anywhere else is part of the line.  Blank lines are
skipped.  A block that write_lines writes back from its columns is read by
one pass over its bytes, any other (a CRLF one included) by parse_line.
read_columns owns a `core.Helper` that runs that pass (`_fields`, then
`_kept`) over half of each block; parse_line, which a profiler wraps,
reads a half that the pass does not keep on the calling thread.
"""

from __future__ import annotations

import json

import numpy as np

from .core import EventKind, EventRecord, Helper, InputError

_INT64_MAX = 2**63 - 1

# read_columns reads this many bytes at a time, so its memory is bounded by
# one block (plus the longest line) whatever the size of the log.
_BLOCK_BYTES = 1 << 20


class LogParseError(InputError):
    """A line violates the grammar; carries the line number."""

    reason = "parse-error"

    def __init__(self, message, lineno=None):
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(f"{where}{message}")
        self.lineno = lineno


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
    events, in order: small blocks are joined, and large ones sliced, so a
    chunk that lies inside one block is views of that block's columns."""
    pending, count = [], 0
    for block in blocks:
        n, start = len(block[0]), 0
        while start < n:
            take = min(_CHUNK_EVENTS - count, n - start)
            pending.append([column[start:start + take] for column in block])
            count += take
            start += take
            if count == _CHUNK_EVENTS:
                yield _joined(pending)
                pending, count = [], 0
    if count:
        yield _joined(pending)


def _joined(parts):
    """The column tuples `parts` as one tuple; a lone part as it is."""
    return parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]


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
    """Parse one log line; total over valid lines.  The line end is
    optional: a trailing LF is stripped, then one trailing CR."""
    if not line.isascii():
        # str.isdigit and int accept non-ASCII digits such as '²' and '٣'.
        raise LogParseError("line is not ASCII", lineno)
    text = line.removesuffix("\n").removesuffix("\r")
    chunks = text.split('"')
    if len(chunks) != 3:
        raise LogParseError("request must be a double-quoted token", lineno)
    head, request, tail = chunks
    head_fields = head.split(" ")
    if len(head_fields) != 3 or head_fields[2] != "":
        raise LogParseError(f"expected '<tick> <agent_id> ' before the request,"
                            f" got {head!r}", lineno)
    tick_s, agent_s = head_fields[0], head_fields[1]
    if not tick_s.isdigit():
        raise LogParseError(f"tick must be an unsigned integer, got {tick_s!r}", lineno)
    if not agent_s.isdigit():
        raise LogParseError(f"agent_id must be an unsigned integer, got {agent_s!r}",
                            lineno)
    kind_s = tail[1:] if tail.startswith(" ") else None
    if not kind_s or " " in kind_s:
        raise LogParseError(f"expected ' <event_kind>' after the request, got {tail!r}",
                            lineno)
    kind = EventKind.__members__.get(kind_s)
    if kind is None:
        raise LogParseError(f"unknown event kind {kind_s!r}", lineno)

    meme_s = ""
    if request == "GET /":
        if kind is not EventKind.RECRUIT:
            raise LogParseError(f"bare-root request is only valid for RECRUIT,"
                                f" got {kind_s}", lineno)
    elif request.startswith("GET /m/"):
        meme_s = request[len("GET /m/"):]
        if not meme_s.isdigit():
            raise LogParseError(f"meme_id must be an unsigned integer, got {meme_s!r}",
                                lineno)
        if kind is EventKind.RECRUIT:
            raise LogParseError("RECRUIT records carry no meme path", lineno)
    else:
        raise LogParseError(f"malformed request {request!r}", lineno)
    # Checked last, so a line that breaks the grammar elsewhere reports that.
    for name, digits in (("tick", tick_s), ("agent_id", agent_s), ("meme_id", meme_s)):
        if digits and int(digits) > _INT64_MAX:
            raise LogParseError(f"{name} must be at most {_INT64_MAX}, got {digits!r}",
                                lineno)
    return EventRecord(tick=int(tick_s), kind=kind, agent_id=int(agent_s),
                       meme_id=int(meme_s) if meme_s else None)


def read_columns(path):
    """Yield the log at `path` as blocks of int64 columns (ticks, kinds,
    agents, memes), write_lines' inverse: kinds are EventKind values and
    memes -1 for RECRUIT.  The file is read _BLOCK_BYTES at a time, cut
    after its last LF and again after the last LF of its first half, which
    the helper parses.  A LogParseError numbers lines in the whole file."""
    lineno, pending = 0, b""
    with open(path, "rb") as fh, Helper() as helper:
        while chunk := fh.read(_BLOCK_BYTES):
            pending, chunk = pending + chunk, None  # chunk not held through the parse
            cut = 1 + pending.rfind(b"\n")
            if cut:
                block, pending = pending[:cut], pending[cut:]
                u = np.frombuffer(block, dtype=np.uint8)
                middle = 1 + block.rfind(b"\n", 0, cut // 2)
                first, second = u[:middle], u[middle:]  # views: no byte is copied
                # Each pass starts on both halves at once: their memory peaks meet.
                parsed = helper.both(_fields, (first,), (second,))
                kept = helper.both(_kept, (parsed[0], first), (parsed[1], second))
                for half, (_, lines), columns in zip((first, second), parsed, kept):
                    if lines:                       # the first half may be empty
                        yield columns or _parse_block_by_line(half.tobytes(), lineno)
                        lineno += lines
        if pending:                                 # no LF: the quick parse fails
            yield _parse_block_by_line(pending, lineno)


def _fields(u):
    """The columns of the lines in `u` (uint8), or None outside write_lines'
    domain, and its LF count.  The fields of `<tick> <agent> "GET /m/<meme>"
    <KIND>` are found by the LFs, spaces and quotes of `u`, and a kind by
    its second-last letter, unique to each kind."""
    ends, spaces, quotes = (np.flatnonzero(u == ord(byte)) for byte in '\n "')
    n = len(ends)
    if not (n and ends[-1] == len(u) - 1 and len(spaces) == 4 * n and len(quotes) == 2 * n):
        return None, n
    spaces, quotes = spaces.reshape(n, 4).T, quotes.reshape(n, 2).T
    digits = u - np.uint8(ord("0"))
    digits *= digits < 10               # every byte but a digit reads 0
    # The byte before the first line is the block's last, an LF.
    ticks = _numbers(digits, np.concatenate(([-1], ends[:-1])), spaces[0])
    agents = _numbers(digits, spaces[0], spaces[1])
    memes = _numbers(digits, quotes[0] + len('"GET /m'), quotes[1])
    memes[quotes[1] - quotes[0] == len('"GET /')] = -1
    codes = np.full(256, -1, dtype=np.int64)
    codes[[ord(kind.name[-2]) for kind in EventKind]] = list(EventKind)
    kinds = codes[u[ends - 2]]
    if (min(ticks.min(), kinds.min(), agents.min()) < 0     # write_lines' domain
            or not np.array_equal(memes < 0, kinds == EventKind.RECRUIT)):
        return None, n
    return (ticks, kinds, agents, memes), n


def _kept(parsed, u):
    """The columns of `parsed`, from _fields, if write_lines writes them
    back as exactly `u` (then parse_line reads `u` the same), else None;
    compared one chunk at a time, cuts that the NUL-free text does not show."""
    columns, _ = parsed
    at = 0
    for chunk in _chunks([columns] if columns else ()):
        text = _format_chunk(*chunk)
        if not np.array_equal(np.frombuffer(text, np.uint8), u[at:at + len(text)]):
            return None
        at += len(text)
    return columns if at == len(u) else None


def _numbers(digits, before, ends):
    """The numbers from the last 19 digits strictly between `before` and
    `ends`, where `digits` reads 0 at every byte but a digit: exact in
    uint64, so as int64 a number past INT64_MAX is negative."""
    before = np.minimum(before, ends)   # a stray quote can put it past the block
    value = np.zeros(len(ends), dtype=np.uint64)
    for k in range(min(int((ends - before).max()) - 1, 19)):
        value += digits[np.maximum(ends - (k + 1), before)] * np.uint64(10**k)
    return value.view(np.int64)


def _parse_block_by_line(block: bytes, lines_before: int):
    """The same columns by parse_line, one line at a time: raises at the
    first bad line, and skips blank lines of any Unicode whitespace."""
    rows = []
    for lineno, line in enumerate(block.split(b"\n"), start=lines_before + 1):
        text = line.decode("utf-8", errors="surrogateescape")
        if text.strip():
            record = parse_line(text, lineno)
            rows.append((record.tick, record.kind, record.agent_id,
                         -1 if record.meme_id is None else record.meme_id))
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 4).T)


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
    """`table`, (sorted distinct keys, int64 counts), plus `counts` at `keys`."""
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
