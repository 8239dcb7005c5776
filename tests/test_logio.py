"""Log line codec, the block reader and column aggregation."""

import io
import random
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import (
    aggregate_records,
    columns_of,
    emit_line,
    read_log,
    records_of,
    run_python,
    table_dict,
    watchdog,  # noqa: F401 (a fixture)
    write_records,
)
from memesim import logio
from memesim.core import EventKind, EventRecord, InputError
from memesim.logio import (
    LogParseError,
    aggregate_hits,
    hit_summary,
    parse_line,
    read_columns,
)

KINDS = list(EventKind)


def random_record(rng: random.Random) -> EventRecord:
    kind = rng.choice(KINDS)
    meme = None if kind is EventKind.RECRUIT else rng.randrange(0, 10_000)
    return EventRecord(tick=rng.randrange(0, 100_000), kind=kind,
                       agent_id=rng.randrange(0, 1_000_000), meme_id=meme)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

def written(records) -> str:
    buf = io.BytesIO()
    write_records(buf, records)
    return buf.getvalue().decode("ascii")


def test_emit_example_line():
    rec = EventRecord(tick=7, kind=EventKind.EXPOSE, agent_id=12, meme_id=3)
    assert written([rec]) == '7 12 "GET /m/3" EXPOSE\n'


def test_emit_recruit_uses_site_root():
    rec = EventRecord(tick=0, kind=EventKind.RECRUIT, agent_id=4, meme_id=None)
    assert written([rec]) == '0 4 "GET /" RECRUIT\n'


def test_round_trip_10k_random_records():
    rng = random.Random(1234)
    records = [random_record(rng) for _ in range(10_000)]
    text = written(records)
    assert text == "".join(emit_line(rec) for rec in records)
    assert [parse_line(line) for line in text.splitlines()] == records


def test_parse_accepts_line_without_newline():
    rec = parse_line('7 12 "GET /m/3" EXPOSE')
    assert rec == EventRecord(7, EventKind.EXPOSE, 12, 3)


@pytest.mark.parametrize("line,token", [
    ('7 12 GET /m/3 EXPOSE', None),            # missing quotes
    ('7 12 "GET /m/3" NOPE', "NOPE"),          # unknown kind
    ('x 12 "GET /m/3" EXPOSE', "x"),           # bad tick
    ('7 -12 "GET /m/3" EXPOSE', "-12"),        # signed agent
    ('7 12 "GET /m/3.5" EXPOSE', "3.5"),       # non-integer meme
    ('7 12 "GET /m/3" RECRUIT', None),         # recruit with meme path
    ('7 12 "GET /" EXPOSE', None),             # bare root for non-recruit
    ('7 12 "POST /m/3" EXPOSE', None),         # wrong verb
    ('7  12 "GET /m/3" EXPOSE', None),         # double space
    ('7 12 "GET /m/3" EXPOSE extra', None),    # trailing junk
    ('', None),
    ('\u00b2 12 "GET /m/3" EXPOSE', None),     # superscript two: isdigit, not int
    ('\u0663 12 "GET /m/3" EXPOSE', None),     # Arabic-Indic three: int() gives 3
    ('\udcff 12 "GET /m/3" EXPOSE', None),     # byte 0xff read with surrogateescape
])
def test_parse_rejects_malformed(line, token):
    with pytest.raises(LogParseError) as err:
        parse_line(line, lineno=17)
    assert err.value.lineno == 17
    assert "line 17" in str(err.value)
    if token is not None:
        assert repr(token) in str(err.value)


def test_parse_lines_reports_line_numbers(tmp_path):
    path = tmp_path / "events.log"
    path.write_text('0 1 "GET /" RECRUIT\ngarbage\n')
    with pytest.raises(LogParseError) as err:
        list(read_columns(path))
    assert err.value.lineno == 2


def test_emit_rejects_invalid_records():
    with pytest.raises(InputError):
        emit_line(EventRecord(0, EventKind.RECRUIT, 1, meme_id=5))
    with pytest.raises(InputError):
        emit_line(EventRecord(0, EventKind.EXPOSE, 1, meme_id=None))
    with pytest.raises(InputError):
        emit_line(EventRecord(-1, EventKind.EXPOSE, 1, meme_id=0))


def test_file_round_trip(tmp_path):
    rng = random.Random(99)
    records = [random_record(rng) for _ in range(500)]
    path = tmp_path / "events.log"
    with open(path, "wb") as fh:
        write_records(fh, records)
    assert records_of(read_columns(path)) == records
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw


@st.composite
def int64_records(draw):
    """A record whose numbers span the whole non-negative int64 range."""
    kind = draw(st.sampled_from(KINDS))
    meme = None if kind is EventKind.RECRUIT else draw(st.integers(0, 2 ** 63 - 1))
    return EventRecord(draw(st.integers(0, 2 ** 63 - 1)), kind,
                       draw(st.integers(0, 2 ** 63 - 1)), meme)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(blocks=st.lists(st.lists(int64_records(), max_size=6), min_size=1, max_size=4))
def test_column_blocks_round_trip(tmp_path_factory, blocks):
    # write_lines writes any iterable of column blocks, empty ones included,
    # and read_columns gives back the records it wrote.
    records = [record for block in blocks for record in block]
    path = tmp_path_factory.mktemp("blocks") / "events.log"
    with open(path, "wb") as fh:
        logio.write_lines(fh, (columns_of(block) for block in blocks))
    assert path.read_bytes() == "".join(map(emit_line, records)).encode()
    assert records_of(read_columns(path)) == records


# ---------------------------------------------------------------------------
# Bulk writer: chunks of column blocks against the one-record oracle
# ---------------------------------------------------------------------------

CHUNK = logio._CHUNK_EVENTS


def written_blocks(blocks) -> bytes:
    buf = io.BytesIO()
    logio.write_lines(buf, blocks)
    return buf.getvalue()


def emitted(blocks) -> bytes:
    return "".join(map(emit_line, records_of(blocks))).encode("ascii")


def random_block(rng, n, top=10**6, kinds_dtype=np.int64):
    """n random events with numbers below `top`, as one column block."""
    kinds = rng.integers(0, len(KINDS), n).astype(kinds_dtype)
    memes = np.where(kinds == EventKind.RECRUIT, -1, rng.integers(0, top, n))
    return rng.integers(0, top, n), kinds, rng.integers(0, top, n), memes


def straddling_blocks():
    rng = np.random.default_rng(1)
    return [random_block(rng, n) for n in (CHUNK - 3, 7, CHUNK - 4, 4, 1, CHUNK)]


def digit_width_blocks():
    # Tick 9 -> 10, agent 99,999 -> 100,000 and meme 9 -> 10 alternate, so
    # numbers are right-aligned in columns wider than themselves.
    n = 1000
    return [(np.resize([9, 10], n), np.resize([EventKind.EXPOSE, EventKind.SHARE], n),
             np.resize([99_999, 100_000, 0], n), np.resize([9, 10, 0, 1], n))]


def recruit_and_empty_blocks():
    n = 50
    empty = tuple(np.empty(0, dtype=np.int64) for _ in range(4))
    recruits = (np.arange(n), np.full(n, EventKind.RECRUIT), np.arange(n) * 1000,
                np.full(n, -1))
    return [empty, recruits, empty, empty]


def extreme_id_blocks():
    # Ticks and memes of 19 digits, agents of 10 digits past uint32.
    return [(np.array([0, INT64_MAX, 0, INT64_MAX]),
             np.array([EventKind.RECRUIT, EventKind.RECRUIT, EventKind.EXPOSE,
                       EventKind.RECOVER], dtype=np.int8),
             np.array([0, 2**32, 10**10 - 1, 2**32 - 1]),
             np.array([-1, -1, INT64_MAX, 0]))]


@pytest.mark.parametrize("make_blocks", [
    straddling_blocks,
    lambda: [random_block(np.random.default_rng(2), 2 * CHUNK + 5)],
    digit_width_blocks,
    recruit_and_empty_blocks,
    lambda: [tuple(np.empty(0, dtype=np.int64) for _ in range(4))],
    lambda: [random_block(np.random.default_rng(3), n, kinds_dtype=np.int8)
             for n in (100, CHUNK)],
    extreme_id_blocks,
], ids=["straddle-chunks", "block-larger-than-chunk", "digit-widths-change",
        "all-recruit-and-empty", "only-empty", "int8-kinds", "ids-0-to-int64-max"])
def test_writer_matches_emit_line(make_blocks):
    # kinds are int64, as read_columns gives them, except where a case
    # passes the engine's int8.
    blocks = make_blocks()
    assert written_blocks(blocks) == emitted(blocks)


def test_a_chunk_inside_one_block_is_the_blocks_own_memory():
    # A large block is formatted from views of its columns; only a chunk
    # that joins blocks is a copy.
    rng = np.random.default_rng(9)
    block = random_block(rng, 3 * CHUNK + 5)
    chunks = list(logio._chunks([block]))
    assert [len(chunk[0]) for chunk in chunks] == [CHUNK, CHUNK, CHUNK, 5]
    assert all(np.shares_memory(column, whole)
               for chunk in chunks for column, whole in zip(chunk, block))
    small = [random_block(rng, 3), random_block(rng, 4)]
    (joined,) = logio._chunks(small)
    assert all(np.array_equal(column, np.concatenate(parts))
               for column, *parts in zip(joined, *small))


def test_writer_memory_does_not_grow_with_the_log():
    # The writer's traced peak, beyond the bytes it has written, is one
    # chunk's working set: it is the same for 50k events (four chunks) as
    # for 400k.  io.BytesIO grows its buffer by up to an eighth of what it
    # holds, so that slack is counted with the written bytes.
    rng = np.random.default_rng(4)

    def overhead(n):
        blocks = [random_block(rng, 1000) for _ in range(n // 1000)]
        buf = io.BytesIO()
        tracemalloc.start()
        try:
            logio.write_lines(buf, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - len(buf.getvalue()) * 9 // 8

    small, large = overhead(50_000), overhead(400_000)
    assert large <= small + (512 << 10), (small, large)


def test_kind_codes_are_pinned():
    # read_columns hands these codes to callers, so reordering EventKind
    # would change its public output.
    assert [(k.name, int(k)) for k in EventKind] == [
        ("RECRUIT", 0), ("CREATE", 1), ("SHARE", 2),
        ("EXPOSE", 3), ("INFECT", 4), ("RECOVER", 5)]


def test_read_log_reports_undecodable_byte(tmp_path):
    path = tmp_path / "events.log"
    path.write_bytes(b'0 1 "GET /" RECRUIT\n\xff 1 "GET /m/0" EXPOSE\n')
    with pytest.raises(LogParseError) as err:
        list(read_columns(path))
    assert err.value.lineno == 2


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _expose(tick, meme, agent=0):
    return EventRecord(tick, EventKind.EXPOSE, agent, meme)


def _create(tick, meme, agent=0):
    return EventRecord(tick, EventKind.CREATE, agent, meme)


def aggregate(records, **kwargs):
    return aggregate_hits([columns_of(records)], **kwargs)


def summary_of(memes):
    return hit_summary(memes[1], 1)


def test_empty_stream():
    memes, bins = aggregate_hits([])
    assert table_dict(memes) == {} and table_dict(bins) == {}
    s = summary_of(memes)
    assert s["total_hits"] == 0 and s["meme_count"] == 0 and s["max_hits"] == 0
    assert s["median_hits"] == 0.0 and s["fraction_below_2"] == 0.0


def test_median_counts_created_but_unseen_memes():
    records = [_create(0, 0), _create(0, 1), _create(0, 2)]
    records += [_expose(1, 0)] * 5 + [_expose(2, 1)]
    memes, _ = aggregate(records)
    # Hand-computed median over counts {5, 1, 0} is 1.
    assert table_dict(memes) == {0: 5, 1: 1, 2: 0}
    s = summary_of(memes)
    assert s["median_hits"] == 1.0
    assert s["max_hits"] == 5 and s["total_hits"] == 6 and s["meme_count"] == 3


def test_skewed_traffic_scenario():
    # Constructed input: 236 memes, one requested 72 times, 2000 total
    # requests, more than half the memes below 2 hits.
    rng = random.Random(42)
    records = [_create(0, m) for m in range(236)]
    counts = {m: 0 for m in range(236)}
    counts[0] = 72
    # 150 memes get 0 or 1 hit; remaining mass spread over the middle.
    singles = list(range(1, 121))
    for m in singles:
        counts[m] = 1
    remaining = 2000 - 72 - len(singles)
    mid = list(range(121, 236))
    while remaining > 0:
        counts[rng.choice(mid)] += 1
        remaining -= 1
    tick = 0
    for m, c in counts.items():
        for _ in range(c):
            records.append(_expose(tick % 700, m))
            tick += 1
    s = summary_of(aggregate(records)[0])
    assert s["total_hits"] == 2000
    assert s["max_hits"] == 72
    assert s["meme_count"] == 236
    assert s["fraction_below_2"] > 0.5
    assert s["median_hits"] <= 2


def test_binning():
    records = [_expose(t, 0) for t in (0, 1, 9, 10, 25)]
    _, bins = aggregate(records, bin_width_ticks=10)
    assert table_dict(bins) == {0: 3, 10: 1, 20: 1}


def test_totals_match_bruteforce_recount_on_million_line_log():
    # Streamed both times so the aggregation's single-pass claim is also
    # exercised at full scale.
    def stream(seed, n):
        rng = random.Random(seed)
        for i in range(n):
            meme = rng.randrange(2_000)
            kind = EventKind.EXPOSE if rng.random() < 0.8 else EventKind.CREATE
            yield EventRecord(i % 20_000, kind, rng.randrange(5_000), meme)

    def blocks(records, size=50_000):
        block = []
        for rec in records:
            block.append(rec)
            if len(block) == size:
                yield columns_of(block)
                block = []
        yield columns_of(block)

    n = 1_000_000
    memes, _ = aggregate_hits(blocks(stream(31, n)))
    expected = {}
    for rec in stream(31, n):
        if rec.kind is EventKind.EXPOSE:
            expected[rec.meme_id] = expected.get(rec.meme_id, 0) + 1
        else:
            expected.setdefault(rec.meme_id, 0)
    assert table_dict(memes) == expected
    s = summary_of(memes)
    assert s["total_hits"] == sum(expected.values())
    assert s["max_hits"] == max(expected.values())


def test_invalid_bin_width():
    with pytest.raises(InputError):
        aggregate_hits([], bin_width_ticks=0)


# ---------------------------------------------------------------------------
# Block reader against the per-line oracle
# ---------------------------------------------------------------------------

INT64_MAX = 2**63 - 1


def _outcome(read):
    """What a reader makes of a log: its records and summaries, or its error."""
    try:
        return "ok", read()
    except LogParseError as exc:
        return "error", (exc.lineno, str(exc))


# Mutations of a valid log, given as its lines (bytes, each LF-ended), a
# line index and a hypothesis draw.  A lone b"\r" (here and in "cr") is no
# line end: it joins two lines, and both readers must make the same of that.
BLANK_LINES = [b"\n", b"\r\n", b"\r", b"   \n", b"\t\x0b\x0c\n", b"  \r  \n",
               b"\x1c\n", "\u00a0\n".encode(), "\u3000\r\n".encode(), b"\r\r\n"]
MUTATIONS = {
    "crlf": lambda lines, i, draw: _set(lines, i, lines[i][:-1] + b"\r\n"),
    "cr": lambda lines, i, draw: _set(lines, i, lines[i][:-1] + b"\r"),
    "all-crlf": lambda lines, i, draw: [ln[:-1] + b"\r\n" for ln in lines],
    "blank": lambda lines, i, draw: _insert(
        lines, i, [draw(st.sampled_from(BLANK_LINES))]),
    "no-final-newline": lambda lines, i, draw: lines[:-1] + [lines[-1].rstrip(b"\n")],
    "non-ascii": lambda lines, i, draw: _set(lines, i, draw(st.sampled_from(
        ["\u0663", "\u00b2", "\u00e9"])).encode() + lines[i]),
    "undecodable": lambda lines, i, draw: _set(lines, i, _insert(
        lines[i], draw(st.integers(0, len(lines[i]))), b"\xff")),
    "leading-zeros": lambda lines, i, draw: _set(lines, i, _pad_numbers(
        lines[i], draw(st.integers(1, 30)))),
    "big-number": lambda lines, i, draw: _set(lines, i, _swap_number(
        lines[i], draw(st.sampled_from([INT64_MAX, INT64_MAX + 1, 10**19, 10**30])),
        draw(st.integers(0, 2)))),
    "recruit-with-meme": lambda lines, i, draw: _set(
        lines, i, lines[i].replace(b'"GET /"', b'"GET /m/5"')
        if b'"GET /"' in lines[i] else lines[i].rsplit(b" ", 1)[0] + b" RECRUIT\n"),
    "bare-root": lambda lines, i, draw: _set(
        lines, i, lines[i].split(b'"')[0] + b'"GET /" EXPOSE\n'),
    "byte": lambda lines, i, draw: _set(lines, i, _insert(
        lines[i], draw(st.integers(0, len(lines[i]))),
        draw(st.sampled_from([b" ", b'"', b"/", b"m", b"x", b"7", b"\t", b"\r",
                              b"\n", b"\x00", b"-"])))),
}


def _set(lines, i, line):
    return lines[:i] + [line] + lines[i + 1:]


def _insert(seq, at, piece):
    return seq[:at] + piece + seq[at:]


def _pad_numbers(line, zeros):
    return re.sub(rb"\b(?=\d)", b"0" * zeros, line)


def _swap_number(line, value, which):
    runs = list(re.finditer(rb"\d+", line))
    if not runs:
        return line
    run = runs[which % len(runs)]
    return line[:run.start()] + b"%d" % value + line[run.end():]


record_strategy = st.builds(
    lambda kind, tick, agent, meme: EventRecord(
        tick, kind, agent, None if kind is EventKind.RECRUIT else meme),
    st.sampled_from(KINDS), st.integers(0, 10**6), st.integers(0, 10**4),
    st.integers(0, 40))


@settings(max_examples=500, deadline=None)
@given(records=st.lists(record_strategy, min_size=1, max_size=30),
       mutations=st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3),
       block_bytes=st.sampled_from([1, 2, 7, 40, 200, logio._BLOCK_BYTES]),
       bin_width=st.one_of(st.integers(1, 10**6), st.just(2**64)),
       data=st.data())
def test_block_reader_matches_line_oracle(tmp_path_factory, records, mutations,
                                          block_bytes, bin_width, data):
    lines = [emit_line(rec).encode() for rec in records]
    for mutation in mutations:
        i = data.draw(st.integers(0, len(lines) - 1))
        lines = MUTATIONS[mutation](lines, i, data.draw)
    path = tmp_path_factory.mktemp("log") / "events.log"
    path.write_bytes(b"".join(lines))

    def oracle():
        recs = list(read_log(path))
        return recs, aggregate_records(recs, bin_width)

    def block_reader():
        # Tables as dicts: == on tuples of numpy arrays raises.
        return (records_of(read_columns(path)),
                tuple(map(table_dict, aggregate_hits(read_columns(path), bin_width))))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logio, "_BLOCK_BYTES", block_bytes)
        assert _outcome(block_reader) == _outcome(oracle)


@pytest.mark.parametrize("blank", BLANK_LINES)
@pytest.mark.parametrize("tail", [b"", b"garbage\n"])
def test_blank_lines_match_line_oracle(tmp_path, blank, tail):
    path = tmp_path / "events.log"
    path.write_bytes(b'0 1 "GET /" RECRUIT\n' + blank + b'0 1 "GET /m/0" CREATE\n'
                     + blank + tail)
    assert (_outcome(lambda: records_of(read_columns(path)))
            == _outcome(lambda: list(read_log(path))))


def test_error_past_first_block_keeps_global_line_number(tmp_path):
    # Two blank lines, several blocks of valid lines, then one bad line.
    rng = random.Random(5)
    records = [random_record(rng) for _ in range(100_000)]
    good = written(records).encode()
    assert len(good) > 2 * logio._BLOCK_BYTES
    path = tmp_path / "events.log"
    path.write_bytes(b"\r\n\n" + good + b'7 12 "GET /m/3" EXPOSEX\n')
    with pytest.raises(LogParseError) as err:
        list(read_columns(path))
    assert err.value.lineno == 100_003
    assert str(err.value) == "line 100003: unknown event kind 'EXPOSEX'"
    path.write_bytes(b"\r\n\n" + good)
    assert records_of(read_columns(path)) == records


GOLDEN_LOG = Path(__file__).parent / "golden" / "events.log"
RECRUIT_LINE = b'0 1 "GET /" RECRUIT\n'
EXPOSE_LINE = b'7 12 "GET /m/3" EXPOSE\n'


@pytest.mark.parametrize("log,expected", [
    # A CRLF log reads to the columns of the LF log.
    (GOLDEN_LOG.read_bytes().replace(b"\n", b"\r\n"), GOLDEN_LOG.read_bytes()),
    # One CR without an LF still ends the last line.
    (RECRUIT_LINE + EXPOSE_LINE[:-1] + b"\r", RECRUIT_LINE + EXPOSE_LINE),
    # CRLF-ended blank lines are skipped.
    (RECRUIT_LINE + b"\r\n" + b"  \r  \n" + EXPOSE_LINE, RECRUIT_LINE + EXPOSE_LINE),
    # A CR that no LF follows is part of the line, not a line end.
    (RECRUIT_LINE + b"\r" + EXPOSE_LINE,
     "line 2: tick must be an unsigned integer, got '\\r7'"),
    # Blank LF and CRLF lines and a leading zero in a log of both line ends.
    (b'0 1 "GET /" RECRUIT\n1 1 "GET /m/0" CREATE\n2 2 "GET /m/0" EXPOSE\n\r\n'
     b'3 3 "GET /m/00" EXPOSE\n\n4 4 "GET /m/1" CREATE\n5 5 "GET /m/1" EXPOSE\n',
     b'0 1 "GET /" RECRUIT\n1 1 "GET /m/0" CREATE\n2 2 "GET /m/0" EXPOSE\n'
     b'3 3 "GET /m/0" EXPOSE\n4 4 "GET /m/1" CREATE\n5 5 "GET /m/1" EXPOSE\n'),
], ids=["crlf-golden", "cr-at-end", "crlf-blank", "lone-cr", "blanks-and-leading-zero"])
def test_line_ends_at_lf_with_one_optional_cr(tmp_path, log, expected):
    path = tmp_path / "events.log"
    path.write_bytes(log)
    if isinstance(expected, str):
        with pytest.raises(LogParseError) as err:
            list(read_columns(path))
        assert str(err.value) == expected
        return
    lf_path = tmp_path / "lf.log"
    lf_path.write_bytes(expected)
    for got, want in zip(zip(*read_columns(path)), zip(*read_columns(lf_path))):
        assert np.array_equal(np.concatenate(got), np.concatenate(want))


def test_canonical_logs_take_the_quick_path(tmp_path, monkeypatch):
    # What write_lines writes never reads line by line: not the golden log,
    # nor one of several blocks with ids up to INT64_MAX.
    def by_line(block, lines_before):
        raise AssertionError(f"block after line {lines_before} read by line")
    monkeypatch.setattr(logio, "_parse_block_by_line", by_line)
    assert records_of(read_columns(GOLDEN_LOG)) == list(read_log(GOLDEN_LOG))

    rng = np.random.default_rng(7)
    blocks = [random_block(rng, 20_000, top=INT64_MAX) for _ in range(3)]
    blocks += extreme_id_blocks()
    path = tmp_path / "events.log"
    with open(path, "wb") as fh:
        logio.write_lines(fh, blocks)
    assert path.stat().st_size > 3 * logio._BLOCK_BYTES
    read = list(read_columns(path))
    for column, got in zip(zip(*blocks), zip(*read)):
        assert np.array_equal(np.concatenate(column), np.concatenate(got))


@pytest.mark.parametrize("line", [
    b'0 1 "GET /m/2" 9\n',                      # a kind code, not a name
    b'0 1 "GET /" EXPOSE\n',                    # bare root, not RECRUIT
    b'0 1 "GET /m/5" RECRUIT\n',                # RECRUIT with a meme
    b'0 1 "GET /m/5 EXPOSE\n',                  # no closing quote
    b'-1 1 "GET /m/5" EXPOSE\n',                # negative tick
    b'0\t1 "GET /m/5" EXPOSE\n',                # tab separator
    b'1e3 1 "GET /m/5" EXPOSE\n',               # exponent
    b'007 1 "GET /m/05" CREATE\n',              # leading zeros
    b'%d 1 "GET /m/5" EXPOSE\n' % 2**63,        # one past INT64_MAX: < 0 as int64
    b'%d 1 "GET /m/%d" EXPOSE\n' % (INT64_MAX, INT64_MAX),
    b'0 1 "GET /m/5" EXPOSE 7\n',               # extra field
    b'0 1 "GET /m/5" EXPOSE',                   # no final newline
    b'%d 1 "GET /m/5" EXPOSE\n' % (10**18 + 7),  # 19 digits
    b'0 %d "GET /m/5" EXPOSE\n' % 10**19,       # 20 digits
    b'0 1 "GET /m/%d" SHARE\n' % 12345678901234567890,  # last 19 digits fit
    b'0 1 "GET /m/5" RECOVER\n',                # RECOVER is no RECRUIT
    b'0 1 "GET /" RECOVER\n',
    b'0 1 "GET /" RECRUIT\n1 2 "GET /m/5" RECOVER\n',
    b'0 1 "GET /m/5" expose\n',                 # lower case
    b'0 1 "GET /m/5" ExPOSE\n',                 # second-last letter upper case
    b'0 1 "GET /m/5" EXPOSE \n',                # trailing space
    b'0 1 "GET /m/5" EXPOSE \n0 1 "GET /m/5"EXPOSE\n',  # spaces count right
    b'0 1 "GET /m/" EXPOSE\n',                  # empty meme
    b'0 1 "GET /x/5" EXPOSE\n',
    b'0  1 "GET /m/5" EXPOSE\n',                # double space
    b'0  1 "GET /m/5" EXPOSE\n0 1 "GET /m/5"EXPOSE\n',
    b'0 1 "GET /m/12345" EXPOSE\n0 1 2 3 ""\n',  # a meme's start past the block
])
def test_quick_parse_agrees_with_line_oracle(tmp_path, line):
    # The quick parse reads these as numbers it must not keep, or keeps
    # only what the line path gives; nothing but LogParseError escapes.
    path = tmp_path / "events.log"
    path.write_bytes(line)
    assert (_outcome(lambda: records_of(read_columns(path)))
            == _outcome(lambda: list(read_log(path))))


@st.composite
def counted_line(draw):
    """Four spaces, two quotes and other log bytes in any order, LF-ended:
    the counts the quick parse checks hold, so it places every field."""
    pieces = [b" "] * 4 + [b'"'] * 2 + draw(st.lists(st.sampled_from(
        [b"0", b"7", b"12", b"9" * 19, b"GET", b"/m/", b"/", b"EXPOSE", b"RECRUIT",
         b"RECOVER"]), max_size=6))
    return b"".join(draw(st.permutations(pieces))) + b"\n"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lines=st.lists(st.one_of(counted_line(), record_strategy.map(
    lambda rec: emit_line(rec).encode())), min_size=1, max_size=6))
def test_quick_parse_of_counted_lines_agrees_with_line_oracle(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("counted") / "events.log"
    path.write_bytes(b"".join(lines))
    assert (_outcome(lambda: records_of(read_columns(path)))
            == _outcome(lambda: list(read_log(path))))


def test_number_past_int64_is_rejected():
    with pytest.raises(LogParseError) as err:
        parse_line(f'{2**63} 12 "GET /m/3" EXPOSE', lineno=4)
    assert err.value.lineno == 4 and repr(str(2**63)) in str(err.value)
    assert parse_line(f'{INT64_MAX} 0 "GET /m/{INT64_MAX}" EXPOSE').meme_id == INT64_MAX


def test_sparse_meme_ids_aggregate_without_dense_tables():
    records = [_create(0, 10**12), _expose(10**15, 10**12), _expose(3, 7),
               _create(INT64_MAX, 5 * 10**11)]
    tracemalloc.start()
    try:
        memes, bins = aggregate(records, bin_width_ticks=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table_dict(memes) == {7: 1, 5 * 10**11: 0, 10**12: 1}
    assert table_dict(bins) == {0: 1, 10**15: 1}
    assert peak < 1 << 20


@st.composite
def digit_ids(draw):
    """A non-negative int64 of 1 to 19 decimal digits."""
    digits = draw(st.integers(1, 19))
    low = 0 if digits == 1 else 10 ** (digits - 1)
    return draw(st.integers(low, min(10**digits - 1, INT64_MAX)))


def several_blocks_of_short_lines():
    """Four write_lines blocks of 25,000 lines of about 22 bytes: a log of
    two full read blocks and part of a third, whose halves each hold more
    lines than one chunk."""
    return [[EventRecord(i % 7, KINDS[i % len(KINDS)], i % 100,
                         None if KINDS[i % len(KINDS)] is EventKind.RECRUIT else i % 10)
             for i in range(25_000)] for _ in range(4)]


@settings(max_examples=100, derandomize=True, deadline=None)
@example(blocks=several_blocks_of_short_lines())
@given(blocks=st.lists(st.lists(st.builds(
    lambda kind, tick, agent, meme: EventRecord(
        tick, kind, agent, None if kind is EventKind.RECRUIT else meme),
    st.sampled_from(KINDS), digit_ids(), digit_ids(), digit_ids()),
    min_size=1, max_size=12), min_size=1, max_size=3))
def test_written_blocks_take_the_quick_path(tmp_path_factory, blocks):
    # Whatever write_lines writes, ids of every width and every kind, the
    # quick parse keeps: the line path is never asked.
    def by_line(block, lines_before):
        raise AssertionError(f"block after line {lines_before} read by line")
    path = tmp_path_factory.mktemp("quick") / "events.log"
    with open(path, "wb") as fh:
        logio.write_lines(fh, (columns_of(block) for block in blocks))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logio, "_parse_block_by_line", by_line)
        halves = list(read_columns(path))
    assert records_of(halves) == [r for block in blocks for r in block]
    if len(blocks) > 3:     # the explicit example: more blocks than drawn
        assert max(len(half[0]) for half in halves) > CHUNK


def test_read_memory_is_bounded_by_one_block(tmp_path):
    # The reader's traced peak is the same for a log of 16 blocks as for
    # one of 4, and a few blocks' worth: the file is never held whole.
    rng = np.random.default_rng(8)

    def peak(blocks):
        path = tmp_path / f"{blocks}.log"
        with open(path, "wb") as fh:
            while fh.tell() < blocks * logio._BLOCK_BYTES:
                logio.write_lines(fh, [random_block(rng, 50_000)])
        tracemalloc.start()
        try:
            for _ in read_columns(path):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4), peak(16)
    assert large <= small + (256 << 10), (small, large)
    assert large <= 8 * logio._BLOCK_BYTES, large


# ---------------------------------------------------------------------------
# The two halves of a block
# ---------------------------------------------------------------------------

def _first_cut(data: bytes) -> int:
    """Where read_columns cuts the first block of `data` in two: after the
    last LF in the first half of the block."""
    block = data[:logio._BLOCK_BYTES]
    cut = 1 + block.rfind(b"\n")
    return 1 + block.rfind(b"\n", 0, cut // 2)


@pytest.mark.parametrize("where", ["first-half", "before-cut", "after-cut",
                                   "second-half"])
def test_bad_line_near_the_cut_keeps_its_line_number(tmp_path, watchdog, monkeypatch,
                                                     where):
    # A kind one letter off, in the helper's half, on either side of the
    # cut, or in this thread's half, is reported as the line oracle reports
    # it; every line parse runs on the calling thread.
    rng = random.Random(9)
    good = written([random_record(rng) for _ in range(60_000)]).encode()
    assert len(good) > logio._BLOCK_BYTES
    lines = good.splitlines(keepends=True)
    last_first = good[:_first_cut(good)].count(b"\n") - 1
    bad = {"first-half": 5, "before-cut": last_first, "after-cut": last_first + 1,
           "second-half": last_first + 100}[where]
    lines[bad] = lines[bad][:-2] + b"X\n"    # same length: the cut stays put
    path = tmp_path / "events.log"
    path.write_bytes(b"".join(lines))
    assert _first_cut(path.read_bytes()) == _first_cut(good)
    threads = []
    real = logio.parse_line

    def recorded(line, lineno=None):
        threads.append(threading.current_thread())
        return real(line, lineno)

    monkeypatch.setattr(logio, "parse_line", recorded)
    got = _outcome(lambda: records_of(read_columns(path)))
    assert got == _outcome(lambda: list(read_log(path)))
    assert got[0] == "error" and got[1][0] == bad + 1
    assert set(threads) == {threading.current_thread()}


def test_abandoned_reader_leaves_no_thread(tmp_path, watchdog):
    rng = np.random.default_rng(10)
    path = tmp_path / "events.log"
    with open(path, "wb") as fh:
        logio.write_lines(fh, [random_block(rng, 100_000)])
    assert path.stat().st_size > 2 * logio._BLOCK_BYTES
    before = threading.enumerate()
    blocks = read_columns(path)
    next(blocks)
    assert len(threading.enumerate()) == len(before) + 1
    del blocks
    assert threading.enumerate() == before


# Makes the helper's parse job raise, then prints what read_columns raised,
# whether every call ran on the main thread, and how many threads are left.
_FAILING_FIELDS = """
import sys, threading
import numpy as np
from memesim import logio
real, calls = logio._fields, []
def fields(u):
    calls.append(threading.current_thread() is threading.main_thread())
    if not calls[-1]:
        raise FloatingPointError("fields failed")
    return real(u)
logio._fields = fields
n = 100_000
with open(sys.argv[1], "wb") as fh:
    logio.write_lines(fh, [(np.arange(n), np.full(n, 3), np.arange(n), np.arange(n))])
try:
    for _ in logio.read_columns(sys.argv[1]):
        pass
except FloatingPointError as exc:
    print(exc, all(calls), threading.active_count())
"""


def test_helper_error_is_raised_by_read_columns(tmp_path):
    # In a child process, so that a helper that hangs ends in the timeout
    # rather than hanging the session.
    proc = run_python("-c", _FAILING_FIELDS, str(tmp_path / "events.log"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "fields failed False 1\n"
