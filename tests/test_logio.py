"""Log line codec and streaming aggregation."""

import io
import random

import pytest

from _helpers import emit_line, write_records
from memesim.core import EventKind, EventRecord, InputError
from memesim.logio import (
    LogParseError,
    aggregate_hits,
    parse_line,
    parse_lines,
    read_log,
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
    buf = io.StringIO()
    write_records(buf, records)
    return buf.getvalue()


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
        assert err.value.token == token


def test_parse_lines_reports_line_numbers():
    lines = ['0 1 "GET /" RECRUIT\n', "garbage\n"]
    with pytest.raises(LogParseError) as err:
        list(parse_lines(lines))
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
    with open(path, "w", newline="") as fh:
        write_records(fh, records)
    assert list(read_log(path)) == records
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw


def test_read_log_reports_undecodable_byte(tmp_path):
    path = tmp_path / "events.log"
    path.write_bytes(b'0 1 "GET /" RECRUIT\n\xff 1 "GET /m/0" EXPOSE\n')
    with pytest.raises(LogParseError) as err:
        list(read_log(path))
    assert err.value.lineno == 2


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _expose(tick, meme, agent=0):
    return EventRecord(tick, EventKind.EXPOSE, agent, meme)


def _create(tick, meme, agent=0):
    return EventRecord(tick, EventKind.CREATE, agent, meme)


def test_empty_stream():
    s = aggregate_hits([])
    assert s.total_hits == 0 and s.meme_count == 0 and s.max_hits == 0
    assert s.median_hits == 0.0 and s.fraction_below_2 == 0.0


def test_median_counts_created_but_unseen_memes():
    records = [_create(0, 0), _create(0, 1), _create(0, 2)]
    records += [_expose(1, 0)] * 5 + [_expose(2, 1)]
    s = aggregate_hits(records)
    # Hand-computed median over counts {5, 1, 0} is 1.
    assert s.per_meme == {0: 5, 1: 1, 2: 0}
    assert s.median_hits == 1.0
    assert s.max_hits == 5 and s.total_hits == 6 and s.meme_count == 3


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
    s = aggregate_hits(records)
    assert s.total_hits == 2000
    assert s.max_hits == 72
    assert s.meme_count == 236
    assert s.fraction_below_2 > 0.5
    assert s.median_hits <= 2


def test_binning():
    records = [_expose(t, 0) for t in (0, 1, 9, 10, 25)]
    s = aggregate_hits(records, bin_width_ticks=10)
    assert s.bins == {0: 3, 10: 1, 20: 1}
    assert s.bin_width_ticks == 10


def test_counted_kinds_override():
    records = [_create(0, 0), _expose(1, 0),
               EventRecord(1, EventKind.SHARE, 9, 0)]
    s = aggregate_hits(records, counted_kinds={EventKind.SHARE})
    assert s.per_meme == {0: 1}
    assert s.total_hits == 1


def test_totals_match_bruteforce_recount_on_million_line_log():
    # Streamed both times so the aggregation's single-pass claim is also
    # exercised at full scale.
    def stream(seed, n):
        rng = random.Random(seed)
        for i in range(n):
            meme = rng.randrange(2_000)
            kind = EventKind.EXPOSE if rng.random() < 0.8 else EventKind.CREATE
            yield EventRecord(i % 20_000, kind, rng.randrange(5_000), meme)

    n = 1_000_000
    s = aggregate_hits(stream(31, n))
    expected = {}
    for rec in stream(31, n):
        if rec.kind is EventKind.EXPOSE:
            expected[rec.meme_id] = expected.get(rec.meme_id, 0) + 1
        else:
            expected.setdefault(rec.meme_id, 0)
    assert s.per_meme == expected
    assert s.total_hits == sum(expected.values())
    assert s.max_hits == max(expected.values())


def test_invalid_bin_width():
    with pytest.raises(InputError):
        aggregate_hits([], bin_width_ticks=0)
