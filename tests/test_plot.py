"""SVG chart emitter: determinism and layout basics."""

import math
import sys
import xml.etree.ElementTree as ET

import pytest

from memesim.plot import Panel, render_time_series_svg, _nice_ticks


def _panel(n=30):
    return Panel("series", list(range(n)), [v * v for v in range(n)])


def test_same_input_same_bytes():
    assert render_time_series_svg([_panel()]) == render_time_series_svg([_panel()])


def test_output_is_valid_xml():
    ET.fromstring(render_time_series_svg([_panel(), _panel()]))


def test_two_panels_double_width():
    one = render_time_series_svg([_panel()])
    two = render_time_series_svg([_panel(), _panel()])
    assert 'width="420"' in one
    assert 'width="840"' in two
    assert two.count("<polyline") == 2


def test_degenerate_series_render():
    panels = [Panel("empty", [], []), Panel("flat", [0, 1], [3, 3])]
    ET.fromstring(render_time_series_svg(panels))


def test_nice_ticks_cover_range():
    for lo, hi in ((0, 1), (0, 600), (-5, 12), (0.0, 0.003), (3, 3)):
        ticks = _nice_ticks(lo, hi)
        assert ticks, (lo, hi)
        assert all(lo - 1e-9 <= t for t in ticks)
        # At least one tick near each end of the span.
        assert min(ticks) <= lo + (max(hi, lo + 1) - lo)
        assert len(ticks) <= 12


@pytest.mark.parametrize("lo, hi", [(-1.7e308, 1.7e308), (-sys.float_info.max, sys.float_info.max),
                                    (-1.7e308, 2.0e307), (-5.0, sys.float_info.max)])
def test_nice_ticks_cover_ranges_wider_than_the_largest_float(lo, hi):
    # hi - lo overflows to inf, whose "e" format has no exponent.
    ticks = _nice_ticks(lo, hi)
    assert 2 <= len(ticks) <= 12, ticks
    assert all(math.isfinite(t) and lo <= t <= hi for t in ticks), ticks
    assert ticks == sorted(ticks)
    step = ticks[1] - ticks[0]
    assert ticks[0] - lo < step and hi - ticks[-1] < step
