"""The ragged LinkTable against a padded reference that lives only here.

A table holds just the real path rows of its links, one link after the
other.  Each property is checked against the (N, 25, 7) zero-padded layout
those rows stand for: link i's counts[i] rows first in row i, zeros after.
"""

import math
from dataclasses import fields
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanimg import io
from chanimg.core import MAX_PATHS, LinkState, link_rules
from tables import columns, link, link_table, reference_rule


def padded(paths, counts):
    """(N, W, 7) path rows, zero past each link's count; W = max(MAX_PATHS, counts)."""
    width = max(MAX_PATHS, int(counts.max(initial=0)))
    out = np.zeros((len(counts), width, 7))
    out[np.arange(width) < counts[:, None]] = paths
    return out


ANGLE = st.floats(-180.0, 180.0, exclude_min=True)
ZENITH = st.floats(0.0, 180.0)
PATH = st.tuples(st.floats(1.0, 200.0), st.floats(1e-9, 1e-5), ANGLE, ZENITH, ANGLE, ZENITH,
                 st.floats(-359.0, 0.0))
# Outage links without paths and full 25-path links among the rest
COUNTS = st.sampled_from([0, 0, 1, 2, 7, MAX_PATHS - 1, MAX_PATHS])
PATH_ROW = [100.0, 1e-6, 10.0, 90.0, -170.0, 90.0, -5.0]


@st.composite
def valid_links(draw, max_links=6):
    """Links that keep every rule, with delay-sorted paths and distinct endpoints."""
    links = []
    for _ in range(draw(st.integers(1, max_links))):
        rows = sorted(draw(st.lists(PATH, min_size=(n := draw(COUNTS)), max_size=n)),
                      key=lambda row: row[1])
        state = draw(st.sampled_from(list(LinkState))) if rows else LinkState.OUTAGE
        x, y = draw(st.floats(-500.0, 500.0)), draw(st.floats(-500.0, 500.0))
        dx, dy = draw(st.floats(1.0, 500.0)), draw(st.floats(-500.0, 500.0))
        links.append(link((x, y, 30.0), (x + dx, y + dy, 1.5), 12e9, state, rows))
    return links


# one way to break a link: (path field, value), a link edit, or None for none
BREAKS = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 6), st.sampled_from([math.nan, math.inf, -1.0, 0.0, 181.0,
                                                  -180.0, -360.0, 1.0])),
    st.sampled_from(["unsorted", "no-paths", "26-paths", "tx-nan", "freq-zero", "freq-nan",
                     "state-3"]),
)


@st.composite
def some_broken_links(draw):
    """valid_links, then up to three links broken one way each."""
    links = draw(valid_links())
    for _ in range(draw(st.integers(0, 3))):
        i, brk = draw(st.integers(0, len(links) - 1)), draw(BREAKS)
        lk = links[i]
        rows = lk.paths.copy()
        if isinstance(brk, tuple) and len(rows):
            rows[draw(st.integers(0, len(rows) - 1)), brk[0]] = brk[1]
        elif brk == "unsorted" and len(rows) > 1:
            rows[[0, -1]] = rows[[-1, 0]]
        elif brk == "no-paths":
            rows = rows[:0]
        elif brk == "26-paths":
            rows = np.tile(PATH_ROW, (MAX_PATHS + 1, 1))
            rows[:, 1] += np.arange(MAX_PATHS + 1) * 1e-9
        elif brk == "tx-nan":
            lk = lk._replace(tx=(math.nan, *lk.tx[1:]))
        elif brk in ("freq-zero", "freq-nan"):
            lk = lk._replace(carrier_freq=0.0 if brk == "freq-zero" else math.nan)
        elif brk == "state-3":  # one past Outage, the last code
            lk = lk._replace(link_state=3)
        links[i] = lk._replace(paths=rows)
    return links


@st.composite
def selection(draw, n, kind):
    """A slice (any step), a boolean mask or an index array with repeats, of n links."""
    if kind == "slice":
        bound = st.one_of(st.none(), st.integers(-n - 2, n + 2))
        return slice(draw(bound), draw(bound), draw(st.sampled_from([None, 1, 2, -1, -3])))
    if kind == "mask":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return np.array(draw(st.lists(st.integers(-n, n - 1), max_size=2 * n)), dtype=int)


# fixed example sets, so the suite's outcome does not vary between runs
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_take_is_the_padded_selection(data):
    table = link_table(data.draw(valid_links(max_links=8), label="links"))
    full = padded(table.paths, table.counts)
    for kind in ("slice", "mask", "index"):
        rows = data.draw(selection(len(table), kind), label=kind)
        sub = table.take(rows)
        assert len(sub.paths) == sub.counts.sum()
        assert padded(sub.paths, sub.counts).tobytes() == full[rows].tobytes()
        for f in fields(table):
            if f.name != "paths":
                want = getattr(table, f.name)[rows]
                got = getattr(sub, f.name)
                assert got.shape == want.shape and got.tolist() == want.tolist(), f.name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(links=some_broken_links())
@example(links=[link((0, 0, 30), (50, 0, 1.5), 12e9, LinkState.NLOS,
                     np.tile(PATH_ROW, (MAX_PATHS + 1, 1)))])
def test_link_rules_give_the_first_broken_link_and_rule(links):
    paths, counts, state, ends = columns(links)
    rules = link_rules(paths, counts, state, ends)
    flagged = [[message for message, mask in rules if mask[i]] for i in range(len(links))]
    # the reference reads each link's rows from the padded layout
    rows = padded(paths, counts)
    want = [reference_rule(lk._replace(paths=rows[i, :counts[i]]))
            for i, lk in enumerate(links)]
    assert [f[0] if f else None for f in flagged] == want
    broken = [i for i, rule in enumerate(want) if rule]
    assert io._broken_rule(paths, counts, state, ends) == (
        (broken[0], want[broken[0]]) if broken else None)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(links=valid_links())
def test_text_and_sidecar_round_trip_the_rows(tmp_path_factory, links):
    table = link_table(links)
    p = tmp_path_factory.mktemp("table") / "t.jsonl"
    io.write_table(p, table)
    side = Path(f"{p}{io.LTAB_SUFFIX}")
    read = [io.read_table(p)]
    side.unlink()  # now the text is parsed
    read.append(io.read_table(p))
    for back in read:
        assert padded(back.paths, back.counts).tobytes() == \
            padded(table.paths, table.counts).tobytes()
        for f in fields(table):
            a, b = getattr(table, f.name), getattr(back, f.name)
            assert a.dtype == b.dtype != object and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
