"""Build LinkTables from plain links: the one way the tests make a table by hand.

A Link is the tx and rx coordinates, the carrier, the link state (a
LinkState, or any other code) and the (k, 7) path rows in PATH_FIELDS
order.  core.link_rules is the only
statement of what a valid table holds, so nothing here checks a link;
reference_rule states the same rules link by link, for the tests to
compare against.
"""

import math
from collections import namedtuple

import numpy as np

from chanimg.core import MAX_PATHS, LinkState, LinkTable

Link = namedtuple("Link", "tx rx carrier_freq link_state paths")


def link(tx, rx, carrier_freq, link_state, paths=()) -> Link:
    """A Link whose paths are a (k, 7) float array."""
    return Link(tuple(map(float, tx)), tuple(map(float, rx)), float(carrier_freq),
                link_state, np.array(paths, dtype=float).reshape(-1, 7))


def columns(links) -> tuple:
    """The LinkTable.from_columns columns of Links, in order."""
    links = list(links)
    return (np.concatenate([np.zeros((0, 7)), *(lk.paths for lk in links)]),
            np.array([len(lk.paths) for lk in links], dtype=int),
            np.array([lk.link_state for lk in links], dtype=np.uint8),
            np.array([(*lk.tx, *lk.rx, lk.carrier_freq) for lk in links],
                     dtype=float).reshape(-1, 7))


def link_table(links) -> LinkTable:
    """The LinkTable of Links, in order (LinkTable.from_columns' errors for none)."""
    return LinkTable.from_columns(*columns(links))


def table_links(table: LinkTable) -> list:
    """The Links of a table, in link order, each state a LinkState."""
    offsets = table.offsets.tolist()
    return [Link(tuple(ends[:3]), tuple(ends[3:6]), ends[6], LinkState(state), table.paths[a:b])
            for ends, state, a, b in zip(table.ends.tolist(), table.state.tolist(),
                                         offsets, offsets[1:])]


def reference_rule(lk):
    """The first rule a Link breaks, value by value with the math module; None for none.

    The per-link statement of the rules that link_rules' masks are checked
    against: the path rules in order, each over every path, then the rules
    of the link itself.
    """
    rows = lk.paths.tolist()

    def any_path(keeps):
        return not all(keeps(*row) for row in rows)

    checks = [
        ("pathloss, delay, aod and aoa must be finite",
         any_path(lambda pl, dly, aod, zod, aoa, zoa, ps: all(map(math.isfinite,
                                                                  (pl, dly, aod, aoa))))),
        ("pathloss must be positive", any_path(lambda pl, *_: pl > 0.0)),
        ("delay must be positive", any_path(lambda pl, dly, *_: dly > 0.0)),
        ("aod out of (-180, 180]", any_path(lambda pl, dly, aod, *_: -180.0 < aod <= 180.0)),
        ("zod out of [0, 180]", any_path(lambda pl, dly, aod, zod, *_: 0.0 <= zod <= 180.0)),
        ("aoa out of (-180, 180]", any_path(lambda *row: -180.0 < row[4] <= 180.0)),
        ("zoa out of [0, 180]", any_path(lambda *row: 0.0 <= row[5] <= 180.0)),
        ("phase out of (-360, 0]", any_path(lambda *row: -360.0 < row[6] <= 0.0)),
        ("coordinates and carrier_freq must be finite",
         not all(map(math.isfinite, (*lk.tx, *lk.rx, lk.carrier_freq)))),
        ("carrier_freq must be positive", not lk.carrier_freq > 0.0),
        ("link_state must be LOS, NLOS or Outage", lk.link_state not in list(LinkState)),
        ("only Outage links may have zero paths",
         not rows and lk.link_state != LinkState.OUTAGE),
        (f"at most {MAX_PATHS} paths per link", len(rows) > MAX_PATHS),
        ("paths must be sorted ascending by delay",
         any(b[1] < a[1] for a, b in zip(rows, rows[1:]))),
    ]
    return next((message for message, broken in checks if broken), None)
