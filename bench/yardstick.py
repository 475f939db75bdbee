"""A yardstick: fixed work that never touches the package, timed before
every query so that pass and query times can be given in yardsticks.

On a shared host the speed of this process swings by up to 2x for tens of
seconds at a time, over interpreter and numpy work alike, though not by
quite the same factor (CPU time equals wall time, so the loss cannot be
read from the process itself).  A time divided by the yardstick time
measured beside it moves far less with those swings, while a change to the
package moves it exactly as much as it moves the seconds, since the
yardstick does not depend on the package.

The work is a mix of what the queries do: dictionary updates, tuple and
set building, a JSON round trip, small dense mat-vecs like a power sweep,
and two passes over 8 MiB of doubles.  Each part takes about 1 to 2 ms on
a 2 GHz Xeon, about 7 ms in all.
"""

from __future__ import annotations

import json
import time

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = _rng.random((100, 100))
_START = _rng.random(100)
_LARGE = _rng.random(1 << 20)
_DOC = [{"from": f"s{i}", "to": f"s{i * 7 % 500}", "symbol": "ab"[i % 2], "cost": i / 1000}
        for i in range(500)]


def _dictionary() -> int:
    counts: dict[int, int] = {}
    for i in range(10_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return len(sorted(counts.items()))


def _sets() -> int:
    seen: set = set()
    for i in range(2_000):
        seen.add((i % 50, frozenset((i % 7, i % 11))))
    return len(seen)


def _json() -> int:
    return len(json.loads(json.dumps(_DOC)))


def _sweeps() -> float:
    v = _START
    for _ in range(60):
        w = _SMALL @ v
        pos = v > 0.0
        (w[pos] / v[pos]).min()
        v = w / w.sum()
    return float(v[0])


def _memory() -> float:
    return float(_LARGE.sum() + _LARGE.sum())


def seconds() -> float:
    """Wall time of one yardstick."""
    start = time.perf_counter()
    _dictionary()
    _sets()
    _json()
    _sweeps()
    _memory()
    return time.perf_counter() - start
