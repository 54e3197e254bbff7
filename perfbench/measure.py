"""Measurement helpers: percentiles, host calibration, answer fingerprints."""

from __future__ import annotations

import functools
import hashlib
import math
import statistics
import time


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """The ``q``-th percentile (0-100) of ``values`` and the sample count.

    Linear interpolation between the two closest ranks (NumPy's default
    method).  An empty sample gives ``(nan, 0)``.
    """
    n = len(values)
    if n == 0:
        return math.nan, 0
    ordered = sorted(values)
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    return value, n


#: Strings the host probe hashes (fixed, so every probe does the same work).
_PROBE_WORDS = [f"{index * 7919 % 100003:06d}{chr(97 + index % 26)}term{index % 13}" for index in range(200)]

#: Probe time, in ms, of the reference host that normalised times are
#: expressed on (any constant works: only ratios between runs matter).
REFERENCE_PROBE_MS = 4.0


@functools.cache
def _probe_rows() -> list[tuple]:
    """A table of a few MB for the probe to scan."""
    return [
        (index, ("north", "south", "east", "west")[index % 4], index * 7919 % 1000 / 10.0)
        for index in range(20_000)
    ]


def probe_ms() -> float:
    """Wall time in ms of a fixed pure-Python loop shaped like the engine's work.

    It hashes character trigrams into sets and an inverted index, as
    vocabulary grounding does, then filters and groups a table of a few
    MB into row-id sets, as execution with lineage does.  A loop of
    plain arithmetic tracks a shared host's slowdowns less well: the
    engine's turns also slow down when memory is contended.
    """
    rows = _probe_rows()
    started = time.perf_counter()
    grams = [{word[i : i + 3] for i in range(len(word) - 2)} for word in _PROBE_WORDS]
    index: dict[str, list[int]] = {}
    for position, word_grams in enumerate(grams):
        for gram in word_grams:
            index.setdefault(gram, []).append(position)
    similarity = 0.0
    for left in grams[:40]:
        for right in grams[:40]:
            similarity += len(left & right) / len(left | right)
    groups: dict[str, list[int]] = {}
    for row in rows:
        if row[2] > 30.0:
            groups.setdefault(row[1], []).append(row[0])
    lineage = {key: frozenset(ids) for key, ids in groups.items()}
    return (time.perf_counter() - started) * 1e3


def calibrate(repeats: int = 5) -> float:
    """Median :func:`probe_ms` on this host right now.

    Recorded beside every run (``host.calibration_ms``) so turn latencies
    can be compared across hosts.
    """
    return statistics.median(probe_ms() for _ in range(repeats))


class HostClock:
    """Host-normalised time: wall time scaled by how slow the host runs.

    A host shared with other work can change speed within seconds, so
    work is timed in short segments, with a probe before and after each;
    a segment's wall time is scaled by ``REFERENCE_PROBE_MS`` over the
    mean of its two probes.
    """

    def __init__(self) -> None:
        self._probe = calibrate(3)

    def factor_until_now(self) -> float:
        """Scale factor for the segment since the last probe; starts the next."""
        before, self._probe = self._probe, probe_ms()
        return REFERENCE_PROBE_MS / ((before + self._probe) / 2)


class Fingerprint:
    """SHA-256 over (kind, text, columns, rows) of a sequence of answers."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, answer) -> None:
        payload = repr((answer.kind.value, answer.text, answer.columns, answer.rows))
        self._hash.update(payload.encode("utf-8"))
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
