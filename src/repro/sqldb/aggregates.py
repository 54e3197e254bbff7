"""Aggregate function implementations with SQL NULL semantics.

:func:`make_aggregator` builds a small accumulator object (``step`` per
value, ``finalize`` at group end).  :func:`make_fold` aggregates a whole
value list at once, as the executor and the verifier do: one left fold
with the same result, and the same first error, as stepping the
accumulator over the list.  NULL inputs are skipped (per the SQL
standard); ``COUNT(*)`` counts rows regardless.  Every input error is an
:class:`~repro.errors.ExecutionError`.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from operator import add
from typing import Callable, Sequence

from repro.errors import ExecutionError
from repro.sqldb.types import SQLValue


class Aggregator:
    """Base accumulator: subclasses implement ``step`` and ``finalize``."""

    def step(self, value: SQLValue) -> None:
        raise NotImplementedError

    def finalize(self) -> SQLValue:
        raise NotImplementedError


class CountAggregator(Aggregator):
    """``COUNT(expr)`` — counts non-NULL values."""

    def __init__(self) -> None:
        self._count = 0

    def step(self, value: SQLValue) -> None:
        if value is not None:
            self._count += 1

    def finalize(self) -> SQLValue:
        return self._count


class CountStarAggregator(Aggregator):
    """``COUNT(*)`` — counts rows."""

    def __init__(self) -> None:
        self._count = 0

    def step(self, value: SQLValue) -> None:
        self._count += 1

    def finalize(self) -> SQLValue:
        return self._count


def _require_number(value: SQLValue, function: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"{function} requires numeric input, got {value!r}")
    return value


def _overflow(function: str) -> ExecutionError:
    return ExecutionError(f"{function} overflows a float")


def _as_float(value: SQLValue, function: str) -> float:
    try:
        return float(_require_number(value, function))
    except OverflowError:  # an int too large for a float
        raise _overflow(function) from None


class SumAggregator(Aggregator):
    """``SUM(expr)`` — NULL over an empty/all-NULL group."""

    def __init__(self) -> None:
        self._total: int | float = 0
        self._seen = False

    def step(self, value: SQLValue) -> None:
        if value is None:
            return
        try:
            self._total += _require_number(value, "SUM")
        except OverflowError:  # an int too large to add to a float
            raise _overflow("SUM") from None
        self._seen = True

    def finalize(self) -> SQLValue:
        return self._total if self._seen else None


class AvgAggregator(Aggregator):
    """``AVG(expr)`` — NULL over an empty/all-NULL group."""

    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def step(self, value: SQLValue) -> None:
        if value is None:
            return
        self._total += _as_float(value, "AVG")
        self._count += 1

    def finalize(self) -> SQLValue:
        if self._count == 0:
            return None
        return self._total / self._count


class MinAggregator(Aggregator):
    """``MIN(expr)`` over any comparable type; NULLs skipped."""

    _name, _better = "MIN", operator.lt

    def __init__(self) -> None:
        self._best: SQLValue = None

    def step(self, value: SQLValue) -> None:
        if value is None:
            return
        try:
            if self._best is None or self._better(value, self._best):
                self._best = value
        except TypeError:  # text against a number
            kinds = f"{type(value).__name__} with {type(self._best).__name__}"
            raise ExecutionError(f"cannot compare {kinds} in {self._name}") from None

    def finalize(self) -> SQLValue:
        return self._best


class MaxAggregator(MinAggregator):
    """``MAX(expr)`` over any comparable type; NULLs skipped."""

    _name, _better = "MAX", operator.gt


class VarianceAggregator(Aggregator):
    """Sample variance via Welford's online algorithm (numerically stable)."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def step(self, value: SQLValue) -> None:
        if value is None:
            return
        number = _as_float(value, "VARIANCE")
        self._count += 1
        delta = number - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (number - self._mean)

    def finalize(self) -> SQLValue:
        if self._count < 2:
            return None
        return self._m2 / (self._count - 1)


class StddevAggregator(VarianceAggregator):
    """Sample standard deviation."""

    def finalize(self) -> SQLValue:
        variance = super().finalize()
        if variance is None:
            return None
        return math.sqrt(variance)


class DistinctAggregator(Aggregator):
    """Wrap another aggregator so each distinct non-NULL value steps once."""

    def __init__(self, inner: Aggregator):
        self._inner = inner
        self._seen: set = set()

    def step(self, value: SQLValue) -> None:
        if value is None:
            return
        if value in self._seen:
            return
        self._seen.add(value)
        self._inner.step(value)

    def finalize(self) -> SQLValue:
        return self._inner.finalize()


_FACTORIES = {
    "COUNT": CountAggregator,
    "SUM": SumAggregator,
    "AVG": AvgAggregator,
    "MIN": MinAggregator,
    "MAX": MaxAggregator,
    "STDDEV": StddevAggregator,
    "VARIANCE": VarianceAggregator,
}


def make_aggregator(name: str, star: bool = False, distinct: bool = False) -> Aggregator:
    """Build the accumulator for aggregate ``name``.

    ``star`` selects ``COUNT(*)`` semantics (only valid for COUNT);
    ``distinct`` wraps the accumulator to deduplicate inputs.
    """
    key = name.upper()
    if star:
        if key != "COUNT":
            raise ExecutionError(f"{key}(*) is not a valid aggregate")
        if distinct:
            raise ExecutionError("COUNT(DISTINCT *) is not valid SQL")
        return CountStarAggregator()
    if key not in _FACTORIES:
        raise ExecutionError(f"unknown aggregate: {name}")
    aggregator = _FACTORIES[key]()
    if distinct:
        return DistinctAggregator(aggregator)
    return aggregator


#: A kernel's answer for a list that must be stepped to raise its error.
_STEP = object()
_NUMBER_TYPES = frozenset({int, float})


def _sum(present: list) -> SQLValue:
    if not _NUMBER_TYPES.issuperset(map(type, present)):
        return _STEP
    # Never builtin sum() on floats: Python 3.12+ compensates it, stepping does not.
    return reduce(add, present, 0) if present else None


def _avg(present: list) -> SQLValue:
    if not _NUMBER_TYPES.issuperset(map(type, present)):
        return _STEP
    return reduce(add, map(float, present), 0.0) / len(present) if present else None


#: One-pass kernels over the non-NULL (under DISTINCT, first-seen distinct)
#: values.  ``min``/``max`` keep the first of equal values, as stepping
#: does.  VARIANCE and STDDEV step (Welford's loop).
_KERNELS: dict[str, Callable[[list], SQLValue]] = {
    "COUNT": len,
    "SUM": _sum,
    "AVG": _avg,
    "MIN": lambda present: min(present, default=None),
    "MAX": lambda present: max(present, default=None),
}


def make_fold(
    name: str, star: bool = False, distinct: bool = False
) -> Callable[[Sequence[SQLValue]], SQLValue]:
    """``values -> aggregate``, with the value and the first error of stepping
    ``make_aggregator(name, star, distinct)`` over ``values`` (an invalid
    call raises here).  A list the kernel cannot take (SUM over text, MIN
    over text and numbers, a float overflow) is stepped, in order."""
    make_aggregator(name, star=star, distinct=distinct)
    if star:
        return len
    kernel = _KERNELS.get(name.upper())

    def fold(values: Sequence[SQLValue]) -> SQLValue:
        if kernel is not None:
            present = [value for value in values if value is not None]
            try:
                result = kernel(list(dict.fromkeys(present)) if distinct else present)
            except (TypeError, OverflowError):
                result = _STEP
            if result is not _STEP:
                return result
        aggregator = make_aggregator(name, distinct=distinct)
        for value in values:
            aggregator.step(value)
        return aggregator.finalize()

    return fold


def aggregate_names() -> list[str]:
    """All supported aggregate names, sorted."""
    return sorted(_FACTORIES)
