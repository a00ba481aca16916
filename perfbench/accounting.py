"""Latency summaries and operation accounting for the benchmark."""

from __future__ import annotations

import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TAIL_BEYOND", "LatencySummary", "Tally", "harrell_davis_median",
           "summarize_latencies"]

#: The tail is the highest order statistic with this many samples beyond it.
TAIL_BEYOND = 10

#: Grid points per sample when integrating the Harrell-Davis weights.
HD_GRID = 64


@dataclass(frozen=True)
class LatencySummary:
    """Median and tail of one run's operation latencies (seconds)."""

    n: int
    p50: float
    tail: float
    tail_percentile: float  # share of samples at or below ``tail``, in %
    tail_is_max: bool  # fewer than TAIL_BEYOND + 1 samples: tail is the max

    def describe(self) -> str:
        where = "max" if self.tail_is_max else f"p{self.tail_percentile:.1f}"
        return (f"n={self.n} p50={self.p50 * 1e3:.3f} ms "
                f"tail({where})={self.tail * 1e3:.3f} ms")


def harrell_davis_median(ordered: list[float]) -> float:
    """The Harrell-Davis estimate of the median of ascending ``ordered``.

    A weighted mean of every order statistic, with Beta((n+1)/2, (n+1)/2)
    weights peaked at the middle.  Unlike the middle order statistic it does
    not jump when the samples have a gap at their middle -- AMR steps are
    bimodal, about half of them regrid or tag -- and a small change in how
    many samples fall on each side of the gap moves it only a little.
    """
    n = len(ordered)
    a = (n + 1) / 2
    # The Beta mass of each [i/n, (i+1)/n], by the midpoint rule on a grid
    # fine against the density's width (~0.5/sqrt(n)); numpy only, so the
    # benchmark imports nothing the program does not.
    grid = (np.arange(HD_GRID * n) + 0.5) / (HD_GRID * n)
    log_density = (a - 1) * (np.log(grid) + np.log1p(-grid))
    mass = np.exp(log_density - log_density.max()).reshape(n, HD_GRID).sum(axis=1)
    return float(np.dot(mass / mass.sum(), ordered))


def summarize_latencies(samples: list[float]) -> LatencySummary:
    """Median (Harrell-Davis), and the highest percentile with
    ``TAIL_BEYOND`` samples beyond.

    With ``n`` samples sorted ascending, that is the ``n - TAIL_BEYOND``-th
    smallest: exactly ``TAIL_BEYOND`` samples lie beyond it.  With too few
    samples to leave that many beyond any of them, the tail is the maximum
    and is flagged as such.
    """
    if not samples:
        raise ValueError("no latency samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n > TAIL_BEYOND:
        index = n - TAIL_BEYOND - 1
        return LatencySummary(n, harrell_davis_median(ordered), ordered[index],
                              100.0 * (index + 1) / n, False)
    return LatencySummary(n, harrell_davis_median(ordered), ordered[-1], 100.0, True)


@dataclass
class Tally:
    """Attempted and failed operations, and why each failure happened.

    An operation fails when it raises (the exception type is recorded) or
    when its output fails a check (``correct`` turns false): a wrong
    output is a correctness failure, a raised error is an honest one.
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    errors: Counter = field(default_factory=Counter)
    check_failures: list[str] = field(default_factory=list)
    first_message: dict[str, str] = field(default_factory=dict)

    def succeeded(self, count: int = 1) -> None:
        self.attempted += count

    def raised(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        kind = type(exc).__name__
        self.errors[kind] += 1
        self.first_message.setdefault(kind, "".join(
            traceback.format_exception_only(type(exc), exc)).strip())

    def check_failed(self, ops: int, problem: str) -> None:
        """``ops`` operations already counted as attempted produced an
        output that failed its check."""
        self.failed += ops
        self.correct = False
        self.check_failures.append(problem)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
