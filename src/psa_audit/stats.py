"""Summary tables and hypothesis tests over audit pairs.

All aggregations are pure reductions in a fixed order, so repeated runs
over the same pairs produce bit-identical tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter, gt
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .counterfactual import COMPONENTS, GROUPS, AuditPair, changes
from .engine import PsaResult, SupervisionLevel
from .errors import DegenerateInput, EmptyInput, LengthMismatch
from .linkage import RACE_CATEGORIES, CourtCase

#: Significance level used for table markers; differences are starred when
#: significant after a Bonferroni correction across the table's tests.
DEFAULT_ALPHA = 0.001


def _normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def two_proportion_test(x1: int, n1: int, x2: int, n2: int) -> tuple[float, float]:
    """Two-sample z-test for a difference of proportions.

    Returns (z, two-sided p) from the pooled-variance form.  Raises
    DegenerateInput when the pooled proportion is 0 or 1, where the
    statistic is undefined.
    """
    if n1 <= 0 or n2 <= 0:
        raise DegenerateInput("sample sizes must be positive")
    if not (0 <= x1 <= n1 and 0 <= x2 <= n2):
        raise ValueError("counts must satisfy 0 <= x <= n")
    p1, p2 = x1 / n1, x2 / n2
    pool = (x1 + x2) / (n1 + n2)
    if pool in (0.0, 1.0):
        raise DegenerateInput("pooled proportion is 0 or 1; p-value undefined")
    se = math.sqrt(pool * (1.0 - pool) * (1.0 / n1 + 1.0 / n2))
    z = (p1 - p2) / se
    return z, _normal_two_sided_p(z)


def _value_ranks(counts: Mapping[Any, int]) -> dict:
    """Each distinct value's rank among the values that ``counts`` counts,
    tied values sharing the mean of the ranks they span."""
    rank = {}
    below = 0
    for v, t in sorted(counts.items()):
        rank[v] = below + (t + 1) / 2.0
        below += t
    return rank


def _midranks(values: Sequence[float]) -> list[float]:
    """Each value's rank among ``values``, tied values sharing the mean of
    the ranks they span.  Ranks are counted per distinct value, so every
    copy of a value shares one rank object."""
    rank = _value_ranks(Counter(values))
    return [rank[v] for v in values]


def wilcoxon_rank_sum(a: Sequence[float] | Counter, b: Sequence[float] | Counter, *,
                      continuity: bool = True) -> tuple[float, float]:
    """Rank-sum test with midranks for ties.

    Returns (z, two-sided p) from the normal approximation with
    tie-corrected variance and, by default, a continuity correction.
    The standardized statistic is reported so that swapping the samples
    negates it.  Raises DegenerateInput when every value across both
    samples is identical.

    Each sample is a sequence of values or a ``Counter`` of them.  Every
    rank is a multiple of 0.5, so the rank sum is exact in floating point,
    and the tie term is summed in integers: the result does not depend on
    the order of either sample.
    """
    a, b = Counter(a), Counter(b)
    n1, n2 = sum(a.values()), sum(b.values())
    if n1 == 0 or n2 == 0:
        raise DegenerateInput("both samples must be non-empty")
    counts = a + b
    if len(counts) == 1:
        raise DegenerateInput("all values identical across both samples")
    n = n1 + n2
    rank = _value_ranks(counts)
    w = sum(rank[v] * t for v, t in a.items())
    mean = n1 * (n + 1) / 2.0

    tie_term = sum(t**3 - t for t in counts.values())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    sd = math.sqrt(variance)

    d = w - mean
    if continuity:
        d = math.copysign(max(abs(d) - 0.5, 0.0), d) if d != 0.0 else 0.0
    z = d / sd
    return z, min(1.0, _normal_two_sided_p(z))


def bonferroni(pvalues: Sequence[float], alpha: float) -> list[bool]:
    """Per-test significance under a Bonferroni correction.

    A test is flagged when p <= alpha / m; the boundary case counts as
    significant so that a family of exactly-threshold p-values behaves
    like the single-test rule it reduces to at m=1.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    m = len(pvalues)
    return [p <= alpha / m for p in pvalues]


def agreement_rate(reproduced: Sequence, recorded: Sequence) -> float:
    """Fraction of positions where the two columns agree."""
    if len(reproduced) != len(recorded):
        raise LengthMismatch(f"columns differ in length: {len(reproduced)} vs {len(recorded)}")
    if not reproduced:
        raise EmptyInput("no rows to compare")
    return sum(1 for r, c in zip(reproduced, recorded) if r == c) / len(reproduced)


# ---------------------------------------------------------------------------
# audit tables


class RateRow(NamedTuple):
    component: str
    booking: float
    conviction: float
    difference: float
    statistic: float | None
    p_value: float | None
    significant: bool | None


class AffectedRow(NamedTuple):
    component: str
    count: int
    fraction: float


class LevelRow(NamedTuple):
    level_rank: int
    level: SupervisionLevel
    count: int
    fraction: float
    empty_group: bool


@dataclass(frozen=True)
class Table:
    """One scope's table: its pair count and its rows."""

    n: int
    rows: tuple


class TallyEntry(NamedTuple):
    """``count`` pairs of one group and one sensitivity flag that hold one
    (booking, conviction) result pair."""

    group: str
    excluded_by_sensitivity: bool
    booking: PsaResult
    conviction: PsaResult
    count: int


def tally(pairs: Iterable[AuditPair]) -> list[TallyEntry]:
    """The pairs counted in one pass by group, sensitivity flag and the
    identity of their two results, which ``assess`` shares between equal
    decisions: about one entry per distinct decision, not per pair, listed
    in the order each first occurs.  They are the audit's one per-pair
    view: every table counts them through ``count_by``."""
    counted: dict[tuple[str, bool, int, int], list] = {}
    for p in pairs:
        key = p.group, p.excluded_by_sensitivity, id(p.booking_result), id(p.conviction_result)
        entry = counted.get(key)
        if entry is None:
            counted[key] = [p, 1]
        else:
            entry[1] += 1
    return [TallyEntry(p.group, p.excluded_by_sensitivity, p.booking_result, p.conviction_result, k)
            for p, k in counted.values()]


def _scopes(entries: Sequence[TallyEntry]) -> dict[str, Sequence[TallyEntry]]:
    """Each scope's entries: "all" first, then each of ``GROUPS``, possibly empty."""
    scopes = {"all": entries, **{g: [] for g in GROUPS}}
    for e in entries:
        if e.group:
            scopes[e.group].append(e)
    return scopes


def _size(entries: Sequence[TallyEntry]) -> int:
    return sum(e.count for e in entries)


def count_by(entries: Iterable[TallyEntry], key: Callable[[TallyEntry], Any]) -> Counter:
    """How many pairs ``entries`` count for each value of ``key(entry)``,
    in the order each value first occurs.  Every table counts its pairs
    through this."""
    counts = Counter()
    for e in entries:
        counts[key(e)] += e.count
    return counts


def _rate_table_one(entries: Sequence[TallyEntry], alpha: float) -> Table:
    """A flag (a component whose change is ``gt``) is tested with the
    two-proportion z-test, the recommendation level with the rank-sum test."""
    n = _size(entries)
    rows = []
    tests: list[tuple[float, float] | None] = []
    for c in COMPONENTS:
        b_counts = count_by(entries, lambda e: c.read(e.booking))
        c_counts = count_by(entries, lambda e: c.read(e.conviction))
        b_sum = sum(v * k for v, k in b_counts.items())
        c_sum = sum(v * k for v, k in c_counts.items())
        try:
            if c.change is gt:
                tests.append(two_proportion_test(b_sum, n, c_sum, n))
            else:
                tests.append(wilcoxon_rank_sum(b_counts, c_counts))
        except DegenerateInput:
            tests.append(None)
        rows.append((c.name, b_sum / n, c_sum / n))

    usable = [t[1] for t in tests if t is not None]
    flags = iter(bonferroni(usable, alpha) if usable else [])
    return Table(n, tuple(RateRow(name, b, c, b - c, None, None, None) if t is None
                          else RateRow(name, b, c, b - c, t[0], t[1], next(flags))
                          for (name, b, c), t in zip(rows, tests)))


def rate_table(entries: Sequence[TallyEntry], *, alpha: float = DEFAULT_ALPHA) -> dict[str, Table]:
    """Component rates and mean recommendation per charge source, in
    ``RateRow``s, over the pairs that ``entries`` (see ``tally``) count.

    Returns tables keyed by scope: "all" first, then one per group that
    has pairs.
    """
    if not entries:
        raise EmptyInput("no audit pairs")
    return {scope: _rate_table_one(part, alpha) for scope, part in _scopes(entries).items() if part}


def _affected_one(entries: Sequence[TallyEntry]) -> Table:
    """Booking charges raised a component when its change is positive."""
    n = _size(entries)
    by_change = count_by(entries, lambda e: changes(e.booking, e.conviction))
    raised = [sum(k for change, k in by_change.items() if change[i] > 0) for i in range(len(COMPONENTS))]
    return Table(n, tuple(AffectedRow(c.name, k, k / n) for c, k in zip(COMPONENTS, raised)))


def proportion_affected(entries: Sequence[TallyEntry]) -> dict[str, Table]:
    """Strictly one-sided change rates, in ``AffectedRow``s: a component
    held under booking but not under conviction charges, and a final
    recommendation strictly higher under booking.  Cases moving the other
    way do not offset.

    Returns tables keyed by scope, as ``rate_table`` does.
    """
    if not entries:
        raise EmptyInput("no audit pairs")
    return {scope: _affected_one(part) for scope, part in _scopes(entries).items() if part}


def initial_distribution(entries: Sequence[TallyEntry]) -> dict[str, Table]:
    """Counts of the booking-side initial recommendation, per scope:
    one ``LevelRow`` per level, in rank order.

    A group with no pairs still gets its rows, flagged ``empty_group``, so
    a missing group is visible rather than silent.
    """
    out = {}
    for label, part in _scopes(entries).items():
        n = _size(part)
        counts = count_by(part, attrgetter("booking.initial"))
        out[label] = Table(n, tuple(LevelRow(int(level), level, counts[level], counts[level] / n if n else 0.0, n == 0)
                                    for level in SupervisionLevel))
    return out


@dataclass(frozen=True)
class ConsistencyMatrix:
    """Race-designation consistency across each individual's records.

    Row i, column j holds the mean, over multi-record individuals
    designated i at least once, of the percent of their records designated
    j.  Missing designations stay in the denominator but get no column,
    so rows need not sum to 100.
    """

    categories: tuple[str, ...]
    rows: dict[str, tuple[float, ...]]
    individuals: dict[str, int]


def race_consistency(cases: Sequence[CourtCase]) -> ConsistencyMatrix:
    by_person: dict[str, list[str]] = {}
    for c in cases:
        by_person.setdefault(c.sfid, []).append(c.race)
    multi = {sfid: races for sfid, races in by_person.items() if len(races) > 1}

    rows: dict[str, tuple[float, ...]] = {}
    individuals: dict[str, int] = {}
    for cat in RACE_CATEGORIES:
        members = [races for races in multi.values() if cat in races]
        if not members:
            continue
        sums = [0.0] * len(RACE_CATEGORIES)
        for races in members:
            total = len(races)
            for j, target in enumerate(RACE_CATEGORIES):
                sums[j] += races.count(target) / total
        rows[cat] = tuple(100.0 * s / len(members) for s in sums)
        individuals[cat] = len(members)
    return ConsistencyMatrix(categories=RACE_CATEGORIES, rows=rows, individuals=individuals)
