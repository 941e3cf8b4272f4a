"""Exact sum-SDoF evaluation and jamming-dimension allocation.

The sum secure degrees of freedom of the two-transmitter MIMO multiple
access wiretap channel with antenna counts (m1, m2, n) and eavesdropper
bound n_e is

    D_s = max(0, min(m1 + m2 - n_e,
                     (max(m1, n) + max(m2, n) - n_e) / 2,
                     n))

``classify`` reports which regime condition produces the binding bound,
and ``allocate_jamming`` turns a configuration into a concrete budget of
jamming streams per transmitter and method:

* nullspace streams are invisible at the legitimate receiver and cost one
  transmit antenna each (capacity ``[m_i - n]+`` per transmitter);
* aligned streams are sent pairwise, one from each transmitter, steered
  into the same receive direction, so a pair blocks two eavesdropper
  dimensions while occupying a single receiver dimension (capacity: the
  generic intersection of the two received signal spaces);
* random streams block one eavesdropper dimension per occupied receiver
  dimension and are the spill-over method.

The allocator spends the ``n_e`` mandatory jamming streams greedily in
that order (cheapest at the receiver first), which reproduces the
closed-form value for every configuration; ``audit_allocation`` checks
the accounting identities exactly.

Stream counts are integers in one unit, real streams: a count of c
complex dimensions, the paper's unit, is 2c real-valued streams on the
real form of one complex channel use.  The closed form is a whole or
half number of complex dimensions, so it, every bound and every
allocation count is a whole number of real streams; ``paper_units``
writes such a count back in the paper's unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import SdofLabError

__all__ = [
    "AntennaConfig",
    "Regime",
    "RegimeLabel",
    "SDoFValue",
    "JammingMethod",
    "JammingAllocation",
    "AuditCheck",
    "AuditReport",
    "upper_bounds",
    "sum_sdof",
    "classify",
    "allocate_jamming",
    "audit_allocation",
    "regime_table",
    "paper_units",
]


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer, not a bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts: transmitters m1, m2; receiver n; eavesdropper bound n_e."""

    m1: int
    m2: int
    n: int
    n_e: int

    def __post_init__(self):
        for name in ("m1", "m2", "n"):
            check_count(name, getattr(self, name))
        check_count("n_e", self.n_e, 0)

    @property
    def m(self) -> int:
        """Total transmit antennas m1 + m2."""
        return self.m1 + self.m2

    def swapped(self) -> "AntennaConfig":
        return AntennaConfig(self.m2, self.m1, self.n, self.n_e)


class Regime(Enum):
    """Which closed-form case produces the sum SDoF."""

    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    ZERO = "ZERO"
    NO_EAVESDROPPER = "NO_EAVESDROPPER"


@dataclass(frozen=True)
class RegimeLabel:
    regime: Regime
    matched_condition: str


@dataclass(frozen=True)
class SDoFValue:
    """Exact sum SDoF as a reduced rational with denominator 1 or 2."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.numerator < 0:
            raise ValueError("SDoF numerator must be nonnegative")
        if self.denominator not in (1, 2):
            raise ValueError("SDoF denominator must be 1 or 2")
        if self.denominator == 2 and self.numerator % 2 == 0:
            raise ValueError("SDoF value not in reduced form")

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    def __str__(self) -> str:
        return paper_units(self.numerator * 2 // self.denominator)


def paper_units(streams: int) -> str:
    """A count of real streams in the paper's complex dimensions: "3" for 6, "1/2" for 1."""
    return f"{streams}/2" if streams % 2 else str(streams // 2)


class JammingMethod(Enum):
    NULLSPACE = "nullspace"
    ALIGNED = "aligned"
    RANDOM = "random"


@dataclass(frozen=True)
class JammingAllocation:
    """Per-transmitter jamming budgets plus the legitimate stream split.

    Every count is an int number of real streams (see the module
    docstring).  ``j_s`` is the number of real receiver dimensions the
    jamming occupies; ``d1``/``d2`` are the legitimate stream counts.
    """

    tx1: tuple[tuple[JammingMethod, int], ...]
    tx2: tuple[tuple[JammingMethod, int], ...]
    j_s: int
    d1: int
    d2: int

    def streams(self, tx: int) -> int:
        """Total jamming streams sent by transmitter ``tx`` (1 or 2)."""
        entries = self.tx1 if tx == 1 else self.tx2
        return sum(count for _, count in entries)

    def method_streams(self, tx: int, method: JammingMethod) -> int:
        entries = self.tx1 if tx == 1 else self.tx2
        return sum(count for m, count in entries if m is method)

    @property
    def total_streams(self) -> int:
        return self.streams(1) + self.streams(2)

    @property
    def d_total(self) -> int:
        return self.d1 + self.d2


def _pos(x: int) -> int:
    return x if x > 0 else 0


def _bound_halves(config: AntennaConfig) -> tuple[int, int, int]:
    """The three converse bounds, unclamped, in real streams (twice their value).

    b1 = m1 + m2 - n_e   (transmit-dimension bound)
    b2 = (max(m1, n) + max(m2, n) - n_e) / 2   (combined Z-channel bound)
    b3 = n   (receive-dimension bound)
    """
    m1, m2, n, n_e = config.m1, config.m2, config.n, config.n_e
    return 2 * (m1 + m2 - n_e), max(m1, n) + max(m2, n) - n_e, 2 * n


def upper_bounds(config: AntennaConfig) -> tuple[Fraction, Fraction, Fraction]:
    """The three converse bounds of ``_bound_halves`` as Fractions, in the paper's unit."""
    return tuple(Fraction(b, 2) for b in _bound_halves(config))


def _sdof_halves(config: AntennaConfig) -> int:
    """The sum SDoF in real streams (twice its value)."""
    return max(0, min(_bound_halves(config)))


def sum_sdof(config: AntennaConfig) -> SDoFValue:
    """Exact sum SDoF: the three bounds' minimum, clamped at zero, evaluated in real streams."""
    halves = _sdof_halves(config)
    if halves % 2:
        return SDoFValue(halves, 2)
    return SDoFValue(halves // 2, 1)


def _case_halves(regime: Regime, config: AntennaConfig) -> int:
    """Twice the value the closed form's case ``regime`` gives."""
    if regime is Regime.ZERO:
        return 0
    if regime is Regime.NO_EAVESDROPPER:
        return 2 * min(config.m, config.n)
    b1, b2, b3 = _bound_halves(config)
    return {Regime.C1: b1, Regime.C2: b2, Regime.C3: b3}[regime]


def classify(config: AntennaConfig) -> RegimeLabel:
    """Report which condition the configuration falls under.

    The closed-form conditions assume the transmitters are ordered by
    antenna count, so classification happens on the relabeled pair
    (a, b) = (max(m1, m2), min(m1, m2)).  Precedence is C3, then C1, then
    C2; configurations on condition boundaries not covered verbatim (for
    example a == n) fall back to whichever bound attains the minimum,
    reported with ``matched_condition == "boundary"``.  The returned
    label's case value always equals ``sum_sdof`` (checked).
    """
    n, n_e = config.n, config.n_e
    m = config.m
    a, b = max(config.m1, config.m2), min(config.m1, config.m2)

    label = None
    if n_e == 0:
        label = RegimeLabel(Regime.NO_EAVESDROPPER, "n_e = 0: no eavesdropper, no jamming needed")
    elif n_e >= m:
        label = RegimeLabel(Regime.ZERO, "n_e >= m1 + m2: eavesdropper outstrips the transmitters")
    elif n_e < _pos(a - n) + _pos(b - n):
        label = RegimeLabel(Regime.C3, "n_e < [m1 - n]+ + [m2 - n]+")
    elif m <= n:
        label = RegimeLabel(Regime.C1, "m1 + m2 <= n")
    elif a < n and n_e >= 2 * (m - n):
        label = RegimeLabel(Regime.C1, "max(m1,m2) < n < m1 + m2 and n_e >= 2(m1 + m2 - n)")
    elif a > n and b < n and n_e >= (a - n) + 2 * b:
        label = RegimeLabel(
            Regime.C1, "max(m1,m2) > n > min(m1,m2) and n_e >= max(m1,m2) - n + 2 min(m1,m2)"
        )
    elif a < n and n_e < 2 * (m - n):
        label = RegimeLabel(Regime.C2, "max(m1,m2) < n and n_e < 2(m1 + m2 - n)")
    elif a > n and b < n and (a - n) <= n_e < (a - n) + 2 * b:
        label = RegimeLabel(
            Regime.C2,
            "max(m1,m2) > n > min(m1,m2) and max(m1,m2) - n <= n_e < max(m1,m2) - n + 2 min(m1,m2)",
        )
    elif a > n and b >= n and n_e >= m - 2 * n:
        label = RegimeLabel(Regime.C2, "min(m1,m2) >= n, max(m1,m2) > n and n_e >= m1 + m2 - 2n")
    else:
        # Condition boundaries (e.g. max(m1,m2) == n) are not covered
        # verbatim; the min-expression is authoritative and the label is
        # whichever bound attains it, in C3/C1/C2 precedence.
        target = _sdof_halves(config)
        b1, _, b3 = _bound_halves(config)
        if target == b3:
            label = RegimeLabel(Regime.C3, "boundary")
        elif target == b1:
            label = RegimeLabel(Regime.C1, "boundary")
        else:
            label = RegimeLabel(Regime.C2, "boundary")

    if _case_halves(label.regime, config) != _sdof_halves(config):
        raise SdofLabError(
            f"classifier case value disagrees with the closed form for {config}"
        )
    return label


def allocate_jamming(config: AntennaConfig) -> JammingAllocation:
    """Concrete jamming budgets achieving the closed-form sum SDoF.

    Greedy by receiver cost: nullspace first (free at the receiver), then
    aligned pairs (half a receiver dimension per blocked eavesdropper
    dimension), then random overflow.  The legitimate stream split is
    greedy as well: d1 takes as much of the total as transmitter one's
    remaining antennas allow.  For n_e = 0 no jamming is placed; for
    n_e >= m1 + m2 the zero allocation is returned.
    """
    n, n_e = config.n, config.n_e

    if n_e >= config.m:
        return JammingAllocation((), (), 0, 0, 0)

    swapped = config.m2 > config.m1
    work = config.swapped() if swapped else config
    m1, m2 = work.m1, work.m2

    if n_e == 0:
        total = 2 * min(work.m, n)
        d1 = min(2 * m1, total)
        nullspace1 = nullspace2 = aligned = random1 = random2 = j_s = 0
    else:
        nullspace1 = 2 * min(n_e, _pos(m1 - n))
        nullspace2 = min(2 * n_e - nullspace1, 2 * _pos(m2 - n))
        rem = 2 * n_e - nullspace1 - nullspace2

        intersection_cap = 2 * _pos(min(m1, n) + min(m2, n) - n)
        antenna_cap1 = 2 * m1 - nullspace1
        antenna_cap2 = 2 * m2 - nullspace2
        # One aligned stream per transmitter blocks two eavesdropper
        # dimensions; rem is even, so rem // 2 is exact.
        aligned = min(rem // 2, intersection_cap, antenna_cap1, antenna_cap2)

        rem_random = rem - 2 * aligned
        random1 = min(rem_random, antenna_cap1 - aligned)
        random2 = rem_random - random1
        if random2 > antenna_cap2 - aligned:
            raise SdofLabError(f"random jamming overflow for {config}")

        j_s = aligned + rem_random
        total = _sdof_halves(config)
        d1 = min(2 * m1 - nullspace1 - aligned - random1, total)

    d2 = total - d1
    if d2 < 0 or d2 > 2 * m2 - nullspace2 - aligned - random2:
        raise SdofLabError(f"legitimate stream split infeasible for {config}")

    def entries(ns: int, al: int, rd: int):
        out = []
        if ns > 0:
            out.append((JammingMethod.NULLSPACE, ns))
        if al > 0:
            out.append((JammingMethod.ALIGNED, al))
        if rd > 0:
            out.append((JammingMethod.RANDOM, rd))
        return tuple(out)

    tx1 = entries(nullspace1, aligned, random1)
    tx2 = entries(nullspace2, aligned, random2)
    if swapped:
        tx1, tx2 = tx2, tx1
        d1, d2 = d2, d1
    return JammingAllocation(tx1, tx2, j_s, d1, d2)


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[AuditCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)


def audit_allocation(alloc: JammingAllocation, config: AntennaConfig) -> AuditReport:
    """Exact integer audit of an allocation against its configuration, in real streams.

    Checks, in order: (i) the jamming stream budget (aligned pairs counted
    once per transmitter) equals n_e, or zero in the no-SDoF regime;
    (ii) the receiver keeps enough free dimensions, n - j_s >= d1 + d2;
    (iii) d1 + d2 equals the closed-form sum SDoF; (iv) per-transmitter
    antenna budgets; and, where the transmit-dimension bound is binding
    with jamming overflow, the occupancy identity n - j_s = m1 + m2 - n_e.
    Each ``detail`` gives its counts in the paper's unit.
    """
    checks = _audit(alloc, config, classify(config).regime)
    return AuditReport(tuple(AuditCheck(name, passed, detail()) for name, passed, detail in checks))


def _audit(alloc: JammingAllocation, config: AntennaConfig, regime: Regime):
    """``audit_allocation``'s checks of ``config``, classified as ``regime``, in order.

    Each is (name, passed, detail), with ``detail`` a function that formats
    the check's detail string, so a caller that needs only the verdicts
    formats none.
    """
    checks = []

    streams = alloc.streams(1), alloc.streams(2)
    expected_streams = 0 if regime is Regime.ZERO else 2 * config.n_e
    total = streams[0] + streams[1]
    checks.append((
        "stream_budget",
        total == expected_streams,
        lambda: f"tx1 + tx2 jamming streams = {paper_units(total)}, "
        f"expected {paper_units(expected_streams)}",
    ))

    room = 2 * config.n - alloc.j_s
    d_total = alloc.d_total
    checks.append((
        "receiver_room",
        room >= d_total,
        lambda: f"n - j_s = {paper_units(room)} must cover d1 + d2 = {paper_units(d_total)}",
    ))

    theory = _sdof_halves(config)
    checks.append((
        "sdof_match",
        d_total == theory,
        lambda: f"d1 + d2 = {paper_units(d_total)}, closed form gives {paper_units(theory)}",
    ))

    per_tx = ((1, config.m1, streams[0], alloc.d1), (2, config.m2, streams[1], alloc.d2))
    checks.append((
        "antenna_budget",
        all(tx_streams + d_i <= 2 * m_i and d_i >= 0 for _, m_i, tx_streams, d_i in per_tx),
        lambda: "; ".join(
            f"tx{tx}: jamming + legitimate = {paper_units(tx_streams + d_i)} of {m_i}"
            for tx, m_i, tx_streams, d_i in per_tx
        ),
    ))

    if regime is Regime.C1 and config.m > config.n:
        identity = 2 * (config.m - config.n_e)
        checks.append((
            "occupancy_identity",
            room == identity,
            lambda: f"n - j_s = {paper_units(room)} must equal m1 + m2 - n_e = {paper_units(identity)}",
        ))

    return checks


def regime_table(max_antennas: int) -> list[tuple[AntennaConfig, RegimeLabel, SDoFValue]]:
    """Exhaustive (config, label, value) rows for all antenna counts up to a cap.

    Enumerates 1 <= m1, m2, n <= max_antennas and 0 <= n_e <= m1 + m2.
    ``classify`` cross-checks every row's case value against the closed
    form, so building the table doubles as a consistency sweep.
    """
    check_count("max_antennas", max_antennas)
    return [(config, classify(config), sum_sdof(config)) for config in _antenna_grid(max_antennas)]


def _antenna_grid(max_antennas: int, include_all_ne: bool = True):
    """Configurations with 1 <= m1, m2, n <= max_antennas, in lexicographic order.

    n_e runs over 0 .. m1 + m2, or 0 .. m1 + m2 - 1 without
    ``include_all_ne`` (dropping the fully jammed, zero-SDoF edge).
    """
    for m1 in range(1, max_antennas + 1):
        for m2 in range(1, max_antennas + 1):
            for n in range(1, max_antennas + 1):
                top = m1 + m2 if include_all_ne else m1 + m2 - 1
                for n_e in range(0, top + 1):
                    yield AntennaConfig(m1, m2, n, n_e)
