"""Exact sum-SDoF evaluation and jamming-dimension allocation.

The sum secure degrees of freedom of the two-transmitter MIMO multiple
access wiretap channel with antenna counts (m1, m2, n) and eavesdropper
bound n_e is

    D_s = max(0, min(m1 + m2 - n_e,
                     (max(m1, n) + max(m2, n) - n_e) / 2,
                     n))

evaluated here in exact rational arithmetic.  ``classify`` reports which
regime condition produces the binding bound, and ``allocate_jamming``
turns a configuration into a concrete budget of jamming streams per
transmitter and method:

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
the accounting identities exactly.  When the aligned budget comes out
half-integer the allocation is flagged ``needs_two_slot`` and all stream
counts are per-slot averages of a two-slot time extension (realized
downstream on a slot-doubled channel, where every count is integral).
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
]


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts: transmitters m1, m2; receiver n; eavesdropper bound n_e."""

    m1: int
    m2: int
    n: int
    n_e: int

    def __post_init__(self):
        for name in ("m1", "m2", "n"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.n_e, int) or self.n_e < 0:
            raise ValueError(f"n_e must be a nonnegative integer, got {self.n_e!r}")

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

    @classmethod
    def from_fraction(cls, value: Fraction) -> "SDoFValue":
        return cls(value.numerator, value.denominator)

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    def __str__(self) -> str:
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"


class JammingMethod(Enum):
    NULLSPACE = "nullspace"
    ALIGNED = "aligned"
    RANDOM = "random"


@dataclass(frozen=True)
class JammingAllocation:
    """Per-transmitter jamming budgets plus the legitimate stream split.

    Stream counts are exact rationals; they are per-slot averages when
    ``needs_two_slot`` is set (each aligned count then realizes an odd
    number of streams over a two-slot extension) and plain integers
    otherwise.  ``j_s`` is the number of receiver dimensions the jamming
    occupies; ``d1``/``d2`` are the legitimate stream counts.
    """

    tx1: tuple[tuple[JammingMethod, Fraction], ...]
    tx2: tuple[tuple[JammingMethod, Fraction], ...]
    j_s: Fraction
    d1: Fraction
    d2: Fraction
    needs_two_slot: bool = False

    def streams(self, tx: int) -> Fraction:
        """Total jamming streams sent by transmitter ``tx`` (1 or 2)."""
        entries = self.tx1 if tx == 1 else self.tx2
        return sum((count for _, count in entries), Fraction(0))

    def method_streams(self, tx: int, method: JammingMethod) -> Fraction:
        entries = self.tx1 if tx == 1 else self.tx2
        return sum((count for m, count in entries if m is method), Fraction(0))

    @property
    def total_streams(self) -> Fraction:
        return self.streams(1) + self.streams(2)

    @property
    def d_total(self) -> Fraction:
        return self.d1 + self.d2


def _pos(x: int) -> int:
    return x if x > 0 else 0


def upper_bounds(config: AntennaConfig) -> tuple[Fraction, Fraction, Fraction]:
    """The three converse bounds, unclamped.

    b1 = m1 + m2 - n_e   (transmit-dimension bound)
    b2 = (max(m1, n) + max(m2, n) - n_e) / 2   (combined Z-channel bound)
    b3 = n   (receive-dimension bound)
    """
    b1 = Fraction(config.m - config.n_e)
    b2 = Fraction(max(config.m1, config.n) + max(config.m2, config.n) - config.n_e, 2)
    b3 = Fraction(config.n)
    return b1, b2, b3


def sum_sdof(config: AntennaConfig) -> SDoFValue:
    """Exact sum SDoF: the three bounds' minimum, clamped at zero."""
    value = max(Fraction(0), min(upper_bounds(config)))
    return SDoFValue.from_fraction(value)


def _case_value(regime: Regime, config: AntennaConfig) -> Fraction:
    b1, b2, b3 = upper_bounds(config)
    if regime is Regime.C1:
        return b1
    if regime is Regime.C2:
        return b2
    if regime is Regime.C3:
        return b3
    if regime is Regime.ZERO:
        return Fraction(0)
    return Fraction(min(config.m, config.n))  # NO_EAVESDROPPER


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
        target = sum_sdof(config).as_fraction
        b1, b2, b3 = upper_bounds(config)
        if target == b3:
            label = RegimeLabel(Regime.C3, "boundary")
        elif target == b1:
            label = RegimeLabel(Regime.C1, "boundary")
        else:
            label = RegimeLabel(Regime.C2, "boundary")

    if _case_value(label.regime, config) != sum_sdof(config).as_fraction:
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
        return JammingAllocation((), (), Fraction(0), Fraction(0), Fraction(0))

    swapped = config.m2 > config.m1
    work = config.swapped() if swapped else config
    m1, m2 = work.m1, work.m2

    if n_e == 0:
        total = Fraction(min(work.m, n))
        d1 = min(Fraction(m1), total)
        nullspace1 = nullspace2 = aligned = random1 = random2 = Fraction(0)
        j_s = Fraction(0)
        two_slot = False
    else:
        nullspace1 = Fraction(min(n_e, _pos(m1 - n)))
        nullspace2 = Fraction(min(n_e - nullspace1, _pos(m2 - n)))
        rem = Fraction(n_e) - nullspace1 - nullspace2

        intersection_cap = Fraction(_pos(min(m1, n) + min(m2, n) - n))
        antenna_cap1 = Fraction(m1) - nullspace1
        antenna_cap2 = Fraction(m2) - nullspace2
        aligned = min(rem / 2, intersection_cap, antenna_cap1, antenna_cap2)
        two_slot = aligned.denominator == 2

        rem_random = rem - 2 * aligned
        random1 = min(rem_random, antenna_cap1 - aligned)
        random2 = rem_random - random1
        if random2 > antenna_cap2 - aligned:
            raise SdofLabError(f"random jamming overflow for {config}")

        j_s = aligned + rem_random
        total = sum_sdof(config).as_fraction
        d1 = min(Fraction(m1) - nullspace1 - aligned - random1, total)

    d2 = total - d1
    if d2 < 0 or d2 > Fraction(m2) - nullspace2 - aligned - random2:
        raise SdofLabError(f"legitimate stream split infeasible for {config}")

    def entries(ns: Fraction, al: Fraction, rd: Fraction):
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
    return JammingAllocation(tx1, tx2, j_s, d1, d2, two_slot)


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
    """Exact rational audit of an allocation against its configuration.

    Checks, in order: (i) the jamming stream budget (aligned pairs counted
    once per transmitter) equals n_e, or zero in the no-SDoF regime;
    (ii) the receiver keeps enough free dimensions, n - j_s >= d1 + d2;
    (iii) d1 + d2 equals the closed-form sum SDoF; (iv) per-transmitter
    antenna budgets; and, where the transmit-dimension bound is binding
    with jamming overflow, the occupancy identity n - j_s = m1 + m2 - n_e.
    """
    label = classify(config)
    n = Fraction(config.n)
    checks = []

    expected_streams = Fraction(0 if label.regime is Regime.ZERO else config.n_e)
    total = alloc.total_streams
    checks.append(
        AuditCheck(
            "stream_budget",
            total == expected_streams,
            f"tx1 + tx2 jamming streams = {total}, expected {expected_streams}",
        )
    )

    room = n - alloc.j_s
    checks.append(
        AuditCheck(
            "receiver_room",
            room >= alloc.d_total,
            f"n - j_s = {room} must cover d1 + d2 = {alloc.d_total}",
        )
    )

    theory = sum_sdof(config).as_fraction
    checks.append(
        AuditCheck(
            "sdof_match",
            alloc.d_total == theory,
            f"d1 + d2 = {alloc.d_total}, closed form gives {theory}",
        )
    )

    budget_ok = True
    details = []
    for tx, m_i, d_i in ((1, config.m1, alloc.d1), (2, config.m2, alloc.d2)):
        used = alloc.streams(tx) + d_i
        details.append(f"tx{tx}: jamming + legitimate = {used} of {m_i}")
        if used > m_i or d_i < 0:
            budget_ok = False
    checks.append(AuditCheck("antenna_budget", budget_ok, "; ".join(details)))

    if label.regime is Regime.C1 and config.m > config.n:
        identity = Fraction(config.m - config.n_e)
        checks.append(
            AuditCheck(
                "occupancy_identity",
                room == identity,
                f"n - j_s = {room} must equal m1 + m2 - n_e = {identity}",
            )
        )

    return AuditReport(tuple(checks))


def regime_table(max_antennas: int) -> list[tuple[AntennaConfig, RegimeLabel, SDoFValue]]:
    """Exhaustive (config, label, value) rows for all antenna counts up to a cap.

    Enumerates 1 <= m1, m2, n <= max_antennas and 0 <= n_e <= m1 + m2.
    ``classify`` cross-checks every row's case value against the closed
    form, so building the table doubles as a consistency sweep.
    """
    if max_antennas < 1:
        raise ValueError("max_antennas must be at least 1")
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
