"""Configuration types for the scanning-cell simulation."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..codec import JsonRecord
from ..errors import ConfigError

HANDLING_KINDS = ("fixed", "uniform", "lognormal")

MS_PER_SECOND = 1000
SECONDS_PER_WEEK = 7 * 24 * 3600.0
SECONDS_PER_DAY = 24 * 3600.0
# scanners one robot may serve; a run builds every scanner up front
MAX_SCANNERS_PER_ROBOT = 1_000


def _require_finite(owner: str, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{owner} {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class HandlingTime(JsonRecord):
    """Distribution of the robot's handling time per loading cycle.

    The mean is the robot-arm time consumed per completed scan in steady
    state (unload previous print, transfer the interleaving plate, pick
    and place the next print). 66.7 s is back-derived so that a saturated
    robot on two scanners completes 3600/66.7 = 54 scans per hour.

    `spread` is the half-range as a fraction of the mean for `uniform`,
    and the sigma of the underlying normal for `lognormal`.
    """

    kind: str = "fixed"
    mean_seconds: float = 66.7
    spread: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("handling", mean_seconds=self.mean_seconds, spread=self.spread)
        if self.kind not in HANDLING_KINDS:
            raise ConfigError(f"handling kind must be one of {HANDLING_KINDS}, got {self.kind!r}")
        if not self.mean_seconds > 0:
            raise ConfigError("handling mean must be positive")
        if self.spread < 0:
            raise ConfigError("handling spread must be non-negative")
        if self.kind == "uniform" and self.spread >= 1.0:
            raise ConfigError("uniform handling spread must be below 1")

    def sample(self, rng: random.Random) -> float:
        if self.kind == "fixed":
            return self.mean_seconds
        if self.kind == "uniform":
            half = self.mean_seconds * self.spread
            return rng.uniform(self.mean_seconds - half, self.mean_seconds + half)
        sigma = self.spread
        mu = math.log(self.mean_seconds) - sigma * sigma / 2.0
        return max(1e-3, rng.lognormvariate(mu, sigma))


@dataclass(frozen=True)
class WeeklySchedule(JsonRecord):
    """Worker-present intervals, repeated weekly.

    Intervals are (day, start_hour, end_hour) with day 0 = Monday 00:00,
    which is also simulation time zero. Workers resolve reported errors
    and refill empty hoppers only while present.
    """

    intervals: tuple[tuple[int, float, float], ...] = tuple(
        (day, 9.0, 17.0) for day in range(5)
    )

    def __post_init__(self) -> None:
        for day, start, end in self.intervals:
            if not 0 <= day <= 6:
                raise ConfigError(f"day must be 0-6, got {day}")
            if not 0.0 <= start < end <= 24.0:
                raise ConfigError(f"invalid interval hours ({start}, {end})")

    def is_present(self, t_seconds: float) -> bool:
        week_t = t_seconds % SECONDS_PER_WEEK
        for day, start, end in self.intervals:
            lo = day * SECONDS_PER_DAY + start * 3600.0
            hi = day * SECONDS_PER_DAY + end * 3600.0
            if lo <= week_t < hi:
                return True
        return False

    def next_present_time(self, t_seconds: float) -> float:
        """Earliest time >= t at which a worker is present; inf if never."""
        if not self.intervals:
            return math.inf
        if self.is_present(t_seconds):
            return t_seconds
        week_start = t_seconds - (t_seconds % SECONDS_PER_WEEK)
        best = math.inf
        for week in (week_start, week_start + SECONDS_PER_WEEK):
            for day, start, _ in self.intervals:
                candidate = week + day * SECONDS_PER_DAY + start * 3600.0
                if candidate >= t_seconds:
                    best = min(best, candidate)
        return best

    def to_json_dict(self) -> list:
        """Written as the bare list of intervals."""
        return super().to_json_dict()["intervals"]

    @classmethod
    def from_json_dict(cls, data) -> "WeeklySchedule":
        return super().from_json_dict({"intervals": data})


ALWAYS_PRESENT = WeeklySchedule(tuple((day, 0.0, 24.0) for day in range(7)))
NEVER_PRESENT = WeeklySchedule(())


@dataclass(frozen=True)
class CellConfig(JsonRecord):
    """Parameters of one robot-and-scanners cell.

    `hopper_capacity` is prints per input hopper; `None` means hoppers
    never run dry. Prints are interleaved with steel plates (one plate
    between consecutive prints), and a hopper only holds prints of one
    size. `lift_retry_limit` counts total attempts: the default 3 is one
    try plus two further attempts with added downward force.
    `ramp_multiplier` optionally scales productivity week on week
    (handling times divide by multiplier^week). Every float must be finite,
    a scan must round to at least 1 ms so that simulated time advances, and
    one robot serves at most `MAX_SCANNERS_PER_ROBOT` scanners.
    """

    scanners_per_robot: int = 2
    scan_seconds: float = 45.0
    handling_time: HandlingTime = field(default_factory=HandlingTime)
    hopper_capacity: int | None = 300
    lift_retry_limit: int = 3
    lift_failure_prob: float = 0.0
    attendance: WeeklySchedule = field(default_factory=WeeklySchedule)
    reload_seconds: float = 60.0
    ramp_multiplier: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(
            "cell",
            scan_seconds=self.scan_seconds,
            lift_failure_prob=self.lift_failure_prob,
            reload_seconds=self.reload_seconds,
            ramp_multiplier=self.ramp_multiplier,
        )
        if not 1 <= self.scanners_per_robot <= MAX_SCANNERS_PER_ROBOT:
            raise ConfigError(
                f"scanners per robot must lie in [1, {MAX_SCANNERS_PER_ROBOT:,}], "
                f"got {self.scanners_per_robot}"
            )
        if round(self.scan_seconds * MS_PER_SECOND) < 1:
            raise ConfigError("scan duration must round to at least 1 ms")
        if self.hopper_capacity is not None and self.hopper_capacity < 1:
            raise ConfigError("hopper capacity must be at least 1 (or None for unlimited)")
        if self.lift_retry_limit < 1:
            raise ConfigError("lift retry limit must be at least 1")
        if not 0.0 <= self.lift_failure_prob <= 1.0:
            raise ConfigError("lift failure probability must lie in [0, 1]")
        if self.reload_seconds < 0:
            raise ConfigError("reload duration must be non-negative")
        if not self.ramp_multiplier > 0:
            raise ConfigError("ramp multiplier must be positive")
