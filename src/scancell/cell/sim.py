"""Discrete-event simulation of one robot-tended scanning cell.

One robot arm serves a ring of scanners (two by default). Input hoppers
hold prints face down, interleaved with steel plates; the robot senses the
top of the stack (light print or dark plate), vacuum-lifts prints onto the
scanner bed, magnet-lifts plates across to the output hopper, and unloads
scanned prints. Lid, scan and unload transitions chain off completed prior
events (absolute references), never off timed margins; in the trace every
event names the event that caused it.

Timing model: each robot action happens at the instant its visit starts
and the phase duration covers the arm movement that follows. The visit's
closing events (print placed or unloaded, plate transferred, departure)
are emitted when the clock reaches its end, so events are recorded in
time order. The unload, plate-transfer and pick-and-place phases of one
loading cycle each draw their own handling time h and take 0.3, 0.3 and
0.4 of it, so in steady state one completed scan consumes the mean of h
in robot time. Only fixed handling keeps the three phases in a 3:3:4
ratio. Lid actuation is part of the event chain but consumes no separate
time; it is folded into h.

Dispatch: the robot is busy from the start of a visit to its end and
through a stall, idle otherwise. It picks its next visit at t = 0, when a
visit ends or a stall is resolved, and, while idle, when a scan completes
or a hopper is reloaded; no dispatch lands while it is busy.

Failures: a hopper pick may fail per attempt; after the retry limit the
cell stops and reports an error, which a worker resolves at the next
attended moment (in-flight scans still finish). An exhausted input hopper
lights a lamp; the robot senses it on the next pick, that scanner idles
awaiting a reload, and the robot keeps serving the others.

Runs are deterministic for a fixed (config, seed, horizon); the clock is
integer milliseconds. Independent runs may execute concurrently.
"""
from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from ..errors import ConfigError, DomainError
from .config import MS_PER_SECOND, CellConfig
from .throughput import ThroughputReport

WEEK_MS = 7 * 24 * 3600 * MS_PER_SECOND
# events one run may emit; each costs about 300 B until the trace CSV is
# written, so a run at the budget peaks near 0.9 GB (a 4-week default run
# emits about 763k)
MAX_EVENTS = 3_000_000

UNLOAD_SHARE = 0.3
PLATE_SHARE = 0.3
LOAD_SHARE = 0.4
MIN_STALL_RECOVERY_SECONDS = 1.0

# scanner bed states
BED_EMPTY = "empty"
BED_SCANNING = "scanning"
BED_SCANNED = "scanned"

# (attempt, failed, ok) transitions of a hopper pick
PRINT_LIFT = ("print_lift_attempt", "print_lift_failed", "print_lift_ok")
PLATE_LIFT = ("plate_lift_attempt", "plate_lift_failed", "plate_lift_ok")
# scanner transitions at the end of a load visit, each caused by the one before
LOAD_CHAIN = ("print_on_bed", "robot_clear", "lid_closed", "scan_started")


@dataclass(frozen=True)
class SimTrace:
    """Ordered event log of one run.

    Each event is a plain `(time_ms, entity, transition, cause_id)` tuple,
    the four CSV columns in order. An event's id is its position in
    `events`; `cause_id` is the id of the earlier event that triggered it,
    or None for `program_initiated`.
    """

    events: tuple[tuple[int, str, str, int | None], ...]
    horizon_ms: int

    CSV_HEADER = "time_ms,entity,transition,cause_event_id"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for time_ms, entity, transition, cause_id in self.events:
            cause = "" if cause_id is None else cause_id
            lines.append(f"{time_ms},{entity},{transition},{cause}")
        return "\n".join(lines) + "\n"


class _Scanner:
    """One scanner and its input hopper. `bed` is BED_EMPTY (lid open),
    BED_SCANNING (print on the bed, lid closed) or BED_SCANNED (lid open,
    awaiting unload); event fields hold indices into the event list.

    The hopper is `prints` left (math.inf when unlimited) and `plate_on_top`:
    a plate sits between consecutive prints, so taking any print but the
    last bares a plate, and a (re)load puts a print on top."""

    __slots__ = (
        "index",
        "entity",
        "arrive",
        "depart",
        "prints",
        "plate_on_top",
        "bed",
        "empty_acknowledged",
        "ready_event",
        "lamp_event",
        "scanning_ms",
        "scans_done",
        "starved_since_ms",
        "starved_ms",
    )

    def __init__(self, index: int, capacity: int | None, start_event: int):
        self.index = index
        self.entity = f"scanner{index}"
        self.arrive = f"arrive@{self.entity}"
        self.depart = f"depart@{self.entity}"
        self.prints = math.inf if capacity is None else capacity
        self.plate_on_top = False
        self.bed = BED_EMPTY
        self.empty_acknowledged = False
        self.ready_event = start_event
        self.lamp_event: int | None = None
        self.scanning_ms = 0
        self.scans_done = 0
        self.starved_since_ms: int | None = None
        self.starved_ms = 0


class _Simulation:
    def __init__(self, config: CellConfig, seed: int, horizon_ms: int):
        self.config = config
        self.rng = random.Random(seed)
        self.horizon_ms = horizon_ms
        # (time_ms, entity, transition, cause index or None), emitted when the
        # clock reaches time_ms, so in time order; an index is the event's id
        self.events: list[tuple[int, str, str, int | None]] = []
        # (time_ms, seq, action, args): action(time_ms, *args) runs at time_ms
        self.heap: list[tuple[int, int, object, tuple]] = []
        self.seq = 0
        start = self.emit(0, "cell", "program_initiated", None)
        self.scanners = [
            _Scanner(i, config.hopper_capacity, start) for i in range(config.scanners_per_robot)
        ]
        self.robot_idle = False  # idle with no dispatch due; the first is at t = 0
        self.robot_last_event = start
        self.robot_last_served = -1
        self.robot_busy_ms = 0
        self.stall_since_ms: int | None = None  # None while the cell runs
        self.stall_ms = 0

    # -- plumbing ---------------------------------------------------------

    def emit(self, time_ms: int, entity: str, transition: str, cause: int | None) -> int:
        """Record an event and return its index; `cause` is None for none."""
        events = self.events
        events.append((time_ms, entity, transition, cause))
        if len(events) > MAX_EVENTS:
            raise DomainError(
                f"run exceeds {MAX_EVENTS:,} events at {time_ms / MS_PER_SECOND:.3f} s; "
                "shorten the horizon or lengthen the cycle"
            )
        return len(events) - 1

    def schedule(self, time_ms: int, action, *args) -> None:
        heapq.heappush(self.heap, (time_ms, self.seq, action, args))
        self.seq += 1

    def run(self) -> None:
        self.schedule(0, self.dispatch_robot)
        while self.heap:
            time_ms, _, action, args = heapq.heappop(self.heap)
            if time_ms > self.horizon_ms:
                break
            action(time_ms, *args)

    # -- robot dispatch ---------------------------------------------------

    def wake_robot(self, now_ms: int) -> None:
        if self.robot_idle:
            self.robot_idle = False
            self.schedule(now_ms, self.dispatch_robot)

    def dispatch_robot(self, now_ms: int) -> None:
        n = len(self.scanners)
        for offset in range(1, n + 1):
            scanner = self.scanners[(self.robot_last_served + offset) % n]
            if self.start_visit(scanner, now_ms):
                return
        self.robot_idle = True

    def start_visit(self, scanner: _Scanner, now_ms: int) -> bool:
        """Serve `scanner` if it needs the robot; False when it does not."""
        if scanner.bed == BED_SCANNED:
            self.visit_unload(scanner, now_ms)
        elif scanner.bed == BED_SCANNING:
            return False
        elif scanner.plate_on_top:
            self.visit_plate(scanner, now_ms)
        elif scanner.prints:
            self.visit_load(scanner, now_ms)
        elif not scanner.empty_acknowledged:
            self.visit_empty_check(scanner, now_ms)
        else:
            return False
        return True

    def begin_visit(self, scanner: _Scanner, now_ms: int) -> int:
        self.robot_last_served = scanner.index
        enabling = scanner.ready_event
        last = self.robot_last_event
        cause = enabling if self.events[enabling][0] >= self.events[last][0] else last
        return self.emit(now_ms, "robot", scanner.arrive, cause)

    def end_visit(self, scanner: _Scanner, arrive: int, end_ms: int, cause: int, chain) -> None:
        """Book the robot from `arrive` until `end_ms` and finish the visit
        then: the scanner transitions of `chain` follow `cause`, and the
        robot departs."""
        self.robot_busy_ms += min(end_ms, self.horizon_ms) - self.events[arrive][0]
        # one visit is in flight at a time, and its end runs before any
        # other action due in the same millisecond
        heapq.heappush(self.heap, (end_ms, -1, self.visit_end, (scanner, arrive, cause, chain)))

    def visit_end(self, now_ms: int, scanner: _Scanner, arrive: int, cause: int, chain) -> None:
        last = cause
        for transition in chain:
            last = self.emit(now_ms, scanner.entity, transition, last)
        if scanner.bed == BED_SCANNING:  # a load: the scan starts now
            scan_end_ms = now_ms + round(self.config.scan_seconds * MS_PER_SECOND)
            scanner.scanning_ms += min(scan_end_ms, self.horizon_ms) - now_ms
            self.schedule(scan_end_ms, self.scan_done, scanner, last)
        elif scanner.ready_event < arrive:
            # a reload that completed during the visit stays the enabling event
            scanner.ready_event = last
        self.update_starved(scanner, now_ms)
        self.robot_last_event = self.emit(now_ms, "robot", scanner.depart, last)
        self.schedule(now_ms, self.dispatch_robot)

    def phase_duration_ms(self, share: float, now_ms: int) -> int:
        """Duration of one phase: `share` of a handling time drawn for this
        phase alone, sped up by the ramp for the current week."""
        handling = self.config.handling_time.sample(self.rng)
        ramp = self.config.ramp_multiplier
        if ramp != 1.0:
            week = now_ms // WEEK_MS
            try:
                handling /= ramp**week
            except (OverflowError, ZeroDivisionError):  # ramp**week left the float range
                handling = math.inf
            if handling * MS_PER_SECOND == math.inf:
                raise DomainError(
                    f"ramp_multiplier {ramp!r} in week {week} takes the handling time "
                    "out of the float range"
                )
        return max(0, round(share * handling * MS_PER_SECOND))

    def attempt_lift(self, scanner: _Scanner, lift: tuple[str, str, str], now_ms: int, cause: int):
        """Run the retry loop for one hopper pick; returns the lift-ok
        event, or None after the final failure (the cell is then stalled)."""
        attempted, failed, ok = lift
        prev = cause
        for _ in range(self.config.lift_retry_limit):
            attempt = self.emit(now_ms, scanner.entity, attempted, prev)
            if self.rng.random() < self.config.lift_failure_prob:
                prev = self.emit(now_ms, scanner.entity, failed, attempt)
            else:
                return self.emit(now_ms, scanner.entity, ok, attempt)
        self.enter_stall(scanner, now_ms, prev)
        return None

    # -- visit flavours ---------------------------------------------------

    def visit_unload(self, scanner: _Scanner, now_ms: int) -> None:
        arrive = self.begin_visit(scanner, now_ms)
        duration = self.phase_duration_ms(UNLOAD_SHARE, now_ms)
        lifted = self.emit(now_ms, scanner.entity, "print_lifted_from_bed", arrive)
        scanner.bed = BED_EMPTY
        self.end_visit(scanner, arrive, now_ms + duration, lifted, ("print_unloaded",))

    def visit_plate(self, scanner: _Scanner, now_ms: int) -> None:
        arrive = self.begin_visit(scanner, now_ms)
        duration = self.phase_duration_ms(PLATE_SHARE, now_ms)
        sense = self.emit(now_ms, scanner.entity, "sense_plate", arrive)
        lift = self.attempt_lift(scanner, PLATE_LIFT, now_ms, sense)
        if lift is None:
            return
        scanner.plate_on_top = False
        self.end_visit(scanner, arrive, now_ms + duration, lift, ("plate_transferred",))

    def visit_load(self, scanner: _Scanner, now_ms: int) -> None:
        arrive = self.begin_visit(scanner, now_ms)
        duration = self.phase_duration_ms(LOAD_SHARE, now_ms)
        sense = self.emit(now_ms, scanner.entity, "sense_print", arrive)
        lift = self.attempt_lift(scanner, PRINT_LIFT, now_ms, sense)
        if lift is None:
            return
        scanner.prints -= 1
        scanner.plate_on_top = scanner.prints > 0
        if not scanner.prints:
            scanner.lamp_event = self.emit(now_ms, scanner.entity, "hopper_empty_lamp_on", lift)
            self.schedule_reload(scanner, now_ms)
        scanner.bed = BED_SCANNING
        self.end_visit(scanner, arrive, now_ms + duration, lift, LOAD_CHAIN)

    def visit_empty_check(self, scanner: _Scanner, now_ms: int) -> None:
        arrive = self.begin_visit(scanner, now_ms)
        sense = self.emit(now_ms, scanner.entity, "sense_empty", arrive)
        scanner.empty_acknowledged = True
        self.end_visit(scanner, arrive, now_ms, sense, ())

    # -- scheduled actions -----------------------------------------------

    def scan_done(self, now_ms: int, scanner: _Scanner, started: int) -> None:
        done = self.emit(now_ms, scanner.entity, "scan_done", started)
        opened = self.emit(now_ms, scanner.entity, "lid_opened", done)
        scanner.bed = BED_SCANNED
        scanner.ready_event = opened
        scanner.scans_done += 1
        self.wake_robot(now_ms)

    def schedule_reload(self, scanner: _Scanner, now_ms: int) -> None:
        """Refill an exhausted hopper once a worker is present; a hopper
        empties at most once between refills, so one reload is pending
        at most."""
        worker_at = self.config.attendance.next_present_time(now_ms / MS_PER_SECOND)
        if worker_at == float("inf"):
            return
        done_s = worker_at + self.config.reload_seconds
        done_ms = max(now_ms, round(done_s * MS_PER_SECOND))
        self.schedule(done_ms, self.reload_done, scanner)

    def reload_done(self, now_ms: int, scanner: _Scanner) -> None:
        scanner.prints = self.config.hopper_capacity  # only a finite hopper empties
        scanner.empty_acknowledged = False
        reloaded = self.emit(now_ms, scanner.entity, "hopper_reloaded", scanner.lamp_event)
        scanner.ready_event = reloaded
        self.update_starved(scanner, now_ms)
        self.wake_robot(now_ms)

    def enter_stall(self, scanner: _Scanner, now_ms: int, final_failure: int) -> None:
        error = self.emit(now_ms, "cell", "error_stall", final_failure)
        self.emit(now_ms, "robot", scanner.depart, error)
        self.robot_last_event = error
        self.stall_since_ms = now_ms
        worker_at = self.config.attendance.next_present_time(now_ms / MS_PER_SECOND)
        if worker_at == float("inf"):
            return
        resume_s = max(worker_at, now_ms / MS_PER_SECOND + MIN_STALL_RECOVERY_SECONDS)
        self.schedule(round(resume_s * MS_PER_SECOND), self.stall_over, scanner, error)

    def stall_over(self, now_ms: int, scanner: _Scanner, error: int) -> None:
        resolved = self.emit(now_ms, "cell", "stall_resolved", error)
        self.stall_ms += now_ms - self.stall_since_ms
        self.stall_since_ms = None
        scanner.ready_event = resolved
        self.robot_last_event = resolved
        self.schedule(now_ms, self.dispatch_robot)

    # -- accounting -------------------------------------------------------

    def update_starved(self, scanner: _Scanner, now_ms: int) -> None:
        """Open or close the scanner's starvation interval at `now_ms`: it
        starves while its bed is empty and its hopper has run out."""
        starving = scanner.bed == BED_EMPTY and not scanner.prints
        if starving and scanner.starved_since_ms is None:
            scanner.starved_since_ms = now_ms
        elif not starving and scanner.starved_since_ms is not None:
            scanner.starved_ms += now_ms - scanner.starved_since_ms
            scanner.starved_since_ms = None

    def finalize_accounting(self) -> None:
        if self.stall_since_ms is not None:
            self.stall_ms += self.horizon_ms - self.stall_since_ms
        for scanner in self.scanners:
            if scanner.starved_since_ms is not None:
                scanner.starved_ms += self.horizon_ms - scanner.starved_since_ms

    def build_report(self) -> ThroughputReport:
        hours = self.horizon_ms / MS_PER_SECOND / 3600.0
        n = len(self.scanners)
        scans = sum(s.scans_done for s in self.scanners)
        per_hour = scans / hours if hours > 0 else 0.0
        scanner_busy = sum(s.scanning_ms for s in self.scanners)
        return ThroughputReport(
            mode="simulated",
            scans_per_scanner_hour=per_hour / n,
            scans_per_hour=per_hour,
            scans_per_scanner_week=per_hour / n * 168.0,
            scans_per_worker_week=None,
            scans_completed=scans,
            per_scanner_scans=tuple(s.scans_done for s in self.scanners),
            horizon_hours=hours,
            robot_utilization=self.robot_busy_ms / self.horizon_ms if self.horizon_ms else 0.0,
            scanner_utilization=(
                scanner_busy / (n * self.horizon_ms) if self.horizon_ms else 0.0
            ),
            stall_seconds=self.stall_ms / MS_PER_SECOND,
            starved_seconds=sum(s.starved_ms for s in self.scanners) / MS_PER_SECOND,
        )


def simulate(
    config: CellConfig, seed: int, horizon_seconds: float
) -> tuple[SimTrace, ThroughputReport]:
    """Run the cell for `horizon_seconds` of simulated time.

    Deterministic for a fixed (config, seed, horizon). A zero horizon gives
    an empty trace and a zero report; a horizon shorter than one loading
    cycle gives a valid trace with no completed scans. A run that would
    emit more than `MAX_EVENTS` events raises DomainError.
    """
    if not isinstance(config, CellConfig):
        raise ConfigError("config must be a CellConfig")
    if not math.isfinite(horizon_seconds):
        raise ConfigError(f"horizon must be finite, got {horizon_seconds!r}")
    if horizon_seconds < 0:
        raise ConfigError("horizon must be non-negative")
    horizon_ms = round(horizon_seconds * MS_PER_SECOND)
    if horizon_ms == 0:
        return SimTrace((), 0), _Simulation(config, seed, 0).build_report()
    sim = _Simulation(config, seed, horizon_ms)
    sim.run()
    sim.finalize_accounting()
    return SimTrace(tuple(sim.events), horizon_ms), sim.build_report()
