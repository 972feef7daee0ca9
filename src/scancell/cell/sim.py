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
through a stall, idle otherwise. It picks its next visit at t = 0, when
a visit ends or a stall is resolved, and, while idle, when a scan
completes or a hopper is reloaded; no dispatch lands while it is busy.
The one visit in flight is held beside the event heap, not on it, and
ends before any action due in its millisecond. A dispatch runs at once,
unless an action is already due in that millisecond; it then runs after
those actions. The robot serves the scanners in turn, by the one state
each is in: awaiting a load (a plate visit while a plate tops the
hopper, else a load), awaiting an unload (from scan completion until the
unloading robot departs), or starved (bed and hopper empty, so the robot
senses the empty hopper). A scanner that is scanning, or whose empty
hopper the robot has sensed, needs no visit; a reload moves a starved or
sensed-empty scanner back to awaiting a load, and in any other state
only refills the hopper. Starvation runs from the unloading robot's
departure to the reload.

Failures: a hopper pick may fail per attempt; after the retry limit the
cell stops and reports an error (in-flight scans still finish), which a
worker resolves once present, but never sooner than
`MIN_STALL_RECOVERY_SECONDS` after the stall began. An exhausted input
hopper lights a lamp; the robot senses it on the next pick, that scanner
idles awaiting a reload, and the robot keeps serving the others. A reload
completes `reload_seconds` after a worker is next present.

Trace: the engine appends each event to three columns, its time, its
kind (an index into the run's (entity, transition) vocabulary) and its
cause, a block of `CSV_BLOCK_EVENTS` at a time into typed arrays, so a
held event costs 18 B and no object the collector tracks. The engine
keeps the few event times it compares in its own state and never reads
its log back.

Runs are deterministic for a fixed (config, seed, horizon); the clock is
integer milliseconds. Independent runs may execute concurrently.
"""
from __future__ import annotations

import functools
import heapq
import math
import random
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

from ..errors import ConfigError, DomainError
from .config import MS_PER_SECOND, CellConfig, require_ms
from .throughput import ThroughputReport

WEEK_MS = 7 * 24 * 3600 * MS_PER_SECOND
# events one run may emit; a held event costs 18 B in the trace columns and
# the CSV is written a block at a time, so a run at the budget peaks near
# 0.1 GB (4 weeks of the default config emit 265k)
MAX_EVENTS = 3_000_000
CSV_BLOCK_EVENTS = 1 << 16  # events per block of CSV text and of engine columns
NO_CAUSE = -1  # the cause column's value for `program_initiated`

UNLOAD_SHARE = 0.3
PLATE_SHARE = 0.3
LOAD_SHARE = 0.4
MIN_STALL_RECOVERY_SECONDS = 1.0

# scanner states, described in `_Scanner`
AWAITING_LOAD = "awaiting_load"
SCANNING = "scanning"
AWAITING_UNLOAD = "awaiting_unload"
STARVED = "starved"
SENSED_EMPTY = "sensed_empty"

# each entity's transitions, in vocabulary order; the cell's come first,
# so their kind codes do not depend on the number of scanners
CELL_TRANSITIONS = ("program_initiated", "error_stall", "stall_resolved")
PROGRAM_INITIATED, ERROR_STALL, STALL_RESOLVED = range(len(CELL_TRANSITIONS))
SCANNER_TRANSITIONS = (
    "print_lift_attempt", "print_lift_failed", "print_lift_ok",
    "plate_lift_attempt", "plate_lift_failed", "plate_lift_ok",
    "print_on_bed", "robot_clear", "lid_closed", "scan_started",
    "sense_print",
    "sense_plate",
    "sense_empty",
    "hopper_empty_lamp_on",
    "print_lifted_from_bed",
    "print_unloaded",
    "plate_transferred",
    "scan_done",
    "lid_opened",
    "hopper_reloaded",
)
# a scanner's kind codes follow the cell's and the earlier scanners' in
# `vocabulary`, each its first code plus an offset named here: the robot's
# arrival and departure, then SCANNER_TRANSITIONS line for line
SCANNER_KINDS = 2 + len(SCANNER_TRANSITIONS)
(
    ARRIVE, DEPART,
    PRINT_LIFT, _, _,
    PLATE_LIFT, _, _,
    PRINT_ON_BED, ROBOT_CLEAR, LID_CLOSED, SCAN_STARTED,
    SENSE_PRINT,
    SENSE_PLATE,
    SENSE_EMPTY,
    LAMP_ON,
    LIFTED_FROM_BED,
    PRINT_UNLOADED,
    PLATE_TRANSFERRED,
    SCAN_DONE,
    LID_OPENED,
    RELOADED,
) = range(SCANNER_KINDS)
# the scanner transitions that close each kind of visit, each caused by the one before
LOAD_CHAIN = (PRINT_ON_BED, ROBOT_CLEAR, LID_CLOSED, SCAN_STARTED)
UNLOAD_CHAIN = (PRINT_UNLOADED,)
PLATE_CHAIN = (PLATE_TRANSFERRED,)


@functools.lru_cache(maxsize=8)
def vocabulary(scanners: int) -> tuple[tuple[str, str], ...]:
    """The (entity, transition) pairs that the kind codes of a run with
    `scanners` scanners index: the cell's, then for each scanner the
    robot's arrival and departure and the scanner's own transitions."""
    pairs = [("cell", transition) for transition in CELL_TRANSITIONS]
    for index in range(scanners):
        entity = f"scanner{index}"
        pairs += [("robot", f"arrive@{entity}"), ("robot", f"depart@{entity}")]
        pairs += [(entity, transition) for transition in SCANNER_TRANSITIONS]
    return tuple(pairs)


@functools.lru_cache(maxsize=8)
def _csv_labels(pairs: tuple[tuple[str, str], ...]) -> tuple[str, ...]:
    return tuple(f"{entity},{transition}," for entity, transition in pairs)


@dataclass(frozen=True)
class SimTrace:
    """Ordered event log of one run, held as columns.

    Event i happened at `times[i]` ms. `kinds[i]` indexes `vocabulary`,
    the run's (entity, transition) pairs. `causes[i]` is the id of the
    earlier event that triggered it, or NO_CAUSE for `program_initiated`.
    An event's id is its position, so `events` is the range of the ids;
    the benchmark in `perfbench` reads its length.
    """

    times: array  # array("q")
    kinds: array  # array("H"); 1,000 scanners, the most a config allows, use 22,003 codes
    causes: array  # array("q")
    vocabulary: tuple[tuple[str, str], ...]
    horizon_ms: int

    CSV_HEADER = "time_ms,entity,transition,cause_event_id"

    @property
    def events(self) -> range:
        return range(len(self.times))

    def csv_blocks(self) -> Iterator[str]:
        """The CSV text in pieces: the header, then a newline before the
        lines of each `CSV_BLOCK_EVENTS` events, and a final newline, so a
        writer holds one block's text at a time."""
        labels = _csv_labels(self.vocabulary)
        yield self.CSV_HEADER
        for start in range(0, len(self.times), CSV_BLOCK_EVENTS):
            stop = start + CSV_BLOCK_EVENTS
            yield "\n"
            # the block's line strings are freed once joined
            yield "\n".join(
                [
                    f"{time_ms},{labels[kind]}{'' if cause == NO_CAUSE else cause}"
                    for time_ms, kind, cause in zip(
                        self.times[start:stop], self.kinds[start:stop], self.causes[start:stop]
                    )
                ]
            )
        yield "\n"

    def to_csv(self) -> str:
        return "".join(self.csv_blocks())


class _Scanner:
    """One scanner and its input hopper. `state` is AWAITING_LOAD (bed
    empty, prints in the hopper), SCANNING, AWAITING_UNLOAD (until the
    robot departs from the unload), STARVED (bed and hopper empty) or
    SENSED_EMPTY (the same, once the robot has sensed it); event fields
    hold event ids, and `ready_ms` is the time of `ready_event`.

    The hopper is `prints` left (math.inf when unlimited) and `plate_on_top`:
    a plate sits between consecutive prints, so taking any print but the
    last bares a plate, and a (re)load puts a print on top.

    `base` is the scanner's first kind code; each of its kinds is `base`
    plus an offset of the SCANNER_KINDS layout."""

    __slots__ = (
        "index",
        "base",
        "prints",
        "plate_on_top",
        "state",
        "ready_event",
        "ready_ms",
        "lamp_event",
        "scans_done",
    )

    def __init__(self, index: int, capacity: int | None):
        self.index = index
        self.base = len(CELL_TRANSITIONS) + index * SCANNER_KINDS
        self.prints = math.inf if capacity is None else capacity
        self.plate_on_top = False
        self.state = AWAITING_LOAD
        self.ready_event = 0  # program_initiated
        self.ready_ms = 0
        self.lamp_event: int | None = None
        self.scans_done = 0


class _Simulation:
    """The engine of one run. `__init__` works out once the inputs that
    stay fixed for the run, and the per-visit code reads them:
    `draw_handling`, a zero-argument draw of one handling time in seconds
    (`HandlingTime.sampler`); `scan_ms`, the scan in ms; `lift_attempts`,
    a range over the attempts of one hopper pick; and `ring`, the scanners
    twice over, so that the robot's visiting order after scanner i, from
    scanner i + 1 round to scanner i, is `ring[i + 1 : i + 1 + n]`, at 2n
    references for n scanners."""

    def __init__(self, config: CellConfig, seed: int, horizon_ms: int):
        self.config = config
        self.rng = random.Random(seed)
        self.horizon_ms = horizon_ms
        self.draw_handling = config.handling_time.sampler(self.rng)
        self.scan_ms = round(config.scan_seconds * MS_PER_SECOND)
        self.lift_attempts = range(config.lift_retry_limit)
        # the trace columns: events are emitted when the clock reaches
        # their time, so in time order, and an event's id is its position.
        # They collect in lists a block at a time, then move to the arrays.
        self.times, self.kinds, self.causes = array("q"), array("H"), array("q")
        self.block_times: list[int] = []
        self.block_kinds: list[int] = []
        self.block_causes: list[int] = []
        self.next_event = 0
        # the id at which `block_full` runs: a full block, or the budget
        self.check_at = min(CSV_BLOCK_EVENTS - 1, MAX_EVENTS)
        # (time_ms, seq, action, args): action(time_ms, *args) runs at time_ms
        self.heap: list[tuple[int, int, object, tuple]] = []
        self.seq = 0
        # the visit in flight, (end_ms, scanner, arrive, cause, chain), or None
        self.visit: tuple | None = None
        self.scanners = [
            _Scanner(i, config.hopper_capacity) for i in range(config.scanners_per_robot)
        ]
        self.ring = self.scanners * 2
        self.robot_idle = False  # idle with no dispatch due; the first is at t = 0
        self.robot_last_event = 0  # program_initiated
        self.robot_last_ms = 0
        self.robot_last_served = -1  # so the first visiting order starts at scanner 0
        # an interval of robot work, scanning, stall or starvation is charged up to
        # the horizon when it opens; a stall or starvation that closes first is refunded the rest
        self.robot_busy_ms = 0
        self.scanning_ms = 0
        self.stall_ms = 0
        self.starved_ms = 0

    # -- plumbing ---------------------------------------------------------

    def emit(self, time_ms: int, kind: int, cause: int) -> int:
        """Record an event and return its id; `cause` is NO_CAUSE for none."""
        self.block_times.append(time_ms)
        self.block_kinds.append(kind)
        self.block_causes.append(cause)
        event = self.next_event
        self.next_event = event + 1
        if event == self.check_at:
            self.block_full(event, time_ms)
        return event

    def block_full(self, event: int, time_ms: int) -> None:
        if event >= MAX_EVENTS:
            raise DomainError(
                f"run exceeds {MAX_EVENTS:,} events at {time_ms / MS_PER_SECOND:.3f} s; "
                "shorten the horizon or lengthen the cycle"
            )
        self.flush()
        self.check_at = min(event + CSV_BLOCK_EVENTS, MAX_EVENTS)

    def flush(self) -> None:
        for column, block in (
            (self.times, self.block_times),
            (self.kinds, self.block_kinds),
            (self.causes, self.block_causes),
        ):
            column.fromlist(block)  # twice as fast as extend
            block.clear()

    def schedule(self, time_ms: int, action, *args) -> None:
        heapq.heappush(self.heap, (time_ms, self.seq, action, args))
        self.seq += 1

    def run(self) -> None:
        self.emit(0, PROGRAM_INITIATED, NO_CAUSE)
        self.dispatch_robot(0)
        heap, horizon_ms = self.heap, self.horizon_ms
        while True:
            visit = self.visit
            if visit is not None and (not heap or visit[0] <= heap[0][0]):
                if visit[0] > horizon_ms:
                    break
                self.visit = None
                self.visit_end(*visit)
            elif heap:
                time_ms, _, action, args = heapq.heappop(heap)
                if time_ms > horizon_ms:
                    break
                action(time_ms, *args)
            else:
                break
        self.flush()

    # -- robot dispatch ---------------------------------------------------

    def wake_robot(self, now_ms: int) -> None:
        if self.robot_idle:
            self.robot_idle = False
            self.dispatch_robot_after_due(now_ms)

    def dispatch_robot_after_due(self, now_ms: int) -> None:
        """Dispatch the robot now, or after the actions already due now."""
        if self.heap and self.heap[0][0] == now_ms:
            self.schedule(now_ms, self.dispatch_robot)
        else:
            self.dispatch_robot(now_ms)

    def dispatch_robot(self, now_ms: int) -> None:
        first = self.robot_last_served + 1
        for scanner in self.ring[first : first + len(self.scanners)]:
            if scanner.state == AWAITING_LOAD:
                visit = self.visit_plate if scanner.plate_on_top else self.visit_load
            elif scanner.state == AWAITING_UNLOAD:
                visit = self.visit_unload
            elif scanner.state == STARVED:
                visit = self.visit_empty_check
            else:  # SCANNING or SENSED_EMPTY: the robot passes on
                continue
            self.robot_last_served = scanner.index
            ready = scanner.ready_ms >= self.robot_last_ms
            cause = scanner.ready_event if ready else self.robot_last_event
            visit(scanner, now_ms, self.emit(now_ms, scanner.base + ARRIVE, cause))
            return
        self.robot_idle = True

    def end_visit(
        self, scanner: _Scanner, arrive: int, now_ms: int, duration: int, cause: int, chain
    ) -> None:
        """Book the robot for `duration` from `now_ms`, when event `arrive`
        began the visit, and finish the visit then: the scanner
        transitions of `chain` follow `cause`, and the robot departs."""
        end_ms = now_ms + duration
        self.robot_busy_ms += min(end_ms, self.horizon_ms) - now_ms
        # one visit is in flight at a time: it is held beside the heap, and
        # `run` ends it before any action due in its millisecond
        self.visit = (end_ms, scanner, arrive, cause, chain)

    def visit_end(self, now_ms: int, scanner: _Scanner, arrive: int, cause: int, chain) -> None:
        last, base = cause, scanner.base
        for offset in chain:
            last = self.emit(now_ms, base + offset, last)
        if scanner.state == SCANNING:  # a load: the scan starts now
            scan_end_ms = now_ms + self.scan_ms
            self.scanning_ms += min(scan_end_ms, self.horizon_ms) - now_ms
            self.schedule(scan_end_ms, self.scan_done, scanner, last)
        elif scanner.ready_event < arrive:
            # a reload that completed during the visit stays the enabling event
            scanner.ready_event, scanner.ready_ms = last, now_ms
        if scanner.state == AWAITING_UNLOAD:  # the bed is clear once the robot departs
            scanner.state = AWAITING_LOAD if scanner.prints else STARVED
            if not scanner.prints:
                self.starved_ms += self.horizon_ms - now_ms
        self.robot_last_event = self.emit(now_ms, base + DEPART, last)
        self.robot_last_ms = now_ms
        self.dispatch_robot_after_due(now_ms)

    def phase_duration_ms(self, share: float, now_ms: int) -> int:
        """Duration of one phase: `share` of a handling time drawn for this
        phase alone, sped up by the ramp for the current week."""
        try:
            handling = drawn = self.draw_handling()
        except OverflowError:  # a lognormal draw beyond the float range
            handling = drawn = math.inf
        ramp = self.config.ramp_multiplier
        if ramp != 1.0:
            try:
                handling /= ramp ** (now_ms // WEEK_MS)
            except (OverflowError, ZeroDivisionError):  # ramp**week left the float range
                handling = math.inf
        if handling * MS_PER_SECOND == math.inf:
            cause = f"a {self.config.handling_time.kind} draw"
            if drawn * MS_PER_SECOND < math.inf:
                cause = f"ramp_multiplier {ramp!r} in week {now_ms // WEEK_MS}"
            raise DomainError(f"{cause} takes the handling time out of the float range")
        return round(share * handling * MS_PER_SECOND)

    def attempt_lift(self, scanner: _Scanner, lift: int, now_ms: int, cause: int):
        """Run the retry loop for one hopper pick, whose attempt, failed and
        ok transitions are at offsets `lift`, +1 and +2; returns the lift-ok
        event, or None after the final failure (the cell is then stalled)."""
        attempted = scanner.base + lift
        prev = cause
        for _ in self.lift_attempts:
            attempt = self.emit(now_ms, attempted, prev)
            if self.rng.random() < self.config.lift_failure_prob:
                prev = self.emit(now_ms, attempted + 1, attempt)
            else:
                return self.emit(now_ms, attempted + 2, attempt)
        self.enter_stall(scanner, now_ms, prev)
        return None

    # -- visit flavours ---------------------------------------------------

    def visit_unload(self, scanner: _Scanner, now_ms: int, arrive: int) -> None:
        duration = self.phase_duration_ms(UNLOAD_SHARE, now_ms)
        lifted = self.emit(now_ms, scanner.base + LIFTED_FROM_BED, arrive)
        self.end_visit(scanner, arrive, now_ms, duration, lifted, UNLOAD_CHAIN)

    def visit_plate(self, scanner: _Scanner, now_ms: int, arrive: int) -> None:
        duration = self.phase_duration_ms(PLATE_SHARE, now_ms)
        sense = self.emit(now_ms, scanner.base + SENSE_PLATE, arrive)
        lift = self.attempt_lift(scanner, PLATE_LIFT, now_ms, sense)
        if lift is None:
            return
        scanner.plate_on_top = False
        self.end_visit(scanner, arrive, now_ms, duration, lift, PLATE_CHAIN)

    def visit_load(self, scanner: _Scanner, now_ms: int, arrive: int) -> None:
        duration = self.phase_duration_ms(LOAD_SHARE, now_ms)
        sense = self.emit(now_ms, scanner.base + SENSE_PRINT, arrive)
        lift = self.attempt_lift(scanner, PRINT_LIFT, now_ms, sense)
        if lift is None:
            return
        scanner.prints -= 1
        scanner.plate_on_top = scanner.prints > 0
        if not scanner.prints:
            scanner.lamp_event = self.emit(now_ms, scanner.base + LAMP_ON, lift)
            # a hopper empties at most once between refills, so one reload is pending at most
            self.after_worker(now_ms, 0.0, self.config.reload_seconds, self.reload_done, scanner)
        scanner.state = SCANNING
        self.end_visit(scanner, arrive, now_ms, duration, lift, LOAD_CHAIN)

    def visit_empty_check(self, scanner: _Scanner, now_ms: int, arrive: int) -> None:
        sense = self.emit(now_ms, scanner.base + SENSE_EMPTY, arrive)
        scanner.state = SENSED_EMPTY
        self.end_visit(scanner, arrive, now_ms, 0, sense, ())

    # -- scheduled actions -----------------------------------------------

    def scan_done(self, now_ms: int, scanner: _Scanner, started: int) -> None:
        done = self.emit(now_ms, scanner.base + SCAN_DONE, started)
        opened = self.emit(now_ms, scanner.base + LID_OPENED, done)
        scanner.state = AWAITING_UNLOAD
        scanner.ready_event, scanner.ready_ms = opened, now_ms
        scanner.scans_done += 1
        self.wake_robot(now_ms)

    def after_worker(self, now_ms: int, wait_s: float, work_s: float, action, *args) -> None:
        """Schedule `action` `work_s` seconds after a worker is present and
        `wait_s` has passed since `now_ms`; nothing if no worker ever comes."""
        now_s = now_ms / MS_PER_SECOND
        worker_s = self.config.attendance.next_present_time(now_s)
        if worker_s == math.inf:
            return
        done_s = max(worker_s, now_s + wait_s) + work_s
        self.schedule(round(done_s * MS_PER_SECOND), action, *args)

    def reload_done(self, now_ms: int, scanner: _Scanner) -> None:
        scanner.prints = self.config.hopper_capacity  # only a finite hopper empties
        if scanner.state in (STARVED, SENSED_EMPTY):  # refund the rest of the starvation
            scanner.state = AWAITING_LOAD
            self.starved_ms -= self.horizon_ms - now_ms
        reloaded = self.emit(now_ms, scanner.base + RELOADED, scanner.lamp_event)
        scanner.ready_event, scanner.ready_ms = reloaded, now_ms
        self.wake_robot(now_ms)

    def enter_stall(self, scanner: _Scanner, now_ms: int, final_failure: int) -> None:
        error = self.emit(now_ms, ERROR_STALL, final_failure)
        self.emit(now_ms, scanner.base + DEPART, error)
        self.robot_last_event, self.robot_last_ms = error, now_ms
        self.stall_ms += self.horizon_ms - now_ms
        self.after_worker(now_ms, MIN_STALL_RECOVERY_SECONDS, 0.0, self.stall_over, scanner, error)

    def stall_over(self, now_ms: int, scanner: _Scanner, error: int) -> None:
        resolved = self.emit(now_ms, STALL_RESOLVED, error)
        self.stall_ms -= self.horizon_ms - now_ms
        scanner.ready_event, scanner.ready_ms = resolved, now_ms
        self.robot_last_event, self.robot_last_ms = resolved, now_ms
        # nothing is scheduled during a stall, so each action due now came
        # before this one and has run
        self.dispatch_robot(now_ms)

    # -- accounting -------------------------------------------------------

    def build_report(self) -> ThroughputReport:
        hours = self.horizon_ms / MS_PER_SECOND / 3600.0
        n = len(self.scanners)
        scans = sum(s.scans_done for s in self.scanners)
        per_hour = scans / hours if hours > 0 else 0.0
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
                self.scanning_ms / (n * self.horizon_ms) if self.horizon_ms else 0.0
            ),
            stall_seconds=self.stall_ms / MS_PER_SECOND,
            starved_seconds=self.starved_ms / MS_PER_SECOND,
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
    require_ms("horizon", horizon_seconds)
    if horizon_seconds < 0:
        raise ConfigError("horizon must be non-negative")
    horizon_ms = round(horizon_seconds * MS_PER_SECOND)
    sim = _Simulation(config, seed, horizon_ms)
    if horizon_ms:
        sim.run()
    pairs = vocabulary(config.scanners_per_robot)
    return SimTrace(sim.times, sim.kinds, sim.causes, pairs, horizon_ms), sim.build_report()
