"""Structural checks over simulation traces.

Replays a trace once, independently of the engine's internal state, and
reports each place where it breaks one of the cell's invariants:

- events in time order, each but `program_initiated` caused by an
  earlier one;
- print and plate flow: items move one at a time between a scanner's
  hopper, bed and output and the robot's arm; no count goes negative, a
  bed holds one print and the arm one item at most, and a reload refills
  an empty hopper. Unlimited hoppers start at infinity, so their flow is
  checked too;
- one robot visit at a time, departing the scanner it arrived at;
- scans only under a closed lid, never overlapping, and no lid opening
  mid-scan.

A broken count is repaired once reported, so a defect is reported where
it shows, not at every later event.

The replay reads the trace's columns. What an event does depends only on
its kind, so each kind's action is worked out once per vocabulary and
scanner count, and the loop reads it from a table.
"""
from __future__ import annotations

import functools
import math

from .config import CellConfig
from .sim import NO_CAUSE, SimTrace

# transition -> (count it takes one item from, count it adds that item to).
# The arm is the robot's; every other count belongs to the event's scanner.
# A transition not listed here moves nothing.
_MOVES = {
    "print_lift_ok": ("prints", "arm"),
    "print_on_bed": ("arm", "bed"),
    "print_lifted_from_bed": ("bed", "arm"),
    "print_unloaded": ("arm", "output"),
    "plate_lift_ok": ("plates", "arm"),
    "plate_transferred": ("arm", "output"),
}
_LIMIT = {"arm": 1, "bed": 1}
# transition -> (lid state it needs, lid state it leaves); the lid opens
# only between scans and a scan runs only under a closed lid
_LID = {
    "lid_closed": ("open", "closed"),
    "scan_started": ("closed", "scanning"),
    "scan_done": ("scanning", "closed"),
    "lid_opened": ("closed", "open"),
}
# the replay's state is one flat list: these fields for each scanner in
# turn, then the robot's arm
_FIELDS = ("prints", "plates", "bed", "output", "lid")

# what an event of a kind does
_MOVE, _LID_CHANGE, _RELOAD, _ARRIVE, _DEPART, _UNKNOWN_ROBOT, _UNKNOWN_ENTITY = range(7)


@functools.lru_cache(maxsize=8)
def _actions(pairs: tuple[tuple[str, str], ...], scanners: int) -> tuple[tuple | None, ...]:
    """Per kind of `pairs`, the action of its events in a cell of
    `scanners` scanners: None for none, else a 4-tuple whose first item
    is the action and the rest its operands (state indices, limits, lid
    states or the scanner visited)."""
    arm = len(_FIELDS) * scanners
    names = {f"scanner{i}": i for i in range(scanners)}

    def slot(scanner: int, count: str) -> int:
        return arm if count == "arm" else len(_FIELDS) * scanner + _FIELDS.index(count)

    actions: list[tuple | None] = []
    for entity, t in pairs:
        index = names.get(entity)
        if index is None:
            if entity == "robot":
                verb, _, target = t.partition("@")
                if target not in names or verb not in ("arrive", "depart"):
                    actions.append((_UNKNOWN_ROBOT, None, None, None))
                else:
                    actions.append((_ARRIVE if verb == "arrive" else _DEPART, target, None, None))
            elif entity == "cell":
                actions.append(None)
            else:
                actions.append((_UNKNOWN_ENTITY, None, None, None))
        elif t in _MOVES:
            src, dst = _MOVES[t]
            actions.append((_MOVE, slot(index, src), slot(index, dst), _LIMIT.get(dst, math.inf)))
        elif t == "hopper_reloaded":
            actions.append((_RELOAD, slot(index, "prints"), slot(index, "plates"), None))
        elif t in _LID:
            actions.append((_LID_CHANGE, slot(index, "lid"), *_LID[t]))
        else:
            actions.append(None)
    return tuple(actions)


def check_trace_invariants(trace: SimTrace, config: CellConfig) -> list[str]:
    """Replay a trace and return human-readable violations (empty = clean)."""
    capacity = math.inf if config.hopper_capacity is None else config.hopper_capacity
    pairs = trace.vocabulary
    actions = _actions(pairs, config.scanners_per_robot)
    state = [capacity, capacity - 1, 0, 0, "open"] * config.scanners_per_robot + [0]
    visiting: str | None = None
    last_depart = -1
    last_time = -1
    violations: list[str] = []

    for i, (time_ms, kind, cause) in enumerate(zip(trace.times, trace.kinds, trace.causes)):
        if time_ms < last_time:
            violations.append(f"event {i} ({pairs[kind][1]}) time went backwards")
        last_time = time_ms
        if not 0 <= cause < i:
            t = pairs[kind][1]
            if cause != NO_CAUSE:
                violations.append(f"event {i} ({t}) caused by event {cause}, not an earlier one")
            elif t != "program_initiated":
                violations.append(f"event {i} ({t}) lacks a cause")

        action = actions[kind]
        if action is None:
            continue
        op, a, b, c = action
        if op == _MOVE:
            state[a] -= 1
            state[b] += 1
            if state[a] < 0 or state[b] > c:
                src, dst = _MOVES[pairs[kind][1]]
                violations.append(
                    f"event {i} ({pairs[kind][1]}) leaves {src} {state[a]}, {dst} {state[b]}"
                )
                state[a] = max(state[a], 0)
                state[b] = min(state[b], c)
        elif op == _LID_CHANGE:
            if state[a] != b:
                entity, t = pairs[kind]
                violations.append(f"event {i} ({t}) on {entity} with the lid {state[a]}")
            state[a] = c
        elif op == _ARRIVE:
            if visiting is not None or time_ms < last_depart:
                violations.append(f"robot visit to {a} overlaps another (event {i})")
            visiting = a
        elif op == _DEPART:
            if visiting != a:
                violations.append(f"robot left {a} while visiting {visiting} (event {i})")
            visiting = None
            last_depart = time_ms
        elif op == _RELOAD:
            if state[a] or state[b]:
                entity = pairs[kind][0]
                violations.append(f"{entity} reloaded before its hopper was empty (event {i})")
            state[a], state[b] = capacity, capacity - 1
        elif op == _UNKNOWN_ROBOT:
            violations.append(f"unknown robot transition {pairs[kind][1]!r} (event {i})")
        else:
            violations.append(f"event {i} names unknown entity {pairs[kind][0]!r}")
    return violations
