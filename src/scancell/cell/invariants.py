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
"""
from __future__ import annotations

import math

from .config import CellConfig
from .sim import SimTrace

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


def check_trace_invariants(trace: SimTrace, config: CellConfig) -> list[str]:
    """Replay a trace and return human-readable violations (empty = clean)."""
    capacity = math.inf if config.hopper_capacity is None else config.hopper_capacity
    scanners = {
        f"scanner{i}": dict(prints=capacity, plates=capacity - 1, bed=0, output=0, lid="open")
        for i in range(config.scanners_per_robot)
    }
    robot = {"arm": 0}
    visiting: str | None = None
    last_depart = -1
    last_time = -1
    violations: list[str] = []

    for i, (time_ms, entity, t, cause) in enumerate(trace.events):
        if time_ms < last_time:
            violations.append(f"event {i} ({t}) time went backwards")
        last_time = time_ms
        if cause is None:
            if t != "program_initiated":
                violations.append(f"event {i} ({t}) lacks a cause")
        elif not 0 <= cause < i:
            violations.append(f"event {i} ({t}) caused by event {cause}, not an earlier one")

        state = scanners.get(entity)
        if state is None:
            if entity != "robot":
                if entity != "cell":
                    violations.append(f"event {i} names unknown entity {entity!r}")
                continue
            verb, _, target = t.partition("@")
            if target not in scanners or verb not in ("arrive", "depart"):
                violations.append(f"unknown robot transition {t!r} (event {i})")
            elif verb == "arrive":
                if visiting is not None or time_ms < last_depart:
                    violations.append(f"robot visit to {target} overlaps another (event {i})")
                visiting = target
            else:
                if visiting != target:
                    violations.append(f"robot left {target} while visiting {visiting} (event {i})")
                visiting = None
                last_depart = time_ms
            continue

        move = _MOVES.get(t)
        if move is not None:
            src, dst = move
            giver = robot if src == "arm" else state
            taker = robot if dst == "arm" else state
            giver[src] -= 1
            taker[dst] += 1
            limit = _LIMIT.get(dst, math.inf)
            if giver[src] < 0 or taker[dst] > limit:
                violations.append(f"event {i} ({t}) leaves {src} {giver[src]}, {dst} {taker[dst]}")
                giver[src] = max(giver[src], 0)
                taker[dst] = min(taker[dst], limit)
        elif t == "hopper_reloaded":
            if state["prints"] or state["plates"]:
                violations.append(f"{entity} reloaded before its hopper was empty (event {i})")
            state["prints"], state["plates"] = capacity, capacity - 1
        elif (lid := _LID.get(t)) is not None:
            if state["lid"] != lid[0]:
                violations.append(f"event {i} ({t}) on {entity} with the lid {state['lid']}")
            state["lid"] = lid[1]
    return violations
