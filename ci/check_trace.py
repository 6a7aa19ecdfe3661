#!/usr/bin/env python3
"""Trace artifact gate: validate a Chrome trace-event JSON file.

Checks that the file the telemetry subsystem emitted (ARRAYDB_TRACE=<path>)
is well-formed:

  * parses as JSON, either ``{"traceEvents": [...]}`` or a bare event list
    (both shapes load in chrome://tracing and Perfetto);
  * every event is a complete-duration span: ``ph`` == "X", string ``name``,
    integer ``pid``/``tid``, non-negative numeric ``ts``/``dur``
    (microseconds);
  * per (pid, tid) the spans nest monotonically: sorted by (ts, -dur) —
    the order a start-time-stamped RAII span stack produces — every span
    either follows the previous one or is contained in an enclosing open
    span. Partial overlap (a span closing after its parent) means the
    emitter broke the stack discipline and the viewer would render garbage.

Exit status is non-zero on any violation, so CI can gate on the artifact
bench_operators emits. ``--min-events`` guards against a silently empty
capture.
"""

import argparse
import json
import sys
from pathlib import Path

# Tolerance for containment comparisons, in microseconds. WriteTrace rounds
# nanosecond timestamps to 3-decimal microseconds, so exact arithmetic is
# safe; the epsilon only absorbs float re-parsing wobble.
EPS_US = 1e-6


def load_events(path: Path):
    with path.open() as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("top-level object has no 'traceEvents' list")
        return events
    if isinstance(doc, list):
        return doc
    raise ValueError("top level is neither an object nor a list")


def validate_event(i: int, e) -> list:
    errors = []
    if not isinstance(e, dict):
        return [f"event {i}: not an object"]
    if not isinstance(e.get("name"), str) or not e["name"]:
        errors.append(f"event {i}: missing or empty string 'name'")
    if e.get("ph") != "X":
        errors.append(f"event {i}: 'ph' is {e.get('ph')!r}, expected 'X'")
    for key in ("pid", "tid"):
        if not isinstance(e.get(key), int):
            errors.append(f"event {i}: '{key}' is not an integer")
    for key in ("ts", "dur"):
        v = e.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            errors.append(f"event {i}: '{key}' is not a number")
        elif v < 0:
            errors.append(f"event {i}: '{key}' = {v} is negative")
    return errors


def check_nesting(events) -> list:
    """Stack-based containment check per (pid, tid) track."""
    errors = []
    tracks = {}
    for e in events:
        tracks.setdefault((e["pid"], e["tid"]), []).append(e)
    for (pid, tid), spans in sorted(tracks.items()):
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # Open spans, outermost first.
        for e in spans:
            begin, end = e["ts"], e["ts"] + e["dur"]
            while stack and begin >= stack[-1][1] - EPS_US:
                stack.pop()
            if stack and end > stack[-1][1] + EPS_US:
                parent = stack[-1][2]
                errors.append(
                    f"track pid={pid} tid={tid}: span '{e['name']}' "
                    f"[{begin:.3f}, {end:.3f}) overlaps but is not nested "
                    f"in '{parent['name']}' "
                    f"[{parent['ts']:.3f}, {parent['ts'] + parent['dur']:.3f})"
                )
                continue
            stack.append((begin, end, e))
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", type=Path, help="trace-event JSON file")
    parser.add_argument(
        "--min-events", type=int, default=1,
        help="fail if the trace holds fewer spans than this (default 1)")
    args = parser.parse_args()

    try:
        events = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"FAIL {args.trace}: {exc}")
        return 1

    errors = []
    for i, e in enumerate(events):
        errors += validate_event(i, e)
    if not errors:
        errors += check_nesting(events)
    if len(events) < args.min_events:
        errors.append(
            f"only {len(events)} event(s), expected >= {args.min_events}")

    if errors:
        print(f"FAIL {args.trace}: {len(errors)} violation(s)")
        for err in errors[:20]:
            print(f"  {err}")
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more")
        return 1
    tracks = len({(e["pid"], e["tid"]) for e in events})
    print(f"OK {args.trace}: {len(events)} span(s) across {tracks} "
          f"track(s), nesting monotone")
    return 0


if __name__ == "__main__":
    sys.exit(main())
