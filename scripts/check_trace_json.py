#!/usr/bin/env python3
"""Validate a Chrome/Perfetto trace emitted by ``--trace-out``.

The serving benches write Chrome trace-event JSON (``obs::TraceRecorder``,
loadable at https://ui.perfetto.dev). This check keeps the emitted stream
structurally sound:

  * the file parses and carries a ``traceEvents`` array;
  * every event has ``name``/``ph``/``pid``/``tid``/``ts`` with a known
    phase (B E X i C M) and a finite non-negative timestamp;
  * per (pid, tid) track, timestamps are non-decreasing in file order
    (metadata excluded) — the recorder's determinism contract;
  * B/E spans balance per track with matching names (LIFO nesting), and
    no span is left open at the end;
  * X events carry a non-negative ``dur``; instants carry scope ``t``.

With ``--counts-out FILE`` it also writes the number of non-metadata
events of each name, one ``<name>\t<count>`` line per name in name order,
so a golden of that file catches a trace that silently grows.

Usage:  check_trace_json.py TRACE.json [--min-events N] [--counts-out FILE]
Exit status: 0 = trace is well-formed, 1 = problems found.
"""

import argparse
import collections
import json
import math
import sys

KNOWN_PHASES = {"B", "E", "X", "i", "C", "M"}


def main():
    parser = argparse.ArgumentParser(
        description="validate a --trace-out Chrome trace-event file")
    parser.add_argument("trace", help="trace JSON written by --trace-out")
    parser.add_argument("--min-events", type=int, default=1,
                        help="fail when fewer non-metadata events than this "
                             "(default 1)")
    parser.add_argument("--counts-out", metavar="FILE",
                        help="write per-name event counts to FILE")
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_trace_json: {err}")
        return 1

    events = data.get("traceEvents") if isinstance(data, dict) else None
    if not isinstance(events, list):
        print("check_trace_json: no `traceEvents` array")
        return 1

    failures = []
    last_ts = {}      # (pid, tid) -> last event timestamp on the track
    open_spans = {}   # (pid, tid) -> stack of open B-span names
    counts = collections.Counter()  # event name -> non-metadata events
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            failures.append(f"{where}: not an object")
            continue
        name = ev.get("name")
        ph = ev.get("ph")
        pid = ev.get("pid")
        tid = ev.get("tid")
        ts = ev.get("ts")
        if not isinstance(name, str) or not name:
            failures.append(f"{where}: missing `name`")
            continue
        if ph not in KNOWN_PHASES:
            failures.append(f"{where} ({name}): unknown phase {ph!r}")
            continue
        if not isinstance(pid, int) or not isinstance(tid, int):
            failures.append(f"{where} ({name}): non-integer pid/tid")
            continue
        if (not isinstance(ts, (int, float)) or isinstance(ts, bool)
                or not math.isfinite(ts) or ts < 0):
            failures.append(f"{where} ({name}): bad ts {ts!r}")
            continue
        if ph == "M":
            continue  # metadata names tracks; it carries no timeline
        counts[name] += 1
        track = (pid, tid)
        if ts < last_ts.get(track, 0.0):
            failures.append(
                f"{where} ({name}): ts {ts} goes backwards on track "
                f"pid={pid} tid={tid} (last {last_ts[track]})")
        last_ts[track] = ts
        if ph == "B":
            open_spans.setdefault(track, []).append(name)
        elif ph == "E":
            stack = open_spans.get(track, [])
            if not stack:
                failures.append(
                    f"{where} ({name}): E without open B on track "
                    f"pid={pid} tid={tid}")
            elif stack[-1] != name:
                failures.append(
                    f"{where}: E `{name}` does not match open B "
                    f"`{stack[-1]}` on track pid={pid} tid={tid}")
            else:
                stack.pop()
        elif ph == "X":
            dur = ev.get("dur")
            if (not isinstance(dur, (int, float)) or isinstance(dur, bool)
                    or not math.isfinite(dur) or dur < 0):
                failures.append(f"{where} ({name}): X without valid `dur`")
        elif ph == "i":
            if ev.get("s") != "t":
                failures.append(
                    f"{where} ({name}): instant without scope `t`")

    for (pid, tid), stack in sorted(open_spans.items()):
        for name in stack:
            failures.append(
                f"span `{name}` still open at end of trace on track "
                f"pid={pid} tid={tid}")
    counted = sum(counts.values())
    if counted < args.min_events:
        failures.append(
            f"only {counted} non-metadata event(s); expected at least "
            f"{args.min_events}")

    if args.counts_out:
        with open(args.counts_out, "w", encoding="utf-8") as fh:
            for name in sorted(counts):
                fh.write(f"{name}\t{counts[name]}\n")

    if failures:
        print(f"{len(failures)} trace problem(s) in {args.trace}:")
        for f in failures[:50]:
            print(" ", f)
        if len(failures) > 50:
            print(f"  ... and {len(failures) - 50} more")
        return 1
    print(f"checked {args.trace}: {counted} events on {len(last_ts)} "
          "tracks, all well-formed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
