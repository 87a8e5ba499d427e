#!/usr/bin/env python3
"""Schema check for the telemetry exporters' Chrome trace and run manifest.

Usage: check_chrome_trace.py TRACE.json [MANIFEST.json]

Validates the structural contract documented in docs/telemetry.md:
  - the trace is a JSON object with a traceEvents array;
  - every event carries ph/pid/tid/name with the types Perfetto expects,
    and timed events have a non-negative ts;
  - phases are drawn once, as the causal span log on pid 3: nested span
    events (ph "B"/"E") pair up per (pid, tid): every E matches the
    innermost open B by name, never ends before it begins, and no B is
    left open — which together prove each child span is contained in its
    parent's interval;
  - span names on pid 3 come from the SpanKind catalog, every span B event
    carries its args.span id, and there is a "pacing" span (halfback runs
    must show the paced start; a TCP trace fails here);
  - the manifest (if given) carries the provenance fields with 0x-prefixed
    16-digit hashes.

Exits nonzero with a message on the first violation, so CI fails loudly.
"""

import json
import sys

SPAN_KINDS = {"flow", "handshake", "pacing", "blast", "ropr_repair",
              "fallback", "rto_recovery"}


def fail(message):
    print(f"check_chrome_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        trace = json.load(f)
    if not isinstance(trace, dict):
        fail(f"{path}: top level must be an object")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty array")

    span_names = set()
    nested_pairs = 0
    open_stacks = {}  # (pid, tid) -> [(name, ts), ...]
    last_ts = {}      # (pid, tid) -> last B/E timestamp seen
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where}: not an object")
        for key, kind in (("ph", str), ("pid", int), ("tid", int),
                          ("name", str)):
            if not isinstance(ev.get(key), kind):
                fail(f"{where}: missing or mistyped {key!r}: {ev}")
        ph = ev["ph"]
        if ph not in ("M", "i", "B", "E"):
            fail(f"{where}: unexpected ph {ph!r}")
        if ph in ("i", "B", "E"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                fail(f"{where}: bad ts: {ev}")
        if ph in ("B", "E"):
            if ev["pid"] == 3:  # pid 3 = the span log
                if ev["name"] not in SPAN_KINDS:
                    fail(f"{where}: unknown span kind {ev['name']!r}")
                span_names.add(ev["name"])
            key = (ev["pid"], ev["tid"])
            # Timestamps must not go backwards within a thread: together
            # with the stack discipline below this proves every child
            # interval is contained in its parent's.
            if ev["ts"] < last_ts.get(key, 0):
                fail(f"{where}: B/E ts goes backwards on (pid {key[0]}, "
                     f"tid {key[1]}): {ev}")
            last_ts[key] = ev["ts"]
            stack = open_stacks.setdefault(key, [])
            if ph == "B":
                if ev["pid"] == 3:
                    args = ev.get("args")
                    if not isinstance(args, dict) or \
                            not isinstance(args.get("span"), int):
                        fail(f"{where}: span B event without args.span: {ev}")
                stack.append((ev["name"], ev["ts"]))
            else:
                if not stack:
                    fail(f"{where}: E with no open B on "
                         f"(pid {ev['pid']}, tid {ev['tid']}): {ev}")
                name, begin_ts = stack.pop()
                if name != ev["name"]:
                    fail(f"{where}: E {ev['name']!r} does not match "
                         f"innermost open B {name!r} — span events must "
                         f"nest")
                if ev["ts"] < begin_ts:
                    fail(f"{where}: E at {ev['ts']} before its B at "
                         f"{begin_ts}")
                nested_pairs += 1

    for (pid, tid), stack in open_stacks.items():
        if stack:
            fail(f"{path}: (pid {pid}, tid {tid}) ends with unclosed B "
                 f"events: {[name for name, _ in stack]}")
    if nested_pairs == 0:
        fail(f"{path}: no span events (ph 'B'/'E') at all")
    if "pacing" not in span_names:
        fail(f"{path}: no 'pacing' span on pid 3 — halfback cells must "
             f"show the paced start (saw: {sorted(span_names)})")
    print(f"check_chrome_trace: {path}: OK "
          f"({len(events)} events, {nested_pairs} nested span pairs, "
          f"span kinds: {sorted(span_names)})")


def check_manifest(path):
    with open(path) as f:
        manifest = json.load(f)
    for key, kind in (("experiment", str), ("scheme", str), ("seed", int),
                      ("config_digest", str), ("trace_hash", str),
                      ("events_dispatched", int),
                      ("wall_time_seconds", (int, float))):
        if not isinstance(manifest.get(key), kind):
            fail(f"{path}: missing or mistyped {key!r}")
    for key in ("config_digest", "trace_hash"):
        value = manifest[key]
        if (len(value) != 18 or not value.startswith("0x")
                or value.strip("0123456789abcdefx")):
            fail(f"{path}: {key} is not an 0x-prefixed 16-digit hash: "
                 f"{value!r}")
    if manifest["events_dispatched"] <= 0:
        fail(f"{path}: events_dispatched must be positive")
    print(f"check_chrome_trace: {path}: OK "
          f"(experiment {manifest['experiment']!r}, "
          f"scheme {manifest['scheme']!r}, "
          f"trace_hash {manifest['trace_hash']})")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    check_trace(argv[1])
    if len(argv) == 3:
        check_manifest(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
