#!/usr/bin/env python3
"""Validate the simulator's result sinks: JSON reports, NDJSON/JSONL
streams, metric CSVs, folded stacks and Prometheus snapshots.

Every sink is one row of ``SINKS``: the format of each input file, a
``Shape`` table naming the required counters, stamp and nested
arrays/objects, and a plain function holding the sink's conservation
laws (DESIGN.md §13-§18 state them). Modes:

    validate_sinks.py SINK FILE [FILE]
        validate files of one sink kind (the usage text lists the
        kinds and their inputs);

    validate_sinks.py --identical A B
        the deterministic projections of two sinks (or two sink
        directories) are equal. Files that carry ``"host"`` objects
        (telemetry sinks and event logs) are compared with every
        ``host`` object stripped and per-job lines sorted, since
        workers finish in any order; every other file must match
        byte for byte. This is how ``--jobs 1`` and ``--jobs 4``
        campaigns are proven identical;

    validate_sinks.py --smoke SIMULATE_CLI CAMPAIGN_CLI DIFF_CLI [SMOKE]
        run one smoke recipe (``trace``, ``memscope``, ``raystats``,
        ``telemetry``, ``diff``, ``query``; all when omitted): small
        fresh runs through the given binaries, then every output
        validated, including the 1-vs-4-worker identities and the
        CLI contracts (exit codes, pure-JSON stdout). ctest registers
        one case per recipe (``validate_<smoke>``).

Exit codes follow lintlib: 0 valid, 1 invalid or unreadable input,
2 usage error.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import lintlib

tool = lintlib.Tool("validate_sinks")
fail = tool.fail
counter = tool.expect_counter

LEVELS = ("l1", "l2", "dram")
#: Relative tolerance for derived telemetry gauges.
REL_TOL = 1e-6


# --------------------------------------------------------------------
# Schema tables
# --------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """The required fields of one JSON object, grouped by type."""
    stamp: tuple[str, ...] = ()    # schema_version + these key blocks
    counters: tuple[str, ...] = ()  # non-negative integers
    numbers: tuple[str, ...] = ()  # finite non-negative numbers
    strings: tuple[str, ...] = ()
    bools: tuple[str, ...] = ()
    present: tuple[str, ...] = ()  # any type
    #: {base, other, delta} integer triples with delta == other - base.
    deltas: tuple[str, ...] = ()
    vectors: dict = field(default_factory=dict)   # key -> length
    objects: dict = field(default_factory=dict)   # key -> Shape
    optional: dict = field(default_factory=dict)  # key -> Shape
    arrays: dict = field(default_factory=dict)    # key -> element Shape


def is_counter(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def need(obj: dict, key: str, where: str):
    if key not in obj:
        fail(f"{where}: missing field {key!r}")
    return obj[key]


def number(obj: dict, key: str, where: str) -> float:
    """``obj[key]`` as a finite non-negative number, or fail."""
    v = need(obj, key, where)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        fail(f"{where}: {key} = {v!r} is not a number")
    if not 0.0 <= v < float("inf"):
        fail(f"{where}: {key} = {v!r} is not finite and non-negative")
    return float(v)


def check(obj, shape: Shape, where: str) -> None:
    """Fail unless @p obj has every field @p shape requires."""
    if not isinstance(obj, dict):
        fail(f"{where}: not an object")
    if shape.stamp:
        tool.expect_stamp(obj, where, shape.stamp)
    for key in shape.present:
        need(obj, key, where)
    for key in shape.counters:
        counter(obj, key, where)
    for key in shape.numbers:
        number(obj, key, where)
    for kind, keys in ((str, shape.strings), (bool, shape.bools)):
        for key in keys:
            if not isinstance(need(obj, key, where), kind):
                fail(f"{where}: {key} = {obj[key]!r} is not a "
                     f"{kind.__name__}")
    for key in shape.deltas:
        d = obj.get(key)
        if not isinstance(d, dict):
            fail(f"{where}: '{key}' is not a delta object")
        for f in ("base", "other", "delta"):
            v = d.get(f)
            if not isinstance(v, int) or isinstance(v, bool):
                fail(f"{where}.{key}: {f} = {v!r} is not an integer")
        if d["delta"] != d["other"] - d["base"]:
            fail(f"{where}.{key}: delta {d['delta']} != other "
                 f"{d['other']} - base {d['base']}")
    for key, n in shape.vectors.items():
        v = obj.get(key)
        if not (isinstance(v, list) and len(v) == n
                and all(map(is_counter, v))):
            fail(f"{where}: '{key}' is not a {n}-entry counter array")
    for key, sub in shape.objects.items():
        v = obj.get(key)
        if not isinstance(v, dict):
            fail(f"{where}: '{key}' is not an object")
        check(v, sub, f"{where}.{key}")
    for key, sub in shape.optional.items():
        if key in obj:
            check(obj[key], sub, f"{where}.{key}")
    for key, sub in shape.arrays.items():
        v = obj.get(key)
        if not isinstance(v, list):
            fail(f"{where}: '{key}' is not an array")
        for i, e in enumerate(v):
            check(e, sub, f"{where}.{key}[{i}]")


RAYSTATS = Shape(
    stamp=("run_key",), strings=("scene",),
    counters=("sample_k", "seed", "warps_seen", "warps_sampled",
              "warps_retired", "rays_sampled", "events_recorded",
              "events_dropped", "steal_events"),
    arrays={"warps": Shape(
        counters=("sm", "ordinal", "warp_id", "submit", "retire",
                  "sampled_mask"),
        bools=("retired",),
        arrays={"rays": Shape(
            counters=("lane", "launch", "retire", "node_visits",
                      "node_pops", "stale_pops", "node_pushes",
                      "leaf_tests", "steals_in", "steals_out",
                      "stack_hwm", "events", "events_dropped"),
            vectors={"levels": 3})})})

MEMSCOPE_PHASES = ("ramp", "traverse", "drain")
REUSE = Shape(counters=("cold", "tracked"), vectors={"hist": 32})

MEMSCOPE = Shape(
    stamp=("run_key",), strings=("scene",),
    objects={
        "nodes": Shape(counters=("accesses", "bytes", "lanes"),
                       objects={"levels": Shape(counters=LEVELS)}),
        "reuse": Shape(counters=("l2_sets_touched",
                                 "l2_set_max_accesses"),
                       objects={"l1": REUSE, "l2": REUSE}),
        "mem": Shape(counters=("line_l1", "line_l2", "line_dram",
                               "l2_fill_bytes", "bank_requests",
                               "bank_conflicts", "bank_wait_cycles")),
        "dram": Shape(counters=("requests", "bytes", "row_hits",
                                "row_misses")),
    },
    arrays={
        "depths": Shape(counters=("depth", "accesses", "bytes",
                                  "lanes") + LEVELS,
                        objects={"phases": Shape(
                            counters=MEMSCOPE_PHASES)}),
        "hot_nodes": Shape(counters=("node", "depth", "accesses")
                           + LEVELS),
        "units": Shape(counters=("sm", "accesses", "bytes")),
    })

TELEMETRY_PHASES = ("scene_load", "bvh_build", "warmup", "sim_loop",
                    "report")
BUILD = Shape(strings=("revision", "compiler", "build_type"),
              bools=("dirty", "check"))
SPAN = Shape(numbers=("seconds",), counters=("count",))

TELEMETRY = Shape(
    stamp=("run_key",), strings=("scene",),
    objects={
        "build": BUILD,
        "sim": Shape(counters=("cycles", "rays_retired")),
        "host": Shape(
            numbers=("sim_seconds",),
            counters=("rss_current_kb", "rss_peak_kb"),
            objects={"phases": Shape(objects={
                p: SPAN for p in TELEMETRY_PHASES})}),
    })

#: Telemetry event-log lines by event kind; every line also carries
#: a ``host`` object.
EVENTS = {
    "campaign_begin": Shape(counters=("jobs",),
                            objects={"build": BUILD}),
    "job_start": Shape(counters=("index", "attempt"),
                       strings=("tag",)),
    "job_retry": Shape(counters=("index", "next_attempt"),
                       strings=("tag",)),
    "job_timeout": Shape(counters=("index",), numbers=("budget_s",),
                         strings=("tag",)),
    "job_finish": Shape(counters=("index", "attempts", "cycles"),
                        strings=("tag",), bools=("ok",)),
    "campaign_end": Shape(counters=("done", "failed", "retried")),
}

DIFF = Shape(
    stamp=("run_key", "other_key"),
    present=("attribution",),
    deltas=("cycles",),
    objects={
        "build": Shape(present=("revision",)),
        "bandwidth": Shape(deltas=("l2_bytes", "dram_bytes")),
    },
    optional={
        "prof": Shape(
            deltas=("resident_cycles", "rt_stall_cycles"),
            arrays={"buckets": Shape(strings=("name",))}),
        "memscope": Shape(
            deltas=("node_accesses", "node_bytes"),
            objects={"levels": Shape(deltas=LEVELS)},
            arrays={"depths": Shape(
                deltas=("accesses", "bytes") + LEVELS)}),
    })

QUERY = Shape(
    stamp=("run_key",), strings=("scene",),
    counters=("resolution", "cycles"),
    objects={"query": Shape(
        strings=("workload", "checksum"),
        counters=("queries", "rounds", "found"),
        objects={"oracle": Shape(counters=("checked", "mismatches"),
                                 present=("matches",))})})

PROF = Shape(strings=("scene",), counters=("resident_cycles",),
             objects={"buckets": Shape()})

TRACE = Shape(arrays={"traceEvents": Shape(strings=("ph",))})


# --------------------------------------------------------------------
# Conservation laws, one function per sink
# --------------------------------------------------------------------

def equal(got, want, what: str) -> None:
    """Fail unless a law's two sides agree exactly."""
    if got != want:
        fail(f"{what}: {got} != {want}")


def at_most(got, limit, what: str) -> None:
    if got > limit:
        fail(f"{what}: {got} > {limit}")


def raystats_laws(doc: dict) -> str:
    k, warps = doc["sample_k"], doc["warps"]
    if k <= 0:
        fail(f"sample_k = {k} must be positive")
    equal(len(warps), doc["warps_sampled"], "warp records vs "
          "warps_sampled")
    for i, w in enumerate(warps):
        at_most(len(w["rays"]), k, f"warps[{i}]: rays vs sample_k")
        lanes = set()
        for j, r in enumerate(w["rays"]):
            where, lane = f"warps[{i}].rays[{j}]", r["lane"]
            if lane in lanes:
                fail(f"{where}: duplicate lane {lane}")
            lanes.add(lane)
            if not (w["sampled_mask"] >> lane) & 1:
                fail(f"{where}: lane {lane} not in sampled_mask "
                     f"{w['sampled_mask']:#x}")
            equal(sum(r["levels"]), r["node_visits"],
                  f"{where}: levels sum vs node_visits")
            if w["retired"]:
                at_most(r["launch"], r["retire"],
                        f"{where}: launch vs retire")
    rays = sum(len(w["rays"]) for w in warps)
    equal(rays, doc["rays_sampled"], "per-warp rays vs rays_sampled")
    return f"{rays} rays over {len(warps)} warps"


def depth_laws(levels: dict, accesses: int, bytes_: int, depths: list,
               value: Callable, where: str) -> None:
    """Every fetch is attributed to one serving level and one depth:
    over a profile's counters, or over a diff's deltas."""
    equal(sum(value(levels[lvl]) for lvl in LEVELS), accesses,
          f"{where}: serving levels vs accesses")
    last = 0
    for i, d in enumerate(depths):
        if not is_counter(d.get("depth")) or d["depth"] <= last:
            fail(f"{where}.depths[{i}]: depth {d.get('depth')!r} not "
                 f"strictly increasing")
        last = d["depth"]
        equal(sum(value(d[lvl]) for lvl in LEVELS), value(d["accesses"]),
              f"{where}.depths[{i}]: levels vs accesses")
    equal(sum(value(d["accesses"]) for d in depths), accesses,
          f"{where}: depth rows vs accesses")
    equal(sum(value(d["bytes"]) for d in depths), bytes_,
          f"{where}: depth rows vs bytes")


def memscope_laws(doc: dict) -> str:
    nodes, depths = doc["nodes"], doc["depths"]
    depth_laws(nodes["levels"], nodes["accesses"], nodes["bytes"],
               depths, lambda v: v, "nodes")
    for i, d in enumerate(depths):
        equal(sum(d["phases"][p] for p in MEMSCOPE_PHASES),
              d["accesses"], f"depths[{i}]: phases vs accesses")
    for key in ("accesses", "bytes"):
        equal(sum(u[key] for u in doc["units"]), nodes[key],
              f"units rows vs nodes.{key}")
    prev = None
    for i, h in enumerate(doc["hot_nodes"]):
        acc, node = h["accesses"], h["node"]
        at_most(acc, nodes["accesses"], f"hot_nodes[{i}]: accesses "
                f"vs the node total")
        equal(sum(h[lvl] for lvl in LEVELS), acc,
              f"hot_nodes[{i}]: levels vs accesses")
        if prev is not None and (acc, -node) > prev:
            fail(f"hot_nodes[{i}]: ranking broken — ({acc}, node "
                 f"{node}) after ({prev[0]}, node {-prev[1]})")
        prev = (acc, -node)
    reuse, mem, dram = doc["reuse"], doc["mem"], doc["dram"]
    for lvl in ("l1", "l2"):
        r = reuse[lvl]
        equal(r["cold"] + sum(r["hist"]), r["tracked"],
              f"reuse.{lvl}: cold + histogram vs tracked")
    equal(mem["line_l1"] + mem["line_l2"] + mem["line_dram"],
          reuse["l1"]["tracked"], "mem: line counts vs reuse.l1.tracked")
    at_most(mem["bank_conflicts"], mem["bank_requests"],
            "mem: bank conflicts vs bank requests")
    equal(dram["row_hits"] + dram["row_misses"], dram["requests"],
          "dram: row hits + misses vs requests")
    return f"{nodes['accesses']} node fetches over {len(depths)} depths"


def telemetry_laws(doc: dict) -> str:
    equal(doc.get("telemetry_version"), 1, "telemetry_version")
    if not doc["build"]["revision"]:
        fail("build: empty revision")
    host = doc["host"]
    phases = host["phases"]
    equal(tuple(phases), TELEMETRY_PHASES, "host.phases keys")
    # A per-run sink closes every phase, report included: it times
    # the other sinks' emission, once per run.
    for name, span in phases.items():
        if span["count"] == 0:
            fail(f"host.phases.{name}: phase never ran (count 0)")
    at_most(host["rss_current_kb"], host["rss_peak_kb"],
            "host: rss_current_kb vs rss_peak_kb")
    secs, loop = host["sim_seconds"], phases["sim_loop"]["seconds"]
    if abs(secs - loop) > REL_TOL * max(secs, loop):
        fail(f"host: sim_seconds {secs} != sim_loop span {loop}")
    return f"{doc['sim']['cycles']} cycles, every phase ran"


def telemetry_log_laws(events: list) -> str:
    for i, ev in enumerate(events, 1):
        if not isinstance(ev, dict) or not isinstance(ev.get("ev"), str) \
                or ev["ev"] not in EVENTS:
            fail(f"line {i}: 'ev' is not one of {tuple(EVENTS)}")
        if not isinstance(ev.get("host"), dict):
            fail(f"line {i}: missing 'host' object")
        check(ev, EVENTS[ev["ev"]], f"line {i} ({ev['ev']})")
    if not events:
        fail("empty event log")
    begin, end = events[0], events[-1]
    equal((begin["ev"], end["ev"]), ("campaign_begin", "campaign_end"),
          "first and last events")
    if not begin["build"]["revision"]:
        fail("campaign_begin.build: empty revision")
    jobs = begin["jobs"]
    finished: dict[int, dict] = {}
    for i, ev in enumerate(events[1:-1], 2):
        where = f"line {i} ({ev['ev']})"
        if ev["ev"] in ("campaign_begin", "campaign_end"):
            fail(f"{where}: lifecycle event in the middle of the log")
        at_most(ev["index"], jobs - 1, f"{where}: index vs jobs - 1")
        if ev["ev"] == "job_finish":
            if ev["index"] in finished:
                fail(f"{where}: job {ev['index']} finished twice")
            finished[ev["index"]] = ev
    count = lambda kind: [e for e in events if e["ev"] == kind]
    equal(sorted({e["index"] for e in count("job_start")}),
          list(range(jobs)), "job_start indices")
    equal(sorted(finished), list(range(jobs)), "job_finish indices")
    equal(end["done"] + end["failed"], jobs,
          "campaign_end done + failed vs jobs")
    equal(sum(e["ok"] for e in finished.values()), end["done"],
          "ok job_finish lines vs campaign_end done")
    equal(len(count("job_retry")), end["retried"],
          "job_retry lines vs campaign_end retried")
    return f"{len(events)} events over {jobs} jobs"


def diff_laws(docs: list) -> str:
    if not docs:
        fail("no diff documents")
    for n, doc in enumerate(docs, 1):
        where = f"diff {n}"
        check(doc, DIFF, where)
        equal(doc["schema_version"], 2, f"{where}: schema_version")
        base, other = doc["run_key"], doc["other_key"]
        for f in ("scene", "shader", "resolution"):
            equal(other[f], base[f], f"{where}: keys disagree on {f} "
                  f"(not comparable)")
        same = base["fingerprint"] == other["fingerprint"]
        equal(doc.get("same_fingerprint"), same,
              f"{where}: same_fingerprint vs the fingerprints")
        cycles, speedup = doc["cycles"], doc.get("speedup")
        if isinstance(speedup, bool) or not isinstance(speedup,
                                                       (int, float)):
            fail(f"{where}: 'speedup' is not a number")
        want = cycles["base"] / max(cycles["other"], 1)
        # The document prints 6 significant digits.
        if cycles["other"] > 0 and \
                abs(speedup - want) > 1e-4 * max(1.0, want):
            fail(f"{where}: speedup {speedup} != base/other cycles "
                 f"{want}")
        if same:
            equal(cycles["delta"], 0, f"{where}: identity diff (equal "
                  f"fingerprints) cycle delta")
        if "prof" in doc:
            diff_prof_laws(doc["prof"], f"{where}.prof")
        if "memscope" in doc:
            ms = doc["memscope"]
            depth_laws(ms["levels"], ms["node_accesses"]["delta"],
                       ms["node_bytes"]["delta"], ms["depths"],
                       lambda t: t["delta"], f"{where}.memscope")
    return f"{len(docs)} diff documents"


def diff_prof_laws(prof: dict, where: str) -> None:
    buckets = prof["buckets"]
    if not buckets:
        fail(f"{where}: 'buckets' is not a non-empty array")
    names = [b["name"] for b in buckets]
    for i, b in enumerate(buckets):
        if not b["name"] or b["name"] in names[:i]:
            fail(f"{where}.buckets[{i}]: empty or duplicate name "
                 f"{b['name']!r}")
        vals = [b.get(f) for f in ("base", "other", "delta")]
        if not all(isinstance(v, int) for v in vals) \
                or vals[2] != vals[1] - vals[0]:
            fail(f"{where}.buckets[{i}]: delta is not other - base")
    # Conservation: exact integer equality, no epsilon.
    equal(sum(b["delta"] for b in buckets
              if b["name"] != "warp_buffer_full"),
          prof["resident_cycles"]["delta"],
          f"{where}: non-warp_buffer_full bucket deltas vs the "
          f"resident-cycle delta")


QUERY_WORKLOADS = ("knn", "radius", "contain")
CHECKSUM_RE = re.compile(r"0x[0-9a-f]{1,16}")


def query_laws(docs: list) -> str:
    """Reports (``simulate_cli --json``) or campaign ``--json-out``
    lines, whose ``outcome`` is the report."""
    if not docs:
        fail("no query reports")
    for n, doc in enumerate(docs, 1):
        where = f"report {n}"
        if isinstance(doc, dict) and "outcome" in doc:
            where = f"line {n} ({doc.get('tag')})"
            equal(doc.get("ok"), True, f"{where}: job ok")
            doc = doc["outcome"]
        check(doc, QUERY, where)
        q, oracle = doc["query"], doc["query"]["oracle"]
        where += ".query"
        if q["workload"] not in QUERY_WORKLOADS:
            fail(f"{where}: workload {q['workload']!r} not in "
                 f"{QUERY_WORKLOADS}")
        equal(q["queries"], doc["resolution"] ** 2,
              f"{where}: queries vs resolution^2")
        # Every query issues at least one round, and each round
        # accepts at most one result.
        at_most(q["queries"], q["rounds"], f"{where}: queries vs "
                f"rounds")
        at_most(q["found"], q["rounds"], f"{where}: found vs rounds")
        if not CHECKSUM_RE.fullmatch(q["checksum"]):
            fail(f"{where}: checksum {q['checksum']!r} is not a "
                 f"64-bit hex string")
        equal(oracle["checked"], q["queries"],
              f"{where}: oracle checked vs queries")
        equal(oracle["matches"], True, f"{where}: oracle matches")
        equal(oracle["mismatches"], 0, f"{where}: queries that "
              f"disagree with the brute-force oracle")
    return f"{len(docs)} oracle-clean query reports"


def folded_laws(folded: list, pattern: str, where: str) -> int:
    """Every stack matches @p pattern (frames joined by ';')."""
    for frames, _ in folded:
        if not re.fullmatch(pattern, ";".join(frames)):
            fail(f"{where}: stack {';'.join(frames)!r} does not match "
                 f"{pattern}")
    return sum(count for _, count in folded)


def prof_laws(doc: dict, folded: list) -> str:
    buckets = doc["buckets"]
    for name in buckets:
        counter(buckets, name, "buckets")
    equal(sum(v for k, v in buckets.items()
              if k != "warp_buffer_full"), doc["resident_cycles"],
          "non-warp_buffer_full buckets vs resident_cycles")
    names = "|".join(map(re.escape, buckets))
    total = folded_laws(folded, rf"{re.escape(doc['scene'])};sm\d+;"
                                rf"rtunit;({names})", "prof folded")
    equal(total, sum(buckets.values()), "folded total vs buckets")
    return (f"{doc['resident_cycles']} resident cycles over "
            f"{len(buckets)} buckets")


def memscope_folded_laws(folded: list, doc: dict) -> str:
    check(doc, Shape(strings=("scene",)), "memscope profile")
    total = folded_laws(folded, rf"{re.escape(doc['scene'])};depth\d+;"
                                rf"node\d+", "heatmap")
    if total == 0:
        fail("empty folded heatmap")
    return f"{total} node fetches"


def trace_laws(doc: dict) -> str:
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    for ph, what in (("X", "duration"), ("C", "counter")):
        if ph not in phases:
            fail(f"no {what} ('{ph}') events")
    return f"{len(events)} events, phases {sorted(phases)}"


def ray_tracks_laws(doc: dict) -> str:
    tracks = [e["args"].get("name") for e in doc["traceEvents"]
              if e["ph"] == "M" and e.get("name") == "thread_name"
              and isinstance(e.get("args"), dict)]
    for needle in ("rays ", " lane "):
        if not any(needle in str(t) for t in tracks):
            fail(f"no thread_name track named like {needle!r}")
    return f"{len(tracks)} named tracks"


def metrics_laws(rows: list, columns: tuple[str, ...]) -> str:
    if not rows or not rows[0] or not rows[0][0].startswith(
            "# cooprt schema_version="):
        fail("first line is not a '# cooprt schema_version=' stamp")
    rows = [r for r in rows if r and not r[0].startswith("#")]
    header, data = (rows or [[""]])[0], rows[1:]
    equal(header[0], "cycle", "first column")
    for col in columns:
        if col not in header:
            fail(f"no {col!r} column")
    if not data:
        fail("no samples")
    for i, r in enumerate(data, 1):
        equal(len(r), len(header), f"sample {i}: columns vs header")
    return f"{len(header)} columns, {len(data)} samples"


def campaign_laws(lines: list) -> str:
    if not lines:
        fail("no JSON lines on stdout")
    return f"{len(lines)} pure JSON lines"


@dataclass(frozen=True)
class Sink:
    fmt: tuple[str, ...]       # lintlib.Tool.load format per input
    laws: Callable[..., str]   # conservation laws -> OK summary
    shape: Shape | None = None  # schema of the first input


SINKS = {
    "raystats": Sink(("json",), raystats_laws, RAYSTATS),
    "raystats-trace": Sink(("json",), ray_tracks_laws, TRACE),
    "memscope": Sink(("json",), memscope_laws, MEMSCOPE),
    "memscope-folded": Sink(("folded", "json"), memscope_folded_laws),
    "memscope-metrics": Sink(("csv",), partial(
        metrics_laws, columns=("memscope.gpu.node_accesses",
                               "memscope.mem.line_l1"))),
    "telemetry": Sink(("json",), telemetry_laws, TELEMETRY),
    "telemetry-log": Sink(("jsonl",), telemetry_log_laws),
    "campaign-stdout": Sink(("jsonl",), campaign_laws),
    "diff": Sink(("jsonl",), diff_laws),
    "query": Sink(("jsonl",), query_laws),
    "prof": Sink(("json", "folded"), prof_laws, PROF),
    "trace": Sink(("json",), trace_laws, TRACE),
    "metrics": Sink(("csv",), partial(
        metrics_laws, columns=("rtunit.thread_utilization",))),
}


def validate(kind: str, paths: list) -> str:
    """Validate @p paths as sink @p kind; return the OK summary."""
    sink = SINKS[kind]
    inputs = [tool.load(p, f) for p, f in zip(paths, sink.fmt)]
    try:
        if sink.shape is not None:
            check(inputs[0], sink.shape, "top level")
        return sink.laws(*inputs)
    except SystemExit as e:
        raise SystemExit(f"{e.code}\n  in {kind} "
                         f"{' '.join(map(str, paths))}") from None


# --------------------------------------------------------------------
# Deterministic identity
# --------------------------------------------------------------------

def strip_host(obj):
    """Drop every ``"host"`` object, recursively."""
    if isinstance(obj, dict):
        return {k: strip_host(v) for k, v in obj.items()
                if k != "host"}
    if isinstance(obj, list):
        return [strip_host(v) for v in obj]
    return obj


def projection(path: Path):
    """The deterministic projection of a sink file or directory."""
    if path.is_dir():
        return {p.name: projection(p) for p in sorted(path.iterdir())}
    text = tool.load(path, "text")
    if '"host":' not in text:
        return text
    docs = [strip_host(d) for d in tool.load(path, "jsonl")]
    jobs = lambda d: isinstance(d, dict) and str(
        d.get("ev", "")).startswith("job_")
    key = lambda d: json.dumps(d, sort_keys=True)
    return ([d for d in docs if not jobs(d)]
            + sorted((d for d in docs if jobs(d)), key=key))


def identical(a: Path, b: Path) -> str:
    pa, pb = projection(a), projection(b)
    if pa != pb:
        entries = lambda p: (p if isinstance(p, dict) else
                             dict(enumerate(p)) if isinstance(p, list)
                             else {"": p})
        ea, eb = entries(pa), entries(pb)
        where = next(k for k in sorted(ea.keys() | eb.keys(), key=str)
                     if ea.get(k) != eb.get(k))
        fail(f"{a} and {b}: deterministic projections differ at "
             f"{where!r}")
    return f"{a} and {b}: deterministic projections identical"


# --------------------------------------------------------------------
# Smoke recipes
# --------------------------------------------------------------------

class Smoke:
    """One smoke recipe's temporary directory and the three CLIs."""

    def __init__(self, tmp: Path, clis: list[str]):
        self.tmp = tmp
        self.sim, self.campaign, self.diff = (
            partial(self.run, str(Path(c).resolve())) for c in clis)

    def run(self, cli: str, *args: str, out: str | None = None,
            rc: int = 0) -> None:
        cmd = [cli, *args]
        with open(self.tmp / (out or "stdout.log"), "w") as f:
            try:
                r = subprocess.run(cmd, cwd=self.tmp, stdout=f,
                                   stderr=subprocess.PIPE, text=True)
            except OSError as e:
                fail(f"{cli}: {e}")
        if r.returncode != rc:
            fail(f"{' '.join(cmd)} exited {r.returncode}, want {rc}"
                 f"\n{r.stderr[-2000:]}")

    def check(self, kind: str, *names: str) -> None:
        validate(kind, [self.tmp / n for n in names])

    def load(self, name: str, fmt: str):
        return tool.load(self.tmp / name, fmt)

    def identical(self, a: str, b: str) -> None:
        identical(self.tmp / a, self.tmp / b)

    def glob(self, pattern: str) -> list[str]:
        return sorted(str(p.relative_to(self.tmp))
                      for p in self.tmp.glob(pattern))


GRID = ("--scenes", "wknd,ship", "--configs", "base,coop",
        "--resolution", "24")


def smoke_trace(s: Smoke) -> None:
    s.sim("--scene", "wknd", "--resolution", "32",
          "--trace", "trace.json", "--metrics", "metrics.csv")
    s.check("trace", "trace.json")
    s.check("metrics", "metrics.csv")
    s.sim("--scene", "spnza", "--profile", "--profile-out",
          "prof.folded", "--profile-json", "prof.json")
    s.check("prof", "prof.json", "prof.folded")


def smoke_memscope(s: Smoke) -> None:
    s.sim("--scene", "wknd", "--shader", "pt", "--resolution", "32",
          "--memscope-json", "wknd.memscope.json")
    s.check("memscope", "wknd.memscope.json")
    s.sim("--scene", "spnza", "--coop", "--resolution", "24",
          "--memscope", "--memscope-json", "spnza.memscope.json",
          "--memscope-out", "spnza.folded", "--metrics",
          "memscope.csv")
    s.check("memscope", "spnza.memscope.json")
    s.check("memscope-folded", "spnza.folded", "spnza.memscope.json")
    s.check("memscope-metrics", "memscope.csv")
    for jobs in ("1", "4"):
        s.campaign(*GRID, "--jobs", jobs, "--memscope-dir",
                   f"mem{jobs}")
    s.identical("mem1", "mem4")
    for doc in s.glob("mem1/*.memscope.json"):
        s.check("memscope", doc)
        s.check("memscope-folded",
                doc.replace(".json", ".folded"), doc)


def smoke_raystats(s: Smoke) -> None:
    s.sim("--scene", "spnza", "--coop", "--resolution", "24",
          "--ray-trace", "--ray-sample-k", "2", "--ray-out",
          "rays.raystats.json", "--trace", "rays.trace.json")
    s.check("raystats", "rays.raystats.json")
    s.check("raystats-trace", "rays.trace.json")


def smoke_telemetry(s: Smoke) -> None:
    s.sim("--scene", "wknd", "--shader", "pt", "--resolution", "32",
          "--telemetry-out", "run.telemetry.json")
    s.check("telemetry", "run.telemetry.json")
    # Progress lines go to stderr while stdout carries the lines.
    s.campaign(*GRID, "--jobs", "1", "--telemetry-dir", "tel1",
               "--telemetry-log", "ev1.jsonl", "--json-out", "-",
               out="stdout1.jsonl")
    s.campaign(*GRID, "--jobs", "4", "--telemetry-dir", "tel4",
               "--telemetry-log", "ev4.jsonl")
    s.check("campaign-stdout", "stdout1.jsonl")
    for log in ("ev1.jsonl", "ev4.jsonl"):
        s.check("telemetry-log", log)
    for sink in s.glob("tel1/*.telemetry.json"):
        s.check("telemetry", sink)
    s.identical("ev1.jsonl", "ev4.jsonl")
    s.identical("tel1", "tel4")


def smoke_diff(s: Smoke) -> None:
    for name, extra in (("base", ()), ("coop", ("--coop",))):
        s.sim("--scene", "wknd", "--resolution", "32", "--profile",
              "--memscope", "--json", *extra, out=f"{name}.json")
    s.diff("--quiet", "--json", "pair.ndjson", "base.json",
           "coop.json")
    s.check("diff", "pair.ndjson")
    s.diff("--quiet", "--json", "identity.ndjson", "base.json",
           "base.json")
    s.check("diff", "identity.ndjson")
    if s.load("identity.ndjson", "jsonl")[0]["same_fingerprint"] \
            is not True:
        fail("identity diff does not report same_fingerprint")

    # Run-key contract: mismatched keys exit 2, comparable ones 0.
    for scene in ("wknd", "fox"):
        s.sim("--scene", scene, "--resolution", "16", "--json",
              out=f"{scene}.json")
    s.diff("wknd.json", "fox.json", rc=2)
    s.diff("--quiet", "--markdown", "identity.md", "wknd.json",
           "wknd.json")
    if not s.load("identity.md", "text"):
        fail("diff_cli --markdown wrote an empty identity.md")

    s.campaign(*GRID, "--jobs", "1", "--report-dir", "baseline")
    for jobs in ("1", "4"):
        s.campaign(*GRID, "--jobs", jobs, "--diff-baseline",
                   "baseline", "--diff-out", f"d{jobs}.ndjson")
    s.identical("d1.ndjson", "d4.ndjson")
    s.check("diff", "d1.ndjson")


def smoke_query(s: Smoke) -> None:
    # Each shader's default scene, checked against the oracle.
    for shader, scene in (("knn", "ptsu"), ("radius", "ptsu"),
                          ("contain", "amrs")):
        s.sim("--shader", shader, "--resolution", "12", "--json",
              out=f"{shader}.json")
        s.check("query", f"{shader}.json")
        doc = s.load(f"{shader}.json", "json")
        if doc["scene"] != scene:
            fail(f"--shader {shader}: defaulted to scene "
                 f"{doc['scene']!r}, expected {scene!r}")
        if doc["query"]["workload"] != shader:
            fail(f"--shader {shader}: report says workload "
                 f"{doc['query']['workload']!r}")
    for shader, jobs in (("knn", "1"), ("knn", "4"), ("contain", "4")):
        s.campaign("--matrix", "all", "x", "base,coop", "--shader",
                   shader, "--resolution", "16", "--jobs", jobs,
                   "--json-out", "-", out=f"{shader}{jobs}.jsonl")
    s.identical("knn1.jsonl", "knn4.jsonl")
    s.check("query", "knn1.jsonl")
    s.check("query", "contain4.jsonl")


SMOKES = {
    "trace": smoke_trace,
    "memscope": smoke_memscope,
    "raystats": smoke_raystats,
    "telemetry": smoke_telemetry,
    "diff": smoke_diff,
    "query": smoke_query,
}

USAGE = """\
usage: validate_sinks.py SINK FILE [FILE]
       validate_sinks.py --identical A B
       validate_sinks.py --smoke SIMULATE_CLI CAMPAIGN_CLI DIFF_CLI [SMOKE]
smokes: """ + " ".join(SMOKES) + "\nsinks:" + "".join(
    f"\n  {kind:18s} " + " ".join(f.upper() for f in sink.fmt)
    for kind, sink in SINKS.items())


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--identical":
        return tool.report([], ok=identical(Path(argv[1]),
                                            Path(argv[2])))
    names = argv[4:] or list(SMOKES)
    if argv[:1] == ["--smoke"] and len(argv) in (4, 5) \
            and all(n in SMOKES for n in names):
        for name in names:
            with tempfile.TemporaryDirectory() as tmp:
                SMOKES[name](Smoke(Path(tmp), argv[1:4]))
        return tool.report([], ok=f"smoke {' '.join(names)}: every "
                                  f"sink valid")
    if argv and argv[0] in SINKS \
            and len(argv) == 1 + len(SINKS[argv[0]].fmt):
        summary = validate(argv[0], argv[1:])
        return tool.report([], ok=f"{argv[0]} {' '.join(argv[1:])}: "
                                  f"{summary}")
    return tool.usage(USAGE)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
