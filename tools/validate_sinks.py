#!/usr/bin/env python3
"""Validate the simulator's result sinks: JSON reports, NDJSON/JSONL
streams, metric CSVs and folded stacks.

Every sink is one row of ``SINKS``: the format of each input file, a
``Shape`` table naming the required counters, stamp and nested
arrays/objects, and, where no C++ audit or test already checks them,
the sink's remaining laws. The conservation laws themselves (DESIGN.md
§13-§18) live in the ``COOPRT_AUDIT`` invariants and the gtest suites
next to the code that produces the data; this checker does not
re-derive them. Modes:

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
        telemetry sinks are proven identical;

    validate_sinks.py --smoke SIMULATE_CLI CAMPAIGN_CLI DIFF_CLI [SMOKE]
        run one smoke recipe (``trace``, ``memscope``, ``raystats``,
        ``telemetry``, ``diff``, ``query``; all when omitted): small
        fresh runs through the given binaries, then every output
        validated, including the host-stripped telemetry identity
        between worker counts. ctest registers one case per recipe
        (``validate_<smoke>``).

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
    numbers=("speedup",),
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
# Checks beyond one Shape table: multi-document inputs, and the laws
# no C++ audit or test covers
# --------------------------------------------------------------------

def telemetry_laws(doc: dict) -> str:
    host = doc["host"]
    # A per-run sink closes every phase, report included: it times
    # the other sinks' emission, once per run.
    for name, span in host["phases"].items():
        if span["count"] == 0:
            fail(f"host.phases.{name}: phase never ran (count 0)")
    if host["rss_current_kb"] > host["rss_peak_kb"]:
        fail(f"host: rss_current_kb {host['rss_current_kb']} > "
             f"rss_peak_kb {host['rss_peak_kb']}")
    return f"{doc['sim']['cycles']} cycles, every phase ran"


def telemetry_log_laws(events: list) -> str:
    if not events:
        fail("empty event log")
    for i, ev in enumerate(events, 1):
        if not isinstance(ev, dict) or not isinstance(ev.get("ev"), str) \
                or ev["ev"] not in EVENTS:
            fail(f"line {i}: 'ev' is not one of {tuple(EVENTS)}")
        if not isinstance(ev.get("host"), dict):
            fail(f"line {i}: missing 'host' object")
        check(ev, EVENTS[ev["ev"]], f"line {i} ({ev['ev']})")
    return f"{len(events)} events"


def diff_laws(docs: list) -> str:
    if not docs:
        fail("no diff documents")
    for n, doc in enumerate(docs, 1):
        check(doc, DIFF, f"diff {n}")
        if doc["schema_version"] != 2:
            fail(f"diff {n}: schema_version {doc['schema_version']} "
                 f"!= 2")
    return f"{len(docs)} diff documents"


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
            if doc.get("ok") is not True:
                fail(f"{where}: job not ok")
            doc = doc["outcome"]
        check(doc, QUERY, where)
        q = doc["query"]
        if q["workload"] not in QUERY_WORKLOADS:
            fail(f"{where}.query: workload {q['workload']!r} not in "
                 f"{QUERY_WORKLOADS}")
        if not CHECKSUM_RE.fullmatch(q["checksum"]):
            fail(f"{where}.query: checksum {q['checksum']!r} is not a "
                 f"64-bit hex string")
    return f"{len(docs)} query reports"


def prof_laws(doc: dict, folded: list) -> str:
    buckets = doc["buckets"]
    for name in buckets:
        counter(buckets, name, "buckets")
    return (f"{doc['resident_cycles']} resident cycles over "
            f"{len(buckets)} buckets, {len(folded)} folded stacks")


def metric_columns(rows: list, columns: tuple[str, ...]) -> str:
    """The CSV's header row (after the ``#`` stamp) has @p columns."""
    header = next((r for r in rows if r and not r[0].startswith("#")),
                  [])
    for col in columns:
        if col not in header:
            fail(f"no {col!r} column")
    return f"{len(header)} columns"


@dataclass(frozen=True)
class Sink:
    fmt: tuple[str, ...]       # lintlib.Tool.load format per input
    shape: Shape | None = None  # schema of the first input
    laws: Callable[..., str] | None = None  # remaining laws -> summary


SINKS = {
    "raystats": Sink(("json",), RAYSTATS),
    "memscope": Sink(("json",), MEMSCOPE),
    "memscope-folded": Sink(("folded",)),
    "memscope-metrics": Sink(("csv",), laws=partial(
        metric_columns, columns=("memscope.gpu.node_accesses",
                                 "memscope.mem.line_l1"))),
    "telemetry": Sink(("json",), TELEMETRY, telemetry_laws),
    "telemetry-log": Sink(("jsonl",), laws=telemetry_log_laws),
    "diff": Sink(("jsonl",), laws=diff_laws),
    "query": Sink(("jsonl",), laws=query_laws),
    "prof": Sink(("json", "folded"), PROF, prof_laws),
    "trace": Sink(("json",), TRACE),
}


def validate(kind: str, paths: list) -> str:
    """Validate @p paths as sink @p kind; return the OK summary."""
    sink = SINKS[kind]
    inputs = [tool.load(p, f) for p, f in zip(paths, sink.fmt)]
    try:
        if sink.shape is not None:
            check(inputs[0], sink.shape, "top level")
        return sink.laws(*inputs) if sink.laws else "well-formed"
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
          "--trace", "trace.json")
    s.check("trace", "trace.json")
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
    s.check("memscope-folded", "spnza.folded")
    s.check("memscope-metrics", "memscope.csv")
    s.campaign(*GRID, "--jobs", "4", "--memscope-dir", "mem")
    for doc in s.glob("mem/*.memscope.json"):
        s.check("memscope", doc)
        s.check("memscope-folded", doc.replace(".json", ".folded"))


def smoke_raystats(s: Smoke) -> None:
    s.sim("--scene", "spnza", "--coop", "--resolution", "24",
          "--ray-trace", "--ray-sample-k", "2", "--ray-out",
          "rays.raystats.json", "--trace", "rays.trace.json")
    s.check("raystats", "rays.raystats.json")
    s.check("trace", "rays.trace.json")


def smoke_telemetry(s: Smoke) -> None:
    s.sim("--scene", "wknd", "--shader", "pt", "--resolution", "32",
          "--telemetry-out", "run.telemetry.json")
    s.check("telemetry", "run.telemetry.json")
    for jobs in ("1", "4"):
        s.campaign(*GRID, "--jobs", jobs, "--telemetry-dir",
                   f"tel{jobs}", "--telemetry-log", f"ev{jobs}.jsonl")
        s.check("telemetry-log", f"ev{jobs}.jsonl")
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
    s.diff("--quiet", "--markdown", "identity.md", "base.json",
           "base.json")
    if not s.load("identity.md", "text"):
        fail("diff_cli --markdown wrote an empty identity.md")

    s.campaign(*GRID, "--jobs", "1", "--report-dir", "baseline")
    s.campaign(*GRID, "--jobs", "4", "--diff-baseline", "baseline",
               "--diff-out", "d.ndjson")
    s.check("diff", "d.ndjson")


def smoke_query(s: Smoke) -> None:
    # Each shader's default scene.
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
    for shader in ("knn", "contain"):
        s.campaign("--matrix", "all", "x", "base,coop", "--shader",
                   shader, "--resolution", "16", "--jobs", "4",
                   "--json-out", "-", out=f"{shader}.jsonl")
        s.check("query", f"{shader}.jsonl")


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
