#!/usr/bin/env python3
"""Seeded-corruption self-test for tools/validate_sinks.py.

Fresh runs of the three CLIs produce one valid file per sink kind;
each must validate. Then, for every check the validator makes, a copy
is corrupted so that exactly that check fails, and the validator must
reject it cleanly: exit 1, a FAIL line, no traceback. The same holds
for unreadable inputs (missing file, non-JSON text), for
``--identical`` (which must accept two worker counts' sinks and
reject any deterministic difference), and for the smoke recipes'
CLI contracts, broken by a wrapper around one CLI.

Registered as a ctest case; the binary paths arrive on argv:

    test_validate_sinks.py SIMULATE_CLI CAMPAIGN_CLI DIFF_CLI
"""

from __future__ import annotations

import copy
import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lintlib  # noqa: E402

VALIDATOR = Path(__file__).resolve().parent / "validate_sinks.py"
tool = lintlib.Tool("test_validate_sinks")


# --------------------------------------------------------------------
# Mutators corrupt a parsed file in place. Paths are dotted, list
# indices are numbers: "warps.3.rays.0.lane", "-1.retried".
# --------------------------------------------------------------------

def at(path: str, edit):
    """A mutator calling ``edit(parent, key)`` at @p path."""
    def m(doc):
        keys = [int(k) if k.lstrip("-").isdigit() else k
                for k in path.split(".")]
        for k in keys[:-1]:
            doc = doc[k]
        edit(doc, keys[-1])
    return m


def setv(path: str, value):
    return at(path, lambda p, k: p.__setitem__(k, value))


def bump(path: str, n: int = 1):
    return at(path, lambda p, k: p.__setitem__(k, p[k] + n))


def drop(path: str):
    return at(path, lambda p, k: p.__delitem__(k))


def all_of(*ms):
    def m(doc):
        for f in ms:
            f(doc)
    return m


def moved(path: str):
    """Move one unit from a delta triple's base to its delta: the
    triple stays consistent, the sums it feeds do not."""
    return all_of(bump(path + ".base", -1), bump(path + ".delta"))


def stamp_cases(prefix: str = "", keys=("run_key",)):
    yield "drop schema_version", drop(prefix + "schema_version")
    yield "schema_version 1", setv(prefix + "schema_version", 1)
    for key in keys:
        yield f"drop {key}", drop(prefix + key)
        yield f"drop {key}.shader", drop(f"{prefix}{key}.shader")
        yield (f"short {key}.fingerprint",
               setv(f"{prefix}{key}.fingerprint", "0x12"))


def counter_cases(path: str, fields):
    """Drop each counter; make the first one negative."""
    base = f"{path}." if path else ""
    for f in fields:
        yield f"drop {base}{f}", drop(base + f)
    yield f"negative {base}{fields[0]}", setv(base + fields[0], -1)


def wrong_type(path: str, value="x"):
    return f"{path} wrong type", setv(path, value)


# --------------------------------------------------------------------
# Per-sink corruption tables
# --------------------------------------------------------------------

def raystats_cases(doc):
    w = next(i for i, w in enumerate(doc["warps"])
             if w["retired"] and len(w["rays"]) == 2)
    W, R = f"warps.{w}", f"warps.{w}.rays.0"
    warp = doc["warps"][w]
    lane = warp["rays"][0]["lane"]
    yield from stamp_cases()
    yield wrong_type("scene", 5)
    yield from counter_cases("", (
        "sample_k", "seed", "warps_seen", "warps_sampled",
        "warps_retired", "rays_sampled", "events_recorded",
        "events_dropped", "steal_events"))
    yield "sample_k 0", setv("sample_k", 0)
    yield wrong_type("warps")
    yield "warps_sampled off by one", bump("warps_sampled")
    for f in ("sm", "ordinal", "warp_id", "submit", "retire",
              "sampled_mask"):
        yield f"drop {W}.{f}", drop(f"{W}.{f}")
    yield "retired not bool", setv(W + ".retired", 1)
    yield wrong_type(W + ".rays")
    yield "more rays than sample_k", setv("sample_k", 1)
    yield from counter_cases(R, (
        "lane", "launch", "retire", "node_visits", "node_pops",
        "stale_pops", "node_pushes", "leaf_tests", "steals_in",
        "steals_out", "stack_hwm", "events", "events_dropped"))
    yield "duplicate lane", setv(W + ".rays.1.lane", lane)
    yield "lane outside sampled_mask", setv(
        W + ".sampled_mask", warp["sampled_mask"] & ~(1 << lane))
    yield "levels not 3 entries", setv(R + ".levels", [1, 2])
    yield "sum(levels) != node_visits", bump(R + ".levels.0")
    yield "launch after retire", setv(R + ".launch",
                                      warp["rays"][0]["retire"] + 1)
    yield "rays_sampled off by one", bump("rays_sampled")


def memscope_cases(doc):
    hot = doc["hot_nodes"]
    h = next(i for i in range(1, len(hot))
             if hot[i]["accesses"] < hot[i - 1]["accesses"])
    total = doc["nodes"]["accesses"]
    yield from stamp_cases()
    yield wrong_type("scene", 5)
    for obj, fields in (("nodes", ("accesses", "bytes", "lanes")),
                        ("nodes.levels", ("l1", "l2", "dram")),
                        ("mem", ("line_l1", "line_l2", "line_dram",
                                 "l2_fill_bytes", "bank_requests",
                                 "bank_conflicts", "bank_wait_cycles")),
                        ("dram", ("requests", "bytes", "row_hits",
                                  "row_misses")),
                        ("reuse", ("l2_sets_touched",
                                   "l2_set_max_accesses")),
                        ("reuse.l1", ("cold", "tracked")),
                        ("reuse.l2", ("cold", "tracked")),
                        ("depths.0.phases", ("ramp", "traverse",
                                             "drain"))):
        yield wrong_type(obj)
        yield from counter_cases(obj, fields)
    for arr, fields in (("depths", ("depth", "accesses", "bytes",
                                    "lanes", "l1", "l2", "dram")),
                        ("hot_nodes", ("node", "depth", "accesses",
                                       "l1", "l2", "dram")),
                        ("units", ("sm", "accesses", "bytes"))):
        yield wrong_type(arr)
        yield from counter_cases(arr + ".0", fields)
    yield "nodes level sum", bump("nodes.levels.l1")
    yield "depth not increasing", setv("depths.1.depth",
                                       doc["depths"][0]["depth"])
    yield "depth level sum", bump("depths.0.l1")
    yield "depth phase sum", bump("depths.0.phases.traverse")
    yield "depth rows vs nodes.accesses", all_of(
        bump("depths.0.accesses"), bump("depths.0.l1"),
        bump("depths.0.phases.traverse"))
    yield "depth rows vs nodes.bytes", bump("depths.0.bytes")
    yield "hot node above total", all_of(
        setv("hot_nodes.0.accesses", total + 1),
        bump("hot_nodes.0.l1", total + 1 - hot[0]["accesses"]))
    yield "hot node level sum", bump("hot_nodes.0.l1")
    yield "hot ranking", lambda d: d["hot_nodes"].insert(
        0, d["hot_nodes"].pop(h))
    for lvl in ("l1", "l2"):
        yield (f"reuse.{lvl}.hist length",
               lambda d, lvl=lvl: d["reuse"][lvl]["hist"].pop())
        yield f"reuse.{lvl} cold+hist", bump(f"reuse.{lvl}.cold")
    yield "mem lines vs reuse.l1.tracked", bump("mem.line_l1")
    yield "bank conflicts above requests", setv(
        "mem.bank_conflicts", doc["mem"]["bank_requests"] + 1)
    yield "dram row hits+misses", bump("dram.row_hits")
    yield "unit rows vs nodes.accesses", bump("units.0.accesses")
    yield "unit rows vs nodes.bytes", bump("units.0.bytes")


def telemetry_cases(doc):
    host = doc["host"]
    yield from stamp_cases()
    yield wrong_type("scene", 5)
    yield "telemetry_version 2", setv("telemetry_version", 2)
    yield wrong_type("build")
    for f in ("revision", "dirty", "compiler", "build_type", "check"):
        yield f"drop build.{f}", drop(f"build.{f}")
    yield "build.dirty not bool", setv("build.dirty", "yes")
    yield "empty build.revision", setv("build.revision", "")
    yield wrong_type("sim")
    yield from counter_cases("sim", ("cycles", "rays_retired"))
    yield wrong_type("host")
    yield wrong_type("host.phases")
    yield "phase order", lambda d: d["host"]["phases"].update(
        scene_load=d["host"]["phases"].pop("scene_load"))
    yield wrong_type("host.phases.warmup")
    yield "drop span seconds", drop("host.phases.warmup.seconds")
    yield wrong_type("host.phases.warmup.seconds")
    yield from counter_cases("host.phases.warmup", ("count",))
    yield "seconds without entries", setv("host.phases.sim_loop.count",
                                          0)
    yield "report phase never ran", all_of(
        setv("host.phases.report.count", 0),
        setv("host.phases.report.seconds", 0))
    yield "drop host.sim_seconds", drop("host.sim_seconds")
    yield "negative sim_seconds", setv("host.sim_seconds", -1.0)
    yield from counter_cases("host", ("rss_current_kb", "rss_peak_kb"))
    yield "rss peak below current", setv("host.rss_peak_kb",
                                         host["rss_current_kb"] - 1)
    yield "sim_seconds vs sim_loop", setv("host.sim_seconds",
                                          host["sim_seconds"] * 2)


def telemetry_log_cases(lines):
    evs = [e["ev"] for e in lines]
    start, finish = evs.index("job_start"), evs.index("job_finish")
    S, F = str(start), str(finish)
    event = lambda ev: {"ev": ev, "index": 0, "tag": "t", "host": {}}
    insert = lambda e: lambda d: d.insert(1, e)
    yield "missing ev", drop(S + ".ev")
    yield "unknown event", setv(S + ".ev", "job_bogus")
    yield "missing host", drop(S + ".host")
    yield "empty log", lambda d: d.clear()
    yield "first event not campaign_begin", drop("0")
    yield "last event not campaign_end", drop("-1")
    yield "drop campaign_begin.jobs", drop("0.jobs")
    yield "drop campaign_begin.build", drop("0.build")
    yield "empty campaign_begin revision", setv("0.build.revision", "")
    yield "lifecycle event in the middle", insert(lines[0])
    yield from counter_cases(S, ("index", "attempt"))
    yield "index out of range", setv(S + ".index", lines[0]["jobs"])
    yield "drop tag", drop(S + ".tag")
    yield "job_retry without next_attempt", insert(event("job_retry"))
    yield "job_timeout without budget_s", insert(event("job_timeout"))
    yield "job_finish.ok not bool", setv(F + ".ok", 1)
    yield from counter_cases(F, ("attempts", "cycles"))
    yield "job finished twice", lambda d: d.insert(-1, d[finish])
    yield "a job never starts", drop(S)
    yield "a job never finishes", drop(F)
    yield "done + failed != jobs", bump("-1.failed")
    yield "ok lines != done", setv(F + ".ok", False)
    yield "retried != job_retry lines", bump("-1.retried")


def diff_cases(docs):
    d, p, m = "0.", "0.prof.", "0.memscope."
    doc = docs[0]
    yield from stamp_cases(d, keys=("run_key", "other_key"))
    yield "schema_version 3", setv(d + "schema_version", 3)
    yield "empty other_key.scene", setv(d + "other_key.scene", "")
    yield "keys disagree on resolution", bump(d + "other_key.resolution")
    yield "same_fingerprint wrong", setv(d + "same_fingerprint", True)
    yield "drop build", drop(d + "build")
    yield "build without revision", setv(d + "build", {})
    yield "drop attribution", drop(d + "attribution")
    yield "cycles delta != other - base", bump(d + "cycles.delta")
    yield "cycles.base not an integer", setv(d + "cycles.base", "1")
    yield wrong_type(d + "speedup")
    yield "speedup arithmetic", setv(d + "speedup", doc["speedup"] * 2)
    yield wrong_type(d + "bandwidth")
    yield "l2_bytes delta", bump(d + "bandwidth.l2_bytes.delta")
    yield "drop dram_bytes", drop(d + "bandwidth.dram_bytes")
    yield wrong_type(d + "prof")
    yield "resident delta", bump(p + "resident_cycles.delta")
    yield "drop rt_stall_cycles", drop(p + "rt_stall_cycles")
    yield "empty buckets", setv(p + "buckets", [])
    yield "bucket without name", drop(p + "buckets.0.name")
    yield "duplicate bucket", setv(p + "buckets.1.name",
                                   doc["prof"]["buckets"][0]["name"])
    yield "bucket delta", bump(p + "buckets.0.delta")
    yield "bucket conservation", moved(p + "buckets.0")
    yield wrong_type(d + "memscope")
    yield "node_accesses delta", bump(m + "node_accesses.delta")
    yield "drop node_bytes", drop(m + "node_bytes")
    yield wrong_type(m + "levels")
    yield "level delta", bump(m + "levels.l1.delta")
    yield "level deltas vs accesses", moved(m + "levels.l1")
    yield wrong_type(m + "depths")
    yield "depth not increasing", setv(
        m + "depths.1.depth", doc["memscope"]["depths"][0]["depth"])
    yield "depth accesses delta", bump(m + "depths.0.accesses.delta")
    yield "drop depth l2", drop(m + "depths.0.l2")
    yield "depth level deltas", moved(m + "depths.0.l1")
    yield "depth rows vs accesses", all_of(
        moved(m + "depths.0.l1"), moved(m + "depths.0.accesses"))
    yield "depth rows vs bytes", moved(m + "depths.0.bytes")
    yield "no documents", lambda d: d.clear()


def identity_diff_cases(docs):
    c = docs[0]["cycles"]
    yield "identity diff with a cycle delta", all_of(
        bump("0.cycles.other"), bump("0.cycles.delta"),
        setv("0.speedup", float(f"{c['base'] / (c['other'] + 1):.6g}")))


def query_cases(doc):
    q, queries = "query.", doc["query"]["queries"]
    yield from stamp_cases()
    yield wrong_type("scene", 5)
    yield from counter_cases("", ("resolution", "cycles"))
    yield wrong_type("query")
    yield "unknown workload", setv(q + "workload", "bogus")
    yield from counter_cases("query", ("queries", "rounds", "found"))
    yield "queries != resolution^2", all_of(bump(q + "queries"),
                                            bump(q + "oracle.checked"))
    yield "rounds < queries", setv(q + "rounds", queries - 1)
    yield "found > rounds", setv(q + "found", doc["query"]["rounds"] + 1)
    yield "checksum not hex", setv(q + "checksum", "0xZZ")
    yield wrong_type(q + "checksum", 5)
    yield wrong_type(q + "oracle")
    yield from counter_cases("query.oracle", ("checked", "mismatches"))
    yield "oracle checked != queries", bump(q + "oracle.checked", -1)
    yield "oracle matches false", setv(q + "oracle.matches", False)
    yield "oracle mismatches", setv(q + "oracle.mismatches", 1)


def query_lines_cases(lines):
    o = "0.outcome.query.oracle."
    yield "job not ok", setv("0.ok", False)
    yield "line oracle matches false", setv(o + "matches", False)
    yield "line oracle mismatches", setv(o + "mismatches", 1)
    yield "no lines", lambda d: d.clear()


def finish_cycles(lines):
    yield "job_finish cycles differ", lambda d: next(
        l for l in d if l["ev"] == "job_finish").update(cycles=0)
    yield "event line missing", drop("1")


def respaced(lines):
    yield "whitespace differs", setv("0", lines[0].replace(":", ": ", 1))


def prof_cases(doc):
    yield "resident != bucket sum", bump("buckets.issue_compute")


def prof_folded_cases(stacks):
    yield "folded scene", setv("0.0.0", "other")
    yield "folded sm frame", setv("0.0.1", "gpu0")
    yield "folded unit frame", setv("0.0.2", "lsu")
    yield "folded unknown bucket", setv("0.0.3", "bogus")
    yield "folded extra frame", lambda d: d[0][0].append("extra")
    yield "folded total", bump("0.1")


def memscope_folded_cases(stacks):
    yield "heatmap scene", setv("0.0.0", "other")
    yield "heatmap depth frame", setv("0.0.1", "level1")
    yield "heatmap node frame", setv("0.0.2", "box0")
    yield "heatmap extra frame", lambda d: d[0][0].append("x")
    yield "empty heatmap", lambda d: [s.__setitem__(1, 0) for s in d]


def trace_cases(doc):
    keep = lambda pred: lambda d: d.update(
        traceEvents=[e for e in d["traceEvents"] if pred(e)])
    yield "no trace events", setv("traceEvents", [])
    yield "no duration events", keep(lambda e: e["ph"] != "X")
    yield "no counter events", keep(lambda e: e["ph"] != "C")


def ray_track_cases(doc):
    def rename(old, new):
        def m(d):
            for e in d["traceEvents"]:
                if e.get("name") == "thread_name":
                    e["args"]["name"] = e["args"]["name"].replace(old,
                                                                  new)
        return m
    yield "no thread_name metadata", lambda d: d.update(
        traceEvents=[e for e in d["traceEvents"]
                     if e.get("name") != "thread_name"])
    yield "no ray tracks", rename("rays ", "beams ")
    yield "no lane tracks", rename(" lane ", " slot ")


def column_cases(columns):
    for col in columns:
        yield f"no {col} column", lambda rows, col=col: rows[1].__setitem__(
            rows[1].index(col), col + "_x")


def metrics_cases(rows):
    yield "no schema stamp line", drop("0")
    yield "first column not cycle", setv("1.0", "tick")
    yield from column_cases(("rtunit.thread_utilization",))
    yield "no samples", lambda rows: rows.__delitem__(slice(2, None))
    yield "ragged row", lambda rows: rows[2].pop()


def stdout_cases(lines):
    yield "progress line on stdout", lambda ls: ls.insert(1, "[campaign] 1/4")
    yield "blank stdout line", lambda ls: ls.insert(1, "")
    yield "no stdout lines", lambda ls: ls.clear()


def _csv_dump(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


#: fmt -> (parse, dump) for the files the tables corrupt.
CODECS = {
    "json": (json.loads, json.dumps),
    "jsonl": (lambda t: [json.loads(l) for l in t.splitlines()],
              lambda d: "".join(json.dumps(x) + "\n" for x in d)),
    "folded": (lambda t: [[s.split(";"), int(c)] for s, _, c in
                          (l.rpartition(" ") for l in t.splitlines())],
               lambda d: "".join(f"{';'.join(s)} {c}\n" for s, c in d)),
    "csv": (lambda t: list(csv.reader(t.splitlines())), _csv_dump),
    "text": (str.splitlines, lambda d: "".join(l + "\n" for l in d)),
}

#: (sink, corrupted file, its format, cases, files before, after).
CORRUPTIONS = (
    ("raystats", "rays.json", "json", raystats_cases, (), ()),
    ("memscope", "ms.json", "json", memscope_cases, (), ()),
    ("telemetry", "tel.json", "json", telemetry_cases, (), ()),
    ("telemetry-log", "ev1.jsonl", "jsonl", telemetry_log_cases, (),
     ()),
    ("diff", "pair.ndjson", "jsonl", diff_cases, (), ()),
    ("diff", "identity.ndjson", "jsonl", identity_diff_cases, (), ()),
    ("query", "knn.json", "json", query_cases, (), ()),
    ("query", "knn.jsonl", "jsonl", query_lines_cases, (), ()),
    ("prof", "prof.json", "json", prof_cases, (), ("prof.folded",)),
    ("prof", "prof.folded", "folded", prof_folded_cases,
     ("prof.json",), ()),
    ("memscope-folded", "ms.folded", "folded", memscope_folded_cases,
     (), ("ms.json",)),
    ("trace", "trace.json", "json", trace_cases, (), ()),
    ("raystats-trace", "trace.json", "json", ray_track_cases, (), ()),
    ("metrics", "metrics.csv", "csv", metrics_cases, (), ()),
    ("memscope-metrics", "metrics.csv", "csv",
     lambda _: column_cases(("memscope.gpu.node_accesses",
                             "memscope.mem.line_l1")), (), ()),
    ("campaign-stdout", "stdout1.jsonl", "text", stdout_cases, (), ()),
    # --identical: the pristine pair (two worker counts, or a copy)
    # agrees; every deterministic difference is rejected.
    ("--identical", "ev2.jsonl", "jsonl", finish_cycles, ("ev1.jsonl",),
     ()),
    ("--identical", "tel2/wknd_base.telemetry.json", "json",
     lambda _: [("sink cycles differ", setv("sim.cycles", 0))],
     ("tel1/wknd_base.telemetry.json",), ()),
    ("--identical", "mem2/wknd_base.memscope.json", "text", respaced,
     ("mem1/wknd_base.memscope.json",), ()),
    ("--identical", "knn.jsonl", "text", respaced, ("knn.jsonl",), ()),
    ("--identical", "pair.ndjson", "jsonl",
     lambda _: [("diff line differs", setv("0.cycles.base", 0))],
     ("pair.ndjson",), ()),
)

# --------------------------------------------------------------------
# Running the cases
# --------------------------------------------------------------------

class Harness:
    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.jobs: list[tuple[str, list[str], int]] = []
        self.inputs: set[tuple] = set()

    def expect(self, label: str, args: list, rc: int) -> None:
        self.jobs.append((label, [str(a) for a in args], rc))

    def corrupt(self, kind, name, fmt, cases, before, after) -> None:
        """Queue one rejection per (label, mutator) in @p cases, after
        the pristine inputs' acceptance and a missing input's clean
        rejection."""
        files = (*before, name, *after)
        if (kind, files) not in self.inputs:
            self.inputs.add((kind, files))
            self.expect(f"{kind}: pristine {name}",
                        [kind, *(self.tmp / f for f in files)], 0)
            self.expect(f"{kind}: missing input",
                        [kind, *(self.tmp / "missing" for _ in files)],
                        1)
        parse, dump = CODECS[fmt]
        pristine = parse((self.tmp / name).read_text(encoding="utf-8"))
        for label, mutate in cases(copy.deepcopy(pristine)):
            doc = copy.deepcopy(pristine)
            mutate(doc)
            out = self.tmp / f"bad{len(self.jobs)}{Path(name).suffix}"
            out.write_text(dump(doc), encoding="utf-8")
            self.expect(f"{kind}: {label}",
                        [kind, *(self.tmp / b for b in before), out,
                         *(self.tmp / a for a in after)], 1)

    def run(self) -> list[str]:
        def one(job):
            label, args, rc = job
            r = subprocess.run([sys.executable, str(VALIDATOR), *args],
                               capture_output=True, text=True)
            out = r.stdout + r.stderr
            if r.returncode != rc or "Traceback" in out or (
                    rc == 1 and "FAIL" not in out):
                return (f"{label}: exit {r.returncode}, want {rc}:\n"
                        f"    {out.strip()[-600:]}")
            return None
        with ThreadPoolExecutor(4) as pool:
            return [p for p in pool.map(one, self.jobs) if p]


def generate(tmp: Path, sim: str, campaign: str, diff: str) -> None:
    def run(*cmd, out="stdout.log"):
        with open(tmp / out, "w") as f:
            r = subprocess.run(cmd, cwd=tmp, stdout=f,
                               stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            tool.fail(f"{' '.join(cmd)} exited {r.returncode}\n"
                      f"{r.stderr[-2000:]}")
    run(sim, "--scene", "wknd", "--resolution", "16", "--coop",
        "--trace", "trace.json", "--metrics", "metrics.csv",
        "--profile", "--profile-out", "prof.folded",
        "--profile-json", "prof.json", "--memscope",
        "--memscope-json", "ms.json", "--memscope-out", "ms.folded",
        "--ray-trace", "--ray-sample-k", "2", "--ray-out", "rays.json",
        "--telemetry-out", "tel.json")
    for name, extra in (("base", ()), ("coop", ("--coop",))):
        run(sim, "--scene", "wknd", "--resolution", "16", "--profile",
            "--memscope", "--json", *extra, out=f"{name}.json")
    for out, other in (("pair.ndjson", "coop.json"),
                       ("identity.ndjson", "base.json")):
        run(diff, "--quiet", "--json", out, "base.json", other)
    run(sim, "--shader", "knn", "--resolution", "8", "--json",
        out="knn.json")
    run(campaign, "--scenes", "ptsu", "--configs", "base,coop",
        "--shader", "knn", "--resolution", "8", "--json-out", "-",
        out="knn.jsonl")
    for jobs in ("1", "2"):
        run(campaign, "--scenes", "wknd", "--configs", "base,coop",
            "--resolution", "16", "--jobs", jobs,
            "--telemetry-dir", f"tel{jobs}",
            "--telemetry-log", f"ev{jobs}.jsonl",
            "--memscope-dir", f"mem{jobs}",
            "--json-out", "-", out=f"stdout{jobs}.jsonl")


def unreadable_cases(h: Harness, tmp: Path) -> None:
    junk = tmp / "junk.txt"
    junk.write_text("not json {\n")
    for kind in ("raystats", "memscope", "telemetry", "telemetry-log",
                 "diff", "query", "trace", "campaign-stdout"):
        h.expect(f"{kind}: non-JSON input", [kind, junk], 1)
    h.expect("prof: non-JSON input", ["prof", junk, tmp / "prof.folded"],
             1)
    h.expect("prof: malformed folded line",
             ["prof", tmp / "prof.json", junk], 1)
    h.expect("--identical: missing second input",
             ["--identical", tmp / "ev1.jsonl", tmp / "missing"], 1)


def identity_dir_cases(h: Harness, tmp: Path) -> None:
    """Directories agree file by file; a missing file is a difference."""
    for a, b, sink in (("tel1", "tel2", "telemetry"),
                       ("mem1", "mem2", "memscope")):
        h.expect(f"--identical: {a} vs {b}",
                 ["--identical", tmp / a, tmp / b], 0)
        shutil.copytree(tmp / b, tmp / f"{b}_short")
        (tmp / f"{b}_short" / f"wknd_base.{sink}.json").unlink()
        h.expect(f"--identical: file missing from {b}",
                 ["--identical", tmp / a, tmp / f"{b}_short"], 1)


WRAPPER = """#!{python}
import pathlib, subprocess, sys
args = sys.argv[1:]
jobs4 = "--jobs" in args and args[args.index("--jobs") + 1] == "4"
{pre}
rc = subprocess.run([{real!r}] + args).returncode
{post}
sys.exit(rc)
"""

#: Smoke-level contracts, each broken by a wrapper around one CLI:
#: (label, smoke, CLI slot, code run before, code run after).
SMOKE_CASES = (
    ("simulate_cli exit status", "trace", 0, "",
     "rc = 1 if '--profile' in args else rc"),
    ("key-mismatched diff exits 0", "diff", 2, "",
     "rc = 0 if rc == 2 else rc"),
    ("empty --markdown identity report", "diff", 2, "",
     "if '--markdown' in args: "
     "open(args[args.index('--markdown') + 1], 'w').close()"),
    ("knn defaults to another scene", "query", 0,
     "if args[:2] == ['--shader', 'knn']: args += ['--scene', 'ptsc']",
     ""),
    ("--jobs 4 memscope sinks differ", "memscope", 1, "",
     "if jobs4: p = sorted(pathlib.Path("
     "args[args.index('--memscope-dir') + 1]).glob('*.json'))[0]; "
     "p.write_text(p.read_text() + ' ')"),
    ("--jobs 4 diff sink differs", "diff", 1, "",
     "if jobs4: p = pathlib.Path(args[args.index('--diff-out') + 1]); "
     "p.write_text(p.read_text() + ' ')"),
)


def smoke_cases(h: Harness, tmp: Path, clis: list[str]) -> None:
    for n, (label, smoke, slot, pre, post) in enumerate(SMOKE_CASES):
        wrapper = tmp / f"wrapper{n}"
        wrapper.write_text(WRAPPER.format(
            python=sys.executable, real=clis[slot], pre=pre, post=post))
        wrapper.chmod(0o755)
        argv = list(clis)
        argv[slot] = wrapper
        h.expect(f"smoke {smoke}: {label}", ["--smoke", *argv, smoke],
                 1)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        return tool.usage("usage: test_validate_sinks.py SIMULATE_CLI "
                          "CAMPAIGN_CLI DIFF_CLI")
    clis = [str(Path(a).resolve()) for a in argv]
    with tempfile.TemporaryDirectory() as t:
        tmp = Path(t)
        generate(tmp, *clis)
        h = Harness(tmp)
        for row in CORRUPTIONS:
            h.corrupt(*row)
        unreadable_cases(h, tmp)
        identity_dir_cases(h, tmp)
        smoke_cases(h, tmp, clis)
        problems = h.run()
    return tool.report(problems, ok=f"{len(h.jobs)} cases: pristine "
                                    f"sinks pass, every corruption "
                                    f"rejected cleanly")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
