#!/usr/bin/env python3
"""Seeded-corruption self-test for tools/validate_sinks.py.

Fresh runs of the three CLIs produce one valid file per sink kind;
each must validate. Then, for every check the validator makes, a copy
is corrupted so that exactly that check fails, and the validator must
reject it cleanly: exit 1, a FAIL line, no traceback. The same holds
for unreadable inputs (missing file, non-JSON text), for
``--identical`` (which must accept two worker counts' sinks and
reject any deterministic difference), and for the smoke recipes'
CLI checks, broken by a wrapper around one CLI. The conservation
laws are not corrupted here: they live in the C++ audits and tests.

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
    w = next(i for i, w in enumerate(doc["warps"]) if w["rays"])
    W, R = f"warps.{w}", f"warps.{w}.rays.0"
    yield from stamp_cases()
    yield wrong_type("scene", 5)
    yield from counter_cases("", (
        "sample_k", "seed", "warps_seen", "warps_sampled",
        "warps_retired", "rays_sampled", "events_recorded",
        "events_dropped", "steal_events"))
    yield wrong_type("warps")
    for f in ("sm", "ordinal", "warp_id", "submit", "retire",
              "sampled_mask"):
        yield f"drop {W}.{f}", drop(f"{W}.{f}")
    yield "retired not bool", setv(W + ".retired", 1)
    yield wrong_type(W + ".rays")
    yield from counter_cases(R, (
        "lane", "launch", "retire", "node_visits", "node_pops",
        "stale_pops", "node_pushes", "leaf_tests", "steals_in",
        "steals_out", "stack_hwm", "events", "events_dropped"))
    yield "levels not 3 entries", setv(R + ".levels", [1, 2])


def memscope_cases(doc):
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
    for lvl in ("l1", "l2"):
        yield (f"reuse.{lvl}.hist length",
               lambda d, lvl=lvl: d["reuse"][lvl]["hist"].pop())


def telemetry_cases(doc):
    host = doc["host"]
    yield from stamp_cases()
    yield wrong_type("scene", 5)
    yield wrong_type("build")
    for f in ("revision", "dirty", "compiler", "build_type", "check"):
        yield f"drop build.{f}", drop(f"build.{f}")
    yield "build.dirty not bool", setv("build.dirty", "yes")
    yield wrong_type("sim")
    yield from counter_cases("sim", ("cycles", "rays_retired"))
    yield wrong_type("host")
    yield wrong_type("host.phases")
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
    yield "drop campaign_begin.jobs", drop("0.jobs")
    yield "drop campaign_begin.build", drop("0.build")
    yield from counter_cases(S, ("index", "attempt"))
    yield "drop tag", drop(S + ".tag")
    yield "job_retry without next_attempt", insert(event("job_retry"))
    yield "job_timeout without budget_s", insert(event("job_timeout"))
    yield "job_finish.ok not bool", setv(F + ".ok", 1)
    yield from counter_cases(F, ("attempts", "cycles"))
    yield from counter_cases("-1", ("done", "failed", "retried"))


def diff_cases(docs):
    d, p, m = "0.", "0.prof.", "0.memscope."
    yield from stamp_cases(d, keys=("run_key", "other_key"))
    yield "schema_version 3", setv(d + "schema_version", 3)
    yield "empty other_key.scene", setv(d + "other_key.scene", "")
    yield "drop build", drop(d + "build")
    yield "build without revision", setv(d + "build", {})
    yield "drop attribution", drop(d + "attribution")
    yield "cycles delta != other - base", bump(d + "cycles.delta")
    yield "cycles.base not an integer", setv(d + "cycles.base", "1")
    yield wrong_type(d + "speedup")
    yield wrong_type(d + "bandwidth")
    yield "l2_bytes delta", bump(d + "bandwidth.l2_bytes.delta")
    yield "drop dram_bytes", drop(d + "bandwidth.dram_bytes")
    yield wrong_type(d + "prof")
    yield "resident delta", bump(p + "resident_cycles.delta")
    yield "drop rt_stall_cycles", drop(p + "rt_stall_cycles")
    yield "bucket without name", drop(p + "buckets.0.name")
    yield wrong_type(d + "memscope")
    yield "node_accesses delta", bump(m + "node_accesses.delta")
    yield "drop node_bytes", drop(m + "node_bytes")
    yield wrong_type(m + "levels")
    yield "level delta", bump(m + "levels.l1.delta")
    yield wrong_type(m + "depths")
    yield "depth accesses delta", bump(m + "depths.0.accesses.delta")
    yield "drop depth l2", drop(m + "depths.0.l2")
    yield "no documents", lambda d: d.clear()


def query_cases(doc):
    q = "query."
    yield from stamp_cases()
    yield wrong_type("scene", 5)
    yield from counter_cases("", ("resolution", "cycles"))
    yield wrong_type("query")
    yield "unknown workload", setv(q + "workload", "bogus")
    yield from counter_cases("query", ("queries", "rounds", "found"))
    yield "checksum not hex", setv(q + "checksum", "0xZZ")
    yield wrong_type(q + "checksum", 5)
    yield wrong_type(q + "oracle")
    yield from counter_cases("query.oracle", ("checked", "mismatches"))
    yield "drop oracle matches", drop(q + "oracle.matches")


def query_lines_cases(lines):
    yield "job not ok", setv("0.ok", False)
    yield "line checksum not hex", setv("0.outcome.query.checksum",
                                        "0xZZ")
    yield "no lines", lambda d: d.clear()


def finish_cycles(lines):
    yield "job_finish cycles differ", lambda d: next(
        l for l in d if l["ev"] == "job_finish").update(cycles=0)
    yield "event line missing", drop("1")


def respaced(lines):
    yield "whitespace differs", setv("0", lines[0].replace(":", ": ", 1))


def prof_cases(doc):
    yield "drop scene", drop("scene")
    yield from counter_cases("", ("resident_cycles",))
    yield wrong_type("buckets")
    yield "negative bucket", setv("buckets.issue_compute", -1)


def trace_cases(doc):
    yield wrong_type("traceEvents")
    yield "event without ph", drop("traceEvents.0.ph")


def column_cases(columns):
    for col in columns:
        yield f"no {col} column", lambda rows, col=col: rows[1].__setitem__(
            rows[1].index(col), col + "_x")


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
    ("memscope-folded", "ms.folded", "folded", lambda _: (), (), ()),
    ("telemetry", "tel.json", "json", telemetry_cases, (), ()),
    ("telemetry-log", "ev1.jsonl", "jsonl", telemetry_log_cases, (),
     ()),
    ("diff", "pair.ndjson", "jsonl", diff_cases, (), ()),
    ("query", "knn.json", "json", query_cases, (), ()),
    ("query", "knn.jsonl", "jsonl", query_lines_cases, (), ()),
    ("prof", "prof.json", "json", prof_cases, (), ("prof.folded",)),
    ("trace", "trace.json", "json", trace_cases, (), ()),
    ("memscope-metrics", "metrics.csv", "csv",
     lambda _: column_cases(("memscope.gpu.node_accesses",
                             "memscope.mem.line_l1")), (), ()),
    # --identical: the pristine pair (two worker counts, or a copy)
    # agrees; every deterministic difference is rejected.
    ("--identical", "ev2.jsonl", "jsonl", finish_cycles, ("ev1.jsonl",),
     ()),
    ("--identical", "tel2/wknd_base.telemetry.json", "json",
     lambda _: [("sink cycles differ", setv("sim.cycles", 0))],
     ("tel1/wknd_base.telemetry.json",), ()),
    ("--identical", "mem2/wknd_base.memscope.json", "text", respaced,
     ("mem1/wknd_base.memscope.json",), ()),
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
    run(diff, "--quiet", "--json", "pair.ndjson", "base.json",
        "coop.json")
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
            "--memscope-dir", f"mem{jobs}")


def unreadable_cases(h: Harness, tmp: Path) -> None:
    junk = tmp / "junk.txt"
    junk.write_text("not json {\n")
    for kind in ("raystats", "memscope", "telemetry", "telemetry-log",
                 "diff", "query", "trace"):
        h.expect(f"{kind}: non-JSON input", [kind, junk], 1)
    h.expect("prof: non-JSON input", ["prof", junk, tmp / "prof.folded"],
             1)
    h.expect("prof: malformed folded line",
             ["prof", tmp / "prof.json", junk], 1)
    h.expect("memscope-folded: malformed folded line",
             ["memscope-folded", junk], 1)
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

#: Smoke-level checks, each broken by a wrapper around one CLI:
#: (label, smoke, CLI slot, code run before, code run after).
SMOKE_CASES = (
    ("simulate_cli exit status", "trace", 0, "",
     "rc = 1 if '--profile' in args else rc"),
    ("empty --markdown identity report", "diff", 2, "",
     "if '--markdown' in args: "
     "open(args[args.index('--markdown') + 1], 'w').close()"),
    ("knn defaults to another scene", "query", 0,
     "if args[:2] == ['--shader', 'knn']: args += ['--scene', 'ptsc']",
     ""),
    ("--jobs 4 telemetry sinks differ", "telemetry", 1, "",
     "if jobs4: p = sorted(pathlib.Path("
     "args[args.index('--telemetry-dir') + 1]).glob('*.json'))[0]; "
     "p.write_text(p.read_text().replace('\"cycles\":', "
     "'\"cycles\":1', 1))"),
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
