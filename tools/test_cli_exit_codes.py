#!/usr/bin/env python3
"""Exit-code contract for the repository's command-line tools.

Every user-facing binary must reject bad input the same way: a
diagnostic on *stderr* and a non-zero exit status (2, the
conventional usage-error code), never a silent success or a crash.
Success paths (``--list-configs``, ``diff_cli``'s N-way and
directory diffs and its markdown export, ``campaign_cli
--diff-baseline`` with its counters, each query shader's default
scene, the per-job memscope and telemetry sinks) must exit 0.

Registered as a ctest case; the binary paths arrive on argv:

    test_cli_exit_codes.py SIMULATE_CLI CAMPAIGN_CLI BENCH_BIN DIFF_CLI
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile


def run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True,
                          timeout=120)


FAILURES: list[str] = []


def expect(argv: list[str], code: int, on_stderr: str = "") -> None:
    p = run(argv)
    label = " ".join(argv[1:]) or "(no args)"
    if p.returncode != code:
        FAILURES.append(
            f"{argv[0]} {label}: exit {p.returncode}, want {code}\n"
            f"    stderr: {p.stderr.strip()[:200]}")
        return
    if code != 0 and not p.stderr.strip():
        FAILURES.append(
            f"{argv[0]} {label}: failed silently (empty stderr)")
    if on_stderr and on_stderr not in p.stderr:
        FAILURES.append(
            f"{argv[0]} {label}: stderr {p.stderr.strip()[:200]!r} "
            f"does not mention {on_stderr!r}")


def run_key(path: str) -> dict:
    with open(path) as f:
        return json.load(f)["run_key"]


def expect_diff_lines(diff_cli: str, inputs: list[str],
                      pairs: list[tuple[str, str]]) -> None:
    """``diff_cli --json - INPUTS`` exits 0 with one JSON line per
    (base report, other report) in @p pairs, in order, each carrying
    the two reports' run keys."""
    argv = [diff_cli, "--json", "-", *inputs]
    label = " ".join(argv[1:])
    p = run(argv)
    if p.returncode != 0:
        FAILURES.append(f"{label}: exit {p.returncode}\n    stderr: "
                        f"{p.stderr.strip()[:200]}")
        return
    lines = p.stdout.splitlines()
    if len(lines) != len(pairs):
        FAILURES.append(f"{label}: {len(lines)} lines, want "
                        f"{len(pairs)}")
        return
    for i, (line, (base, other)) in enumerate(zip(lines, pairs), 1):
        doc = json.loads(line)
        if doc["run_key"] != run_key(base) or \
                doc["other_key"] != run_key(other):
            FAILURES.append(f"{label}: line {i} keys {doc['run_key']} "
                            f"vs {doc['other_key']}, want those of "
                            f"{base} and {other}")


def expect_diff_counts(campaign: str, baseline: str, tmp: str,
                       comparisons: int, mismatches: int) -> None:
    """``campaign_cli --diff-baseline BASELINE`` over the wknd,fox x
    base,coop matrix at 16x16 exits 0, prints @p comparisons and
    @p mismatches as its two ``diff.*`` stderr counters, and writes
    one diff line per comparison."""
    out = os.path.join(tmp, "counts.ndjson")
    argv = [campaign, "--scenes", "wknd,fox", "--configs", "base,coop",
            "--resolution", "16", "--diff-baseline", baseline,
            "--diff-out", out]
    label = f"{campaign} --diff-baseline {baseline}"
    p = run(argv)
    if p.returncode != 0:
        FAILURES.append(f"{label}: exit {p.returncode}\n    stderr: "
                        f"{p.stderr.strip()[:200]}")
        return
    for line in (f"[campaign] diff.comparisons = {comparisons}",
                 f"[campaign] diff.key_mismatches = {mismatches}"):
        if line not in p.stderr.splitlines():
            FAILURES.append(f"{label}: stderr lacks {line!r}")
    with open(out) as f:
        lines = f.read().splitlines()
    if len(lines) != comparisons:
        FAILURES.append(f"{label}: {len(lines)} diff lines, want "
                        f"{comparisons}")


def expect_json_files(label: str, directory: str, suffix: str,
                      count: int) -> None:
    """@p directory holds @p count ``*SUFFIX`` files, each one
    parseable JSON document."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(suffix))
    if len(names) != count:
        FAILURES.append(f"{label}: {len(names)} *{suffix} files, want "
                        f"{count}")
    for name in names:
        try:
            with open(os.path.join(directory, name)) as f:
                json.load(f)
        except json.JSONDecodeError as e:
            FAILURES.append(f"{label}: {name} is not JSON ({e})")


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    simulate, campaign, bench, diff_cli = argv[1:]

    # simulate_cli: every malformed invocation is a usage error.
    expect([simulate, "--no-such-flag"], 2, "unknown flag")
    expect([simulate, "--scene", "not-a-scene"], 2, "unknown scene")
    expect([simulate, "--shader", "bogus"], 2, "unknown shader")
    expect([simulate, "--ray-sample-k", "0"], 2, "--ray-sample-k")
    expect([simulate, "--telemetry-out"], 2, "--telemetry-out")
    expect([simulate, "--heartbeat-s"], 2, "--heartbeat-s")
    expect([simulate, "--heartbeat-s", "0"], 2, "--heartbeat-s")
    expect([simulate, "--heartbeat-s", "-1"], 2, "--heartbeat-s")
    # Numeric flags parse the whole token and range-check it.
    expect([simulate, "--trace", os.devnull, "--trace-capacity", "abc"],
           2, "--trace-capacity")
    expect([simulate, "--resolution", "abc"], 2, "--resolution")
    expect([simulate, "--resolution", "-4"], 2, "--resolution")
    expect([simulate, "--resolution", "32px"], 2, "--resolution")
    expect([simulate, "--subwarp", "64"], 2, "--subwarp")
    expect([simulate, "--query-radius", "nan"], 2, "--query-radius")
    expect([simulate, "--heartbeat-s", "1e999"], 2, "--heartbeat-s")

    # campaign_cli: flag errors exit 2; --list-configs is a success.
    expect([campaign, "--no-such-flag"], 2)
    expect([campaign, "--configs", "no-such-config"], 2)
    expect([campaign, "--jobs"], 2)
    expect([campaign, "--ray-sample-k", "0"], 2)
    expect([campaign, "--telemetry-log"], 2, "--telemetry-log")
    expect([campaign, "--heartbeat-s", "0"], 2, "--heartbeat-s")
    expect([campaign, "--heartbeat-s", "-0.5"], 2, "--heartbeat-s")
    expect([campaign, "--prom-out", "x"], 2, "--prom-out")
    expect([campaign, "--resolution", "abc"], 2, "--resolution")
    expect([campaign, "--jobs", "two"], 2, "--jobs")
    expect([campaign, "--retries", "-1"], 2, "--retries")
    expect([campaign, "--timeout-s", "5s"], 2, "--timeout-s")
    expect([campaign, "--list-configs"], 0)

    # `--json-out -` contract: stdout is *pure* JSON lines (human
    # output goes to stderr), so piping into jq etc. always works.
    p = run([campaign, "--scenes", "wknd", "--configs", "base",
             "--resolution", "16", "--json-out", "-"])
    if p.returncode != 0:
        FAILURES.append(f"{campaign} --json-out -: exit "
                        f"{p.returncode}\n    stderr: "
                        f"{p.stderr.strip()[:200]}")
    else:
        lines = p.stdout.splitlines()
        if not lines:
            FAILURES.append(f"{campaign} --json-out -: empty stdout")
        for i, line in enumerate(lines, 1):
            try:
                json.loads(line)
            except json.JSONDecodeError:
                FAILURES.append(
                    f"{campaign} --json-out -: stdout line {i} is "
                    f"not JSON: {line[:120]!r}")
                break

    # The heartbeat beats on stderr: `--json` stdout stays one
    # parseable JSON document. The run (~50 ms) spans several beats.
    p = run([simulate, "--scene", "wknd", "--resolution", "64",
             "--heartbeat-s", "0.01", "--json"])
    if p.returncode != 0:
        FAILURES.append(f"{simulate} --heartbeat-s 0.01 --json: exit "
                        f"{p.returncode}\n    stderr: "
                        f"{p.stderr.strip()[:200]}")
    else:
        try:
            json.loads(p.stdout)
        except json.JSONDecodeError as e:
            FAILURES.append(f"{simulate} --heartbeat-s 0.01 --json: "
                            f"stdout is not one JSON document ({e})")
        if "[telemetry] wknd cycle" not in p.stderr:
            FAILURES.append(f"{simulate} --heartbeat-s 0.01 --json: "
                            f"no heartbeat line on stderr")

    # --mobile swaps the GPU but keeps the traversal flags, in
    # either order; a dropped --coop would show as baseline cycles.
    cycles = {}
    for flags in (("--coop", "--mobile"), ("--mobile", "--coop"),
                  ("--mobile",)):
        p = run([simulate, "--scene", "wknd", "--resolution", "16",
                 *flags, "--json"])
        if p.returncode != 0:
            FAILURES.append(f"{simulate} {' '.join(flags)}: exit "
                            f"{p.returncode}")
            break
        cycles[flags] = json.loads(p.stdout)["cycles"]
    else:
        coop_mobile, mobile_coop, mobile = cycles.values()
        if coop_mobile != mobile_coop or coop_mobile == mobile:
            FAILURES.append(
                f"{simulate} wknd cycles: --coop --mobile "
                f"{coop_mobile}, --mobile --coop {mobile_coop}, "
                f"--mobile {mobile} (want the first two equal and "
                f"unlike the third)")

    # Each query shader defaults to a scene of its kind, and the
    # report names the shader as its workload.
    for shader, scene in (("knn", "ptsu"), ("radius", "ptsu"),
                          ("contain", "amrs")):
        p = run([simulate, "--shader", shader, "--resolution", "8",
                 "--json"])
        doc = json.loads(p.stdout) if p.returncode == 0 else {}
        if (doc.get("scene"), doc.get("query", {}).get("workload")) != \
                (scene, shader):
            FAILURES.append(f"{simulate} --shader {shader}: exit "
                            f"{p.returncode}, scene {doc.get('scene')!r}"
                            f", want {scene!r} running {shader!r}")

    # bench binaries share bench_util's strict parser.
    expect([bench, "--no-such-flag"], 2, "unknown flag")
    expect([bench, "--scenes"], 2, "needs a value")
    expect([bench, "--scenes", "not-a-scene"], 2, "unknown scene")
    expect([bench, "--scenes", "wknd", "--jobs", "-3"], 2, "--jobs")
    expect([bench, "--scenes", "wknd", "--jobs", "abc"], 2, "--jobs")

    # --version is a success path everywhere it exists.
    for binary in (simulate, campaign, diff_cli):
        p = run([binary, "--version"])
        if p.returncode != 0 or "revision" not in p.stdout:
            FAILURES.append(
                f"{binary} --version: exit {p.returncode}, "
                f"stdout {p.stdout.strip()[:120]!r}")

    # diff_cli: the exit-2 contract separates "not comparable" from
    # "regressed" for scripted gates (DESIGN.md section 18).
    expect([diff_cli], 2)
    expect([diff_cli, "--no-such-flag", "a", "b"], 2, "unknown flag")
    expect([diff_cli, "/does/not/exist.json",
            "/does/not/exist2.json"], 2, "no such input")
    with tempfile.TemporaryDirectory() as tmp:
        # Two reports from different scenes: parseable, stamped,
        # but with mismatched run keys -> exit 2. The wknd variants
        # share a run key and differ in their fingerprints.
        reports = {}
        for name, flags in (("wknd", ["--scene", "wknd"]),
                            ("fox", ["--scene", "fox"]),
                            ("wknd-coop", ["--scene", "wknd", "--coop"]),
                            ("wknd-sw8", ["--scene", "wknd", "--coop",
                                          "--subwarp", "8"])):
            p = run([simulate, *flags, "--resolution", "16", "--json"])
            if p.returncode != 0:
                FAILURES.append(
                    f"{simulate} {' '.join(flags)} --json: exit "
                    f"{p.returncode}")
                break
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as f:
                f.write(p.stdout)
            reports[name] = path
        else:
            expect([diff_cli, reports["wknd"], reports["fox"]], 2,
                   "mismatch")
            # Matching keys diff cleanly (identity pair, exit 0), and
            # the markdown export of that diff is written.
            expect([diff_cli, reports["wknd"], reports["wknd"]], 0)
            md = os.path.join(tmp, "identity.md")
            expect([diff_cli, "--quiet", "--markdown", md,
                    reports["wknd"], reports["wknd"]], 0)
            if not os.path.isfile(md) or os.path.getsize(md) == 0:
                FAILURES.append(f"{diff_cli} --markdown: empty {md}")
            # A file cannot be diffed against a directory.
            expect([diff_cli, reports["wknd"], tmp], 2)
            # A report with a raw newline inside a string is not JSON:
            # an input error, even against itself.
            broken = os.path.join(tmp, "raw-newline.json")
            with open(reports["wknd"]) as f:
                text = f.read().replace('"wknd"', '"wk\nnd"')
            with open(broken, "w") as f:
                f.write(text)
            expect([diff_cli, broken, broken], 2, "raw control character")
            # N-way: every later input diffs against the first.
            expect_diff_lines(
                diff_cli, [reports[n] for n in
                           ("wknd", "wknd-coop", "wknd-sw8")],
                [(reports["wknd"], reports[n])
                 for n in ("wknd-coop", "wknd-sw8")])

        # Directory mode pairs two --report-dir campaigns' reports
        # by file name, in sorted name order.
        dirs = []
        for run_name in ("run1", "run2"):
            d = os.path.join(tmp, run_name)
            p = run([campaign, "--scenes", "wknd,fox", "--configs",
                     "base,coop", "--resolution", "16",
                     "--report-dir", d])
            if p.returncode != 0:
                FAILURES.append(f"{campaign} --report-dir {d}: exit "
                                f"{p.returncode}")
                break
            dirs.append(d)
        else:
            names = sorted(os.listdir(dirs[0]))
            expect_diff_lines(
                diff_cli, dirs,
                [(os.path.join(dirs[0], n), os.path.join(dirs[1], n))
                 for n in names])
            # campaign_cli --diff-baseline counts its comparisons and
            # key mismatches on stderr: all four jobs against their
            # own reports, then with wknd_base's baseline replaced by
            # fox_base's report (same file name, another run key).
            expect_diff_counts(campaign, dirs[0], tmp, len(names), 0)
            swapped = os.path.join(tmp, "swapped")
            shutil.copytree(dirs[0], swapped)
            shutil.copy(os.path.join(dirs[0], "fox_base.report.json"),
                        os.path.join(swapped, "wknd_base.report.json"))
            expect_diff_counts(campaign, swapped, tmp, len(names) - 1,
                               1)
        # The per-job sinks: one parseable file per job in each
        # directory, one parseable event-log line per event.
        sinks = {flag: os.path.join(tmp, flag.strip("-"))
                 for flag in ("--memscope-dir", "--telemetry-dir",
                              "--telemetry-log")}
        p = run([campaign, "--scenes", "wknd,ship", "--configs",
                 "base,coop", "--resolution", "16", "--jobs", "2",
                 *(a for item in sinks.items() for a in item)])
        if p.returncode != 0:
            FAILURES.append(f"{campaign} per-job sinks: exit "
                            f"{p.returncode}\n    stderr: "
                            f"{p.stderr.strip()[:200]}")
        else:
            label = f"{campaign} per-job sinks"
            for flag, suffix in (("--memscope-dir", ".memscope.json"),
                                 ("--telemetry-dir", ".telemetry.json")):
                expect_json_files(label, sinks[flag], suffix, 4)
            with open(sinks["--telemetry-log"]) as f:
                events = [json.loads(line) for line in f]
            finished = sum(e["ev"] == "job_finish" for e in events)
            if finished != 4:
                FAILURES.append(f"{label}: {finished} job_finish "
                                f"events, want 4")

        # Empty/missing baseline directories are usage errors.
        empty = os.path.join(tmp, "empty")
        os.mkdir(empty)
        other = os.path.join(tmp, "other")
        os.mkdir(other)
        expect([diff_cli, empty, other], 2, "no *.json")

        # campaign_cli --diff-baseline contract: needs --diff-out,
        # and the baseline must be an existing directory.
        expect([campaign, "--diff-baseline", empty], 2, "--diff-out")
        expect([campaign, "--diff-baseline",
                os.path.join(tmp, "missing"), "--diff-out",
                os.path.join(tmp, "d.ndjson")], 2,
               "not a directory")

        # A sink directory under a regular file cannot be created:
        # a usage error naming the directory, before any job runs.
        blocker = os.path.join(tmp, "regular-file")
        with open(blocker, "w") as f:
            f.write("not a directory\n")
        bad_dir = os.path.join(blocker, "sub")
        for flag in ("--metrics-dir", "--profile-dir", "--ray-dir",
                     "--memscope-dir", "--telemetry-dir",
                     "--report-dir"):
            expect([campaign, "--scenes", "wknd", "--configs", "base",
                    "--resolution", "8", flag, bad_dir], 2, bad_dir)

    if FAILURES:
        print("test_cli_exit_codes: FAIL")
        for f in FAILURES:
            print("  -", f)
        return 1
    print("test_cli_exit_codes: OK (diagnostics on stderr, "
          "non-zero exits on bad input)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
