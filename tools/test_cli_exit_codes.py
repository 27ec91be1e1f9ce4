#!/usr/bin/env python3
"""Exit-code contract for the repository's command-line tools.

Every user-facing binary must reject bad input the same way: a
diagnostic on *stderr* and a non-zero exit status (2, the
conventional usage-error code), never a silent success or a crash.
Successful informational paths (``--list-configs``) must exit 0.

Registered as a ctest case; the binary paths arrive on argv:

    test_cli_exit_codes.py SIMULATE_CLI CAMPAIGN_CLI BENCH_BIN DIFF_CLI
"""

from __future__ import annotations

import json
import os
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
        # but with mismatched run keys -> exit 2.
        reports = {}
        for scene in ("wknd", "fox"):
            p = run([simulate, "--scene", scene,
                     "--resolution", "16", "--json"])
            if p.returncode != 0:
                FAILURES.append(
                    f"{simulate} --scene {scene} --json: exit "
                    f"{p.returncode}")
                break
            path = os.path.join(tmp, f"{scene}.json")
            with open(path, "w") as f:
                f.write(p.stdout)
            reports[scene] = path
        else:
            expect([diff_cli, reports["wknd"], reports["fox"]], 2,
                   "mismatch")
            # Matching keys diff cleanly (identity pair, exit 0).
            expect([diff_cli, reports["wknd"], reports["wknd"]], 0)
            # A file cannot be diffed against a directory.
            expect([diff_cli, reports["wknd"], tmp], 2)
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
