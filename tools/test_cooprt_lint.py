#!/usr/bin/env python3
"""Self-test for tools/cooprt_lint.

Five layers:

  1. fixture goldens  — every fixtures/<rule>/ mini-repo must lint
     to exactly its expected.keys (stable finding keys);
  2. gate exit codes  — violations fail (1), bad usage is 2, the
     --keys/--list-rules modes are 0;
  3. HEAD is clean    — the real repo lints clean against the
     checked-in baseline (which is empty: every real finding was
     fixed or carries an inline allow() with a reason), and every
     file the project-table rules name exists, so none of their rows
     is skipped as absent;
  4. lint mutation    — seed a fresh violation into a copy of a
     fixture and prove the baseline gate catches it, that baselined
     findings stay quiet, that baseline keys are line-independent,
     and that removing a baselined finding reports it as stale.

Run:  python3 tools/test_cooprt_lint.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lintlib  # noqa: E402

TOOLS = Path(__file__).resolve().parent
LINT = TOOLS / "cooprt_lint"
FIXTURES = LINT / "fixtures"

tool = lintlib.Tool("test_cooprt_lint")
problems: list[str] = []

_SEED = """
void
seededViolation(std::ostream &os)
{
    std::unordered_map<int, int> seeded_table;
    for (const auto &kv : seeded_table)
        os << kv.first;
}
"""


def run_lint(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LINT)] + args,
                          capture_output=True, text=True)


def check(cond: bool, msg: str) -> None:
    if not cond:
        problems.append(msg)


def test_fixture_goldens() -> int:
    n = 0
    for d in sorted(FIXTURES.iterdir()):
        golden = d / "expected.keys"
        if not golden.exists():
            continue
        n += 1
        r = run_lint(["--repo", str(d), "--no-baseline", "--keys"])
        check(r.returncode == 0,
              f"{d.name}: --keys exited {r.returncode}")
        want = golden.read_text(encoding="utf-8")
        check(r.stdout == want,
              f"{d.name}: key mismatch\n--- got ---\n{r.stdout}"
              f"--- want ---\n{want}")
    check(n >= 9, f"only {n} fixture goldens found, expected >= 9")
    return n


def test_gate_exit_codes() -> None:
    d = FIXTURES / "nondeterministic_iteration"
    r = run_lint(["--repo", str(d), "--no-baseline"])
    check(r.returncode == 1,
          f"violations must exit 1, got {r.returncode}")
    check("FAIL" in r.stdout, "gate failure must print FAIL")

    r = run_lint(["--rules", "bogus-rule"])
    check(r.returncode == 2,
          f"unknown rule must exit 2, got {r.returncode}")

    r = run_lint(["--list-rules"])
    check(r.returncode == 0 and "audit-coverage" in r.stdout,
          "--list-rules must list the rule catalogue")


def test_head_clean() -> None:
    r = run_lint([])
    check(r.returncode == 0,
          f"HEAD must lint clean against the baseline:\n{r.stdout}")
    sys.path.insert(0, str(LINT))
    from rules import registry_authority, stats_registered
    tables = [f for row in stats_registered.STATS for f in row[1:3]]
    tables += [*registry_authority._REQUIRED,
               registry_authority._BUCKET_ENUM,
               registry_authority._BUCKET_TABLE]
    for rel in tables:
        check((lintlib.REPO / rel).is_file(),
              f"{rel}: named by a lint table but missing at HEAD")


def test_lint_mutation() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmpd = Path(tmp) / "fx"
        shutil.copytree(FIXTURES / "nondeterministic_iteration",
                        tmpd)
        bl = Path(tmp) / "baseline.json"
        case = tmpd / "src" / "case.cpp"

        r = run_lint(["--repo", str(tmpd), "--baseline", str(bl),
                      "--update-baseline"])
        check(r.returncode == 0, "--update-baseline must exit 0")

        r = run_lint(["--repo", str(tmpd), "--baseline", str(bl)])
        check(r.returncode == 0,
              f"baselined findings must pass the gate:\n{r.stdout}")

        # Baseline keys are line-independent: shifting every finding
        # down must not resurrect anything.
        case.write_text("// shifted\n// shifted\n"
                        + case.read_text(encoding="utf-8"),
                        encoding="utf-8")
        r = run_lint(["--repo", str(tmpd), "--baseline", str(bl)])
        check(r.returncode == 0,
              f"line shifts must not resurrect baselined findings:"
              f"\n{r.stdout}")

        # Seeded violation: a brand-new finding must fail the gate.
        case.write_text(case.read_text(encoding="utf-8") + _SEED,
                        encoding="utf-8")
        r = run_lint(["--repo", str(tmpd), "--baseline", str(bl)])
        check(r.returncode == 1,
              f"seeded violation must fail the gate:\n{r.stdout}")
        check("seeded_table" in r.stdout,
              "gate output must name the seeded container")
        check("1 new" in r.stdout,
              f"exactly the seeded finding must be new:\n{r.stdout}")

        # Stale detection: baseline the seed, remove it again.
        r = run_lint(["--repo", str(tmpd), "--baseline", str(bl),
                      "--update-baseline"])
        check(r.returncode == 0, "re-baselining must exit 0")
        text = case.read_text(encoding="utf-8")
        case.write_text(text.replace(_SEED, ""), encoding="utf-8")
        r = run_lint(["--repo", str(tmpd), "--baseline", str(bl)])
        check(r.returncode == 0 and "stale" in r.stdout,
              f"removed finding must be reported stale:\n{r.stdout}")


def main() -> int:
    n = test_fixture_goldens()
    test_gate_exit_codes()
    test_head_clean()
    test_lint_mutation()
    return tool.report(
        problems,
        ok=f"{n} fixture goldens, gate exit codes, clean HEAD, "
           f"mutation/baseline mechanics")


if __name__ == "__main__":
    sys.exit(main())
