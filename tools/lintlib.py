"""Shared scaffolding for the repository's Python lint tools
(``cooprt_lint`` and its self-test).

Every tool follows the same contract, enforced here once:

  - usage errors exit 2;
  - a failed check prints ``<tool>: FAIL`` (plus the problems) and
    exits 1;
  - success prints one ``<tool>: OK (...)`` summary line and exits 0.

Usage::

    import lintlib
    tool = lintlib.Tool("test_foo")
    ...
    return tool.report(problems, ok=f"{n} cases passed")
"""

from __future__ import annotations

from pathlib import Path

#: Repository root (tools/ lives directly under it).
REPO = Path(__file__).resolve().parent.parent

#: Conventional exit codes shared by every tool.
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class Tool:
    """One lint tool's reporting surface."""

    def __init__(self, name: str):
        self.name = name

    def report(self, problems: list[str], ok: str) -> int:
        """Print the verdict and return the exit code.

        A non-empty ``problems`` list prints ``<tool>: FAIL`` with
        one indented line per problem and returns 1; otherwise prints
        ``<tool>: OK (<ok>)`` and returns 0.
        """
        if problems:
            print(f"{self.name}: FAIL")
            for p in problems:
                print("  -", p)
            return EXIT_FAIL
        print(f"{self.name}: OK ({ok})")
        return EXIT_OK
