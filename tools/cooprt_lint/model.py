"""Finding / rule / project model shared by the frontend and rules."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from source import SourceFile, Span


@dataclass
class Finding:
    """One rule violation.

    The baseline keys findings by (path, rule, what) — *not* by line
    — so unrelated edits above a baselined finding do not resurrect
    it. ``what`` must therefore be a stable, identifier-grade label
    ("loop over 'outstanding_' -> operator<<"), never free prose with
    positions in it.
    """
    rule: str
    rel: str          # repo-relative posix path
    line: int         # 1-based
    what: str         # stable label, baseline key component
    message: str      # human-readable explanation

    def key(self) -> str:
        return f"{self.rel}::{self.rule}::{self.what}"

    def render(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Loop:
    """One for-loop with a resolved body span."""
    line: int
    header: str          # text between the for(...) parens
    iterated: str        # range-for sequence expression ('' if not)
    body: Span           # byte span of the body in SourceFile views
    over_unordered: bool = False


@dataclass
class FileFacts:
    """Frontend-produced facts for one file; rules see only these,
    never the scanner's own state."""
    src: SourceFile
    unordered_vars: set[str] = field(default_factory=set)
    float_vars: set[str] = field(default_factory=set)
    clock_aliases: set[str] = field(default_factory=set)
    loops: list[Loop] = field(default_factory=list)
    audit_spans: list[Span] = field(default_factory=list)

    @property
    def rel(self) -> str:
        return self.src.rel


class Project:
    """All analyzed files plus repo-level context for project rules."""

    def __init__(self, root: Path, files: list[FileFacts]):
        self.root = root
        self.files = files
        #: Union of container/float names across files: member types
        #: are declared in headers but iterated in the matching .cpp.
        self.unordered_names: set[str] = set()
        self.float_names: set[str] = set()
        for f in files:
            self.unordered_names |= f.unordered_vars
            self.float_names |= f.float_vars

    def design_md(self) -> str:
        p = self.root / "DESIGN.md"
        return p.read_text(encoding="utf-8") if p.exists() else ""


class Rule:
    """Base class. Subclasses set ``id``/``description``/``roots``
    and override one or both check hooks, calling ``add(...)`` per
    violation."""

    id = "base"
    description = ""
    #: Top-level directories this rule applies to (repo-relative).
    roots: tuple[str, ...] = ("src", "bench", "examples", "tests")

    def applies_to(self, rel: str) -> bool:
        return any(rel == r or rel.startswith(r + "/")
                   for r in self.roots)

    def check_file(self, facts: FileFacts, add) -> None:
        pass

    def check_project(self, project: Project, add) -> None:
        pass


def last_identifier(expr: str) -> str:
    """Final identifier of an lvalue/member chain: 's.where' ->
    'where', 'u->nodes' -> 'nodes', 'queues[i].q' -> 'q'."""
    ids = re.findall(r"[A-Za-z_]\w*", expr)
    return ids[-1] if ids else ""
