"""Rule: registry-authority.

The trace registry is the single authority for metric names: every
tool downstream (report tables, sink validators, campaign manifests)
resolves names against it. Two registrations of the same
literal name shadow each other silently (last wins), and a metric
that exists in code but not in DESIGN.md cannot be reviewed against
the paper's figure list.

Only *literal dotted* names passed straight to ``probe`` (``probe(
"query.queries", ...)``) are checked; computed names (``prefix +
".hits"``, or a local ``add("trace_latency.count", ...)`` helper that
prepends a per-unit prefix) follow their prefix family's wildcard
entry (``rtunit.*``) and are validated at runtime by the registry's
own collision audit.

Some metric families additionally have a single *owning file* (the
DESIGN.md authority tables): a ``prof.*`` probe registered outside
``src/prof/prof.cpp`` would fork the taxonomy, so any literal
registration of an owned family outside its home file is a finding.
Families whose names are legitimately registered from several files
(``mem.*``, ``rtunit.*``) are not in the map.

For the observer families (prof, memscope, telemetry, query) the
authority file must also keep registering its required probes and
computed families, and every literal name needs its *own* DESIGN.md
entry: the family wildcard does not count. The prof stall taxonomy
lives in three places that must agree entry by entry: the ``Bucket``
enum (prof.hpp), the ``kBucketNames`` table indexed by it (prof.cpp)
and the DESIGN.md taxonomy table.
"""

from __future__ import annotations

import re

from model import Project, Rule

_LITERAL_REG_RE = re.compile(r'\bprobe\s*\(\s*"([\w]+(?:\.[\w]+)+)"')

_WILDCARD_RE = re.compile(r"`([\w.]+)\.\*`")

#: Metric families with a single registration authority: literal
#: names under the prefix may only be registered from the owning
#: file (mirrors the DESIGN.md authority tables; in-repo paths).
_AUTHORITY_FILES = {
    "prof.": "src/prof/prof.cpp",
    "memscope.": "src/memscope/memscope.cpp",
    "telemetry.": "src/telemetry/telemetry.cpp",
    "query.": "src/query/query.cpp",
}

#: Families whose literal names must each be documented exactly.
_EXACT_DOC_FAMILIES = ("prof.", "memscope.", "telemetry.", "query.")

#: What each authority file must keep registering: exact literal
#: names, or (ending in '*') a prefix of computed names.
_REQUIRED = {
    "src/prof/prof.cpp": ("prof.sm*", "prof.gpu.*"),
    "src/memscope/memscope.cpp": (
        "memscope.gpu.node_accesses", "memscope.sm*", "memscope.gpu.*",
        "memscope.mem.*", "memscope.dram.*", "memscope.l1.*",
        "memscope.l2.*"),
    "src/telemetry/telemetry.cpp": (
        "telemetry.sim_cycle", "telemetry.rays_retired"),
    "src/query/query.cpp": ("query.queries", "query.rounds",
                            "query.found"),
}

#: Computed-name patterns DESIGN.md must document while their
#: authority file exists.
_DOCUMENTED_PATTERNS = {
    "src/memscope/memscope.cpp": (
        "memscope.sm<i>.node_accesses", "memscope.sm<i>.node_bytes",
        "memscope.gpu.level_<lvl>"),
}

_BUCKET_ENUM = "src/prof/prof.hpp"
_BUCKET_TABLE = "src/prof/prof.cpp"


class RegistryAuthority(Rule):
    id = "registry-authority"
    description = ("literal metric name registered twice or absent "
                   "from DESIGN.md")
    roots = ("src",)

    def check_project(self, project: Project, add) -> None:
        sites: dict[str, list[tuple[str, int]]] = {}
        for facts in project.files:
            if not self.applies_to(facts.rel):
                continue
            nc = facts.src.nc
            for m in _LITERAL_REG_RE.finditer(nc):
                sites.setdefault(m.group(1), []).append(
                    (facts.rel, facts.src.line_of(m.start())))

        design = project.design_md()
        wildcards = {w + "." for w in _WILDCARD_RE.findall(design)}

        for name in sorted(sites):
            where = sites[name]
            if len(where) > 1:
                first = f"{where[0][0]}:{where[0][1]}"
                for rel, line in where[1:]:
                    add(self.id, rel, line,
                        f"metric '{name}' registered more than once",
                        f"metric '{name}' is already registered at "
                        f"{first}; the registry is single-authority "
                        f"— rename or merge")
            for prefix, owner in _AUTHORITY_FILES.items():
                if not name.startswith(prefix):
                    continue
                for rel, line in where:
                    if rel != owner:
                        add(self.id, rel, line,
                            f"metric '{name}' registered outside "
                            f"its authority file",
                            f"the {prefix}* family is registered "
                            f"only from {owner} (DESIGN.md "
                            f"authority table); move the "
                            f"registration there or compute the "
                            f"name through that module's API")
            exact = name.startswith(_EXACT_DOC_FAMILIES)
            documented = (f"`{name}`" in design
                          or not exact and any(name.startswith(w)
                                               for w in wildcards))
            if not documented:
                rel, line = where[0]
                need = (f"its own `{name}` entry (the family "
                        f"wildcard does not count)" if exact
                        else f"a `{name}` (or wildcard family) entry")
                add(self.id, rel, line,
                    f"metric '{name}' not documented in DESIGN.md",
                    f"metric '{name}' is registered here but "
                    f"DESIGN.md lacks {need}; document it in the "
                    f"metric catalogue")

        by_rel = {f.rel: f.src for f in project.files}
        for owner, required in _REQUIRED.items():
            src = by_rel.get(owner)
            if src is None:
                continue
            for name in required:
                present = (f'"{name[:-1]}' in src.nc
                           if name.endswith("*") else
                           any(rel == owner
                               for rel, _ in sites.get(name, ())))
                if not present:
                    add(self.id, owner, 1,
                        f"required probe '{name}' not registered",
                        f"{owner} no longer registers '{name}'; the "
                        f"sinks and DESIGN.md tables depend on it")
        for owner, patterns in _DOCUMENTED_PATTERNS.items():
            for pattern in patterns:
                if owner in by_rel and f"`{pattern}`" not in design:
                    add(self.id, owner, 1,
                        f"pattern '{pattern}' not documented in "
                        f"DESIGN.md",
                        f"computed probe pattern `{pattern}` has no "
                        f"DESIGN.md entry; document it in the probe "
                        f"table")
        if _BUCKET_ENUM in by_rel and _BUCKET_TABLE in by_rel:
            self._check_buckets(by_rel, design, add)

    def _check_buckets(self, by_rel, design: str, add) -> None:
        """Bucket enum <-> kBucketNames <-> DESIGN.md taxonomy."""
        hpp, cpp = by_rel[_BUCKET_ENUM], by_rel[_BUCKET_TABLE]
        e = re.search(r"enum\s+class\s+Bucket\b[^{]*\{(.*?)\};",
                      hpp.code, re.DOTALL)
        t = re.search(r"kBucketNames\s*=\s*\{(.*?)\};", cpp.nc,
                      re.DOTALL)
        if e is None or t is None:
            add(self.id, _BUCKET_ENUM, 1,
                "prof taxonomy not found",
                "the Bucket enum or the kBucketNames table is gone; "
                "update registry-authority")
            return
        members = re.findall(r"(\w+)\s*(?:=\s*\d+)?\s*[,}]",
                             e.group(1) + "}")
        names = re.findall(r'"([^"]+)"', t.group(1))
        line = cpp.line_of(t.start())
        if len(members) != len(names):
            add(self.id, _BUCKET_TABLE, line,
                "kBucketNames size drifted from the Bucket enum",
                f"{len(members)} Bucket members but {len(names)} "
                f"kBucketNames entries")
        for i, (member, name) in enumerate(zip(members, names)):
            # The table is indexed by the enum: IssueCompute must be
            # named issue_compute, once, in snake_case.
            if (member.lower() != name.replace("_", "")
                    or name in names[:i]
                    or not re.fullmatch(r"[a-z][a-z0-9_]*", name)):
                add(self.id, _BUCKET_TABLE, line,
                    f"kBucketNames[{i}] does not name Bucket::{member}",
                    f"kBucketNames[{i}] = '{name}' but enum member {i} "
                    f"is {member}: the table must hold each member's "
                    f"unique snake_case name, in enum order")
            if f"`{name}`" not in design:
                add(self.id, _BUCKET_TABLE, line,
                    f"bucket '{name}' not documented in DESIGN.md",
                    f"prof bucket `{name}` is missing from the "
                    f"DESIGN.md stall-taxonomy table")
