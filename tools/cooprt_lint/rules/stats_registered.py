"""Rule: stats-registered.

Every ``std::uint64_t`` counter of the simulator's stats structs must
be observable through the ``cooprt::trace`` registry, so metric CSVs
and Chrome traces never silently lag behind a newly added counter.
Each row of ``STATS`` names a struct, the file defining it, the file
registering it, and a pattern capturing the registered field names:
the field a probe reads where the registration takes its address
(``add(name, &stats_.<field>)``), else the probe's name. An
unregistered field is a finding at its declaration. A counter whose
information reaches the registry through another channel takes an
inline allow() naming that channel; an allow() on a field that is
registered after all is reported as an unused suppression.

Rows whose files are absent from the linted tree are skipped (fixture
mini-repos hold one or two); the self-test pins that every row
resolves in the real tree.
"""

from __future__ import annotations

import re

from model import Project, Rule

#: (struct, defining header, registering source, registered-field
#: pattern, field prefix the captured name drops).
STATS = (
    ("RtUnitStats", "src/rtunit/rt_unit.hpp", "src/rtunit/rt_unit.cpp",
     r'add\([^;]*?&stats_\.(\w+)\)', ""),
    ("CacheStats", "src/mem/cache.hpp", "src/mem/cache.cpp",
     r'add\([^;]*?&s->(\w+)\)', ""),
    ("DramStats", "src/mem/dram.hpp", "src/mem/memory_system.cpp",
     r'registry\.probe\("mem\.dram\.(\w+)"', ""),
    ("MemSystemStats", "src/mem/memory_system.hpp",
     "src/mem/memory_system.cpp", r'registry\.probe\("mem\.l2\.(\w+)"',
     "l2_"),
    ("RecorderStats", "src/raytrace/raytrace.hpp",
     "src/raytrace/raytrace.cpp", r'reg\.probe\("ray\.(\w+)"', ""),
)

_FIELD_RE = re.compile(r"^\s*std::uint64_t\s+(\w+)\s*=\s*0\s*;",
                       re.MULTILINE)


class StatsRegistered(Rule):
    id = "stats-registered"
    description = ("stats-struct counter never registered with the "
                   "trace registry")
    roots = ("src",)

    def check_project(self, project: Project, add) -> None:
        by_rel = {f.rel: f.src for f in project.files}
        for struct, header, source, pattern, prefix in STATS:
            hdr, src = by_rel.get(header), by_rel.get(source)
            if hdr is None or src is None:
                continue
            m = re.search(rf"\bstruct\s+{struct}\b.*?^\}};", hdr.nc,
                          re.MULTILINE | re.DOTALL)
            if m is None:
                add(self.id, header, 1, f"struct {struct} not found",
                    f"struct {struct} is no longer defined here; "
                    f"update the stats-registered table")
                continue
            registered = set(re.findall(pattern, src.nc))
            for f in _FIELD_RE.finditer(m.group(0)):
                field = f.group(1)
                if field.removeprefix(prefix) in registered:
                    continue
                add(self.id, header,
                    hdr.line_of(m.start() + f.start(1)),
                    f"{struct}.{field} unregistered",
                    f"counter {struct}.{field} is never registered in "
                    f"{source}; register it, or allow() it naming the "
                    f"channel that publishes it")
