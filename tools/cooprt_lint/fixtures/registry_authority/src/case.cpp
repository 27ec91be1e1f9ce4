// Fixture: registry-authority. Literal dotted metric names must be
// registered once and documented in DESIGN.md (exact or wildcard).
#include <string>

struct Registry
{
    void probe(const char *, double) {}
    void probe(const std::string &, double) {}
};

void
registerAll(Registry &reg)
{
    reg.probe("unit.documented", 1.0);    // clean: exact entry
    reg.probe("unit.wild.anything", 2.0); // clean: unit.wild.*
    reg.probe("unit.undocumented", 3.0);  // V: no DESIGN.md entry
    reg.probe("unit.twice", 4.0);         // clean: first site
    reg.probe("unit.twice", 5.0);         // V: duplicate
    reg.probe("prof.outside", 6.0);       // V: owned family, wrong file
    // A local helper that prepends a computed prefix registers
    // "unit.sm0.x.y": its literal is a suffix, not a metric name.
    const std::string p = "unit.sm0.";
    auto add = [&](const std::string &name, double v) {
        reg.probe(p + name, v);
    };
    add("x.y", 7.0); // clean: prefixed, not a top-level name
}
