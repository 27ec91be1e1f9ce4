// Fixture: an owned family's authority file. It must keep registering
// its required probes, and each literal name needs its own DESIGN.md
// entry: the family wildcard does not cover owned families.
struct Registry
{
    void probe(const char *, double) {}
};

void
registerQuery(Registry &reg)
{
    reg.probe("query.queries", 1.0); // clean: required, documented
    reg.probe("query.rounds", 2.0);  // V: only the query.* wildcard
}                                    // V: required query.found absent
