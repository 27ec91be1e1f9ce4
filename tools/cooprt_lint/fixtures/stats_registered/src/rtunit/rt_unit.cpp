// Fixture: the registration side of rt_unit.hpp's counters. The rule
// captures the field a probe reads, not the probe's name.
#include <string>

#include "rt_unit.hpp"

struct Unit
{
    RtUnitStats stats_;
    template <class N, class F> void add(const N &, F *) {}

    void
    attachTrace()
    {
        const std::string group = "boxes.";
        add("nodes", &stats_.node_fetches);
        add(group + "tested", &stats_.box_tests);
    }
};
