// Fixture: the registration side of rt_unit.hpp's counters.
#include "rt_unit.hpp"

struct Unit
{
    RtUnitStats stats_;
    template <class F> void add(const char *, F *) {}

    void
    attachTrace()
    {
        add("node_fetches", &stats_.node_fetches);
        add("box_tests", &stats_.box_tests);
    }
};
