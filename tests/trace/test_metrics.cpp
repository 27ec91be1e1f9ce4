/**
 * @file
 * Tests for the registry row store: column fixing, filtering, CSV
 * export and value-copy rows. Its boundaries are the caller's (the
 * GPU's activity-sampling clock; see TraceIntegration).
 */

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/metrics.hpp"
#include "trace/registry.hpp"

namespace {

using cooprt::trace::MetricsSampler;
using cooprt::trace::Registry;

TEST(MetricsSampler, ColumnsFixedAtFirstSample)
{
    Registry reg;
    double a = 1;
    reg.probe("a", [&a] { return a; });
    MetricsSampler m(&reg);
    m.sample(0);
    ASSERT_EQ(m.columns().size(), 1u);
    // A metric registered after the first sample is not a column;
    // existing columns keep collecting.
    reg.probe("b", [] { return 2.0; });
    a = 3;
    m.sample(100);
    ASSERT_EQ(m.columns().size(), 1u);
    EXPECT_EQ(m.columns()[0], "a");
    ASSERT_EQ(m.sampleCount(), 2u);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
}

TEST(MetricsSampler, SeriesOfReturnsOneColumn)
{
    Registry reg;
    std::uint64_t c = 0;
    reg.probe("rtunit.sm0.steals", [&c] { return double(c); });
    MetricsSampler m(&reg);
    c = 1;
    m.sample(0);
    c = 4;
    m.sample(100);
    const auto series = m.seriesOf("rtunit.sm0.steals");
    ASSERT_EQ(series.size(), 2u);
    EXPECT_DOUBLE_EQ(series[0], 1.0);
    EXPECT_DOUBLE_EQ(series[1], 4.0);
    EXPECT_TRUE(m.seriesOf("no.such.metric").empty());
}

TEST(MetricsSampler, FilterRestrictsColumns)
{
    Registry reg;
    reg.probe("rtunit.sm0.steals", [] { return 1.0; });
    reg.probe("mem.l2.misses", [] { return 2.0; });
    MetricsSampler m(&reg, "mem.*");
    m.sample(0);
    ASSERT_EQ(m.columns().size(), 1u);
    EXPECT_EQ(m.columns()[0], "mem.l2.misses");
}

TEST(MetricsSampler, CsvHasHeaderAndOneRowPerSample)
{
    Registry reg;
    std::uint64_t c = 0;
    reg.probe("m", [&c] { return double(c); });
    MetricsSampler m(&reg);
    c = 10;
    m.sample(0);
    c = 20;
    m.sample(500);
    std::ostringstream ss;
    m.writeCsv(ss);
    const std::string csv = ss.str();
    std::istringstream lines(csv);
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "cycle,m");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.substr(0, 2), "0,");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.substr(0, 4), "500,");
    EXPECT_FALSE(std::getline(lines, line));
}

TEST(MetricsSampler, CsvCellsMatchDefaultStreamFormat)
{
    // Every cell is written as `std::ostringstream << double` writes
    // it (%g, 6 significant digits), across the format's edge cases.
    const std::vector<double> values = {
        0.0,
        -0.0,
        0.1,
        1e-5,
        123456.0,
        1234567.0,
        0.000123456789,
        1e21,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    Registry reg;
    for (std::size_t i = 0; i < values.size(); ++i) {
        // Zero-padded names keep the columns in value order.
        const double v = values[i];
        reg.probe((i < 10 ? "v0" : "v") + std::to_string(i),
                  [v] { return v; });
    }
    MetricsSampler m(&reg);
    m.sample(1234);
    std::ostringstream ss;
    m.writeCsv(ss);

    std::istringstream lines(ss.str());
    std::string header, row;
    ASSERT_TRUE(std::getline(lines, header));
    ASSERT_TRUE(std::getline(lines, row));
    std::istringstream cells(row);
    std::string cell;
    ASSERT_TRUE(std::getline(cells, cell, ','));
    EXPECT_EQ(cell, "1234");
    for (const double v : values) {
        ASSERT_TRUE(std::getline(cells, cell, ','));
        std::ostringstream want;
        want << v;
        EXPECT_EQ(cell, want.str()) << "value " << v;
    }
    EXPECT_FALSE(std::getline(cells, cell, ','));
}

TEST(MetricsSampler, ResetDropsData)
{
    Registry reg;
    reg.probe("m", [] { return 1.0; });
    MetricsSampler m(&reg);
    m.sample(500);
    m.reset();
    EXPECT_EQ(m.sampleCount(), 0u);
    EXPECT_TRUE(m.columns().empty());
    // A new run's rows may start over at any cycle.
    m.sample(500);
    EXPECT_EQ(m.sampleCount(), 1u);
    EXPECT_EQ(m.cycleAt(0), 500u);
}

TEST(MetricsSampler, RowsSurviveRegistryMutation)
{
    // Rows are value copies: exporting after probes die must work.
    Registry reg;
    MetricsSampler m(&reg);
    {
        int live = 5;
        reg.probe("p", [&live] { return double(live); }, &live);
        m.sample(0);
        reg.unregisterOwner(&live);
    }
    ASSERT_EQ(m.sampleCount(), 1u);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 5.0);
    std::ostringstream ss;
    m.writeCsv(ss); // must not touch the dead probe
    EXPECT_NE(ss.str().find("p"), std::string::npos);
}

TEST(MetricsSampler, ColumnsFollowRegistrationChanges)
{
    // Columns bind to their probes once; a dropped probe reads 0 and
    // a re-registered or overwritten one is read from then on.
    Registry reg;
    int owner = 0;
    reg.probe("a", [] { return 1.0; });
    reg.probe("b", [] { return 2.0; }, &owner);
    MetricsSampler m(&reg);
    m.sample(0);
    reg.unregisterOwner(&owner);
    m.sample(1);
    reg.probe("b", [] { return 4.0; }, &owner);
    reg.probe("a", [] { return 3.0; });
    m.sample(2);
    ASSERT_EQ(m.sampleCount(), 3u);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
    EXPECT_DOUBLE_EQ(m.at(2, 0), 3.0);
    EXPECT_DOUBLE_EQ(m.at(2, 1), 4.0);
}

} // namespace
