/**
 * @file
 * Checks for the JSON sinks that no byte golden pins, written as
 * plain gtest assertions over trace::JsonValue: the schema stamp,
 * the build object, the per-run telemetry sink, the campaign event
 * log and the Chrome trace. Every check records non-fatal failures
 * only, so a test can feed it a seeded corruption of a real sink
 * (`corrupted`) and expect the rejection with
 * EXPECT_NONFATAL_FAILURE.
 */

#ifndef COOPRT_TESTS_SINK_CHECKS_HPP
#define COOPRT_TESTS_SINK_CHECKS_HPP

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/telemetry.hpp"
#include "trace/json_value.hpp"

namespace cooprt::testutil {

using trace::JsonValue;

/** @p text as one JSON document; a failure with the reader's
 *  message when it is not one. */
inline JsonValue
parseJson(std::string_view text)
{
    std::string error;
    JsonValue doc = JsonValue::parse(text, &error);
    EXPECT_TRUE(doc.valid()) << error;
    return doc;
}

/** Member @p key of @p v, or an Invalid value when absent, so
 *  lookups chain and the check on the result fails. */
inline const JsonValue &
at(const JsonValue &v, std::string_view key)
{
    static const JsonValue absent;
    const JsonValue *member = v.find(key);
    return member != nullptr ? *member : absent;
}

inline bool
isCounter(const JsonValue &v)
{
    return v.isInt() && v.intValue() >= 0;
}

/** "0x" and 1 to 16 lowercase hex digits: a 64-bit value as the
 *  writers print it. */
inline bool
isHex64(std::string_view s)
{
    return s.size() > 2 && s.size() <= 18 && s.starts_with("0x") &&
           s.find_first_not_of("0123456789abcdef", 2) ==
               std::string_view::npos;
}

/** True when @p doc's last member is a `host` object: the writers
 *  put every host-dependent value there, after the deterministic
 *  fields. */
inline bool
hostLast(const JsonValue &doc)
{
    if (doc.members().empty())
        return false;
    const auto &[key, value] = doc.members().back();
    return key == "host" && value.isObject();
}

/** @p text with its first @p from replaced by @p to: a seeded
 *  corruption of a real sink. */
inline std::string
corrupted(std::string text, std::string_view from, std::string_view to)
{
    const std::size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << "nothing to corrupt: " << from;
    if (pos != std::string::npos)
        text.replace(pos, from.size(), to);
    return text;
}

/** The schema stamp of every JSON sink (DESIGN.md §18):
 *  `schema_version` >= 2 and, for each of @p keys, a complete
 *  run-identity block. */
inline void
expectStamp(const JsonValue &doc,
            std::initializer_list<std::string_view> keys = {"run_key"})
{
    const JsonValue &version = at(doc, "schema_version");
    EXPECT_TRUE(version.isInt() && version.intValue() >= 2)
        << "schema_version";
    for (std::string_view key : keys) {
        const JsonValue &id = at(doc, key);
        EXPECT_FALSE(at(id, "scene").stringValue().empty())
            << key << ".scene";
        EXPECT_FALSE(at(id, "shader").stringValue().empty())
            << key << ".shader";
        EXPECT_GT(at(id, "resolution").intValue(), 0)
            << key << ".resolution";
        const std::string &fp = at(id, "fingerprint").stringValue();
        EXPECT_TRUE(fp.size() == 18 && isHex64(fp))
            << key << ".fingerprint '" << fp << "'";
    }
}

/** The build object (telemetry::buildInfoJson). */
inline void
expectBuild(const JsonValue &build)
{
    EXPECT_FALSE(at(build, "revision").stringValue().empty())
        << "build.revision";
    EXPECT_TRUE(at(build, "dirty").isBool()) << "build.dirty";
    EXPECT_TRUE(at(build, "compiler").isString()) << "build.compiler";
    EXPECT_TRUE(at(build, "build_type").isString())
        << "build.build_type";
    EXPECT_TRUE(at(build, "check").isBool()) << "build.check";
}

/**
 * A per-run telemetry sink (telemetry::Recorder::writeJson): stamped,
 * simulated totals before a trailing host object, and two host laws.
 * Every phase ran, the report phase included (it times the other
 * sinks' emission), and current RSS never exceeds the peak.
 */
inline void
expectTelemetrySink(const JsonValue &doc)
{
    expectStamp(doc);
    EXPECT_TRUE(at(doc, "scene").isString()) << "scene";
    expectBuild(at(doc, "build"));
    const JsonValue &sim = at(doc, "sim");
    EXPECT_TRUE(isCounter(at(sim, "cycles"))) << "sim.cycles";
    EXPECT_TRUE(isCounter(at(sim, "rays_retired")))
        << "sim.rays_retired";
    EXPECT_TRUE(hostLast(doc)) << "no trailing host object";
    const JsonValue &host = at(doc, "host");
    for (int p = 0; p < telemetry::kNumPhases; ++p) {
        const char *name = telemetry::phaseName(telemetry::Phase(p));
        const JsonValue &span = at(at(host, "phases"), name);
        const JsonValue &seconds = at(span, "seconds");
        EXPECT_TRUE(seconds.isNumber() && seconds.numberValue() >= 0)
            << name << ".seconds";
        EXPECT_GT(at(span, "count").intValue(), 0)
            << "phase " << name << " never ran";
    }
    EXPECT_TRUE(at(host, "sim_seconds").isNumber())
        << "host.sim_seconds";
    const JsonValue &rss = at(host, "rss_current_kb");
    EXPECT_TRUE(isCounter(rss)) << "host.rss_current_kb";
    EXPECT_LE(rss.intValue(), at(host, "rss_peak_kb").intValue())
        << "rss_current_kb above rss_peak_kb";
}

/** One campaign event-log line (telemetry::EventLog): the fields of
 *  its `ev` kind, then a trailing host object. */
inline void
expectEventLine(const JsonValue &line)
{
    const std::string ev = at(line, "ev").stringValue();
    std::vector<std::string_view> counters;
    if (ev == "campaign_begin") {
        counters = {"jobs"};
        expectBuild(at(line, "build"));
    } else if (ev == "job_start") {
        counters = {"index", "attempt"};
    } else if (ev == "job_retry") {
        counters = {"index", "next_attempt"};
    } else if (ev == "job_timeout") {
        counters = {"index"};
        EXPECT_TRUE(at(line, "budget_s").isNumber()) << ev;
    } else if (ev == "job_finish") {
        counters = {"index", "attempts", "cycles"};
        EXPECT_TRUE(at(line, "ok").isBool()) << ev << ".ok";
    } else if (ev == "campaign_end") {
        counters = {"done", "failed", "retried", "timed_out"};
    } else {
        ADD_FAILURE() << "unknown event '" << ev << "'";
    }
    if (ev.starts_with("job_")) {
        EXPECT_TRUE(at(line, "tag").isString()) << ev << ".tag";
    }
    for (std::string_view key : counters)
        EXPECT_TRUE(isCounter(at(line, key))) << ev << '.' << key;
    EXPECT_TRUE(hostLast(line)) << ev << ": no trailing host object";
}

/** A Chrome trace (trace::Tracer): a non-empty `traceEvents` array
 *  whose every element has a string `ph`. */
inline void
expectChromeTrace(const JsonValue &doc)
{
    const JsonValue &events = at(doc, "traceEvents");
    EXPECT_TRUE(events.isArray() && events.size() > 0) << "traceEvents";
    std::size_t without_ph = 0;
    for (const JsonValue &e : events.array())
        without_ph += !at(e, "ph").isString();
    EXPECT_EQ(without_ph, 0u) << "traceEvents without a string ph";
}

} // namespace cooprt::testutil

#endif // COOPRT_TESTS_SINK_CHECKS_HPP
