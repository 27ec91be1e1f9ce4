#include "diff/diff.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "check/check.hpp"
#include "core/report.hpp"
#include "stats/table.hpp"
#include "telemetry/telemetry.hpp"

namespace cooprt::diff {

using trace::JsonValue;

namespace {

/** The one bucket outside the resident-cycle conservation sum. */
constexpr const char *kWarpBufferFull = "warp_buffer_full";

std::string
formatPercent(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.2f%%", fraction * 100.0);
    return buf;
}

void
writeDelta(trace::JsonWriter &w, const char *key, const Delta &d)
{
    w.open(key);
    w.field("base", d.base);
    w.field("other", d.other);
    w.field("delta", d.delta());
    w.close();
}

} // namespace

/* ------------------------------------------------------------------ */
/* Normalization                                                       */
/* ------------------------------------------------------------------ */

RunRecord
recordFromOutcome(const core::RunOutcome &o)
{
    std::string error;
    const JsonValue doc = JsonValue::parse(core::toJson(o), &error);
    RunRecord r;
    if (!doc.valid() || !recordFromReportJson(doc, &r, &error))
        throw std::logic_error("recordFromOutcome: " + error);
    return r;
}

bool
recordFromReportJson(const JsonValue &doc, RunRecord *record,
                     std::string *error)
{
    const JsonValue *report = &doc;
    // Campaign JSON-lines wrap the report under "outcome".
    if (const JsonValue *outcome = doc.find("outcome")) {
        if (!doc.getBool("ok", true)) {
            if (error != nullptr)
                *error = "campaign line for tag '" +
                         doc.getString("tag") + "' reports ok=false";
            return false;
        }
        report = outcome;
    }
    if (!report->isObject()) {
        if (error != nullptr)
            *error = "document is not a JSON object";
        return false;
    }

    RunRecord r;
    const JsonValue *key = report->find("run_key");
    if (key == nullptr || !key->isObject()) {
        if (error != nullptr)
            *error = "report carries no run_key block (schema_version "
                     "< 2 reports cannot be aligned; re-capture with "
                     "a current binary)";
        return false;
    }
    r.key.scene = key->getString("scene");
    r.key.shader = key->getString("shader");
    r.key.resolution = int(key->getInt("resolution"));
    r.key.fingerprint = key->getString("fingerprint");
    if (!r.key.valid()) {
        if (error != nullptr)
            *error = "run_key block is incomplete (empty scene)";
        return false;
    }
    r.source = doc.getString("tag", r.key.scene);

    r.cycles = report->getInt("cycles");
    if (const JsonValue *power = report->find("power")) {
        r.avg_watts = power->getDouble("avg_watts");
        r.total_joules = power->getDouble("dynamic_j") +
                         power->getDouble("static_j");
        r.edp = power->getDouble("edp");
    }
    if (const JsonValue *mem = report->find("memory")) {
        r.l2_bytes = mem->getInt("l2_bytes");
        r.dram_bytes = mem->getInt("dram_bytes");
    }
    r.avg_thread_utilization =
        report->getDouble("avg_thread_utilization");

    if (const JsonValue *p = report->find("prof")) {
        r.has_prof = true;
        r.resident_cycles = p->getInt("resident_cycles");
        r.rt_stall_cycles = p->getInt("rt_stall_cycles");
        if (const JsonValue *buckets = p->find("buckets"))
            for (const auto &m : buckets->members())
                r.buckets.emplace_back(m.first,
                                       m.second.intValue());
    }

    if (const JsonValue *m = report->find("memscope")) {
        r.has_memscope = true;
        r.node_accesses = m->getInt("node_accesses");
        r.node_bytes = m->getInt("node_bytes");
        if (const JsonValue *levels = m->find("levels")) {
            r.node_level[0] = levels->getInt("l1");
            r.node_level[1] = levels->getInt("l2");
            r.node_level[2] = levels->getInt("dram");
        }
        if (const JsonValue *depths = m->find("depths"))
            for (const JsonValue &row : depths->array()) {
                DepthRow d;
                d.depth = int(row.getInt("depth"));
                d.accesses = row.getInt("accesses");
                d.bytes = row.getInt("bytes");
                d.level[0] = row.getInt("l1");
                d.level[1] = row.getInt("l2");
                d.level[2] = row.getInt("dram");
                r.depths.push_back(d);
            }
    }

    if (const JsonValue *ray = report->find("ray")) {
        r.has_ray = true;
        if (const JsonValue *cp = ray->find("critical_path"))
            for (const JsonValue &e : cp->array())
                r.critical_latency += e.getInt("latency");
    }

    if (const JsonValue *q = report->find("query")) {
        r.has_query = true;
        r.query_rounds = q->getInt("rounds");
        r.query_found = q->getInt("found");
        r.query_checksum = q->getString("checksum");
    }

    *record = r;
    return true;
}

bool
loadReportFile(const std::string &path, RunRecord *record,
               std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        if (error != nullptr)
            *error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string parse_error;
    const JsonValue doc = JsonValue::parse(buf.str(), &parse_error);
    if (!doc.valid()) {
        if (error != nullptr)
            *error = path + ": " + parse_error;
        return false;
    }
    if (!recordFromReportJson(doc, record, error)) {
        if (error != nullptr)
            *error = path + ": " + *error;
        return false;
    }
    record->source = path;
    return true;
}

/* ------------------------------------------------------------------ */
/* Diffing                                                             */
/* ------------------------------------------------------------------ */

namespace {

/** Both sides as bytes/cycle (gpu::RunStats's exact expression),
 *  then other / base — fig12's normalized-bandwidth arithmetic. */
double
bandwidthRatio(const Delta &cycles, const Delta &bytes)
{
    const double base_bpc =
        cycles.base ? double(bytes.base) / double(cycles.base) : 0.0;
    const double other_bpc =
        cycles.other ? double(bytes.other) / double(cycles.other)
                     : 0.0;
    return base_bpc != 0.0 ? other_bpc / base_bpc : 0.0;
}

} // namespace

double
RunDiff::l2BandwidthRatio() const
{
    return bandwidthRatio(cycles, l2_bytes);
}

double
RunDiff::dramBandwidthRatio() const
{
    return bandwidthRatio(cycles, dram_bytes);
}

std::string
checkComparable(const RunRecord &base, const RunRecord &other)
{
    if (base.key.scene != other.key.scene)
        return "scene mismatch: '" + base.key.scene + "' vs '" +
               other.key.scene + "'";
    if (base.key.shader != other.key.shader)
        return "shader mismatch: '" + base.key.shader + "' vs '" +
               other.key.shader + "'";
    if (base.key.resolution != other.key.resolution)
        return "resolution mismatch: " +
               std::to_string(base.key.resolution) + " vs " +
               std::to_string(other.key.resolution);
    return {};
}

RunDiff
diffRuns(const RunRecord &base, const RunRecord &other)
{
    RunDiff d;
    d.base_key = base.key;
    d.other_key = other.key;
    d.base_source = base.source;
    d.other_source = other.source;
    d.same_fingerprint =
        base.key.fingerprint == other.key.fingerprint;

    d.cycles = {base.cycles, other.cycles};
    // Exactly core::Comparison's arithmetic, so diffing a (baseline,
    // CoopRT) report pair reproduces the fig09 columns bit-for-bit.
    d.speedup = other.cycles != 0
                    ? double(base.cycles) / double(other.cycles)
                    : 0.0;
    d.power_ratio = base.avg_watts != 0.0
                        ? other.avg_watts / base.avg_watts
                        : 0.0;
    d.energy_ratio = base.total_joules != 0.0
                         ? other.total_joules / base.total_joules
                         : 0.0;
    d.edp_improvement = other.edp != 0.0 ? base.edp / other.edp : 0.0;
    d.l2_bytes = {base.l2_bytes, other.l2_bytes};
    d.dram_bytes = {base.dram_bytes, other.dram_bytes};
    d.utilization_base = base.avg_thread_utilization;
    d.utilization_other = other.avg_thread_utilization;

    if (base.has_prof && other.has_prof) {
        d.has_prof = true;
        d.resident_cycles = {base.resident_cycles,
                             other.resident_cycles};
        d.rt_stall_cycles = {base.rt_stall_cycles,
                             other.rt_stall_cycles};
        // Align by bucket name: base order first (the taxonomy
        // order), then any names only the other run reported.
        for (const auto &[name, cycles] : base.buckets) {
            NamedDelta nd;
            nd.name = name;
            nd.d.base = cycles;
            for (const auto &[oname, ocycles] : other.buckets)
                if (oname == name) {
                    nd.d.other = ocycles;
                    break;
                }
            d.buckets.push_back(std::move(nd));
        }
        for (const auto &[oname, ocycles] : other.buckets) {
            bool seen = false;
            for (const auto &nd : d.buckets)
                if (nd.name == oname) {
                    seen = true;
                    break;
                }
            if (!seen)
                d.buckets.push_back(
                    NamedDelta{oname, Delta{0, ocycles}});
        }

#if COOPRT_CHECK_ENABLED
        // Conservation: non-warp_buffer_full bucket deltas must sum
        // bit-exactly to the resident-cycle delta — it holds per run
        // (prof's own invariant), so it must survive subtraction.
        std::int64_t bucket_delta_sum = 0;
        for (const auto &nd : d.buckets)
            if (nd.name != kWarpBufferFull)
                bucket_delta_sum += nd.d.delta();
        COOPRT_AUDIT("diff.engine", "diff.delta_conservation",
                     std::uint64_t(other.cycles),
                     bucket_delta_sum == d.resident_cycles.delta(),
                     "scene " + base.key.scene +
                         ": bucket delta sum " +
                         std::to_string(bucket_delta_sum) +
                         " != resident-cycle delta " +
                         std::to_string(d.resident_cycles.delta()));
#endif
    }

    if (base.has_memscope && other.has_memscope) {
        d.has_memscope = true;
        d.node_accesses = {base.node_accesses, other.node_accesses};
        d.node_bytes = {base.node_bytes, other.node_bytes};
        for (int l = 0; l < 3; ++l)
            d.node_level[std::size_t(l)] = {
                base.node_level[std::size_t(l)],
                other.node_level[std::size_t(l)]};
        // Union of touched depths, ascending; a depth absent on one
        // side contributes zeros there.
        std::map<int, DepthDelta> by_depth;
        for (const auto &row : base.depths) {
            DepthDelta &dd = by_depth[row.depth];
            dd.depth = row.depth;
            dd.accesses.base = row.accesses;
            dd.bytes.base = row.bytes;
            for (int l = 0; l < 3; ++l)
                dd.level[std::size_t(l)].base =
                    row.level[std::size_t(l)];
        }
        for (const auto &row : other.depths) {
            DepthDelta &dd = by_depth[row.depth];
            dd.depth = row.depth;
            dd.accesses.other = row.accesses;
            dd.bytes.other = row.bytes;
            for (int l = 0; l < 3; ++l)
                dd.level[std::size_t(l)].other =
                    row.level[std::size_t(l)];
        }
        for (const auto &[depth, dd] : by_depth)
            d.depths.push_back(dd);
    }

    if (base.has_ray && other.has_ray) {
        d.has_ray = true;
        d.critical_latency = {base.critical_latency,
                              other.critical_latency};
    }

    if (base.has_query && other.has_query) {
        d.has_query = true;
        d.query_rounds = {base.query_rounds, other.query_rounds};
        d.query_found = {base.query_found, other.query_found};
        d.base_checksum = base.query_checksum;
        d.other_checksum = other.query_checksum;
        d.checksum_match =
            base.query_checksum == other.query_checksum;
    }
    return d;
}

/* ------------------------------------------------------------------ */
/* Attribution summary                                                 */
/* ------------------------------------------------------------------ */

std::string
attributionSummary(const RunDiff &d)
{
    if (d.cycles.delta() == 0 || d.cycles.base == 0)
        return {};
    std::string out =
        "cycles " +
        formatPercent(double(d.cycles.delta()) /
                      double(d.cycles.base));

    if (d.has_prof) {
        // Rank buckets by |delta| and name the top contributors as a
        // share of the base run's resident warp-cycles (bucket
        // cycles are summed over warps, so GPU cycles would be the
        // wrong denominator).
        const double denom = d.resident_cycles.base != 0
                                 ? double(d.resident_cycles.base)
                                 : double(d.cycles.base);
        std::vector<const NamedDelta *> ranked;
        for (const auto &nd : d.buckets)
            if (nd.d.delta() != 0)
                ranked.push_back(&nd);
        std::sort(ranked.begin(), ranked.end(),
                  [](const NamedDelta *a, const NamedDelta *b) {
                      const std::int64_t da = std::abs(a->d.delta());
                      const std::int64_t db = std::abs(b->d.delta());
                      if (da != db)
                          return da > db;
                      return a->name < b->name;
                  });
        std::string buckets;
        const std::size_t top = std::min<std::size_t>(2,
                                                      ranked.size());
        for (std::size_t i = 0; i < top; ++i) {
            if (!buckets.empty())
                buckets += ", ";
            buckets += ranked[i]->name + " " +
                       formatPercent(double(ranked[i]->d.delta()) /
                                     denom);
        }
        if (!buckets.empty())
            out += ": " + buckets;
    }

    if (d.has_memscope && !d.depths.empty()) {
        // Where in the tree the traffic delta concentrates: depths
        // whose |accesses delta| is within 10x of the peak.
        std::int64_t peak = 0;
        for (const auto &row : d.depths)
            peak = std::max(peak, std::abs(row.accesses.delta()));
        if (peak > 0) {
            int lo = -1;
            int hi = -1;
            for (const auto &row : d.depths)
                if (std::abs(row.accesses.delta()) * 10 >= peak) {
                    if (lo < 0)
                        lo = row.depth;
                    hi = row.depth;
                }
            if (lo >= 0)
                out += " (depth " + std::to_string(lo) +
                       (hi > lo ? "-" + std::to_string(hi) : "") +
                       ")";
        }
    }
    return out;
}

/* ------------------------------------------------------------------ */
/* Output: JSON                                                        */
/* ------------------------------------------------------------------ */

void
writeJson(std::ostream &os, const RunDiff &d)
{
    trace::JsonWriter w(os);
    w.open();
    trace::writeSchemaVersion(w);
    // The base run's key anchors the document; the other key differs
    // (at most) in its fingerprint once checkComparable has passed.
    trace::writeRunKey(w, d.base_key);
    w.open("other_key");
    w.field("scene", d.other_key.scene);
    w.field("shader", d.other_key.shader);
    w.field("resolution", d.other_key.resolution);
    w.field("fingerprint", d.other_key.fingerprint);
    w.close();
    w.field("same_fingerprint",
            d.same_fingerprint ? "true" : "false");
    w.open("build");
    telemetry::writeBuildFields(w);
    w.close();

    writeDelta(w, "cycles", d.cycles);
    w.field("speedup", d.speedup);
    w.open("power");
    w.field("power_ratio", d.power_ratio);
    w.field("energy_ratio", d.energy_ratio);
    w.field("edp_improvement", d.edp_improvement);
    w.close();
    w.open("bandwidth");
    writeDelta(w, "l2_bytes", d.l2_bytes);
    writeDelta(w, "dram_bytes", d.dram_bytes);
    w.field("l2_ratio", d.l2BandwidthRatio());
    w.field("dram_ratio", d.dramBandwidthRatio());
    w.close();
    w.open("utilization");
    w.field("base", d.utilization_base);
    w.field("other", d.utilization_other);
    w.close();

    if (d.has_prof) {
        w.open("prof");
        writeDelta(w, "resident_cycles", d.resident_cycles);
        writeDelta(w, "rt_stall_cycles", d.rt_stall_cycles);
        w.openArray("buckets");
        for (const auto &nd : d.buckets) {
            w.open();
            w.field("name", nd.name);
            w.field("base", nd.d.base);
            w.field("other", nd.d.other);
            w.field("delta", nd.d.delta());
            w.close();
        }
        w.closeArray();
        w.close();
    }

    if (d.has_memscope) {
        w.open("memscope");
        writeDelta(w, "node_accesses", d.node_accesses);
        writeDelta(w, "node_bytes", d.node_bytes);
        w.open("levels");
        writeDelta(w, "l1", d.node_level[0]);
        writeDelta(w, "l2", d.node_level[1]);
        writeDelta(w, "dram", d.node_level[2]);
        w.close();
        w.openArray("depths");
        for (const auto &row : d.depths) {
            w.open();
            w.field("depth", row.depth);
            writeDelta(w, "accesses", row.accesses);
            writeDelta(w, "bytes", row.bytes);
            writeDelta(w, "l1", row.level[0]);
            writeDelta(w, "l2", row.level[1]);
            writeDelta(w, "dram", row.level[2]);
            w.close();
        }
        w.closeArray();
        w.close();
    }

    if (d.has_ray) {
        w.open("ray");
        writeDelta(w, "critical_latency", d.critical_latency);
        w.close();
    }

    if (d.has_query) {
        w.open("query");
        writeDelta(w, "rounds", d.query_rounds);
        writeDelta(w, "found", d.query_found);
        w.field("checksum_match",
                d.checksum_match ? "true" : "false");
        w.field("base_checksum", d.base_checksum);
        w.field("other_checksum", d.other_checksum);
        w.close();
    }

    w.field("attribution", attributionSummary(d));
    w.close();
    os << '\n';
}

/* ------------------------------------------------------------------ */
/* Output: text / markdown                                             */
/* ------------------------------------------------------------------ */

void
writeText(std::ostream &os, const RunDiff &d)
{
    os << "run key: scene=" << d.base_key.scene
       << " shader=" << d.base_key.shader
       << " resolution=" << d.base_key.resolution << "\n";
    os << "fingerprints: " << d.base_key.fingerprint << " -> "
       << d.other_key.fingerprint
       << (d.same_fingerprint ? " (identical configs)" : "") << "\n";
    os << "sources: " << d.base_source << " -> " << d.other_source
       << "\n\n";

    stats::Table headline({"metric", "base", "other", "delta"});
    headline.row()
        .cell(std::string("cycles"))
        .cell(std::uint64_t(d.cycles.base))
        .cell(std::uint64_t(d.cycles.other))
        .cell(std::to_string(d.cycles.delta()));
    headline.row()
        .cell(std::string("speedup (base/other)"))
        .cell(std::string(""))
        .cell(std::string(""))
        .cell(d.speedup, 4);
    headline.row()
        .cell(std::string("power ratio"))
        .cell(std::string(""))
        .cell(std::string(""))
        .cell(d.power_ratio, 4);
    headline.row()
        .cell(std::string("energy ratio"))
        .cell(std::string(""))
        .cell(std::string(""))
        .cell(d.energy_ratio, 4);
    headline.row()
        .cell(std::string("edp improvement"))
        .cell(std::string(""))
        .cell(std::string(""))
        .cell(d.edp_improvement, 4);
    headline.row()
        .cell(std::string("l2 bytes"))
        .cell(std::uint64_t(d.l2_bytes.base))
        .cell(std::uint64_t(d.l2_bytes.other))
        .cell(std::to_string(d.l2_bytes.delta()));
    headline.row()
        .cell(std::string("dram bytes"))
        .cell(std::uint64_t(d.dram_bytes.base))
        .cell(std::uint64_t(d.dram_bytes.other))
        .cell(std::to_string(d.dram_bytes.delta()));
    headline.row()
        .cell(std::string("thread utilization"))
        .cell(d.utilization_base, 4)
        .cell(d.utilization_other, 4)
        .cell(d.utilization_other - d.utilization_base, 4);
    headline.print(os);

    if (d.has_prof) {
        os << "\nstall attribution (cycles per prof bucket):\n";
        stats::Table t({"bucket", "base", "other", "delta"});
        t.row()
            .cell(std::string("resident_cycles"))
            .cell(std::uint64_t(d.resident_cycles.base))
            .cell(std::uint64_t(d.resident_cycles.other))
            .cell(std::to_string(d.resident_cycles.delta()));
        for (const auto &nd : d.buckets)
            t.row()
                .cell(nd.name)
                .cell(std::uint64_t(nd.d.base))
                .cell(std::uint64_t(nd.d.other))
                .cell(std::to_string(nd.d.delta()));
        t.print(os);
    }

    if (d.has_memscope) {
        os << "\nBVH traffic (node fetches per depth x serving "
              "level):\n";
        stats::Table t({"depth", "d_accesses", "d_l1", "d_l2",
                        "d_dram", "d_bytes"});
        for (const auto &row : d.depths)
            t.row()
                .cell(std::uint64_t(row.depth))
                .cell(std::to_string(row.accesses.delta()))
                .cell(std::to_string(row.level[0].delta()))
                .cell(std::to_string(row.level[1].delta()))
                .cell(std::to_string(row.level[2].delta()))
                .cell(std::to_string(row.bytes.delta()));
        t.print(os);
    }

    if (d.has_ray)
        os << "\ncritical path: latency " << d.critical_latency.base
           << " -> " << d.critical_latency.other << " ("
           << (d.critical_latency.delta() >= 0 ? "+" : "")
           << d.critical_latency.delta() << ")\n";

    if (d.has_query)
        os << "\nquery: rounds " << d.query_rounds.base << " -> "
           << d.query_rounds.other << ", found "
           << d.query_found.base << " -> " << d.query_found.other
           << ", checksum "
           << (d.checksum_match ? "MATCH" : "MISMATCH") << " ("
           << d.base_checksum << " vs " << d.other_checksum << ")\n";

    const std::string attribution = attributionSummary(d);
    if (!attribution.empty())
        os << "\nattribution: " << attribution << "\n";
}

void
writeMarkdown(std::ostream &os, const RunDiff &d)
{
    os << "## Run diff: " << d.base_key.scene << " ("
       << d.base_key.shader << ", " << d.base_key.resolution << "x"
       << d.base_key.resolution << ")\n\n";
    os << "- fingerprints: `" << d.base_key.fingerprint << "` -> `"
       << d.other_key.fingerprint << "`\n";
    os << "- speedup (base/other): **";
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", d.speedup);
        os << buf;
    }
    os << "**\n";
    const std::string attribution = attributionSummary(d);
    if (!attribution.empty())
        os << "- attribution: " << attribution << "\n";
    os << "\n| metric | base | other | delta |\n";
    os << "|---|---:|---:|---:|\n";
    os << "| cycles | " << d.cycles.base << " | " << d.cycles.other
       << " | " << d.cycles.delta() << " |\n";
    os << "| l2 bytes | " << d.l2_bytes.base << " | "
       << d.l2_bytes.other << " | " << d.l2_bytes.delta() << " |\n";
    os << "| dram bytes | " << d.dram_bytes.base << " | "
       << d.dram_bytes.other << " | " << d.dram_bytes.delta()
       << " |\n";
    if (d.has_prof) {
        os << "\n| prof bucket | base | other | delta |\n";
        os << "|---|---:|---:|---:|\n";
        os << "| resident_cycles | " << d.resident_cycles.base
           << " | " << d.resident_cycles.other << " | "
           << d.resident_cycles.delta() << " |\n";
        for (const auto &nd : d.buckets)
            os << "| " << nd.name << " | " << nd.d.base << " | "
               << nd.d.other << " | " << nd.d.delta() << " |\n";
    }
    if (d.has_memscope) {
        os << "\n| depth | d accesses | d l1 | d l2 | d dram |\n";
        os << "|---:|---:|---:|---:|---:|\n";
        for (const auto &row : d.depths)
            os << "| " << row.depth << " | " << row.accesses.delta()
               << " | " << row.level[0].delta() << " | "
               << row.level[1].delta() << " | "
               << row.level[2].delta() << " |\n";
    }
    if (d.has_query)
        os << "\n- query checksum: "
           << (d.checksum_match ? "match" : "**MISMATCH**") << " (`"
           << d.base_checksum << "` vs `" << d.other_checksum
           << "`)\n";
}

} // namespace cooprt::diff
