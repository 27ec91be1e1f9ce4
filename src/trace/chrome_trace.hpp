/**
 * @file
 * Structured event tracer producing Chrome `trace_event` JSON, so
 * any simulation run can be opened in chrome://tracing or Perfetto.
 *
 * Design constraints, in order:
 *  - tracing OFF must cost ~nothing: every emission site is a single
 *    null-pointer test (see the COOPRT_TRACE_* macros);
 *  - tracing ON must never blow up memory: events land in a fixed
 *    ring buffer and the oldest are overwritten (the `dropped()`
 *    count reports how many);
 *  - the record path allocates nothing: event/category names are
 *    `const char *` with static lifetime, timestamps are simulated
 *    cycles (exported as microseconds so Perfetto's timeline works).
 *
 * Track mapping: `pid` is the SM index (one Perfetto process group
 * per SM, named via `processName`), `tid` is the warp id or
 * warp-buffer slot within it.
 */

#ifndef COOPRT_TRACE_CHROME_TRACE_HPP
#define COOPRT_TRACE_CHROME_TRACE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cooprt::trace {

/** One ring-buffer record; 48 bytes, no owned memory. */
struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        Complete, ///< duration: [ts, ts+dur), Chrome ph "X"
        Instant,  ///< point event, ph "i"
        Counter,  ///< sampled value track, ph "C"
    };

    const char *cat = "";  ///< category (static lifetime)
    const char *name = ""; ///< event name (static lifetime)
    std::uint64_t ts = 0;  ///< start cycle
    std::uint64_t dur = 0; ///< duration in cycles (Complete only)
    double value = 0.0;    ///< Counter only
    std::int32_t pid = 0;  ///< track group (SM index)
    std::int32_t tid = 0;  ///< track (warp id / slot)
    Kind kind = Kind::Instant;
};

/**
 * The tracer. Record methods are safe to call on every simulated
 * cycle; JSON serialization happens once, at export.
 */
class Tracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    explicit Tracer(std::size_t capacity = kDefaultCapacity);

    std::size_t capacity() const { return capacity_; }
    /** Events currently held (<= capacity). */
    std::size_t size() const { return ring_.size(); }
    /** Total events ever recorded. */
    std::uint64_t recorded() const { return recorded_; }
    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Category filter applied at export: only events whose
     * `cat` or `cat.name` matches (see nameMatchesFilter) are
     * serialized. Recording is unaffected.
     */
    void setFilter(std::string filter) { filter_ = std::move(filter); }
    const std::string &filter() const { return filter_; }

    void complete(const char *cat, const char *name, int pid, int tid,
                  std::uint64_t ts, std::uint64_t dur);
    void instant(const char *cat, const char *name, int pid, int tid,
                 std::uint64_t ts);
    void counter(const char *cat, const char *name, int pid,
                 std::uint64_t ts, double value);

    /** Perfetto display name for track group @p pid. */
    void processName(int pid, std::string name);
    /** Perfetto display name for track (@p pid, @p tid). */
    void threadName(int pid, int tid, std::string name);

    /**
     * Serialize as a Chrome trace_event JSON object
     * (`{"traceEvents": [...]}`), oldest event first, metadata
     * records included. Valid JSON regardless of event content.
     */
    void writeJson(std::ostream &os) const;

    void clear();

  private:
    void push(const TraceEvent &e);

    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0; ///< next overwrite position once full
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    std::string filter_;

    struct TrackName
    {
        std::int32_t pid = 0;
        std::int32_t tid = 0; ///< -1 for a process name
        std::string name;
    };
    std::vector<TrackName> track_names_;
};

} // namespace cooprt::trace

// Emission macros: a single branch when the tracer pointer is null.
#define COOPRT_TRACE_COMPLETE(tracer, cat, name, pid, tid, ts, dur)    \
    do {                                                               \
        if (tracer)                                                    \
            (tracer)->complete(cat, name, pid, tid, ts, dur);          \
    } while (0)
#define COOPRT_TRACE_INSTANT(tracer, cat, name, pid, tid, ts)          \
    do {                                                               \
        if (tracer)                                                    \
            (tracer)->instant(cat, name, pid, tid, ts);                \
    } while (0)
#define COOPRT_TRACE_COUNTER(tracer, cat, name, pid, ts, value)        \
    do {                                                               \
        if (tracer)                                                    \
            (tracer)->counter(cat, name, pid, ts, value);              \
    } while (0)

#endif // COOPRT_TRACE_CHROME_TRACE_HPP
