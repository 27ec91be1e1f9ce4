/**
 * @file
 * The per-component metric registry at the heart of the
 * observability subsystem (`cooprt::trace`).
 *
 * Components register their counters under hierarchical dotted names
 * at construction time:
 *
 *     reg.probe("rtunit.sm0.node_fetches",
 *               [this] { return double(stats_.node_fetches); }, this);
 *
 * and the simulator (or any tool) reads them by name: the
 * MetricsSampler lists the names matching a filter such as `rtunit.*`
 * once, binds each to its probe with find(), and rebinds only when
 * generation() says the registrations changed; snapshot() copies
 * every matching (name, value) pair at once.
 *
 * Every metric is a probe: a callback reading a component's live
 * state (existing stats structs stay the public API; the registry is
 * the uniform enumeration layer over them). A derived quantity, such
 * as a mean, is a probe that computes it from those fields.
 *
 * Probes are tagged with an owner token so a component's destructor
 * can drop its registrations (`unregisterOwner`); re-registering an
 * existing name overwrites, which makes per-run re-registration of
 * rebuilt components idempotent.
 */

#ifndef COOPRT_TRACE_REGISTRY_HPP
#define COOPRT_TRACE_REGISTRY_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cooprt::trace {

/**
 * True when @p name matches @p filter. A filter is a comma-separated
 * list of patterns; a pattern matches by exact name, or as a prefix
 * when it ends in `*` (`rtunit.*`, `mem.l2.*`). The empty filter
 * matches everything.
 */
bool nameMatchesFilter(std::string_view name, std::string_view filter);

/** One (name, value) pair of a registry snapshot. */
struct MetricSample
{
    std::string name;
    double value = 0.0;
};

/**
 * The registry. Not thread-safe (the simulator is single-threaded);
 * must outlive every component that registered an owned probe.
 */
class Registry
{
  public:
    /** A live-state reader; invoked at each read. */
    using Probe = std::function<double()>;

    /**
     * Register (or overwrite) a probe under @p name. @p owner tags
     * the registration for `unregisterOwner`; pass the registering
     * component so its destructor can clean up.
     */
    void probe(const std::string &name, Probe fn,
               const void *owner = nullptr);

    /** Drop every probe registered with @p owner. */
    void unregisterOwner(const void *owner);

    /** Snapshot every probe whose name matches @p filter, sorted by
     *  name. */
    std::vector<MetricSample> snapshot(std::string_view filter = {}) const;

    /** Names of the probes matching @p filter, sorted. */
    std::vector<std::string> names(std::string_view filter = {}) const;

    /**
     * The probe registered under @p name, or null. The pointer stays
     * valid until generation() changes.
     */
    const Probe *find(std::string_view name) const;

    /** Advances on every probe() and every unregisterOwner() that
     *  drops a probe: a reader holding find() results rebinds when
     *  it changes. */
    std::uint64_t generation() const { return generation_; }

    /** Registered probe count. */
    std::size_t size() const { return probes_.size(); }

  private:
    struct ProbeEntry
    {
        Probe fn;
        const void *owner = nullptr;
    };

    // Iterates name-sorted; std::less<> looks up by string_view.
    std::map<std::string, ProbeEntry, std::less<>> probes_;
    std::uint64_t generation_ = 0;
};

} // namespace cooprt::trace

#endif // COOPRT_TRACE_REGISTRY_HPP
