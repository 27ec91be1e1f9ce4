#include "trace/registry.hpp"

namespace cooprt::trace {

bool
nameMatchesFilter(std::string_view name, std::string_view filter)
{
    if (filter.empty())
        return true;
    std::size_t start = 0;
    while (start <= filter.size()) {
        std::size_t end = filter.find(',', start);
        if (end == std::string_view::npos)
            end = filter.size();
        const std::string_view pat = filter.substr(start, end - start);
        if (!pat.empty()) {
            if (pat.back() == '*') {
                const std::string_view prefix =
                    pat.substr(0, pat.size() - 1);
                if (name.substr(0, prefix.size()) == prefix)
                    return true;
            } else if (name == pat) {
                return true;
            }
        }
        start = end + 1;
    }
    return false;
}

void
Registry::probe(const std::string &name, Probe fn, const void *owner)
{
    probes_[name] = ProbeEntry{std::move(fn), owner};
    ++generation_;
}

void
Registry::unregisterOwner(const void *owner)
{
    if (owner == nullptr)
        return;
    for (auto it = probes_.begin(); it != probes_.end();) {
        if (it->second.owner == owner) {
            it = probes_.erase(it);
            ++generation_;
        } else {
            ++it;
        }
    }
}

std::vector<MetricSample>
Registry::snapshot(std::string_view filter) const
{
    std::vector<MetricSample> out;
    out.reserve(probes_.size());
    for (const auto &[name, p] : probes_)
        if (nameMatchesFilter(name, filter))
            out.push_back({name, p.fn ? p.fn() : 0.0});
    return out;
}

std::vector<std::string>
Registry::names(std::string_view filter) const
{
    std::vector<std::string> out;
    for (const auto &entry : probes_)
        if (nameMatchesFilter(entry.first, filter))
            out.push_back(entry.first);
    return out;
}

const Registry::Probe *
Registry::find(std::string_view name) const
{
    const auto it = probes_.find(name);
    return it != probes_.end() ? &it->second.fn : nullptr;
}

} // namespace cooprt::trace
