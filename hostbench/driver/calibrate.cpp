#include "calibrate.hpp"

#include <algorithm>
#include <numeric>
#include <time.h>

namespace cooprt::hostbench {

namespace {

constexpr int kDepth = 17;             // 128 Ki nodes, 4 MiB of tree
constexpr int kRays = 12000;           // one run: about 0.5 M node visits
constexpr int kMaxVisits = 64;         // per ray
constexpr std::uint32_t kSets = 2048;  // 4-way tag array, 64 KiB
constexpr std::uint32_t kWays = 4;

std::uint64_t
mix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

float
unit(std::uint64_t &state)
{
    return float(mix(state) >> 40) * (1.0f / float(1u << 24));
}

} // namespace

std::uint64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::uint64_t(ts.tv_sec) * 1000000000u +
           std::uint64_t(ts.tv_nsec);
}

Calibration::Calibration()
    : nodes_((1u << kDepth) - 1), tags_(std::size_t(kSets) * kWays, ~0ull)
{
    // A complete binary tree in heap order, stored at shuffled slots so
    // that following a child is a random access, as in a real BVH.
    std::uint64_t rng = 0x5eedc0ffee;
    std::vector<std::uint32_t> slot(nodes_.size());
    std::iota(slot.begin(), slot.end(), 0u);
    for (std::size_t i = slot.size() - 1; i > 1; --i)
        std::swap(slot[i], slot[1 + mix(rng) % i]);  // the root stays at 0

    struct Box
    {
        float lo[3], hi[3];
    };
    std::vector<Box> box(nodes_.size());
    box[0] = {{0, 0, 0}, {1, 1, 1}};
    for (std::size_t h = 0; h < nodes_.size(); ++h) {
        Node &n = nodes_[slot[h]];
        std::copy(box[h].lo, box[h].lo + 3, n.lo);
        std::copy(box[h].hi, box[h].hi + 3, n.hi);
        const std::size_t l = 2 * h + 1;
        if (l + 1 >= nodes_.size()) {
            n.child[0] = n.child[1] = ~0u;
            continue;
        }
        // Children split the box along one axis with a random, slightly
        // overlapping cut.
        const int axis = int(h % 3);
        const float lo = box[h].lo[axis], hi = box[h].hi[axis];
        const float cut = lo + (hi - lo) * (0.35f + 0.3f * unit(rng));
        const float pad = (hi - lo) * 0.05f;
        box[l] = box[l + 1] = box[h];
        box[l].hi[axis] = cut + pad;
        box[l + 1].lo[axis] = cut - pad;
        n.child[0] = slot[l];
        n.child[1] = slot[l + 1];
    }
}

double
Calibration::run()
{
    const std::uint64_t t0 = cpuNs();
    std::uint64_t rng = 0xca11b4a7e;
    std::uint64_t hits = 0;
    std::uint32_t victim = 0;
    std::uint32_t stack[kDepth + 1];
    for (int r = 0; r < kRays; ++r) {
        float o[3], inv[3];
        for (int a = 0; a < 3; ++a) {
            o[a] = unit(rng);
            const float d = unit(rng) - 0.5f;
            inv[a] = 1.0f / (d == 0.0f ? 1e-6f : d);
        }
        int top = 0;
        stack[top++] = 0;
        for (int visits = 0; top > 0 && visits < kMaxVisits; ++visits) {
            const std::uint32_t id = stack[--top];
            // Tag lookup of the node's cache line, round-robin refill.
            const std::uint64_t line = std::uint64_t(id) >> 1;
            const std::uint32_t set =
                std::uint32_t((line * 0x9e3779b97f4a7c15ull) >> 53) &
                (kSets - 1);
            std::uint64_t *ways = &tags_[std::size_t(set) * kWays];
            bool hit = false;
            for (std::uint32_t w = 0; w < kWays; ++w)
                hit |= ways[w] == line;
            if (hit)
                ++hits;
            else
                ways[victim++ % kWays] = line;

            const Node &n = nodes_[id];
            if (n.child[0] == ~0u) {
                sink_ += id;
                continue;
            }
            float tnear[2];
            bool in[2];
            for (int c = 0; c < 2; ++c) {
                const Node &k = nodes_[n.child[c]];
                float t0s = 0.0f, t1s = 1e30f;
                for (int a = 0; a < 3; ++a) {
                    float ta = (k.lo[a] - o[a]) * inv[a];
                    float tb = (k.hi[a] - o[a]) * inv[a];
                    if (ta > tb)
                        std::swap(ta, tb);
                    t0s = std::max(t0s, ta);
                    t1s = std::min(t1s, tb);
                }
                tnear[c] = t0s;
                in[c] = t0s <= t1s;
            }
            // Near child last, so it is popped first.
            const int near = tnear[1] < tnear[0] ? 1 : 0;
            if (in[1 - near] && top < kDepth)
                stack[top++] = n.child[1 - near];
            if (in[near] && top < kDepth)
                stack[top++] = n.child[near];
        }
    }
    sink_ += hits;
    return double(cpuNs() - t0) * 1e-9;
}

} // namespace cooprt::hostbench
