#include "scene/registry.hpp"

#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>

#include "scene/generators.hpp"

namespace cooprt::scene {

namespace {

/** Monotonic host seconds, for Scene::build_seconds only (scene does
 *  not depend on cooprt_telemetry; telemetry re-reports the value). */
double
wallSeconds()
{
    // cooprt-lint: allow(unseeded-randomness) one-time scene
    // construction cost is reporting-only (telemetry scene_load
    // phase) and never feeds simulated state
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch())
        .count();
}

} // namespace

const std::vector<std::string> &
SceneRegistry::allLabels()
{
    static const std::vector<std::string> labels = {
        "wknd", "ship", "bunny", "spnza", "chsnt", "bath", "ref",
        "crnvl", "fox", "party", "sprng", "lands", "frst", "car",
        "robot",
    };
    return labels;
}

const std::vector<std::string> &
SceneRegistry::queryLabels()
{
    static const std::vector<std::string> labels = {
        "ptsu", "ptsc", "ptss", "amrs", "amrd",
    };
    return labels;
}

bool
SceneRegistry::has(const std::string &label)
{
    for (const auto &l : allLabels())
        if (l == label)
            return true;
    for (const auto &l : queryLabels())
        if (l == label)
            return true;
    return false;
}

Scene
SceneRegistry::build(const std::string &label)
{
    // Parameters are chosen so that (a) triangle counts — and hence
    // BVH sizes/depths — follow the relative ordering of the paper's
    // Table 2, and (b) openness/clustering reproduces each scene's
    // divergence profile described in Sections 3 and 7.1.
    // Sizes are chosen so that every tree exceeds the (bench-scaled)
    // L1 and most exceed the L2, keeping traversal memory-bound as
    // in the paper, whose trees span 0.2 MB - 1.7 GB (Table 2).
    if (label == "wknd")
        return makeObjectScene("wknd", 101, 56, 0.8f);
    if (label == "ship")
        return makeShipScene("ship", 102, 2500);
    if (label == "bunny")
        return makeObjectScene("bunny", 103, 110);
    if (label == "spnza")
        // Fully enclosed atrium: minimal exposed sky, high SIMT
        // efficiency despite many BVH node visits (paper Section 7.1).
        return makeClosedRoomScene("spnza", 104, 22, 0.0f, 90);
    if (label == "chsnt")
        return makeTreeScene("chsnt", 105, 300);
    if (label == "bath")
        return makeClosedRoomScene("bath", 106, 18, 0.25f, 70);
    if (label == "ref")
        return makeClosedRoomScene("ref", 107, 26, 0.10f, 90);
    if (label == "crnvl")
        // Sparse open structures with dense lattices: extreme
        // divergence + long surviving traversals, highest gains.
        return makeCarnivalScene("crnvl", 108, 120, 60);
    if (label == "fox")
        // Sparse stand of extremely dense crowns: most rays escape
        // between trees (divergence), the rest traverse very long —
        // the paper's best-case scene (up to 5.11x there).
        return makeForestScene("fox", 109, 2250, 40, 0.85f);
    if (label == "party")
        return makeCarnivalScene("party", 110, 130, 70);
    if (label == "sprng")
        return makeForestScene("sprng", 111, 400, 55, 0.90f);
    if (label == "lands")
        return makeTerrainScene("lands", 112, 140);
    if (label == "frst")
        return makeForestScene("frst", 113, 700, 70, 0.95f);
    if (label == "car")
        return makeObjectScene("car", 114, 350, 1.2f);
    if (label == "robot")
        return makeObjectScene("robot", 115, 400, 1.4f);
    // Query scenes (cooprt::query): proxy-primitive point clouds and
    // AMR grids, sized so their trees land in the same
    // L1-exceeding range as the rendering scenes above.
    if (label == "ptsu")
        return makeUniformPointCloudScene("ptsu", 116, 9000);
    if (label == "ptsc")
        return makeClusteredPointCloudScene("ptsc", 117, 9000, 24);
    if (label == "ptss")
        return makeSurfacePointCloudScene("ptss", 118, 9000);
    if (label == "amrs")
        return makeAmrScene("amrs", 119, 4, 0.55f);
    if (label == "amrd")
        return makeAmrScene("amrd", 120, 6, 1.3f);
    throw std::out_of_range("unknown scene label: " + label);
}

namespace {

/**
 * Per-label build-once slot. The map itself is created once (all
 * labels pre-inserted, structure immutable afterwards, so concurrent
 * lookups need no lock) and each scene builds under its own
 * once_flag — different labels build concurrently on the campaign
 * pool, the same label exactly once.
 */
struct SceneSlot
{
    std::once_flag once;
    std::unique_ptr<Scene> scene;
};

std::map<std::string, SceneSlot> &
sceneCache()
{
    static std::map<std::string, SceneSlot> cache;
    static std::once_flag init;
    std::call_once(init, [] {
        for (const auto &l : SceneRegistry::allLabels())
            cache.try_emplace(l);
        for (const auto &l : SceneRegistry::queryLabels())
            cache.try_emplace(l);
    });
    return cache;
}

} // namespace

const Scene &
SceneRegistry::get(const std::string &label)
{
    auto &cache = sceneCache();
    auto it = cache.find(label);
    if (it == cache.end())
        throw std::out_of_range("unknown scene label: " + label);
    SceneSlot &slot = it->second;
    std::call_once(slot.once, [&] {
        const double t0 = wallSeconds();
        auto s = std::make_unique<Scene>(build(label));
        s->default_resolution = benchResolution(label);
        s->build_seconds = wallSeconds() - t0;
        slot.scene = std::move(s);
    });
    return *slot.scene;
}

int
SceneRegistry::benchResolution(const std::string &label)
{
    if (label == "car" || label == "robot")
        return 32;
    // The heaviest traversal workloads run at 40x40. This is a
    // bench-scale choice: the paper down-scales only car/robot.
    if (label == "fox" || label == "party" || label == "frst")
        return 40;
    // Query scenes issue one query per "pixel"; 32x32 = 1024 queries
    // keeps the oracle cross-check cheap at bench scale.
    for (const auto &l : queryLabels())
        if (l == label)
            return 32;
    if (!has(label))
        throw std::out_of_range("unknown scene label: " + label);
    return 48;
}

} // namespace cooprt::scene
