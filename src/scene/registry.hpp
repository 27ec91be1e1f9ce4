/**
 * @file
 * The scene registry: 15 procedural stand-ins for the LumiBench scenes
 * evaluated in the paper (its Figs. 1-19 scene axis).
 */

#ifndef COOPRT_SCENE_REGISTRY_HPP
#define COOPRT_SCENE_REGISTRY_HPP

#include <memory>
#include <string>
#include <vector>

#include "scene/scene.hpp"

namespace cooprt::scene {

/**
 * Builds and caches the benchmark scenes by label.
 *
 * Labels follow the paper: wknd, ship, bunny, spnza, chsnt, bath, ref,
 * crnvl, fox, party, sprng, lands, frst, car, robot. (The paper's
 * `park` scene never completed simulation and is excluded there too.)
 *
 * Scenes are built once per process and shared; they are immutable
 * after construction.
 */
class SceneRegistry
{
  public:
    /**
     * The 15 rendering benchmark labels, in the paper's figure
     * order. Query scenes are deliberately *not* included: every
     * existing bench path-traces this list, and the proxy-primitive
     * scenes are not renderable.
     */
    static const std::vector<std::string> &allLabels();

    /**
     * The non-rendering query scenes (`cooprt::query`): three point
     * clouds (ptsu uniform, ptsc Gaussian-mixture, ptss
     * surface-sampled) for k-NN / radius search, and two AMR grids
     * (amrs shallow, amrd deep hotspot-refined) for point
     * containment.
     */
    static const std::vector<std::string> &queryLabels();

    /** True when @p label names a registered scene (either list). */
    static bool has(const std::string &label);

    /**
     * The scene for @p label, built on first use and cached.
     * Throws std::out_of_range for unknown labels.
     */
    static const Scene &get(const std::string &label);

    /**
     * Bench resolution for @p label: 48, except 40 for the heaviest
     * traversal scenes (`fox`/`party`/`frst`) and 32 for `car`/`robot`
     * (the paper renders those two at 128x128 instead of 256x256) and
     * for the query scenes. Throws std::out_of_range for unknown
     * labels.
     */
    static int benchResolution(const std::string &label);

  private:
    static Scene build(const std::string &label);
};

} // namespace cooprt::scene

#endif // COOPRT_SCENE_REGISTRY_HPP
