/**
 * @file
 * Tests for the OBJ importer/exporter.
 */

#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "../byte_mutator.hpp"
#include "scene/obj_io.hpp"
#include "scene/primitives.hpp"

namespace {

using cooprt::geom::Vec3;
using cooprt::scene::loadObj;
using cooprt::scene::Mesh;
using cooprt::scene::saveObj;

TEST(ObjIo, LoadSingleTriangle)
{
    std::istringstream in("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n");
    Mesh m;
    EXPECT_EQ(loadObj(in, m), 1u);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m.tri(0).v0, Vec3(0, 0, 0));
    EXPECT_EQ(m.tri(0).v2, Vec3(0, 1, 0));
}

TEST(ObjIo, QuadFaceFanTriangulated)
{
    std::istringstream in(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n");
    Mesh m;
    EXPECT_EQ(loadObj(in, m), 2u);
    EXPECT_EQ(m.size(), 2u);
}

TEST(ObjIo, SlashSyntaxIgnoresExtraIndices)
{
    std::istringstream in(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n");
    Mesh m;
    EXPECT_EQ(loadObj(in, m), 1u);
}

TEST(ObjIo, NegativeIndicesResolveRelative)
{
    std::istringstream in("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n");
    Mesh m;
    EXPECT_EQ(loadObj(in, m), 1u);
    EXPECT_EQ(m.tri(0).v1, Vec3(1, 0, 0));
}

TEST(ObjIo, CommentsAndUnknownRecordsIgnored)
{
    std::istringstream in("# hello\no thing\nvn 0 0 1\nvt 0 0\n"
                          "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n");
    Mesh m;
    EXPECT_EQ(loadObj(in, m), 1u);
}

TEST(ObjIo, OutOfRangeIndexThrows)
{
    std::istringstream in("v 0 0 0\nv 1 0 0\nf 1 2 9\n");
    Mesh m;
    EXPECT_THROW(loadObj(in, m), std::runtime_error);
}

TEST(ObjIo, MalformedVertexThrows)
{
    std::istringstream in("v 0 zero 0\n");
    Mesh m;
    EXPECT_THROW(loadObj(in, m), std::runtime_error);
}

TEST(ObjIo, TooFewFaceVertsThrows)
{
    std::istringstream in("v 0 0 0\nv 1 0 0\nf 1 2\n");
    Mesh m;
    EXPECT_THROW(loadObj(in, m), std::runtime_error);
}

TEST(ObjIo, MaterialIdAssigned)
{
    std::istringstream in("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n");
    Mesh m;
    loadObj(in, m, 3);
    EXPECT_EQ(m.materialOf(0), 3);
}

TEST(ObjIo, RoundTripPreservesGeometry)
{
    Mesh original;
    addBox(original, {0, 0, 0}, {1, 2, 3});
    addSphere(original, {5, 5, 5}, 1.0f, 8);

    std::stringstream buf;
    saveObj(buf, original);
    Mesh loaded;
    EXPECT_EQ(loadObj(buf, loaded), original.size());
    ASSERT_EQ(loaded.size(), original.size());
    for (std::uint32_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded.tri(i).v0, original.tri(i).v0) << i;
        EXPECT_EQ(loaded.tri(i).v1, original.tri(i).v1) << i;
        EXPECT_EQ(loaded.tri(i).v2, original.tri(i).v2) << i;
    }
    EXPECT_EQ(loaded.bounds().lo, original.bounds().lo);
    EXPECT_EQ(loaded.bounds().hi, original.bounds().hi);
}

TEST(ObjIo, SeededByteMutantsLoadOrThrow)
{
    Mesh base;
    cooprt::scene::addBox(base, Vec3(0, 0, 0), Vec3(1, 2, 3));
    cooprt::scene::addSphere(base, Vec3(5, 0, 0), 1.5f, 6);
    std::ostringstream os;
    saveObj(os, base);
    // Plus the record forms saveObj never writes.
    const std::string valid =
        os.str() + "vn 0 0 1\nvt 0.5 0.5\no part\n"
                   "f 1/1/1 2/2/2 3/3/3 4/4/4\nf -3 -2 -1\n";

    // Every mutant either loads or throws; the sanitizer builds run
    // this too, so a crash or UB on malformed input fails here.
    cooprt::geom::Pcg32 rng(0x0b1ec7);
    int loaded = 0;
    int threw = 0;
    for (int i = 0; i < 2000; ++i) {
        std::istringstream in(cooprt::testutil::mutate(
            valid, cooprt::testutil::Mutation(i % cooprt::testutil::kNumMutations), rng));
        Mesh m;
        try {
            const std::size_t added = loadObj(in, m);
            EXPECT_EQ(added, m.size());
            ++loaded;
        } catch (const std::runtime_error &) {
            ++threw;
        }
    }
    EXPECT_GT(loaded, 0);
    EXPECT_GT(threw, 0);
}

} // namespace
