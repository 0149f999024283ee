/**
 * @file
 * VPRZ containers as the version-1 writer made them: the same layout
 * with version byte 1 and a byte-wise FNV-1a checksum. Store entries
 * and archives written before version 2 look like this, and the tests
 * that pin that they stay readable build them here.
 */

#ifndef VPR_TESTS_SUPPORT_VPRZ_V1_HH
#define VPR_TESTS_SUPPORT_VPRZ_V1_HH

#include <cstdint>
#include <string>

#include "common/io/zio.hh"
#include "common/state.hh"

namespace vpr
{
namespace testsupport
{

/** @p container (any version, any codec) rewritten as version 1. */
inline std::string
asVprzVersion1(const std::string &container)
{
    const std::uint64_t sum = fnv1a(vprzUnpack(container));
    std::string out = container;
    out[4] = 1;  // the version byte, after the 4-byte magic
    for (int i = 0; i < 8; ++i)
        out[out.size() - 8 + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
    return out;
}

/** A deflated version-1 container of @p payload: a store entry as the
 *  version-1 writer saved it. */
inline std::string
packVprzVersion1(const std::string &payload, const std::string &kind)
{
    return asVprzVersion1(vprzPack(payload, kind, /*compress=*/true));
}

} // namespace testsupport
} // namespace vpr

#endif // VPR_TESTS_SUPPORT_VPRZ_V1_HH
