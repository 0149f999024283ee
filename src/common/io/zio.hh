/**
 * @file
 * Streaming compression + self-identifying container ("VPRZ") for
 * checkpoints, result-cache entries and grid result archives, plus
 * magic-byte format autodetection so readers ingest compressed and
 * plain inputs alike.
 *
 * Container layout:
 *
 *   magic "VPRZ" (4 bytes)
 *   u8  container version (2; version 1 is still read)
 *   u8  codec: 0 = store (no compression), 1 = zlib deflate
 *   u16 kind length, kind bytes — what the payload is ("ckpt",
 *       "result", "results"); a reader expecting one kind rejects
 *       another
 *   u64 raw (uncompressed) payload size
 *   u64 stored (possibly compressed) payload size
 *   stored payload bytes
 *   u64 checksum of the raw payload
 *
 * The checksum is what the version changes. Version 2 reads the payload
 * as little-endian 64-bit words in four independent lanes and mixes in
 * its length (about 15x faster than a byte-wise hash, which matters
 * because store hits are checksum-bound); for a given length, any
 * change confined to one word — every single-byte flip — always
 * changes it. Version 1 summed the payload byte by byte with FNV-1a;
 * such containers (caches and archives written before version 2) stay
 * readable.
 *
 * The content-addressed stores write the store codec: a hit then costs
 * one file read and one checksum pass, no inflate (see sim/store.hh).
 * Grid result archives (--out=*.vprz) deflate. zlib is found by CMake;
 * when absent the codec falls back to store so the container still
 * round-trips (compression is a size optimization, never a correctness
 * dependency). Every malformed input throws CkptError with a message
 * naming the first failed check.
 */

#ifndef VPR_COMMON_IO_ZIO_HH
#define VPR_COMMON_IO_ZIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace vpr
{

/** Detected on-disk format of an input file (by magic bytes). */
enum class FileFormat : std::uint8_t
{
    Vprz,   ///< "VPRZ" compressed container
    Plain,  ///< anything else (CSV/JSON results, text)
};

/** Classify a buffer by its leading magic bytes. */
FileFormat guessFormat(const std::string &data);

/** True when zlib was linked in (codec 1 available). */
bool zlibAvailable();

/** Wrap @p payload in a VPRZ container of @p kind, deflated when zlib
 *  is available (or @p compress is false → store codec). */
std::string vprzPack(const std::string &payload, const std::string &kind,
                     bool compress = true);

/** Unwrap a VPRZ container, inflating as needed. Throws CkptError on
 *  any malformed field or on a kind mismatch (@p expectKind empty =
 *  accept any kind). */
std::string vprzUnpack(const std::string &raw,
                       const std::string &expectKind = std::string());

/** vprzUnpack without the payload copy: the verified payload as a view
 *  into @p raw (store codec) or into @p inflated (deflate codec, which
 *  this fills). The view lives as long as both buffers do. */
std::string_view vprzPayload(std::string_view raw,
                             std::string_view expectKind,
                             std::string &inflated);

/** Read a whole file into a string; false when unreadable. */
bool readFileBytes(const std::string &path, std::string &out);

/** A whole regular file in a heap buffer that is never zero-filled:
 *  the store read path, where a file is read once and then only
 *  viewed. */
class FileBuffer
{
  public:
    /** Read @p path; false (and empty) when it cannot be opened or is
     *  not a regular file. */
    bool read(const std::string &path);

    std::string_view
    view() const
    {
        return std::string_view(bytes.get(), len);
    }

  private:
    std::unique_ptr<char[]> bytes;
    std::size_t len = 0;
};

/** Write @p data to @p path atomically (unique temp file in the same
 *  directory + rename), so concurrent grid cells racing to publish the
 *  same checkpoint never expose a partial file. False on I/O failure. */
bool writeFileAtomic(const std::string &path, const std::string &data);

} // namespace vpr

#endif // VPR_COMMON_IO_ZIO_HH
