#pragma once

/**
 * @file
 * CRC32C (Castagnoli) — the frame checksum of the v3 on-disk formats.
 *
 * The sweep journal, checkpoint stream and spool markers frame every
 * record with a CRC32C over the record header + payload so a torn or
 * bit-flipped frame is detected and truncated-to-last-good instead of
 * being half-applied. CRC32C is chosen over the FNV fold used for
 * *semantic* digests (sim/fnv.h) because it is an error-detection
 * code with guaranteed burst-error behaviour, it has a fixed
 * little-endian 32-bit wire width, and the same polynomial (0x1EDC6F41,
 * reflected 0x82F63B78) is what iSCSI/ext4/RocksDB frame with — any
 * external tool can validate a journal without linking this repo.
 *
 * Portable slice-by-8: eight 256-entry tables, built at compile time,
 * fold eight input bytes per step. Journal traffic is not small — a
 * sweep checksums every row record and every multi-MB machine
 * checkpoint twice (framing on write, validation on resume) — so the
 * byte-at-a-time loop showed up in sweep profiles. Bytes are combined
 * one by one, so the result is independent of host endianness and
 * alignment, and no CPU feature (SSE4.2 / ARMv8 CRC instructions) is
 * probed.
 */

#include <cstddef>
#include <cstdint>

namespace syscomm::sim {

namespace crc32c_detail {

/** entry[0] is the bytewise table; entry[k][b] advances entry[k-1][b]
 *  by one more zero byte. */
struct Tables
{
    std::uint32_t entry[8][256] = {};

    constexpr Tables()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
            entry[0][i] = c;
        }
        for (int k = 1; k < 8; ++k) {
            for (std::uint32_t i = 0; i < 256; ++i) {
                const std::uint32_t prev = entry[k - 1][i];
                entry[k][i] = (prev >> 8) ^ entry[0][prev & 0xff];
            }
        }
    }
};

inline constexpr Tables kTables{};

} // namespace crc32c_detail

/**
 * CRC32C of @p len bytes at @p data, chained from @p seed (pass the
 * previous call's return value to checksum discontiguous pieces;
 * pass 0 to start).
 */
inline std::uint32_t
crc32c(const void* data, std::size_t len, std::uint32_t seed = 0)
{
    const auto& t = crc32c_detail::kTables.entry;
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint32_t c = ~seed;
    for (; len >= 8; p += 8, len -= 8) {
        c ^= static_cast<std::uint32_t>(p[0]) |
             static_cast<std::uint32_t>(p[1]) << 8 |
             static_cast<std::uint32_t>(p[2]) << 16 |
             static_cast<std::uint32_t>(p[3]) << 24;
        c = t[7][c & 0xff] ^ t[6][(c >> 8) & 0xff] ^
            t[5][(c >> 16) & 0xff] ^ t[4][c >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return ~c;
}

} // namespace syscomm::sim
