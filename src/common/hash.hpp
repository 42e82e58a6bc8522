/**
 * @file
 * FNV-1a content hashing used for cache keys and fingerprints.
 *
 * The compile-service cache keys results by (circuit content hash,
 * architecture fingerprint, options digest); all three are built on this
 * hasher so the key derivation is one deterministic, dependency-free
 * algorithm. 64-bit FNV-1a is not cryptographic — collisions are
 * possible in principle — but at the cache sizes involved (thousands of
 * entries) the collision probability is negligible, and a collision can
 * only cause a stale-but-valid compile result, never memory unsafety.
 */

#ifndef ZAC_COMMON_HASH_HPP
#define ZAC_COMMON_HASH_HPP

#include <bit>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace zac
{

/**
 * Incremental 64-bit FNV-1a hasher.
 *
 * Every ingest method feeds a fixed-width encoding, so the digest is
 * identical across platforms (no padding bytes, no size_t width
 * dependence). Streams of variable-length fields must be length-prefixed
 * by the caller (see Circuit::contentHash) to keep the encoding
 * prefix-free.
 */
class Fnv1a
{
  public:
    static constexpr std::uint64_t kOffset = 1469598103934665603ull;
    static constexpr std::uint64_t kPrime = 1099511628211ull;

    /** Ingest raw bytes. */
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= kPrime;
        }
    }

    /** Ingest one unsigned 64-bit value (little-endian byte order). */
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= static_cast<unsigned char>(v >> (8 * i));
            h_ *= kPrime;
        }
    }

    /** Ingest one signed 64-bit value. */
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** Ingest one 32-bit value. */
    void u32(std::uint32_t v) { u64(v); }

    /** Ingest one byte-sized tag (e.g. an enum discriminator). */
    void u8(std::uint8_t v)
    {
        h_ ^= v;
        h_ *= kPrime;
    }

    /**
     * Ingest one double by bit pattern. -0.0 is canonicalized to +0.0
     * so numerically-equal parameter lists hash equally; NaNs keep
     * their payload (two NaN-parameterized circuits may differ, which
     * only costs a cache miss).
     */
    void
    f64(double d)
    {
        if (d == 0.0)
            d = 0.0; // collapse -0.0
        u64(std::bit_cast<std::uint64_t>(d));
    }

    /** Ingest a length-prefixed string. */
    void
    str(std::string_view s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** The current digest. */
    std::uint64_t digest() const { return h_; }

  private:
    std::uint64_t h_ = kOffset;
};

/** One-shot convenience: FNV-1a over a byte string. */
inline std::uint64_t
fnv1a(std::string_view s)
{
    Fnv1a h;
    h.bytes(s.data(), s.size());
    return h.digest();
}

/**
 * A 64-bit hash as "0x" and 16 hex digits, the form JSON records carry:
 * a JSON number is a double and cannot hold every uint64.
 */
inline std::string
hexDigest(std::uint64_t h)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h);
    return buf;
}

/**
 * Mix two 64-bit hashes into one (order-sensitive). Used to fold the
 * three cache-key components into shard/bucket indices.
 */
inline std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    Fnv1a h;
    h.u64(a);
    h.u64(b);
    return h.digest();
}

} // namespace zac

#endif // ZAC_COMMON_HASH_HPP
