/* Fused OLH support-count scan, loaded by repro.core.backends (native).
 *
 * support[x] counts the users whose noisy bucket equals their hash of x,
 * hash(x) = avalanche(offset + x) mod g with offset = seed * 0x9E3779B97F4A7C15
 * (the Python side hoists it): the numpy scan's result, bit for bit, in one
 * pass per (user, element).  Domain blocks of `block` candidates run
 * outermost, so a block's counters stay in L1 while every user sweeps it.
 */
#include <stdint.h>

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define HOT __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef HOT
#define HOT
#endif

static inline uint64_t avalanche(uint64_t x)
{
    x ^= x >> 30;
    x *= UINT64_C(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x *= UINT64_C(0x94D049BB133111EB);
    return x ^ (x >> 31);
}

HOT void repro_olh_support_counts(
    const uint64_t *offsets, const uint64_t *targets, int64_t users,
    int64_t domain, uint64_t buckets, int64_t block, int64_t *support)
{
    /* A power-of-two g folds by mask.  Any other g = 2^k * odd tests
     * h mod g == t as t < g, h >= t and g | (h - t), where g | n iff
     * rotr(n * odd^-1 mod 2^64, k) <= (2^64 - 1) / g (Granlund and
     * Montgomery, PLDI '94): one multiply, no divide, and it vectorises. */
    const uint64_t mask = buckets - 1;
    const int pow2 = (buckets & mask) == 0;
    const int shift = pow2 ? 0 : __builtin_ctzll(buckets);
    const uint64_t odd = buckets >> shift, limit = pow2 ? 0 : UINT64_MAX / buckets;
    uint64_t inverse = odd; /* Newton: each step doubles the correct low bits */
    for (int step = 0; step < 5; step++)
        inverse *= 2 - odd * inverse;
    for (int64_t start = 0; start < domain; start += block) {
        const int64_t width = domain - start < block ? domain - start : block;
        int64_t *row = support + start;
        for (int64_t u = 0; u < users; u++) {
            const uint64_t base = offsets[u] + (uint64_t)start, target = targets[u];
            if (pow2) {
                for (int64_t c = 0; c < width; c++)
                    row[c] += (avalanche(base + (uint64_t)c) & mask) == target;
            } else if (target < buckets) {
                for (int64_t c = 0; c < width; c++) {
                    const uint64_t h = avalanche(base + (uint64_t)c);
                    const uint64_t q = (h - target) * inverse;
                    row[c] += (h >= target) & (((q >> shift) | (q << ((64 - shift) & 63))) <= limit);
                }
            }
        }
    }
}
