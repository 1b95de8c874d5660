/* Fused OLH support-count scan, loaded by repro.core.backends (native).
 *
 * support[x] counts the users whose noisy bucket equals their hash of x,
 * hash(x) = avalanche(offset + x) mod g with offset = seed * 0x9E3779B97F4A7C15:
 * the numpy scan's result, bit for bit, in one pass per (user, element).
 * Domain blocks of `block` candidates run outermost, so a block's counters
 * stay in L1 while every user sweeps it.
 *
 * Both scan entry points are built three times (target_clones) and the
 * loader picks the widest the CPU runs: x86-64-v4 (AVX-512, whose vpmullq
 * does splitmix64's 64-bit multiplies in one lane op), avx2, default.
 * Define HOT empty (-DHOT=) for a single-ISA build of whatever -m flags
 * say.
 */
#include <stdint.h>
#include <stdlib.h>

#ifndef HOT
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define HOT __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#define REPRO_CLONED 1
#endif
#endif
#endif
#ifndef HOT
#define HOT
#endif

#define SEED_MIX UINT64_C(0x9E3779B97F4A7C15)

/* repro_olh_support_counts_levels return codes (0 is success). */
#define REPRO_BAD_LEVEL 1
#define REPRO_NO_MEMORY 2

static inline uint64_t avalanche(uint64_t x)
{
    x ^= x >> 30;
    x *= UINT64_C(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x *= UINT64_C(0x94D049BB133111EB);
    return x ^ (x >> 31);
}

/* Inlined into each clone of each entry point, so it runs on that
 * clone's ISA. */
static inline __attribute__((always_inline)) void scan(
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

/* One domain, offsets hoisted by the caller. */
HOT void repro_olh_support_counts(
    const uint64_t *offsets, const uint64_t *targets, int64_t users,
    int64_t domain, uint64_t buckets, int64_t block, int64_t *support)
{
    scan(offsets, targets, users, domain, buckets, block, support);
}

/* Every prefix level of a heavy-hitter batch in one call.  User u sits on
 * level levels[u] < num_levels and reports pairs[2u] (seed) and
 * pairs[2u + 1] (noisy bucket); level l's counts fill its domains[l]
 * slots of `support`, right after level l - 1's.  A counting sort groups
 * the users by level into one scratch buffer of (offset, target) runs. */
HOT int repro_olh_support_counts_levels(
    const int64_t *levels, const int64_t *pairs, int64_t users,
    int64_t num_levels, const int64_t *domains, uint64_t buckets,
    int64_t block, int64_t *support)
{
    int64_t *starts = calloc((size_t)num_levels + 1, sizeof *starts);
    uint64_t *offsets = malloc(2 * (size_t)users * sizeof *offsets + 1);
    if (starts == NULL || offsets == NULL) {
        free(starts);
        free(offsets);
        return REPRO_NO_MEMORY;
    }
    uint64_t *targets = offsets + users;
    for (int64_t u = 0; u < users; u++) {
        if (levels[u] < 0 || levels[u] >= num_levels) {
            free(starts);
            free(offsets);
            return REPRO_BAD_LEVEL;
        }
        starts[levels[u] + 1]++;
    }
    for (int64_t l = 0; l < num_levels; l++)
        starts[l + 1] += starts[l];
    for (int64_t u = 0; u < users; u++) {
        const int64_t slot = starts[levels[u]]++;
        offsets[slot] = (uint64_t)pairs[2 * u] * SEED_MIX;
        targets[slot] = (uint64_t)pairs[2 * u + 1];
    }
    /* Each starts[l] now holds level l's end, which is level l + 1's start. */
    int64_t begin = 0;
    for (int64_t l = 0; l < num_levels; l++) {
        scan(offsets + begin, targets + begin, starts[l] - begin, domains[l],
             buckets, block, support);
        support += domains[l];
        begin = starts[l];
    }
    free(starts);
    free(offsets);
    return 0;
}

/* Which clone the loader dispatches to, in its priority order. */
const char *repro_olh_clone(void)
{
#ifdef REPRO_CLONED
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4"))
        return "x86-64-v4";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}
