/**
 * @file
 * Allocation guard for the controller's reactive read path: after a
 * warm-up, MemoryController::read and a scrub that writes nothing back
 * must not touch the heap, on clean words, on words the secondary
 * SECDED corrects and on words it flags uncorrectable. This binary
 * replaces global operator new with a counting one; any per-read
 * BitVector (a rebuilt secondary codeword, a sliced raw copy) shows up
 * as a nonzero count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "common/rng.hh"
#include "ecc/extended_hamming_code.hh"
#include "ecc/hamming_code.hh"
#include "memsys/memory_chip.hh"
#include "memsys/memory_controller.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

} // namespace

// operator new below allocates with malloc, so free is the matching
// release; GCC cannot see that through the replacement.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace harp::mem {
namespace {

/** Heap allocations made by @p fn. */
template <typename Fn>
std::size_t
countAllocations(Fn &&fn)
{
    allocations.store(0);
    counting.store(true);
    fn();
    counting.store(false);
    return allocations.load();
}

/**
 * Two-cell corruption of a clean codeword of @p code, both cells at
 * positions >= @p first, whose on-die decode leaves exactly
 * @p post_errors data bits wrong.
 */
std::optional<gf2::BitVector>
findCorruption(const ecc::HammingCode &code, const gf2::BitVector &stored,
               std::size_t post_errors, std::size_t first)
{
    const gf2::BitVector written = stored.slice(0, code.k());
    gf2::BitVector post(code.k());
    for (std::size_t i = first; i < code.n(); ++i)
        for (std::size_t j = i + 1; j < code.n(); ++j) {
            gf2::BitVector received = stored;
            received.flip(i);
            received.flip(j);
            code.decodeDataInto(received, post);
            if ((post ^ written).popcount() == post_errors) {
                gf2::BitVector mask(code.n());
                mask.set(i, true);
                mask.set(j, true);
                return mask;
            }
        }
    return std::nullopt;
}

TEST(ControllerAllocations, SteadyStateReadsAndCleanScrubsAllocateNothing)
{
    common::Xoshiro256 rng(16);
    const ecc::HammingCode on_die = ecc::HammingCode::randomSec(64, rng);
    MemoryChip chip(on_die, 3);
    MemoryController controller(
        chip, ecc::ExtendedHammingCode::randomSecDed(64, rng));

    // Word 0 clean. Word 1: two parity-cell errors the on-die decoder
    // miscorrects into one data error, which the secondary corrects;
    // its raw data bits stay clean, so its scrub never writes back.
    // Word 2: two post-correction errors the secondary detects.
    for (std::size_t w = 0; w < 3; ++w)
        controller.write(w, gf2::BitVector::random(64, rng));
    const auto single =
        findCorruption(on_die, chip.storedCodeword(1), 1, on_die.k());
    const auto dual = findCorruption(on_die, chip.storedCodeword(2), 2, 0);
    ASSERT_TRUE(single.has_value());
    ASSERT_TRUE(dual.has_value());
    chip.corrupt(1, *single);
    chip.corrupt(2, *dual);

    // Warm-up: the first read of word 1 profiles its bit.
    EXPECT_FALSE(controller.read(0).corrupt);
    EXPECT_TRUE(controller.read(1).newlyProfiledBit.has_value());
    EXPECT_TRUE(controller.read(2).corrupt);
    const std::size_t writebacks = controller.stats().scrubWritebacks;

    std::size_t corrupt = 0;
    const std::size_t reads = countAllocations([&] {
        for (int i = 0; i < 10000; ++i)
            corrupt += controller.read(static_cast<std::size_t>(i % 3))
                           .corrupt;
    });
    EXPECT_EQ(reads, 0u) << "allocations across 10k reads";
    EXPECT_EQ(corrupt, 3333u) << "only word 2 reads corrupt";

    const std::size_t scrubs = countAllocations([&] {
        for (int i = 0; i < 3000; ++i)
            controller.scrub(static_cast<std::size_t>(i % 3));
    });
    EXPECT_EQ(scrubs, 0u) << "allocations across 3k scrubs";
    EXPECT_EQ(controller.stats().scrubWritebacks, writebacks)
        << "the guarded scrubs must not write back";
    EXPECT_EQ(controller.stats().secondaryCorrections, 1u + 3333u + 1000u);
}

} // namespace
} // namespace harp::mem
