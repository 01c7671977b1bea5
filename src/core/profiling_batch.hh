/**
 * @file
 * The one profiling driver: runs a batch of simulated ECC words
 * through the selected round engine, in lane blocks sharded across a
 * thread pool.
 *
 * Every experiment that profiles many words (coverage, case study,
 * the BCH and low-probability extensions, the fleet) hands the driver
 * a word count and three callables:
 *
 *  - build(block, begin, end, lanes): inside the block's task, build
 *    the payload for words [begin, end) and register one lane per word
 *    (code, fault model, engine seed, profiler slots);
 *  - onRound(block, r): optional, after every round r;
 *  - done(block): called in strict block-index order through an
 *    OrderedMerger, so aggregates fold identically at any thread count.
 *
 * A block holds 1 (scalar), 64 (sliced64) or 256 (sliced256) words.
 * Seeds are per word, so the engine and the block width never change
 * an outcome. The driver owns the engine lifetime rule: the engine
 * is destroyed before its block is handed to done(). The sliced
 * engines flush their lane observer groups into the profilers when
 * they are destroyed, and a merger peer on another thread may free
 * the block as soon as it is deposited.
 */

#ifndef HARP_CORE_PROFILING_BATCH_HH
#define HARP_CORE_PROFILING_BATCH_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/ordered_merger.hh"
#include "common/thread_pool.hh"
#include "core/data_pattern.hh"
#include "core/engine_kind.hh"
#include "core/profiler.hh"
#include "ecc/bch_general.hh"
#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"

namespace harp::ecc {
template <std::size_t W> class SlicedBchCodeW;
} // namespace harp::ecc

namespace harp::core {

/** What one batch profiles and how. */
struct ProfilingPlan
{
    /** Simulated words in the batch. */
    std::size_t words = 0;
    EngineKind engine = EngineKind::Sliced64;
    /** Profiling rounds per word. */
    std::size_t rounds = 0;
    /** Worker threads sharding the blocks; 0 = hardware concurrency. */
    std::size_t threads = 0;
    /** Shared data-pattern policy for non-crafting profilers. */
    PatternKind pattern = PatternKind::Random;
    /** The on-die code of every lane, for a BCH batch; null when every
     *  lane brings its own SEC Hamming code. */
    const ecc::BchCode *bch = nullptr;
};

/** The lanes of one block, one entry per word. */
struct ProfilingLanes
{
    /** Per-lane SEC code; empty in a BCH batch. */
    std::vector<const ecc::HammingCode *> codes;
    std::vector<const fault::WordFaultModel *> faults;
    std::vector<std::uint64_t> seeds;
    std::vector<std::vector<Profiler *>> profilers;

    /** Add a lane of a Hamming batch. */
    void add(const ecc::HammingCode &code,
             const fault::WordFaultModel &word_faults, std::uint64_t seed,
             std::vector<Profiler *> slots)
    {
        codes.push_back(&code);
        add(word_faults, seed, std::move(slots));
    }

    /** Add a lane of a BCH batch (the plan's shared code). */
    void add(const fault::WordFaultModel &word_faults, std::uint64_t seed,
             std::vector<Profiler *> slots)
    {
        faults.push_back(&word_faults);
        seeds.push_back(seed);
        profilers.push_back(std::move(slots));
    }
};

/** Drives one ProfilingPlan; see the file comment. */
class ProfilingBatch
{
  public:
    /** For a BCH plan on a sliced engine, builds the prewarmed sliced
     *  datapath that every block copies (copies share the syndrome
     *  memo and own their scratch; see ecc/sliced_bch.hh). */
    explicit ProfilingBatch(const ProfilingPlan &plan);
    ~ProfilingBatch();

    /**
     * Profile every word of the plan. Block must be default
     * constructible and movable; the lanes that build() registers
     * must point into the block (or outlive the run).
     */
    template <typename Block, typename BuildFn, typename DoneFn>
    void run(BuildFn &&build, DoneFn &&done,
             const std::function<void(Block &, std::size_t)> &on_round =
                 {}) const
    {
        const std::size_t width = blockWidth();
        const std::size_t blocks = (plan_.words + width - 1) / width;
        common::OrderedMerger<Block> merger(blocks);
        common::parallelFor(blocks, [&](std::size_t b) {
            const std::size_t begin = b * width;
            const std::size_t end = std::min(begin + width, plan_.words);
            Block block{};
            ProfilingLanes lanes;
            build(block, begin, end, lanes);
            RoundHook hook;
            if (on_round)
                hook = [&](std::size_t r) { on_round(block, r); };
            profile(lanes, hook);
            merger.deposit(b, std::move(block), done);
        }, plan_.threads);
    }

  private:
    using RoundHook = std::function<void(std::size_t)>;

    /** Words per block: 1, 64 or 256. */
    std::size_t blockWidth() const;

    /** Run every round over @p lanes; the engine is gone on return. */
    void profile(const ProfilingLanes &lanes, const RoundHook &hook) const;

    ProfilingPlan plan_;
    std::unique_ptr<const ecc::SlicedBchCodeW<1>> bch64_;
    std::unique_ptr<const ecc::SlicedBchCodeW<4>> bch256_;
};

} // namespace harp::core

#endif // HARP_CORE_PROFILING_BATCH_HH
