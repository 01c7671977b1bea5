/**
 * @file
 * Property and oracle tests for the fleet policy driver.
 *
 * The closed-form oracles run hand-crafted one-chip populations
 * through runChipOperation and check exact outcomes; a slow reference
 * field loop that patrol-scrubs every word checks runChipOperation's
 * confined scrub on sampled chips. The monotonicity
 * properties exploit the driver's common-random-numbers contract:
 * every chip's randomness derives from (fleet seed, chip index) only,
 * so two policies see literally the same fleet and the same per-window
 * retention trials — tightening one axis must not worsen the failure
 * count. The cross-engine / cross-thread tests assert exact
 * FleetAggregator equality, the in-memory face of the campaign-level
 * byte-identity acceptance.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_model.hh"
#include "fleet/policy.hh"
#include "memsys/memory_chip.hh"
#include "memsys/memory_controller.hh"
#include "support/property.hh"
#include "support/seeded_fixture.hh"

namespace harp::fleet {
namespace {

/** One chip whose single faulty word carries @p cells at p = 1.0. */
ChipSim
oneWordChip(std::uint64_t fleet_seed,
            const std::vector<std::size_t> &cells,
            std::size_t word = 3)
{
    std::vector<fault::CellFault> faults;
    for (const std::size_t pos : cells)
        faults.push_back({pos, 1.0});
    std::vector<std::pair<std::size_t, fault::WordFaultModel>> words;
    words.emplace_back(word,
                       fault::WordFaultModel(71, std::move(faults)));
    return makeChipSim(fleet_seed, /*chip=*/0, /*k=*/64,
                       std::move(words), /*fault_events=*/1);
}

/** Small hot fleet shared by the property tests. */
FleetConfig
hotFleet(std::uint64_t seed)
{
    FleetConfig config;
    config.distribution = FleetDistribution::ddr4Field();
    for (double &fit : config.distribution.modeFit)
        fit *= 400.0;
    config.chips = 1200;
    config.windows = 8;
    config.seed = seed;
    // Identity across thread counts is proven separately; the property
    // sweeps just want the answer fast.
    config.threads = 0;
    config.stratumChips = 128;
    config.policy.profiler = ProfilerKind::HarpU;
    config.policy.activeRounds = 16;
    config.policy.scrubInterval = 4;
    config.policy.repairBudget = kUnlimitedBudget;
    return config;
}

TEST(ProfilerKindNames, RoundTripAndReject)
{
    for (const ProfilerKind kind :
         {ProfilerKind::None, ProfilerKind::Naive, ProfilerKind::HarpU,
          ProfilerKind::HarpA})
        EXPECT_EQ(profilerKindFromName(profilerKindName(kind)), kind);
    EXPECT_THROW(profilerKindFromName("beep"), std::invalid_argument);
}

TEST(ChipSimConstruction, DerivedStreamsAreDeterministic)
{
    const ChipSim a = oneWordChip(42, {5, 9});
    const ChipSim b = oneWordChip(42, {5, 9});
    EXPECT_EQ(a.chipSeed, b.chipSeed);
    EXPECT_EQ(a.chipSeed, chipSimSeed(42, 0));
    // The chip-private codes re-derive identically: same encodes.
    common::Xoshiro256 rng(7);
    const gf2::BitVector data = gf2::BitVector::random(64, rng);
    EXPECT_EQ(a.onDie.encode(data), b.onDie.encode(data));
    EXPECT_EQ(a.secondary.encode(data), b.secondary.encode(data));
    // Different chip index, different seed root.
    EXPECT_NE(chipSimSeed(42, 0), chipSimSeed(42, 1));
    EXPECT_NE(chipSimSeed(42, 0), chipSimSeed(43, 0));
}

/**
 * Oracle: a single always-leaky cell can never fail a chip — on-die
 * SEC corrects one raw error per word by construction — under *any*
 * policy, including the bare one.
 */
TEST(FleetOracle, SingleCellChipNeverFails)
{
    test::forEachSeed(4, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        FleetPolicy bare;
        bare.profiler = ProfilerKind::None;
        bare.activeRounds = 0;
        bare.scrubInterval = 0;
        bare.repairBudget = 0;
        ChipSim sim =
            oneWordChip(seed, {rng.nextBelow(71)}, rng.nextBelow(8));
        const ChipOutcome outcome =
            runChipOperation(sim, /*words_per_chip=*/8, bare,
                             /*windows=*/6);
        EXPECT_EQ(outcome.uncorrectableEvents, 0u);
        EXPECT_EQ(outcome.silentCorruptions, 0u);
        EXPECT_FALSE(outcome.failed());
        EXPECT_EQ(outcome.atRiskCells, 1u);
    });
}

/**
 * Oracle: two always-leaky cells with no mitigation are all-or-nothing.
 * p = 1.0 discharges every charged at-risk cell in window 1 and the
 * word is never rewritten, so each of the W windows reads the *same*
 * stored word — the chip either fails in every window or in none, and
 * a failure is either always detected or always silent.
 */
TEST(FleetOracle, BareTwoCellChipFailsAllWindowsOrNone)
{
    constexpr std::size_t kWindows = 5;
    FleetPolicy bare;
    bare.profiler = ProfilerKind::None;
    bare.activeRounds = 0;
    bare.scrubInterval = 0;
    bare.repairBudget = 0;

    std::size_t failing_chips = 0, clean_chips = 0;
    test::forEachSeed(8, [&](std::uint64_t seed, common::Xoshiro256 &rng) {
        std::size_t a = rng.nextBelow(71), b = rng.nextBelow(71);
        while (b == a)
            b = rng.nextBelow(71);
        ChipSim sim = oneWordChip(seed, {a, b});
        const ChipOutcome outcome =
            runChipOperation(sim, 8, bare, kWindows);
        const std::size_t failures =
            outcome.uncorrectableEvents + outcome.silentCorruptions;
        EXPECT_TRUE(failures == 0 || failures == kWindows) << failures;
        // Never a detected/silent mix: the windows are identical reads.
        EXPECT_TRUE(outcome.uncorrectableEvents == 0 ||
                    outcome.silentCorruptions == 0);
        (failures == 0 ? clean_chips : failing_chips) += 1;
    });
    // Both outcomes occur across the seed sweep (charge is
    // data-dependent), so the oracle exercises both branches.
    EXPECT_GT(failing_chips, 0u);
    EXPECT_GT(clean_chips, 0u);
}

/**
 * Oracle: a profiled chip with budget for its one at-risk cell never
 * fails, captures exactly one spare bit, and profiling finds the cell.
 * Data-position cells are directly observable by HARP-U, and 24 random
 * patterns miss a p=1.0 cell with probability 2^-24 per seed — under
 * the fixed seeds this is exact, not probabilistic.
 */
TEST(FleetOracle, ProfiledAndRepairedSingleDataCell)
{
    test::forEachSeed(4, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        FleetPolicy policy;
        policy.profiler = ProfilerKind::HarpU;
        policy.activeRounds = 24;
        policy.scrubInterval = 0;
        policy.repairBudget = 4;
        // Data positions are 0..63 for every randomSec(64) code.
        ChipSim sim = oneWordChip(seed, {rng.nextBelow(64)});
        profileChipScalar(sim, policy);
        ASSERT_EQ(sim.profiles.size(), 1u);
        EXPECT_EQ(sim.profiles[0].popcount(), 1u);
        const ChipOutcome outcome = runChipOperation(sim, 8, policy, 6);
        EXPECT_FALSE(outcome.failed());
        EXPECT_EQ(outcome.profiledBits, 1u);
        EXPECT_EQ(outcome.repairSpareBits, 1u);
    });
}

/** Tightening the repair budget axis never helps, loosening it never
 *  hurts: failures are monotone non-increasing in the budget. */
TEST(FleetProperty, RepairBudgetAxisIsMonotone)
{
    test::forEachSeed(3, [](std::uint64_t seed, common::Xoshiro256 &) {
        std::vector<std::uint64_t> failed;
        for (const std::size_t budget : {std::size_t{0}, std::size_t{2},
                                         std::size_t{8},
                                         kUnlimitedBudget}) {
            FleetConfig config = hotFleet(seed);
            config.policy.repairBudget = budget;
            failed.push_back(runFleet(config).failedChips());
        }
        for (std::size_t i = 1; i < failed.size(); ++i)
            EXPECT_LE(failed[i], failed[i - 1])
                << "budget step " << i << " worsened failures";
        // The axis actually bites on this fleet.
        EXPECT_LT(failed.back(), failed.front());
    });
}

/** More frequent patrol scrubbing never worsens failures (off -> 16
 *  -> 4 -> 1 windows). */
TEST(FleetProperty, ScrubIntervalAxisIsMonotone)
{
    test::forEachSeed(3, [](std::uint64_t seed, common::Xoshiro256 &) {
        std::vector<std::uint64_t> failed;
        for (const std::size_t interval :
             {std::size_t{0}, std::size_t{16}, std::size_t{4},
              std::size_t{1}}) {
            FleetConfig config = hotFleet(seed);
            config.policy.scrubInterval = interval;
            config.windows = 16;
            failed.push_back(runFleet(config).failedChips());
        }
        for (std::size_t i = 1; i < failed.size(); ++i)
            EXPECT_LE(failed[i], failed[i - 1])
                << "scrub step " << i << " worsened failures";
    });
}

/** More active-profiling rounds never worsen failures when the repair
 *  budget is unlimited (a finite budget can displace captures, which
 *  is why the guarantee is scoped to the unlimited case). */
TEST(FleetProperty, ProfilingRoundsMonotoneUnderUnlimitedBudget)
{
    test::forEachSeed(3, [](std::uint64_t seed, common::Xoshiro256 &) {
        std::vector<std::uint64_t> failed;
        for (const std::size_t rounds :
             {std::size_t{0}, std::size_t{8}, std::size_t{32}}) {
            FleetConfig config = hotFleet(seed);
            config.policy.activeRounds = rounds;
            failed.push_back(runFleet(config).failedChips());
        }
        for (std::size_t i = 1; i < failed.size(); ++i)
            EXPECT_LE(failed[i], failed[i - 1])
                << "round step " << i << " worsened failures";
        EXPECT_LT(failed.back(), failed.front());
    });
}

/** Field outcome of the reference loop, plus the repair state the
 *  oracle test checks its sample against. */
struct ReferenceOutcome
{
    ChipOutcome outcome;
    bool sparesExhausted = false;
    std::size_t droppedAllocations = 0;
};

/**
 * Slow reference for runChipOperation: the same field loop, but the
 * patrol scrubs every word of the chip with scrubAll(), or every word
 * in descending order when @p reverse_patrol is set (used only to show
 * that the sample is sensitive to the patrol order). The seed domains
 * repeat the private constants of fleet/policy.cc.
 */
ReferenceOutcome
referenceChipOperation(const ChipSim &sim, std::size_t words_per_chip,
                       const FleetPolicy &policy, std::size_t windows,
                       bool reverse_patrol = false)
{
    constexpr std::uint64_t kDataDomain = 0xDA7Au;
    constexpr std::uint64_t kCrnDomain = 0xC124u;

    const std::size_t k = sim.onDie.k();
    mem::MemoryChip chip(sim.onDie, words_per_chip);
    for (const auto &[word, model] : sim.faultyWords)
        chip.setFaultModel(word, model);

    mem::MemoryController controller(chip, sim.secondary);
    controller.setRepairCapacity(policy.repairBudget);
    if (!sim.profiles.empty()) {
        for (std::size_t i = 0; i < sim.faultyWords.size(); ++i)
            controller.profile().markWordBitmap(sim.faultyWords[i].first,
                                                sim.profiles[i]);
    }

    std::vector<gf2::BitVector> shadow(sim.faultyWords.size());
    for (std::size_t i = 0; i < sim.faultyWords.size(); ++i) {
        const std::size_t word = sim.faultyWords[i].first;
        common::Xoshiro256 data_rng(
            common::deriveSeed(sim.chipSeed, {kDataDomain, word}));
        shadow[i] = gf2::BitVector::random(k, data_rng);
        controller.write(word, shadow[i]);
    }

    ReferenceOutcome ref;
    ChipOutcome &out = ref.outcome;
    out.faultEvents = sim.faultEvents;
    for (const auto &[word, model] : sim.faultyWords)
        out.atRiskCells += model.numFaults();

    std::vector<double> uniforms;
    for (std::size_t w = 0; w < windows; ++w) {
        for (const auto &[word, model] : sim.faultyWords) {
            common::Xoshiro256 crn_rng(common::deriveSeed(
                sim.chipSeed, {kCrnDomain, word, w}));
            uniforms.resize(model.numFaults());
            for (double &u : uniforms)
                u = crn_rng.nextDouble();
            gf2::BitVector mask(chip.codewordBits());
            model.injectErrorsCrn(chip.storedCodeword(word), uniforms,
                                  mask);
            if (!mask.isZero())
                chip.corrupt(word, mask);
        }
        for (std::size_t i = 0; i < sim.faultyWords.size(); ++i) {
            const mem::ControllerReadResult &r =
                controller.read(sim.faultyWords[i].first);
            if (!r.corrupt && !(r.dataword == shadow[i]))
                ++out.silentCorruptions;
        }
        if (policy.scrubInterval != 0 &&
            (w + 1) % policy.scrubInterval == 0) {
            if (!reverse_patrol)
                controller.scrubAll();
            else
                for (std::size_t word = words_per_chip; word-- > 0;)
                    controller.scrub(word);
        }
    }

    const mem::ControllerStats &stats = controller.stats();
    out.uncorrectableEvents = stats.uncorrectableEvents;
    out.profiledBits = controller.profile().totalAtRisk();
    out.repairSpareBits = controller.repairMechanism().spareBitsUsed();
    out.repairedBitReads = stats.repairedBits;
    out.scrubWritebacks = stats.scrubWritebacks;
    ref.sparesExhausted = controller.repairMechanism().exhausted();
    ref.droppedAllocations =
        controller.repairMechanism().droppedAllocations();
    return ref;
}

/**
 * Oracle: the patrol scrub confined to the faulty words gives exactly
 * the outcome of patrolling every word, field by field, on sampled
 * faulty chips of a hot DDR4 field fleet, over scrub intervals,
 * repair budgets (including exhaustion) and active profiling.
 */
TEST(FleetOracle, ConfinedScrubMatchesFullPatrol)
{
    constexpr std::size_t kChips = 200;
    constexpr std::size_t kWordsPerChip = 64;
    constexpr std::size_t kWindows = 12;
    constexpr std::size_t kK = 64;

    FleetDistribution dist = FleetDistribution::ddr4Field();
    for (double &fit : dist.modeFit)
        fit *= 2000.0;
    const PopulationSampler sampler(dist, {kWordsPerChip, 71}, 43800.0,
                                    /*fleet_seed=*/0x5C2B);
    std::vector<ChipSim> bare;
    for (std::size_t chip = 0; bare.size() < kChips; ++chip) {
        ASSERT_LT(chip, 100 * kChips) << "fleet too quiet to sample";
        const ChipSample sample = sampler.sample(chip);
        if (sample.faulty())
            bare.push_back(makeChipSim(0x5C2B, chip, kK,
                                       sampler.materialize(sample),
                                       sample.events.size()));
    }
    FleetPolicy harp;
    harp.profiler = ProfilerKind::HarpU;
    harp.activeRounds = 8;
    std::vector<ChipSim> profiled = bare;
    for (ChipSim &sim : profiled)
        profileChipScalar(sim, harp);

    bool scrub_wrote_back = false;
    bool budget_exhausted = false;
    bool allocation_dropped = false;
    bool order_sensitive = false;
    for (const ProfilerKind profiler :
         {ProfilerKind::None, ProfilerKind::HarpU}) {
        std::vector<ChipSim> &sims =
            profiler == ProfilerKind::None ? bare : profiled;
        for (const std::size_t interval :
             {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
            for (const std::size_t budget :
                 {std::size_t{0}, std::size_t{1}, std::size_t{16},
                  kUnlimitedBudget}) {
                FleetPolicy policy = harp;
                policy.profiler = profiler;
                policy.scrubInterval = interval;
                policy.repairBudget = budget;
                for (ChipSim &sim : sims) {
                    SCOPED_TRACE(testing::Message()
                                 << "chip " << sim.chipIndex
                                 << " profiler "
                                 << profilerKindName(profiler)
                                 << " interval " << interval
                                 << " budget " << budget);
                    const ReferenceOutcome ref = referenceChipOperation(
                        sim, kWordsPerChip, policy, kWindows);
                    const ChipOutcome got = runChipOperation(
                        sim, kWordsPerChip, policy, kWindows);
                    const ChipOutcome &want = ref.outcome;
                    ASSERT_EQ(got.faultEvents, want.faultEvents);
                    ASSERT_EQ(got.atRiskCells, want.atRiskCells);
                    ASSERT_EQ(got.profiledBits, want.profiledBits);
                    ASSERT_EQ(got.repairSpareBits, want.repairSpareBits);
                    ASSERT_EQ(got.repairedBitReads, want.repairedBitReads);
                    ASSERT_EQ(got.uncorrectableEvents,
                              want.uncorrectableEvents);
                    ASSERT_EQ(got.silentCorruptions,
                              want.silentCorruptions);
                    ASSERT_EQ(got.scrubWritebacks, want.scrubWritebacks);
                    scrub_wrote_back |= want.scrubWritebacks > 0;
                    if (budget != 0) {
                        budget_exhausted |= ref.sparesExhausted;
                        allocation_dropped |= ref.droppedAllocations > 0;
                    }
                    if (!order_sensitive && budget != 0 &&
                        budget != kUnlimitedBudget) {
                        const ChipOutcome reversed =
                            referenceChipOperation(sim, kWordsPerChip,
                                                   policy, kWindows,
                                                   /*reverse_patrol=*/true)
                                .outcome;
                        order_sensitive =
                            reversed.repairSpareBits !=
                                want.repairSpareBits ||
                            reversed.repairedBitReads !=
                                want.repairedBitReads ||
                            reversed.uncorrectableEvents !=
                                want.uncorrectableEvents ||
                            reversed.silentCorruptions !=
                                want.silentCorruptions;
                    }
                }
            }
        }
    }
    // The sample exercised the paths the confinement must preserve:
    // scrub writebacks, and a nonzero spare budget running out with
    // first-come-first-served captures turned away. Some chip's outcome
    // also changes when the patrol runs in descending word order, so
    // the sample would catch a confined scrub that broke the order.
    EXPECT_TRUE(scrub_wrote_back);
    EXPECT_TRUE(budget_exhausted);
    EXPECT_TRUE(allocation_dropped);
    EXPECT_TRUE(order_sensitive);
}

/** Scalar, sliced64 and sliced256 runs of the same fleet are exactly
 *  equal — every counter and histogram bin. */
TEST(FleetDeterminism, EnginesProduceIdenticalAggregates)
{
    FleetConfig config = hotFleet(0xF1EE7);
    config.engine = core::EngineKind::Scalar;
    const FleetAggregator scalar = runFleet(config);
    ASSERT_GT(scalar.faultyChips(), 0u);
    ASSERT_GT(scalar.profiledBits(), 0u);

    config.engine = core::EngineKind::Sliced64;
    EXPECT_TRUE(runFleet(config) == scalar);
    config.engine = core::EngineKind::Sliced256;
    EXPECT_TRUE(runFleet(config) == scalar);
}

/** Thread-count independence: the stratum fan-out merges in index
 *  order, so 1, 3 and hardware threads agree exactly. */
TEST(FleetDeterminism, ThreadCountsProduceIdenticalAggregates)
{
    FleetConfig config = hotFleet(0x7EA);
    config.threads = 1;
    const FleetAggregator single = runFleet(config);
    ASSERT_GT(single.faultyChips(), 0u);

    config.threads = 3;
    EXPECT_TRUE(runFleet(config) == single);
    config.threads = 0; // hardware concurrency
    EXPECT_TRUE(runFleet(config) == single);
}

/** A fleet with no fault events is all-clean: zero FIT, zero spares. */
TEST(FleetDeterminism, QuietFleetIsAllClean)
{
    FleetConfig config = hotFleet(5);
    config.distribution = FleetDistribution::ddr4Field();
    for (double &fit : config.distribution.modeFit)
        fit *= 1e-9;
    config.chips = 400;
    const FleetAggregator agg = runFleet(config);
    EXPECT_EQ(agg.chips(), 400u);
    EXPECT_EQ(agg.faultyChips(), 0u);
    EXPECT_EQ(agg.failedChips(), 0u);
    EXPECT_DOUBLE_EQ(agg.fitRate(config.deviceHours), 0.0);
    EXPECT_EQ(agg.repairBitsQuantile(0.999), 0u);
}

} // namespace
} // namespace harp::fleet
