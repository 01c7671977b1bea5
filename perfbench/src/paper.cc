/**
 * @file
 * paper_campaign: one CampaignSession per paper figure/table spec, in
 * sequence on one shared pool, at default scale. A traced run adds
 * probes of the ground-truth enumerator (fig04's shape), the sliced
 * round engine (fig06's shape) and the ECC codecs (bch_t_sweep's
 * shape).
 */

#include <memory>

#include "bench.hh"
#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/sliced_round_engine.hh"
#include "ecc/bch_general.hh"
#include "ecc/extended_hamming_code.hh"
#include "ecc/hamming_code.hh"
#include "ecc/sliced_bch.hh"
#include "fault/fault_model.hh"

namespace perfbench {

using namespace harp;

void
probeRoundEngine(Context &ctx,
                 const std::vector<const ecc::HammingCode *> &codes,
                 const std::vector<const fault::WordFaultModel *> &faults,
                 std::size_t rounds)
{
    std::vector<std::uint64_t> seeds;
    std::vector<std::unique_ptr<core::Profiler>> owned;
    std::vector<std::vector<core::Profiler *>> slots;
    for (std::size_t w = 0; w < codes.size(); ++w) {
        seeds.push_back(common::deriveSeed(ctx.options.seed, {0x50B3u, w}));
        owned.push_back(std::make_unique<core::NaiveProfiler>(codes[w]->k()));
        owned.push_back(std::make_unique<core::HarpUProfiler>(codes[w]->k()));
        slots.push_back({owned[owned.size() - 2].get(), owned.back().get()});
    }
    core::EnginePhaseSeconds phases;
    core::SlicedRoundEngineW<1>::Stats stats;
    {
        auto span = ctx.tracer.probe("core.SlicedRoundEngineW<1>::runRound");
        core::SlicedRoundEngineW<1> engine(codes, faults,
                                           core::PatternKind::Random, seeds);
        engine.setPhaseSink(&phases);
        for (std::size_t r = 0; r < rounds; ++r)
            engine.runRound(slots);
        engine.flushObservers();
        stats = engine.stats();
    }
    const double scatters =
        static_cast<double>(stats.postScatters + stats.rawScatters);
    const double observed =
        scatters + static_cast<double>(stats.laneObserveSlotRounds);
    auto &layer = ctx.report.layer;
    layer["core.round.generate_s"] = phases.setup;
    layer["core.round.datapath_s"] = phases.datapath;
    layer["core.round.observe_s"] = phases.observe;
    layer["core.round.word_rounds"] =
        static_cast<double>(codes.size() * rounds);
    layer["core.round.scatter_ratio"] =
        observed > 0.0 ? scatters / observed : 0.0;
}

namespace {

/** fig04's shape: k = 64, 2..8 at-risk cells per word at p = 0.5;
 *  analyzer construction plus the two queries the specs make. */
void
probeGroundTruth(Context &ctx)
{
    const std::size_t words_per_n = ctx.options.tiny() ? 4 : 32;
    common::Xoshiro256 rng(common::deriveSeed(ctx.options.seed, {0x6704u}));
    std::vector<ecc::HammingCode> codes;
    std::vector<fault::WordFaultModel> faults;
    for (std::size_t n = 2; n <= 8; ++n)
        for (std::size_t w = 0; w < words_per_n; ++w) {
            codes.push_back(ecc::HammingCode::randomSec(64, rng));
            faults.push_back(fault::WordFaultModel::makeUniformFixedCount(
                codes.back().n(), n, 0.5, rng));
        }
    gf2::BitVector charged(64);
    charged.fill(true);
    const gf2::BitVector empty_profile(64);
    double patterns = 0.0, feasible = 0.0;
    const auto start = Clock::now();
    {
        auto span = ctx.tracer.probe("core.AtRiskAnalyzer");
        for (std::size_t i = 0; i < codes.size(); ++i) {
            const core::AtRiskAnalyzer analyzer(codes[i], faults[i]);
            const std::vector<double> post =
                analyzer.perBitErrorProbability(charged);
            if (post.size() != 64 ||
                analyzer.maxSimultaneousErrors(empty_profile) > 64)
                ctx.gate.record(false, "AtRiskAnalyzer probe: bad output");
            patterns += static_cast<double>(std::size_t{1}
                                            << analyzer.numAtRiskCells());
            feasible += static_cast<double>(analyzer.outcomes().size());
        }
    }
    auto &layer = ctx.report.layer;
    layer["core.ground_truth_s"] = secondsSince(start);
    layer["core.ground_truth.patterns"] = patterns;
    layer["core.ground_truth.feasible_ratio"] = feasible / patterns;
}

/** fig06's shape: 64 words of k = 64 SEC codes with 4 at-risk cells,
 *  Naive + HARP-U profilers, 512 rounds. */
void
probeCoverageRounds(Context &ctx)
{
    common::Xoshiro256 rng(common::deriveSeed(ctx.options.seed, {0x6706u}));
    std::vector<ecc::HammingCode> codes;
    std::vector<fault::WordFaultModel> faults;
    codes.reserve(64);
    faults.reserve(64);
    for (std::size_t w = 0; w < 64; ++w) {
        codes.push_back(ecc::HammingCode::randomSec(64, rng));
        faults.push_back(fault::WordFaultModel::makeUniformFixedCount(
            codes.back().n(), 4, 0.5, rng));
    }
    std::vector<const ecc::HammingCode *> code_ptrs;
    std::vector<const fault::WordFaultModel *> fault_ptrs;
    for (std::size_t w = 0; w < codes.size(); ++w) {
        code_ptrs.push_back(&codes[w]);
        fault_ptrs.push_back(&faults[w]);
    }
    probeRoundEngine(ctx, code_ptrs, fault_ptrs,
                     ctx.options.tiny() ? 16 : 512);
}

/** bch_t_sweep's shape: codec construction (SEC, SECDED, BCH t = 1..3
 *  with the sliced memo pre-warm), then t = 3 lanes with 5 at-risk
 *  cells through the memoized sliced decoder. */
void
probeCodecs(Context &ctx)
{
    common::Xoshiro256 rng(common::deriveSeed(ctx.options.seed, {0xBC43u}));
    std::vector<ecc::HammingCode> sec;
    std::vector<ecc::ExtendedHammingCode> secded;
    std::vector<std::unique_ptr<ecc::BchCode>> bch;
    std::vector<std::unique_ptr<ecc::SlicedBchCodeW<1>>> sliced;
    const auto start = Clock::now();
    {
        auto span = ctx.tracer.probe("ecc.codec construction");
        for (std::size_t i = 0; i < 64; ++i) {
            sec.push_back(ecc::HammingCode::randomSec(64, rng));
            secded.push_back(ecc::ExtendedHammingCode::randomSecDed(64, rng));
        }
        for (std::size_t t = 1; t <= 3; ++t) {
            bch.push_back(std::make_unique<ecc::BchCode>(64, t));
            sliced.push_back(
                std::make_unique<ecc::SlicedBchCodeW<1>>(*bch.back(), 64));
        }
    }
    ctx.report.layer["ecc.codec_build_s"] = secondsSince(start);

    const ecc::BchCode &code = *bch.back();
    const ecc::SlicedBchCodeW<1> &datapath = *sliced.back();
    std::vector<fault::WordFaultModel> faults;
    std::vector<const fault::WordFaultModel *> fault_ptrs;
    std::vector<std::uint64_t> seeds;
    std::vector<std::unique_ptr<core::Profiler>> owned;
    std::vector<std::vector<core::Profiler *>> slots;
    faults.reserve(64);
    for (std::size_t w = 0; w < 64; ++w) {
        faults.push_back(fault::WordFaultModel::makeUniformFixedCount(
            code.n(), 5, 0.5, rng));
        fault_ptrs.push_back(&faults.back());
        seeds.push_back(common::deriveSeed(ctx.options.seed, {0xBC44u, w}));
        owned.push_back(std::make_unique<core::NaiveProfiler>(code.k()));
        owned.push_back(std::make_unique<core::HarpUProfiler>(code.k()));
        slots.push_back({owned[owned.size() - 2].get(), owned.back().get()});
    }
    const std::uint64_t hits0 = datapath.memoHits();
    const std::uint64_t misses0 = datapath.memoMisses();
    {
        auto span = ctx.tracer.probe("ecc.SlicedBchCodeW<1> memoized decode");
        core::SlicedRoundEngineW<1> engine(datapath, fault_ptrs,
                                           core::PatternKind::Random, seeds);
        for (std::size_t r = 0; r < (ctx.options.tiny() ? 8u : 64u); ++r)
            engine.runRound(slots);
    }
    const double hits = static_cast<double>(datapath.memoHits() - hits0);
    const double lookups =
        hits + static_cast<double>(datapath.memoMisses() - misses0);
    ctx.report.layer["ecc.bch_memo_hit_ratio"] =
        lookups > 0.0 ? hits / lookups : 0.0;
}

} // namespace

void
runPaperCampaign(Context &ctx)
{
    BatchPlan plan;
    plan.specs = paperSpecs();
    plan.minPasses = 4;
    if (ctx.options.tiny()) {
        plan.minPasses = 2;
        plan.overrides = {{"codes", "2"},  {"words", "8"},
                          {"rounds", "8"}, {"trials", "40"},
                          {"samples", "4"}, {"pairs", "8"},
                          {"blocks", "200"}, {"accesses", "500"}};
    }
    runBatchWorkload(ctx, plan);
    if (!ctx.options.trace)
        return;
    probeGroundTruth(ctx);
    probeCoverageRounds(ctx);
    probeCodecs(ctx);
}

} // namespace perfbench
