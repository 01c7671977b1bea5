/**
 * @file
 * fleet_sweep: the fleet_policy_sweep spec (16 policies x 125k chips)
 * as a CampaignSession on the shared pool. A traced run decomposes one
 * policy point through the fleet layer's public per-chip entries
 * (sample, make sim, profile, field operation, aggregate), checks the
 * result against runFleet and the session's own line, and probes the
 * sliced round engine and codec construction on that point's chips.
 * It also runs the harpd probe (served.cc), which no batch workload
 * reaches.
 */

#include <algorithm>
#include <utility>

#include "bench.hh"
#include "common/rng.hh"
#include "ecc/extended_hamming_code.hh"
#include "ecc/hamming_code.hh"
#include "fleet/policy.hh"
#include "fleet/population.hh"

namespace perfbench {

using namespace harp;

namespace {

constexpr const char *kSpec = "fleet_policy_sweep";
/** Grid point decomposed by the traced run: profiler harp_u, scrub
 *  interval 8, unlimited repair budget (point-major order over
 *  profiler x scrub_interval x repair_budget). */
constexpr std::size_t kProbePoint = 11;

std::size_t
chipsFor(const Options &options)
{
    return options.tiny() ? 4000 : 125000;
}

/** The FleetConfig fleet_policy_sweep builds for kProbePoint at its
 *  default tunables. */
fleet::FleetConfig
probeConfig(const Options &options, std::uint64_t job_seed)
{
    fleet::FleetConfig config;
    config.distribution = fleet::FleetDistribution::preset("ddr4");
    config.distribution.cellProbability = 0.5;
    config.distribution.validate();
    config.chips = chipsFor(options);
    config.seed = job_seed;
    config.threads = kBatchThreads;
    config.policy.profiler = fleet::ProfilerKind::HarpU;
    config.policy.activeRounds = 32;
    config.policy.scrubInterval = 8;
    config.policy.repairBudget = fleet::kUnlimitedBudget;
    return config;
}

struct StageSeconds
{
    double sample = 0.0, makeSim = 0.0, profile = 0.0, fieldOp = 0.0,
           aggregate = 0.0;
};

/** runFleet, one public entry at a time, single-threaded, strata
 *  merged in index order exactly as runFleet merges them. */
fleet::FleetAggregator
decompose(const fleet::FleetConfig &config, StageSeconds &t,
          std::vector<fleet::ChipSim> &faulty_sims)
{
    common::Xoshiro256 probe_rng(1);
    const std::size_t n = ecc::HammingCode::randomSec(config.k, probe_rng).n();
    const fleet::PopulationSampler sampler(
        config.distribution, {config.wordsPerChip, n}, config.deviceHours,
        config.seed);
    fleet::FleetAggregator total;
    for (std::size_t begin = 0; begin < config.chips;
         begin += config.stratumChips) {
        const std::size_t end =
            std::min(config.chips, begin + config.stratumChips);
        fleet::FleetAggregator part;
        for (std::size_t chip = begin; chip < end; ++chip) {
            auto t0 = Clock::now();
            const fleet::ChipSample sample = sampler.sample(chip);
            if (!sample.faulty()) {
                t.sample += secondsSince(t0);
                t0 = Clock::now();
                part.addCleanChip();
                t.aggregate += secondsSince(t0);
                continue;
            }
            auto words = sampler.materialize(sample);
            t.sample += secondsSince(t0);
            t0 = Clock::now();
            fleet::ChipSim sim = fleet::makeChipSim(
                config.seed, chip, config.k, std::move(words),
                sample.events.size());
            t.makeSim += secondsSince(t0);
            t0 = Clock::now();
            fleet::profileChipScalar(sim, config.policy);
            t.profile += secondsSince(t0);
            t0 = Clock::now();
            const fleet::ChipOutcome outcome = fleet::runChipOperation(
                sim, config.wordsPerChip, config.policy, config.windows);
            t.fieldOp += secondsSince(t0);
            t0 = Clock::now();
            part.addChip(outcome);
            t.aggregate += secondsSince(t0);
            faulty_sims.push_back(std::move(sim));
        }
        const auto t0 = Clock::now();
        total.merge(part);
        t.aggregate += secondsSince(t0);
    }
    return total;
}

/** The session line's metric @p name as an integer (-1 if absent). */
std::int64_t
lineMetric(const runner::JsonValue &line, const char *name)
{
    const runner::JsonValue *metrics = line.find("metrics");
    const runner::JsonValue *value =
        metrics != nullptr ? metrics->find(name) : nullptr;
    return value != nullptr ? value->asInt() : -1;
}

void
probeFleet(Context &ctx, const std::vector<std::string> &lines)
{
    if (lines.size() <= kProbePoint) {
        ctx.gate.record(false, "fleet probe: session produced no line for "
                               "the probed point");
        return;
    }
    const runner::JsonValue line = runner::JsonValue::parse(lines[kProbePoint]);
    const fleet::FleetConfig config = probeConfig(
        ctx.options, std::stoull(line.find("seed")->asString()));

    fleet::FleetAggregator reference;
    {
        auto span = ctx.tracer.probe("fleet.runFleet");
        reference = fleet::runFleet(config);
    }
    StageSeconds t;
    std::vector<fleet::ChipSim> sims;
    fleet::FleetAggregator decomposed;
    {
        auto span = ctx.tracer.probe("fleet decomposition");
        decomposed = decompose(config, t, sims);
    }
    ctx.gate.record(decomposed == reference,
                    "fleet probe: decomposed aggregate differs from "
                    "runFleet");
    const bool matches_line =
        lineMetric(line, "faulty_chips") ==
            static_cast<std::int64_t>(reference.faultyChips()) &&
        lineMetric(line, "failed_chips") ==
            static_cast<std::int64_t>(reference.failedChips()) &&
        lineMetric(line, "uncorrectable_events") ==
            static_cast<std::int64_t>(reference.uncorrectableEvents()) &&
        lineMetric(line, "silent_corruptions") ==
            static_cast<std::int64_t>(reference.silentCorruptions());
    ctx.gate.record(matches_line, "fleet probe: runFleet differs from the "
                                  "session's line for the probed point");

    auto &layer = ctx.report.layer;
    layer["fleet.sample_s"] = t.sample;
    layer["fleet.make_sim_s"] = t.makeSim;
    layer["fleet.profile_s"] = t.profile;
    layer["memsys.field_op_s"] = t.fieldOp;
    layer["fleet.aggregate_s"] = t.aggregate;
    layer["fleet.faulty_chips"] =
        static_cast<double>(reference.faultyChips());
    layer["fleet.faulty_ratio"] =
        static_cast<double>(reference.faultyChips()) /
        static_cast<double>(reference.chips());
    ctx.tracer.count("fleet.faulty_chips",
                     static_cast<double>(reference.faultyChips()));

    // Codec construction for as many chips as the point has faulty
    // ones: each faulty chip builds a private SEC and SECDED code.
    common::Xoshiro256 rng(common::deriveSeed(ctx.options.seed, {0xC0DEu}));
    std::vector<ecc::HammingCode> sec;
    std::vector<ecc::ExtendedHammingCode> secded;
    const auto start = Clock::now();
    {
        auto span = ctx.tracer.probe("ecc.codec construction");
        for (std::size_t i = 0; i < sims.size(); ++i) {
            sec.push_back(ecc::HammingCode::randomSec(config.k, rng));
            secded.push_back(
                ecc::ExtendedHammingCode::randomSecDed(config.k, rng));
        }
    }
    layer["ecc.codec_build_s"] = secondsSince(start);

    // The profiling stage's sliced engine over the point's faulty
    // words (one 64-lane block, as runFleet packs them).
    std::vector<const ecc::HammingCode *> codes;
    std::vector<const fault::WordFaultModel *> faults;
    for (const fleet::ChipSim &sim : sims)
        for (const auto &[word, model] : sim.faultyWords)
            if (codes.size() < 64) {
                codes.push_back(&sim.onDie);
                faults.push_back(&model);
            }
    if (!codes.empty())
        probeRoundEngine(ctx, codes, faults, config.policy.activeRounds);
}

} // namespace

void
runFleetSweep(Context &ctx)
{
    BatchPlan plan;
    plan.specs = {kSpec};
    plan.minPasses = 8;
    if (ctx.options.tiny())
        plan.overrides = {{"chips", std::to_string(chipsFor(ctx.options))}};
    auto lines = runBatchWorkload(ctx, plan);
    if (!ctx.options.trace)
        return;
    probeFleet(ctx, lines[kSpec]);
    probeServed(ctx);
}

} // namespace perfbench
