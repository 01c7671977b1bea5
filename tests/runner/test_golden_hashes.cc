/**
 * @file
 * Golden result-hash pins: every registered experiment except the
 * timing-only perf_engine_throughput runs at a small fixed scale and
 * seed, and its campaign result_hash must equal the pinned value.
 *
 * The cross-engine and cross-thread tests (test_campaign.cc) prove the
 * engines agree with each other; these pins prove the output has not
 * drifted at all, so a rewrite that moves every engine together still
 * fails here. Experiments with the `engine` tunable are checked under
 * all three engines against the same pin.
 *
 * A deliberate output change re-pins with, for each row,
 *   harp_run NAME <overrides> --seed 7 --threads 2 --no-timings
 * and its printed result_hash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>

#include "runner/campaign.hh"
#include "runner/registry.hh"

namespace harp::runner {
namespace {

namespace fs = std::filesystem;

struct GoldenPin
{
    const char *experiment;
    std::map<std::string, std::string> overrides;
    const char *resultHash;
};

/** Small scale: words = 70 leaves a ragged sliced block (64 + 6). */
const std::vector<GoldenPin> &
goldenPins()
{
    static const std::vector<GoldenPin> pins = {
        {"ablation_code_length",
         {{"codes", "1"}, {"words", "70"}, {"rounds", "6"}},
         "d23b9eeb40ac568b"},
        {"ablation_data_patterns",
         {{"codes", "1"}, {"words", "70"}, {"rounds", "6"}},
         "14aafcdebdcb0108"},
        {"bch_t_sweep", {{"words", "70"}, {"rounds", "6"}},
         "8e0c9f6203c60157"},
        {"beer_reverse_engineering", {}, "b4fdc8e4a114a97e"},
        {"extension_dec_on_die_ecc", {{"words", "10"}, {"rounds", "8"}},
         "2b34d592c4d14e94"},
        {"extension_low_probability", {{"words", "70"}, {"rounds", "16"}},
         "c6ee27715035b8b4"},
        {"extension_secondary_interleaving",
         {{"pairs", "4"}, {"accesses", "200"}},
         "f3e7453f3ae0f7f8"},
        {"fig02_wasted_storage", {{"blocks", "200"}}, "6afd33cd47d59269"},
        {"fig04_postcorrection_probability",
         {{"codes", "2"}, {"words", "4"}},
         "2a4cae836e665bc9"},
        {"fig06_direct_coverage",
         {{"codes", "1"}, {"words", "70"}, {"rounds", "6"}, {"prob", "0.5"}},
         "54cc9a1864547691"},
        {"fig07_bootstrapping",
         {{"codes", "1"}, {"words", "70"}, {"rounds", "6"}, {"prob", "0.5"}},
         "206ba46bed6d3736"},
        {"fig08_indirect_coverage",
         {{"codes", "1"}, {"words", "70"}, {"rounds", "6"}, {"prob", "0.5"}},
         "1d43f712b383dc88"},
        {"fig09_secondary_ecc",
         {{"codes", "1"}, {"words", "70"}, {"rounds", "6"}, {"prob", "0.5"}},
         "12060ef60422e064"},
        {"fig10_case_study",
         {{"samples", "40"}, {"max_cells", "2"}, {"rounds", "6"}},
         "8ad43dc5434a6669"},
        {"fleet_policy_sweep",
         {{"chips", "2000"},
          {"words_per_chip", "32"},
          {"fit_scale", "200"},
          {"windows", "4"},
          {"rounds", "8"}},
         "877e7a761247e13c"},
        {"fleet_population_stats",
         {{"chips", "2000"}, {"fit_scale", "200"}},
         "b1d3c179499d2a23"},
        {"quickstart", {}, "31288cdb22ac8274"},
        {"retention_case_study",
         {{"words", "32"}, {"accesses", "500"}},
         "ce05bac8a01d96af"},
        {"secondary_ecc_sizing", {}, "1ecbc21198aeeed5"},
        {"table01_repair_survey", {}, "3fcdb9b89e9601ab"},
        {"table02_amplification", {{"trials", "20"}}, "1f725c0475c3b452"},
    };
    return pins;
}

bool
hasEngineTunable(const ExperimentSpec &spec)
{
    return std::any_of(spec.tunables.begin(), spec.tunables.end(),
                       [](const TunableSpec &t) { return t.name == "engine"; });
}

/** Every registered experiment but the timing-only one is pinned. */
TEST(GoldenHashes, EveryExperimentIsPinned)
{
    std::set<std::string> pinned;
    for (const GoldenPin &pin : goldenPins())
        pinned.insert(pin.experiment);
    for (const ExperimentSpec *spec : builtinRegistry().all()) {
        if (spec->name == "perf_engine_throughput")
            continue;
        EXPECT_EQ(pinned.count(spec->name), 1u)
            << spec->name << " has no golden result_hash pin";
    }
    EXPECT_EQ(pinned.size(), goldenPins().size()) << "duplicate pin";
}

TEST(GoldenHashes, ResultHashesMatchPins)
{
    const fs::path root = fs::temp_directory_path() /
                          ("harp_golden_" + std::to_string(::getpid()));
    for (const GoldenPin &pin : goldenPins()) {
        const auto specs = builtinRegistry().select({pin.experiment});
        ASSERT_EQ(specs.size(), 1u) << pin.experiment;
        std::vector<std::string> engines = {""};
        if (hasEngineTunable(*specs[0]))
            engines = {"scalar", "sliced64", "sliced256"};
        for (const std::string &engine : engines) {
            CampaignOptions options;
            options.seed = 7;
            options.threads = 2;
            options.noTimings = true;
            options.outDir = (root / pin.experiment).string();
            options.overrides = pin.overrides;
            if (!engine.empty())
                options.overrides["engine"] = engine;
            std::ostringstream log;
            const CampaignSummary summary =
                runCampaign(specs, options, log);
            ASSERT_EQ(summary.experiments.size(), 1u) << pin.experiment;
            EXPECT_EQ(formatResultHash(summary.experiments[0].resultHash),
                      pin.resultHash)
                << pin.experiment << " engine=" << engine;
        }
    }
    fs::remove_all(root);
}

} // namespace
} // namespace harp::runner
