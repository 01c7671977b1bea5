/**
 * @file
 * Experiment specs for the extension studies beyond the paper's
 * evaluation: stronger (t-error-correcting) on-die ECC — both the
 * exact small-word bound study and the Monte-Carlo `bch_t_sweep` on
 * the engine-selectable fast path — low-probability errors vs. the
 * active phase, and secondary ECC words interleaved across on-die
 * words.
 */

#include <algorithm>
#include <memory>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/at_risk_analyzer.hh"
#include "core/data_pattern.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/profiling_batch.hh"
#include "ecc/bch_general.hh"
#include "ecc/extended_hamming_code.hh"
#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"
#include "runner/registry.hh"
#include "runner/sweeps.hh"

namespace harp::runner {

namespace {

using namespace harp;

/**
 * Generalization of the paper's key bound (section 6.3.2): with a
 * t-error-correcting on-die code and all direct-at-risk bits profiled,
 * at most t simultaneous post-correction errors remain possible. The
 * original bench evaluated t = 2 with the closed-form DEC decoder plus
 * a Berlekamp-Massey sweep; this spec sweeps t uniformly through the
 * general BCH decoder.
 */
ExperimentSpec
makeDecOnDieEcc()
{
    ExperimentSpec spec;
    spec.name = "extension_dec_on_die_ecc";
    spec.description =
        "HARP under t-error-correcting on-die BCH ECC: secondary-ECC "
        "bound equals t";
    spec.labels = {"bench", "extension"};

    ParamAxis t_axis{"on_die_t", {}};
    for (const std::size_t t : {1, 2, 3})
        t_axis.values.emplace_back(t);
    ParamAxis n_axis{"pre_errors", {}};
    for (const std::size_t n : {2, 3, 4, 5, 6})
        n_axis.values.emplace_back(n);
    spec.grid = ParamGrid({t_axis, n_axis});

    spec.tunables = {
        {"k", "64", "dataword length of the on-die BCH code"},
        {"words", "120", "simulated ECC words per point"},
        {"rounds", "128", "HARP active-profiling rounds"},
    };
    spec.schema = {
        {"code", JsonType::String, "(n,k) of the on-die BCH code"},
        {"max_simul_no_profile", JsonType::Int,
         "worst simultaneous post-correction errors with an empty "
         "profile"},
        {"max_simul_direct_profile", JsonType::Int,
         "worst simultaneous unprofiled errors once every direct bit is "
         "profiled"},
        {"bound_respected", JsonType::Bool,
         "max_simul_direct_profile <= t (the generalized HARP bound)"},
        {"words_unsafe_with_sec_secondary", JsonType::Int,
         "words where a single-error-correcting secondary ECC is "
         "insufficient"},
        {"words_unsafe_with_matched_secondary", JsonType::Int,
         "words where even a t-error-correcting secondary is "
         "insufficient (expect 0)"},
        {"harp_full_direct_coverage", JsonType::Int,
         "words whose HARP-U active phase identified every direct bit"},
        {"words", JsonType::Int, "simulated words"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto t = static_cast<std::size_t>(
            ctx.point().find("on_die_t")->asInt());
        const auto n = static_cast<std::size_t>(
            ctx.point().find("pre_errors")->asInt());
        const auto k = static_cast<std::size_t>(ctx.getInt("k", 64));
        const auto words =
            static_cast<std::size_t>(ctx.getInt("words", 120));
        const auto rounds =
            static_cast<std::size_t>(ctx.getInt("rounds", 128));
        const ecc::BchCode code(k, t);

        std::size_t worst_empty_all = 0, worst_direct_all = 0;
        std::size_t unsafe_sec = 0, unsafe_matched = 0, full_coverage = 0;

        for (std::size_t w = 0; w < words; ++w) {
            common::Xoshiro256 fault_rng(
                common::deriveSeed(ctx.seed(), {0xFA17u, n, w}));
            const fault::WordFaultModel fm =
                fault::WordFaultModel::makeUniformFixedCount(code.n(), n,
                                                             0.5,
                                                             fault_rng);
            const core::AtRiskAnalyzer analyzer(code, fm);
            const gf2::BitVector &direct = analyzer.directAtRisk();
            const std::size_t worst_empty =
                analyzer.maxSimultaneousErrors(gf2::BitVector(code.k()));
            const std::size_t worst_direct =
                analyzer.maxSimultaneousErrors(direct);
            worst_empty_all = std::max(worst_empty_all, worst_empty);
            worst_direct_all = std::max(worst_direct_all, worst_direct);
            if (worst_direct > 1)
                ++unsafe_sec;
            if (worst_direct > t)
                ++unsafe_matched; // the generalized bound says: never

            // HARP-U active phase: bypass reads are ECC-agnostic, so
            // coverage behaviour matches the SEC case.
            core::PatternGenerator patterns(
                core::PatternKind::Random, code.k(),
                common::deriveSeed(ctx.seed(), {0xACE5u, n, w}));
            common::Xoshiro256 inject_rng(
                common::deriveSeed(ctx.seed(), {0x113Cu, n, w}));
            gf2::BitVector identified(code.k());
            for (std::size_t r = 0; r < rounds; ++r) {
                const gf2::BitVector d = patterns.pattern(r);
                const gf2::BitVector stored = code.encode(d);
                gf2::BitVector received = stored;
                received ^= fm.injectErrors(stored, inject_rng);
                gf2::BitVector raw = received.slice(0, code.k());
                raw ^= d;
                identified |= raw;
            }
            gf2::BitVector missed = direct;
            missed.andNot(identified);
            if (missed.isZero())
                ++full_coverage;
        }

        JsonValue metrics = JsonValue::object();
        metrics.set("code", JsonValue("(" + std::to_string(code.n()) +
                                      "," + std::to_string(code.k()) +
                                      ")"));
        metrics.set("max_simul_no_profile", JsonValue(worst_empty_all));
        metrics.set("max_simul_direct_profile",
                    JsonValue(worst_direct_all));
        metrics.set("bound_respected", JsonValue(worst_direct_all <= t));
        metrics.set("words_unsafe_with_sec_secondary",
                    JsonValue(unsafe_sec));
        metrics.set("words_unsafe_with_matched_secondary",
                    JsonValue(unsafe_matched));
        metrics.set("harp_full_direct_coverage", JsonValue(full_coverage));
        metrics.set("words", JsonValue(words));
        return metrics;
    };
    return spec;
}

/**
 * Monte-Carlo sweep of the on-die code's correction capability t
 * through the round engines: the scaling study HARP section 6.3.2
 * sketches ("significantly more complex on-die ECC"), on the same
 * engine-selectable fast path as the coverage experiments. The sliced
 * engines run the BCH datapath through ecc::SlicedBchCodeW (masked
 * XOR parity/syndromes + memoized correction); `--engine scalar`,
 * `--engine sliced64` and `--engine sliced256` emit byte-identical
 * JSONL for a fixed seed.
 */
ExperimentSpec
makeBchTSweep()
{
    ExperimentSpec spec;
    spec.name = "bch_t_sweep";
    spec.description =
        "Profiler coverage and worst-case unprofiled errors under "
        "t-error-correcting on-die BCH, t swept through the general "
        "decoder";
    spec.labels = {"bench", "extension"};

    ParamAxis t_axis{"on_die_t", {}};
    for (const std::size_t t : {1, 2, 3})
        t_axis.values.emplace_back(t);
    ParamAxis n_axis{"pre_errors", {}};
    for (const std::size_t n : {2, 3, 4, 5})
        n_axis.values.emplace_back(n);
    spec.grid = ParamGrid({t_axis, n_axis});

    spec.tunables = {
        {"k", "64", "dataword length of the on-die BCH code"},
        {"words", "64", "simulated ECC words per point"},
        {"rounds", "64", "active-profiling rounds"},
        {"prob", "0.5", "per-bit failure probability of at-risk cells"},
        engineTunable(),
    };
    spec.schema = {
        {"code", JsonType::String, "(n,k) of the on-die BCH code"},
        {"words", JsonType::Int, "simulated words"},
        {"rounds", JsonType::Int, "profiling rounds per word"},
        {"naive_direct_coverage", JsonType::Double,
         "Naive: identified direct bits / ground-truth direct bits"},
        {"harpu_direct_coverage", JsonType::Double,
         "HARP-U: identified direct bits / ground-truth direct bits"},
        {"harpu_full_direct_words", JsonType::Int,
         "words whose HARP-U profile covers every direct bit"},
        {"max_simul_no_profile", JsonType::Int,
         "worst simultaneous post-correction errors with an empty "
         "profile"},
        {"max_simul_harpu_profile", JsonType::Int,
         "worst simultaneous unprofiled errors under the HARP-U "
         "profile"},
        {"bound_respected", JsonType::Bool,
         "every fully-covered word leaves <= t simultaneous unprofiled "
         "errors (the generalized HARP bound)"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto t = static_cast<std::size_t>(
            ctx.point().find("on_die_t")->asInt());
        const auto n_errors = static_cast<std::size_t>(
            ctx.point().find("pre_errors")->asInt());
        const auto k = static_cast<std::size_t>(ctx.getInt("k", 64));
        const auto words =
            static_cast<std::size_t>(ctx.getInt("words", 64));
        const auto rounds =
            static_cast<std::size_t>(ctx.getInt("rounds", 64));
        const double prob = ctx.getDouble("prob", 0.5);

        const ecc::BchCode code(k, t);

        // Per-word state with the standard per-word seed derivations;
        // every engine consumes the identical per-word streams.
        struct SweepWord
        {
            fault::WordFaultModel faults;
            std::unique_ptr<core::NaiveProfiler> naive;
            std::unique_ptr<core::HarpUProfiler> harp;
        };
        using Block = std::vector<SweepWord>;
        std::vector<SweepWord> sims;
        sims.reserve(words);

        core::ProfilingPlan plan;
        plan.words = words;
        plan.engine = engineFromContext(ctx);
        plan.rounds = rounds;
        plan.threads = ctx.threads();
        plan.bch = &code;
        core::ProfilingBatch(plan).run<Block>(
            [&](Block &block, std::size_t begin, std::size_t end,
                core::ProfilingLanes &lanes) {
                block.resize(end - begin);
                for (std::size_t w = begin; w < end; ++w) {
                    SweepWord &sim = block[w - begin];
                    common::Xoshiro256 fault_rng(
                        common::deriveSeed(ctx.seed(), {0xFA17u, w}));
                    sim.faults =
                        fault::WordFaultModel::makeUniformFixedCount(
                            code.n(), n_errors, prob, fault_rng);
                    sim.naive =
                        std::make_unique<core::NaiveProfiler>(code.k());
                    sim.harp =
                        std::make_unique<core::HarpUProfiler>(code.k());
                    lanes.add(sim.faults,
                              common::deriveSeed(ctx.seed(), {0xE221u, w}),
                              {sim.naive.get(), sim.harp.get()});
                }
            },
            [&](Block &block) {
                for (SweepWord &sim : block)
                    sims.push_back(std::move(sim));
            });

        // Ground truth per word by enumeration of feasible failing
        // subsets through the general decoder (<= 2^pre_errors).
        std::size_t direct_total = 0;
        std::size_t naive_found = 0, harp_found = 0;
        std::size_t full_words = 0;
        std::size_t worst_empty_all = 0, worst_harp_all = 0;
        bool bound_respected = true;
        for (const SweepWord &sim : sims) {
            const core::AtRiskAnalyzer analyzer(code, sim.faults);
            const gf2::BitVector &direct = analyzer.directAtRisk();
            direct_total += direct.popcount();
            naive_found += (direct & sim.naive->identified()).popcount();
            const std::size_t harp_hits =
                (direct & sim.harp->identified()).popcount();
            harp_found += harp_hits;
            const bool full = harp_hits == direct.popcount();
            if (full)
                ++full_words;

            const std::size_t worst_empty =
                analyzer.maxSimultaneousErrors(gf2::BitVector(code.k()));
            const std::size_t worst_harp =
                analyzer.maxSimultaneousErrors(sim.harp->identified());
            worst_empty_all = std::max(worst_empty_all, worst_empty);
            worst_harp_all = std::max(worst_harp_all, worst_harp);
            if (full && worst_harp > t)
                bound_respected = false;
        }

        JsonValue metrics = JsonValue::object();
        metrics.set("code", JsonValue("(" + std::to_string(code.n()) +
                                      "," + std::to_string(code.k()) +
                                      ")"));
        metrics.set("words", JsonValue(words));
        metrics.set("rounds", JsonValue(rounds));
        metrics.set(
            "naive_direct_coverage",
            JsonValue(direct_total == 0
                          ? 1.0
                          : static_cast<double>(naive_found) /
                                static_cast<double>(direct_total)));
        metrics.set(
            "harpu_direct_coverage",
            JsonValue(direct_total == 0
                          ? 1.0
                          : static_cast<double>(harp_found) /
                                static_cast<double>(direct_total)));
        metrics.set("harpu_full_direct_words", JsonValue(full_words));
        metrics.set("max_simul_no_profile", JsonValue(worst_empty_all));
        metrics.set("max_simul_harpu_profile", JsonValue(worst_harp_all));
        metrics.set("bound_respected", JsonValue(bound_respected));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeLowProbability()
{
    ExperimentSpec spec;
    spec.name = "extension_low_probability";
    spec.description =
        "Low-probability at-risk cells evading HARP's active phase";
    spec.labels = {"bench", "extension"};

    ParamAxis p_low{"p_low", {0.1, 0.02, 0.004}};
    ParamAxis rounds{"rounds",
                     {std::size_t{128}, std::size_t{512},
                      std::size_t{2048}}};
    spec.grid = ParamGrid({p_low, rounds});

    spec.tunables = {
        {"words", "150", "simulated ECC words per point"},
        {"normal_cells", "3", "at-risk cells at p = 0.5 per word"},
        {"low_cells", "2", "low-probability at-risk cells per word"},
        engineTunable(),
    };
    spec.schema = {
        {"direct_coverage", JsonType::Double,
         "identified direct bits / ground-truth direct bits"},
        {"missed_direct_bits", JsonType::Int,
         "direct bits unidentified after the budget"},
        {"words_unsafe_for_sec_secondary", JsonType::Int,
         "words where >1 simultaneous unprofiled error stays possible"},
        {"words", JsonType::Int, "simulated words"},
    };
    spec.run = [](const RunContext &ctx) {
        const double p_low_v = ctx.point().find("p_low")->asDouble();
        const auto rounds_v = static_cast<std::size_t>(
            ctx.point().find("rounds")->asInt());
        const auto words =
            static_cast<std::size_t>(ctx.getInt("words", 150));
        const auto n_normal =
            static_cast<std::size_t>(ctx.getInt("normal_cells", 3));
        const auto n_low =
            static_cast<std::size_t>(ctx.getInt("low_cells", 2));

        // Per-word seed derivations are independent of the engine, so
        // every engine emits byte-identical JSONL.
        struct TierWord
        {
            std::unique_ptr<ecc::HammingCode> code;
            fault::WordFaultModel faults;
            std::unique_ptr<core::HarpUProfiler> harp;
        };
        using Block = std::vector<TierWord>;
        std::vector<TierWord> sims;
        sims.reserve(words);

        // Heterogeneous per-lane codes (equal k) pack straight into
        // lane blocks, ragged tail included — the long-tail rounds
        // sweep is where the sliced datapath pays off most.
        core::ProfilingPlan plan;
        plan.words = words;
        plan.engine = engineFromContext(ctx);
        plan.rounds = rounds_v;
        plan.threads = ctx.threads();
        core::ProfilingBatch(plan).run<Block>(
            [&](Block &block, std::size_t begin, std::size_t end,
                core::ProfilingLanes &lanes) {
                block.resize(end - begin);
                for (std::size_t w = begin; w < end; ++w) {
                    TierWord &sim = block[w - begin];
                    common::Xoshiro256 code_rng(
                        common::deriveSeed(ctx.seed(), {0xC0DEu, w}));
                    sim.code = std::make_unique<ecc::HammingCode>(
                        ecc::HammingCode::randomSec(64, code_rng));
                    const ecc::HammingCode &code = *sim.code;

                    // Mixed fault model: distinct positions, two tiers.
                    common::Xoshiro256 fault_rng(common::deriveSeed(
                        ctx.seed(),
                        {0xFA17u, w,
                         static_cast<std::uint64_t>(p_low_v * 1e6)}));
                    const fault::WordFaultModel placement =
                        fault::WordFaultModel::makeUniformFixedCount(
                            code.n(), n_normal + n_low, 0.5, fault_rng);
                    std::vector<fault::CellFault> cells =
                        placement.faults();
                    for (std::size_t i = 0; i < cells.size(); ++i)
                        cells[i].probability =
                            i < n_normal ? 0.5 : p_low_v;
                    sim.faults = fault::WordFaultModel(code.n(), cells);
                    sim.harp =
                        std::make_unique<core::HarpUProfiler>(code.k());
                    lanes.add(code, sim.faults,
                              common::deriveSeed(ctx.seed(),
                                                 {0xE221u, w, rounds_v}),
                              {sim.harp.get()});
                }
            },
            [&](Block &block) {
                for (TierWord &sim : block)
                    sims.push_back(std::move(sim));
            });

        std::size_t direct_total = 0, direct_found = 0;
        std::size_t missed_bits = 0, unsafe_words = 0;
        for (const TierWord &sim : sims) {
            const core::AtRiskAnalyzer analyzer(*sim.code, sim.faults);
            const std::size_t total = analyzer.directAtRisk().popcount();
            gf2::BitVector covered = sim.harp->identified();
            covered &= analyzer.directAtRisk();
            const std::size_t found = covered.popcount();
            direct_total += total;
            direct_found += found;
            missed_bits += total - found;
            if (analyzer.maxSimultaneousErrors(sim.harp->identified()) >
                1)
                ++unsafe_words;
        }

        JsonValue metrics = JsonValue::object();
        metrics.set("direct_coverage",
                    JsonValue(direct_total == 0
                                  ? 1.0
                                  : static_cast<double>(direct_found) /
                                        static_cast<double>(direct_total)));
        metrics.set("missed_direct_bits", JsonValue(missed_bits));
        metrics.set("words_unsafe_for_sec_secondary",
                    JsonValue(unsafe_words));
        metrics.set("words", JsonValue(words));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeSecondaryInterleaving()
{
    ExperimentSpec spec;
    spec.name = "extension_secondary_interleaving";
    spec.description =
        "Secondary ECC word interleaved across two on-die words: SECDED "
        "vs. DEC BCH";
    spec.labels = {"bench", "extension"};
    // No sweep: one end-to-end configuration, scaled by tunables.
    spec.grid = ParamGrid();

    spec.tunables = {
        {"pairs", "40", "pairs of on-die (71,64) words"},
        {"accesses", "2000", "accesses simulated per pair"},
        {"prob", "0.5", "per-bit failure probability of at-risk cells"},
        {"pre_errors", "4", "at-risk cells per on-die word"},
    };
    spec.schema = {
        {"accesses_total", JsonType::Int, "pairs x accesses"},
        {"single_indirect", JsonType::Int,
         "accesses with exactly 1 residual (indirect) error"},
        {"double_indirect", JsonType::Int,
         "accesses with >= 2 residual errors (interleaving hazard)"},
        {"secded_uncorrectable", JsonType::Int,
         "SECDED secondary: detected-uncorrectable events"},
        {"secded_wrong", JsonType::Int,
         "SECDED secondary: silently wrong data"},
        {"bch_failures", JsonType::Int,
         "DEC BCH secondary: any failure (expect 0)"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto pairs =
            static_cast<std::size_t>(ctx.getInt("pairs", 40));
        const auto accesses =
            static_cast<std::size_t>(ctx.getInt("accesses", 2000));
        const double prob = ctx.getDouble("prob", 0.5);
        const auto n_cells =
            static_cast<std::size_t>(ctx.getInt("pre_errors", 4));

        common::Xoshiro256 setup_rng(ctx.seed());
        const ecc::ExtendedHammingCode secded =
            ecc::ExtendedHammingCode::randomSecDed(128, setup_rng);
        const ecc::BchCode bch(128, 2);

        std::size_t single_indirect = 0, double_indirect = 0;
        std::size_t secded_uncorrectable = 0, secded_wrong = 0;
        std::size_t bch_failures = 0;
        gf2::BitVector secded_check(secded.checkBits());
        gf2::BitVector secded_data(128);

        for (std::size_t pair = 0; pair < pairs; ++pair) {
            // Two independent on-die words with full HARP direct
            // profiles.
            std::vector<ecc::HammingCode> codes;
            std::vector<fault::WordFaultModel> faults;
            std::vector<gf2::BitVector> profiles;
            for (std::size_t w = 0; w < 2; ++w) {
                common::Xoshiro256 rng(
                    common::deriveSeed(ctx.seed(), {pair, w, 0xC0DEu}));
                codes.push_back(ecc::HammingCode::randomSec(64, rng));
                common::Xoshiro256 frng(
                    common::deriveSeed(ctx.seed(), {pair, w, 0xFA17u}));
                faults.push_back(
                    fault::WordFaultModel::makeUniformFixedCount(
                        codes[w].n(), n_cells, prob, frng));
                const core::AtRiskAnalyzer analyzer(codes[w], faults[w]);
                profiles.push_back(analyzer.directAtRisk());
            }

            common::Xoshiro256 access_rng(
                common::deriveSeed(ctx.seed(), {pair, 0xACCE55u}));
            for (std::size_t a = 0; a < accesses; ++a) {
                // Fresh write + retention + read per on-die word, with
                // the ideal repair masking every profiled (direct) bit.
                gf2::BitVector joined_written(128);
                gf2::BitVector joined_read(128);
                std::size_t residual_errors = 0;
                for (std::size_t w = 0; w < 2; ++w) {
                    const gf2::BitVector d =
                        gf2::BitVector::random(64, access_rng);
                    const gf2::BitVector stored = codes[w].encode(d);
                    gf2::BitVector received = stored;
                    received ^=
                        faults[w].injectErrors(stored, access_rng);
                    gf2::BitVector post =
                        codes[w].decode(received).dataword;
                    profiles[w].forEachSetBit([&](std::size_t bit) {
                        post.set(bit, d.get(bit));
                    });
                    for (std::size_t i = 0; i < 64; ++i) {
                        joined_written.set(w * 64 + i, d.get(i));
                        joined_read.set(w * 64 + i, post.get(i));
                        residual_errors +=
                            (post.get(i) != d.get(i)) ? 1 : 0;
                    }
                }
                if (residual_errors == 1)
                    ++single_indirect;
                if (residual_errors >= 2)
                    ++double_indirect;
                if (residual_errors == 0)
                    continue;

                // SECDED secondary over the interleaved 128-bit word,
                // decoded in place from the written word's check bits.
                {
                    secded.encodeCheckInto(joined_written, secded_check);
                    secded_data = joined_read;
                    const ecc::SecondaryDecodeOutcome r =
                        secded.decodeInPlace(secded_data, secded_check);
                    if (r.status == ecc::SecondaryDecodeStatus::
                                        DetectedUncorrectable)
                        ++secded_uncorrectable;
                    else if (!(secded_data == joined_written))
                        ++secded_wrong;
                }
                // DEC BCH secondary over the same word.
                {
                    const gf2::BitVector check =
                        bch.encode(joined_written).slice(128, bch.n());
                    gf2::BitVector codeword(bch.n());
                    for (std::size_t i = 0; i < 128; ++i)
                        codeword.set(i, joined_read.get(i));
                    for (std::size_t i = 0; i < check.size(); ++i)
                        codeword.set(128 + i, check.get(i));
                    const ecc::BchGeneralDecodeResult r =
                        bch.decode(codeword);
                    if (r.detectedUncorrectable ||
                        !(r.dataword == joined_written))
                        ++bch_failures;
                }
            }
        }

        JsonValue metrics = JsonValue::object();
        metrics.set("accesses_total", JsonValue(pairs * accesses));
        metrics.set("single_indirect", JsonValue(single_indirect));
        metrics.set("double_indirect", JsonValue(double_indirect));
        metrics.set("secded_uncorrectable",
                    JsonValue(secded_uncorrectable));
        metrics.set("secded_wrong", JsonValue(secded_wrong));
        metrics.set("bch_failures", JsonValue(bch_failures));
        return metrics;
    };
    return spec;
}

} // namespace

void
registerExtensionSpecs(Registry &registry)
{
    registry.add(makeDecOnDieEcc());
    registry.add(makeBchTSweep());
    registry.add(makeLowProbability());
    registry.add(makeSecondaryInterleaving());
}

} // namespace harp::runner
