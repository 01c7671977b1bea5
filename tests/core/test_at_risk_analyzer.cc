/**
 * @file
 * Unit and property tests for the ground-truth at-risk analyzer,
 * including a brute-force oracle over every dataword (Hamming and BCH,
 * true and anti cells), a Monte-Carlo cross-check of the exact Fig. 4
 * probabilities and the Table 2 amplification bound.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "ecc/bch_general.hh"
#include "fault/cell.hh"
#include "gf2/linear_solver.hh"

namespace harp::core {
namespace {

ecc::HammingCode
makeCode(std::uint64_t seed = 1, std::size_t k = 64)
{
    common::Xoshiro256 rng(seed);
    return ecc::HammingCode::randomSec(k, rng);
}

TEST(AtRiskAnalyzer, NoFaultsNoRisk)
{
    const ecc::HammingCode code = makeCode();
    const fault::WordFaultModel fm(code.n(), {});
    const AtRiskAnalyzer analyzer(code, fm);
    EXPECT_TRUE(analyzer.outcomes().empty());
    EXPECT_TRUE(analyzer.directAtRisk().isZero());
    EXPECT_TRUE(analyzer.indirectAtRisk().isZero());
    EXPECT_TRUE(analyzer.postCorrectionAtRisk().isZero());
    const gf2::BitVector empty(code.k());
    EXPECT_EQ(analyzer.maxSimultaneousErrors(empty), 0u);
}

TEST(AtRiskAnalyzer, SingleDataFaultIsAlwaysCorrected)
{
    // One at-risk cell: SEC absorbs its only possible failing pattern, so
    // nothing is at risk of post-correction error — but the cell is still
    // at risk of *direct* (raw) error, which HARP identifies via bypass.
    const ecc::HammingCode code = makeCode();
    const fault::WordFaultModel fm(code.n(), {{10, 0.5}});
    const AtRiskAnalyzer analyzer(code, fm);
    ASSERT_EQ(analyzer.outcomes().size(), 1u);
    EXPECT_TRUE(analyzer.outcomes()[0].postErrors.empty());
    EXPECT_TRUE(analyzer.postCorrectionAtRisk().isZero());
    EXPECT_TRUE(analyzer.directAtRisk().get(10));
    EXPECT_EQ(analyzer.directAtRisk().popcount(), 1u);
}

TEST(AtRiskAnalyzer, TwoDataFaultsProduceThreeAtRiskBits)
{
    // If the pair syndrome maps to a third data column, the at-risk set is
    // {a, b, target} — Table 2's n=2 worst case of 2^2-1 = 3 bits.
    const ecc::HammingCode code = makeCode(3);
    std::optional<std::pair<std::size_t, std::size_t>> pair;
    std::size_t target_pos = 0;
    for (std::size_t i = 0; i < 64 && !pair; ++i) {
        for (std::size_t j = i + 1; j < 64 && !pair; ++j) {
            const auto target = code.syndromeToPosition(
                code.dataColumn(i) ^ code.dataColumn(j));
            if (target && *target < 64) {
                pair = {i, j};
                target_pos = *target;
            }
        }
    }
    ASSERT_TRUE(pair.has_value());
    const fault::WordFaultModel fm(
        code.n(), {{pair->first, 0.5}, {pair->second, 0.5}});
    const AtRiskAnalyzer analyzer(code, fm);

    EXPECT_EQ(analyzer.directAtRisk().popcount(), 2u);
    EXPECT_TRUE(analyzer.indirectAtRisk().get(target_pos));
    EXPECT_EQ(analyzer.indirectAtRisk().popcount(), 1u);
    EXPECT_EQ(analyzer.postCorrectionAtRisk().popcount(), 3u);
    // Worst case simultaneous: both direct fail + miscorrection = 3.
    const gf2::BitVector empty(code.k());
    EXPECT_EQ(analyzer.maxSimultaneousErrors(empty), 3u);
}

TEST(AtRiskAnalyzer, ParityFaultsCauseOnlyIndirectErrors)
{
    // Two parity-cell faults can only hurt data through a miscorrection.
    const ecc::HammingCode code = makeCode(5);
    std::optional<std::pair<std::size_t, std::size_t>> pair;
    std::size_t target_pos = 0;
    for (std::size_t i = 64; i < 71 && !pair; ++i) {
        for (std::size_t j = i + 1; j < 71 && !pair; ++j) {
            const auto target = code.syndromeToPosition(
                code.codewordColumn(i) ^ code.codewordColumn(j));
            if (target && *target < 64) {
                pair = {i, j};
                target_pos = *target;
            }
        }
    }
    ASSERT_TRUE(pair.has_value());
    const fault::WordFaultModel fm(
        code.n(), {{pair->first, 0.5}, {pair->second, 0.5}});
    const AtRiskAnalyzer analyzer(code, fm);
    EXPECT_TRUE(analyzer.directAtRisk().isZero());
    EXPECT_TRUE(analyzer.indirectAtRisk().get(target_pos));
    EXPECT_EQ(analyzer.postCorrectionAtRisk().popcount(), 1u);
    const gf2::BitVector empty(code.k());
    EXPECT_EQ(analyzer.maxSimultaneousErrors(empty), 1u);
}

TEST(AtRiskAnalyzer, OutcomesMatchDirectSimulation)
{
    // Property: for every feasible outcome, replaying the failing cells
    // against a real encode/corrupt/decode cycle yields exactly the
    // predicted post-correction errors. Uses probability-0.5 cells so
    // every subset is feasible with a suitable pattern.
    common::Xoshiro256 rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        const ecc::HammingCode code = makeCode(100 + trial, 16);
        const fault::WordFaultModel fm =
            fault::WordFaultModel::makeUniformFixedCount(code.n(), 4, 0.5,
                                                         rng);
        const AtRiskAnalyzer analyzer(code, fm);
        for (const ErrorPatternOutcome &outcome : analyzer.outcomes()) {
            // Build a dataword that charges the failing cells (the
            // analyzer says one exists).
            gf2::ConstraintSystem cs(code.k());
            for (std::size_t i = 0; i < fm.numFaults(); ++i) {
                if (((outcome.failingMask >> i) & 1) == 0)
                    continue;
                const std::size_t pos = fm.faults()[i].position;
                if (pos < code.k()) {
                    cs.pinVariable(pos, true);
                } else {
                    cs.addConstraint(code.parityRow(pos - code.k()),
                                     true);
                }
            }
            const auto d = cs.solveAny();
            ASSERT_TRUE(d.has_value());
            gf2::BitVector received = code.encode(*d);
            for (std::size_t i = 0; i < fm.numFaults(); ++i)
                if ((outcome.failingMask >> i) & 1)
                    received.flip(fm.faults()[i].position);
            const ecc::DecodeResult decoded = code.decode(received);
            gf2::BitVector diff = decoded.dataword;
            diff ^= *d;
            std::vector<std::uint16_t> observed;
            diff.forEachSetBit([&](std::size_t b) {
                observed.push_back(static_cast<std::uint16_t>(b));
            });
            EXPECT_EQ(observed, outcome.postErrors);
        }
    }
}

TEST(AtRiskAnalyzer, Table2AmplificationBound)
{
    // Table 2: n at-risk cells yield at most 2^n - 1 bits at risk of
    // post-correction error; measured values respect the bound.
    common::Xoshiro256 rng(11);
    for (const std::size_t n : {1u, 2u, 3u, 4u}) {
        std::size_t max_seen = 0;
        for (int trial = 0; trial < 30; ++trial) {
            const ecc::HammingCode code = makeCode(500 + trial);
            const fault::WordFaultModel fm =
                fault::WordFaultModel::makeUniformFixedCount(code.n(), n,
                                                             0.5, rng);
            const AtRiskAnalyzer analyzer(code, fm);
            const std::size_t at_risk =
                analyzer.postCorrectionAtRisk().popcount();
            EXPECT_LE(at_risk, (std::size_t{1} << n) - 1);
            max_seen = std::max(max_seen, at_risk);
        }
        // The bound is approached in practice for small n.
        if (n >= 2) {
            EXPECT_GE(max_seen, n);
        }
    }
}

TEST(AtRiskAnalyzer, ProbabilityOneCellsConstrainFeasibility)
{
    // With p = 1.0 cells, a pattern excluding a charged p=1 cell is
    // impossible; feasibility must reflect the discharge requirement.
    // Construct: two data cells a, b with p=1. The pattern {a} alone is
    // feasible only by discharging b — always possible for data cells.
    const ecc::HammingCode code = makeCode(13);
    const fault::WordFaultModel fm(code.n(), {{0, 1.0}, {1, 1.0}});
    const AtRiskAnalyzer analyzer(code, fm);
    // All three nonempty subsets feasible: {a}, {b}, {a,b}.
    EXPECT_EQ(analyzer.outcomes().size(), 3u);
}

TEST(AtRiskAnalyzer, MaxSimultaneousShrinksWithProfile)
{
    common::Xoshiro256 rng(17);
    const ecc::HammingCode code = makeCode(19);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 4, 0.5,
                                                     rng);
    const AtRiskAnalyzer analyzer(code, fm);
    gf2::BitVector profile(code.k());
    const std::size_t before = analyzer.maxSimultaneousErrors(profile);
    profile = analyzer.postCorrectionAtRisk(); // repair everything
    EXPECT_EQ(analyzer.maxSimultaneousErrors(profile), 0u);
    EXPECT_GE(before, 1u);
}

TEST(AtRiskAnalyzer, UnsafeBitsZeroOnceDirectCovered)
{
    // HARP's core safety argument: with all direct-at-risk bits profiled,
    // at most one (indirect) post-correction error can occur at a time,
    // so no bit remains unsafe under a SEC secondary code.
    common::Xoshiro256 rng(23);
    for (int trial = 0; trial < 20; ++trial) {
        const ecc::HammingCode code = makeCode(700 + trial);
        const fault::WordFaultModel fm =
            fault::WordFaultModel::makeUniformFixedCount(code.n(), 5, 0.5,
                                                         rng);
        const AtRiskAnalyzer analyzer(code, fm);
        const gf2::BitVector &profile = analyzer.directAtRisk();
        EXPECT_LE(analyzer.maxSimultaneousErrors(profile), 1u);
        EXPECT_EQ(analyzer.unsafeBitsAfterReactive(profile), 0u);
    }
}

TEST(AtRiskAnalyzer, UnidentifiedAtRiskCounts)
{
    common::Xoshiro256 rng(29);
    const ecc::HammingCode code = makeCode(31);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 3, 0.5,
                                                     rng);
    const AtRiskAnalyzer analyzer(code, fm);
    const std::size_t total = analyzer.postCorrectionAtRisk().popcount();
    gf2::BitVector profile(code.k());
    EXPECT_EQ(analyzer.unidentifiedAtRisk(profile), total);
    profile = analyzer.postCorrectionAtRisk();
    EXPECT_EQ(analyzer.unidentifiedAtRisk(profile), 0u);
}

TEST(AtRiskAnalyzer, PerBitProbabilityMatchesMonteCarlo)
{
    // Cross-check the exact Fig. 4 computation against direct sampling.
    common::Xoshiro256 rng(37);
    const ecc::HammingCode code = makeCode(41);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 3, 0.5,
                                                     rng);
    const AtRiskAnalyzer analyzer(code, fm);

    gf2::BitVector charged(code.k());
    charged.fill(true);
    const std::vector<double> exact =
        analyzer.perBitErrorProbability(charged);

    const gf2::BitVector codeword = code.encode(charged);
    std::vector<std::size_t> fail_counts(code.k(), 0);
    const int trials = 40000;
    for (int t = 0; t < trials; ++t) {
        gf2::BitVector received = codeword;
        received ^= fm.injectErrors(codeword, rng);
        const ecc::DecodeResult decoded = code.decode(received);
        gf2::BitVector diff = decoded.dataword;
        diff ^= charged;
        diff.forEachSetBit([&](std::size_t b) { ++fail_counts[b]; });
    }
    for (std::size_t i = 0; i < code.k(); ++i) {
        const double sampled =
            static_cast<double>(fail_counts[i]) / trials;
        EXPECT_NEAR(sampled, exact[i], 0.02) << "bit " << i;
    }
}

TEST(AtRiskAnalyzer, PerBitProbabilityZeroWhenDischarged)
{
    // With an all-zero pattern no true-cell is charged: no errors at all.
    common::Xoshiro256 rng(43);
    const ecc::HammingCode code = makeCode(47);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 4, 0.5,
                                                     rng);
    const AtRiskAnalyzer analyzer(code, fm);
    // Pattern of all zeros discharges every data cell; parity bits of the
    // zero codeword are zero too.
    const gf2::BitVector zeros(code.k());
    for (const double p : analyzer.perBitErrorProbability(zeros))
        EXPECT_DOUBLE_EQ(p, 0.0);
}

TEST(AtRiskAnalyzer, TooManyCellsThrows)
{
    const ecc::HammingCode code = makeCode(53);
    for (const std::size_t cells : {AtRiskAnalyzer::maxCells + 1, std::size_t{20}}) {
        std::vector<fault::CellFault> faults;
        for (std::size_t i = 0; i < cells; ++i)
            faults.push_back({i, 0.5});
        const fault::WordFaultModel fm(code.n(), faults);
        EXPECT_THROW(AtRiskAnalyzer(code, fm), std::invalid_argument)
            << cells << " cells";
    }
}

/**
 * Brute-force ground truth for one word: try all 2^k datawords. A
 * dataword realises every mask made of all its charged p=1 cells plus
 * any subset of its charged p<1 cells (uncharged cells never fail).
 * Each realisable mask is decoded through a real encode / corrupt /
 * decode cycle on a witness dataword, in ascending mask order.
 */
template <typename Code>
std::vector<ErrorPatternOutcome>
bruteForceOutcomes(const Code &code, const fault::WordFaultModel &fm)
{
    const std::vector<fault::CellFault> &cells = fm.faults();
    // One witness dataword per distinct charged-cell set.
    std::map<std::uint32_t, std::uint64_t> charged_witness;
    for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << code.k());
         ++bits) {
        const gf2::BitVector codeword =
            code.encode(gf2::BitVector::fromUint(bits, code.k()));
        std::uint32_t charged = 0;
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (fault::isCharged(fm.technology(),
                                 codeword.get(cells[i].position)))
                charged |= std::uint32_t{1} << i;
        charged_witness.emplace(charged, bits);
    }

    std::map<std::uint32_t, std::uint64_t> realisable;
    for (const auto &[charged, bits] : charged_witness) {
        std::uint32_t certain = 0;
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (((charged >> i) & 1) && cells[i].probability >= 1.0)
                certain |= std::uint32_t{1} << i;
        const std::uint32_t optional = charged & ~certain;
        for (std::uint32_t sub = optional;; sub = (sub - 1) & optional) {
            if ((certain | sub) != 0)
                realisable.emplace(certain | sub, bits);
            if (sub == 0)
                break;
        }
    }

    std::vector<ErrorPatternOutcome> outcomes;
    for (const auto &[mask, bits] : realisable) {
        const gf2::BitVector d = gf2::BitVector::fromUint(bits, code.k());
        gf2::BitVector received = code.encode(d);
        for (std::size_t i = 0; i < cells.size(); ++i)
            if ((mask >> i) & 1)
                received.flip(cells[i].position);
        gf2::BitVector diff = code.decode(received).dataword;
        diff ^= d;
        ErrorPatternOutcome outcome;
        outcome.failingMask = mask;
        diff.forEachSetBit([&](std::size_t b) {
            outcome.postErrors.push_back(static_cast<std::uint16_t>(b));
        });
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

/** Fault model over @p positions plus random ones up to @p cells in
 *  total, each cell at p=0.5 or p=1 with equal odds. */
fault::WordFaultModel
mixedFaults(std::size_t n, std::size_t cells, fault::CellTechnology tech,
            common::Xoshiro256 &rng, std::set<std::size_t> positions = {})
{
    while (positions.size() < cells)
        positions.insert(rng.nextBelow(n));
    std::vector<fault::CellFault> faults;
    for (const std::size_t pos : positions)
        faults.push_back({pos, rng.nextBelow(2) == 0 ? 0.5 : 1.0});
    return fault::WordFaultModel(n, faults, tech);
}

/**
 * Compare the analyzer with the brute-force oracle on one word; returns
 * how many nonempty masks the fault model makes infeasible.
 */
template <typename Code>
std::size_t
expectMatchesBruteForce(const Code &code, const fault::WordFaultModel &fm)
{
    const AtRiskAnalyzer analyzer(code, fm);
    const std::vector<ErrorPatternOutcome> expected =
        bruteForceOutcomes(code, fm);
    const std::vector<ErrorPatternOutcome> &actual = analyzer.outcomes();
    EXPECT_EQ(actual.size(), expected.size());
    gf2::BitVector direct(code.k()), indirect(code.k());
    for (std::size_t o = 0; o < std::min(actual.size(), expected.size());
         ++o) {
        EXPECT_EQ(actual[o].failingMask, expected[o].failingMask)
            << "outcome " << o;
        EXPECT_EQ(actual[o].postErrors, expected[o].postErrors)
            << "mask " << expected[o].failingMask;
        std::set<std::size_t> failing;
        for (std::size_t i = 0; i < fm.numFaults(); ++i)
            if ((expected[o].failingMask >> i) & 1)
                failing.insert(fm.faults()[i].position);
        for (const std::size_t pos : failing)
            if (pos < code.k())
                direct.set(pos, true);
        for (const std::uint16_t pos : expected[o].postErrors)
            if (failing.count(pos) == 0)
                indirect.set(pos, true);
    }
    EXPECT_EQ(analyzer.directAtRisk(), direct);
    EXPECT_EQ(analyzer.indirectAtRisk(), indirect);
    return ((std::size_t{1} << fm.numFaults()) - 1) - expected.size();
}

TEST(AtRiskAnalyzer, HammingMatchesBruteForceOracle)
{
    common::Xoshiro256 rng(59);
    std::size_t excluded = 0;
    for (const auto tech : {fault::CellTechnology::TrueCell,
                            fault::CellTechnology::AntiCell}) {
        for (int trial = 0; trial < 6; ++trial) {
            // Short codes make dependencies among random cells common.
            for (const std::size_t k : {4u, 8u}) {
                const ecc::HammingCode code = makeCode(900 + trial, k);
                const fault::WordFaultModel fm =
                    mixedFaults(code.n(), 3 + trial % 4, tech, rng);
                SCOPED_TRACE(testing::Message()
                             << "k=" << k << " trial " << trial);
                excluded += expectMatchesBruteForce(code, fm);
            }
            // At k = 16, plant one: parity cell j and the data cells of
            // its row store bits that always XOR to zero.
            const ecc::HammingCode code = makeCode(950 + trial, 16);
            const std::size_t j = trial % code.p();
            std::set<std::size_t> planted{code.k() + j};
            code.parityRow(j).forEachSetBit(
                [&](std::size_t pos) { planted.insert(pos); });
            const fault::WordFaultModel fm = mixedFaults(
                code.n(), planted.size() + 1, tech, rng, planted);
            SCOPED_TRACE(testing::Message() << "k=16 trial " << trial);
            excluded += expectMatchesBruteForce(code, fm);
        }
    }
    EXPECT_GT(excluded, 0u) << "no trial exercised infeasible masks";
}

TEST(AtRiskAnalyzer, BchMatchesBruteForceOracle)
{
    common::Xoshiro256 rng(61);
    std::size_t excluded = 0;
    for (const std::size_t t : {1u, 2u, 3u}) {
        for (const std::size_t k : {10u, 16u}) {
            const ecc::BchCode code(k, t);
            for (const auto tech : {fault::CellTechnology::TrueCell,
                                    fault::CellTechnology::AntiCell}) {
                for (int trial = 0; trial < 2; ++trial) {
                    const fault::WordFaultModel fm = mixedFaults(
                        code.n(), 4 + 2 * trial + t % 2, tech, rng);
                    SCOPED_TRACE(testing::Message()
                                 << "t=" << t << " k=" << k
                                 << " trial " << trial);
                    excluded += expectMatchesBruteForce(code, fm);
                }
            }
        }
    }
    EXPECT_GT(excluded, 0u) << "no trial exercised infeasible masks";
}

} // namespace
} // namespace harp::core
