/**
 * @file
 * Unit and parameterized tests for the SECDED secondary ECC: corrects all
 * single errors, detects (never miscorrects) all double errors — the
 * property HARP's reactive profiling safety argument rests on — and the
 * split-form decodeInPlace() checked against a table decoder written
 * here, over every error pattern of weight <= 2 and sampled weight 3/4.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "ecc/extended_hamming_code.hh"

namespace harp::ecc {
namespace {

TEST(ExtendedHamming, Dimensions)
{
    common::Xoshiro256 rng(1);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(64, rng);
    EXPECT_EQ(code.k(), 64u);
    EXPECT_EQ(code.checkBits(), 8u); // 7 Hamming + 1 overall parity
    EXPECT_EQ(code.n(), 72u);        // the classic (72, 64) SECDED shape
}

TEST(ExtendedHamming, EncodeHasEvenOverallParity)
{
    common::Xoshiro256 rng(2);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(32, rng);
    for (int trial = 0; trial < 20; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(32, rng);
        const gf2::BitVector c = code.encode(d);
        EXPECT_EQ(c.popcount() % 2, 0u);
    }
}

TEST(ExtendedHamming, CleanDecode)
{
    common::Xoshiro256 rng(3);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(64, rng);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    const SecondaryDecodeResult r = code.decode(code.encode(d));
    EXPECT_EQ(r.status, SecondaryDecodeStatus::NoError);
    EXPECT_EQ(r.dataword, d);
    EXPECT_FALSE(r.correctedPosition.has_value());
}

class SecDedSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SecDedSweep, EverySingleErrorCorrected)
{
    const std::size_t k = GetParam();
    common::Xoshiro256 rng(100 + k);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(k, rng);
    const gf2::BitVector d = gf2::BitVector::random(k, rng);
    const gf2::BitVector clean = code.encode(d);
    for (std::size_t pos = 0; pos < code.n(); ++pos) {
        gf2::BitVector c = clean;
        c.flip(pos);
        const SecondaryDecodeResult r = code.decode(c);
        EXPECT_EQ(r.status, SecondaryDecodeStatus::CorrectedSingle)
            << "error at " << pos;
        EXPECT_EQ(r.dataword, d);
        ASSERT_TRUE(r.correctedPosition.has_value());
        EXPECT_EQ(*r.correctedPosition, pos);
    }
}

TEST_P(SecDedSweep, EveryDoubleErrorDetectedNotMiscorrected)
{
    const std::size_t k = GetParam();
    common::Xoshiro256 rng(200 + k);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(k, rng);
    const gf2::BitVector d = gf2::BitVector::random(k, rng);
    const gf2::BitVector clean = code.encode(d);
    // Exhaustive for small k; sampled pairs for larger k.
    const bool exhaustive = code.n() <= 24;
    const int samples = exhaustive ? 0 : 300;
    auto check_pair = [&](std::size_t i, std::size_t j) {
        gf2::BitVector c = clean;
        c.flip(i);
        c.flip(j);
        const SecondaryDecodeResult r = code.decode(c);
        EXPECT_EQ(r.status,
                  SecondaryDecodeStatus::DetectedUncorrectable)
            << "errors at " << i << "," << j;
    };
    if (exhaustive) {
        for (std::size_t i = 0; i < code.n(); ++i)
            for (std::size_t j = i + 1; j < code.n(); ++j)
                check_pair(i, j);
    } else {
        for (int s = 0; s < samples; ++s) {
            const std::size_t i = rng.nextBelow(code.n());
            std::size_t j = rng.nextBelow(code.n());
            while (j == i)
                j = rng.nextBelow(code.n());
            check_pair(i, j);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(DatawordLengths, SecDedSweep,
                         ::testing::Values(8, 16, 64, 128));

TEST(ExtendedHamming, OverallParityBitErrorCorrected)
{
    common::Xoshiro256 rng(4);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(16, rng);
    const gf2::BitVector d = gf2::BitVector::random(16, rng);
    gf2::BitVector c = code.encode(d);
    c.flip(code.n() - 1); // the overall parity bit itself
    const SecondaryDecodeResult r = code.decode(c);
    EXPECT_EQ(r.status, SecondaryDecodeStatus::CorrectedSingle);
    ASSERT_TRUE(r.correctedPosition.has_value());
    EXPECT_EQ(*r.correctedPosition, code.n() - 1);
    EXPECT_EQ(r.dataword, d);
}

TEST(ExtendedHamming, TripleErrorsNeverReportNoError)
{
    // SECDED guarantees end at 2 errors, but a triple error must never be
    // reported as a clean word (it has odd parity).
    common::Xoshiro256 rng(5);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(32, rng);
    const gf2::BitVector d = gf2::BitVector::random(32, rng);
    const gf2::BitVector clean = code.encode(d);
    for (int trial = 0; trial < 100; ++trial) {
        gf2::BitVector c = clean;
        std::set<std::size_t> positions;
        while (positions.size() < 3)
            positions.insert(rng.nextBelow(code.n()));
        for (const std::size_t pos : positions)
            c.flip(pos);
        const SecondaryDecodeResult r = code.decode(c);
        EXPECT_NE(r.status, SecondaryDecodeStatus::NoError);
    }
}

/** Slow reference decoder for a received SECDED codeword: a syndrome
 *  table built from the inner code's columns, with the SECDED rule
 *  (correct odd-parity single errors, detect everything else). */
struct OracleDecode
{
    SecondaryDecodeStatus status = SecondaryDecodeStatus::NoError;
    std::optional<std::size_t> position;
    gf2::BitVector dataword;
};

OracleDecode
oracleDecode(const ExtendedHammingCode &code,
             const gf2::BitVector &received)
{
    const HammingCode &inner = code.inner();
    std::map<std::uint32_t, std::size_t> table;
    for (std::size_t pos = 0; pos < inner.n(); ++pos)
        table.emplace(inner.codewordColumn(pos), pos);

    std::uint32_t syndrome = 0;
    for (std::size_t pos = 0; pos < inner.n(); ++pos)
        if (received.get(pos))
            syndrome ^= inner.codewordColumn(pos);
    const bool odd = received.popcount() % 2 == 1;

    OracleDecode out;
    out.dataword = received.slice(0, code.k());
    if (syndrome == 0 && !odd)
        return out;
    out.status = SecondaryDecodeStatus::DetectedUncorrectable;
    if (!odd)
        return out;
    std::optional<std::size_t> pos;
    if (syndrome == 0)
        pos = code.n() - 1;
    else if (const auto it = table.find(syndrome); it != table.end())
        pos = it->second;
    if (!pos)
        return out;
    out.status = SecondaryDecodeStatus::CorrectedSingle;
    out.position = pos;
    if (*pos < code.k())
        out.dataword.flip(*pos);
    return out;
}

/** Decode clean ^ error with decodeInPlace() and with decode(), and
 *  compare status, position and data with the oracle. */
void
expectMatchesOracle(const ExtendedHammingCode &code,
                    const gf2::BitVector &clean,
                    const std::vector<std::size_t> &errors)
{
    gf2::BitVector received = clean;
    for (const std::size_t pos : errors)
        received.flip(pos);
    const OracleDecode want = oracleDecode(code, received);

    gf2::BitVector data = received.slice(0, code.k());
    const gf2::BitVector check = received.slice(code.k(), code.n());
    const SecondaryDecodeOutcome got = code.decodeInPlace(data, check);
    std::string where = "errors at";
    for (const std::size_t pos : errors)
        where += " " + std::to_string(pos);
    ASSERT_EQ(got.status, want.status) << where;
    ASSERT_EQ(got.correctedPosition, want.position) << where;
    ASSERT_EQ(data, want.dataword) << where;

    const SecondaryDecodeResult whole = code.decode(received);
    ASSERT_EQ(whole.status, want.status) << where;
    ASSERT_EQ(whole.correctedPosition, want.position) << where;
    ASSERT_EQ(whole.dataword, want.dataword) << where;
}

class SplitDecodeOracle : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SplitDecodeOracle, MatchesTableDecoderOnEveryLowWeightPattern)
{
    const std::size_t k = GetParam();
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        common::Xoshiro256 rng(300 + 10 * k + seed);
        const ExtendedHammingCode code =
            ExtendedHammingCode::randomSecDed(k, rng);
        const gf2::BitVector d = gf2::BitVector::random(k, rng);
        const gf2::BitVector clean = code.encode(d);

        gf2::BitVector check(code.checkBits());
        code.encodeCheckInto(d, check);
        ASSERT_EQ(check, clean.slice(k, code.n()));

        const std::size_t n = code.n();
        expectMatchesOracle(code, clean, {});
        for (std::size_t i = 0; i < n; ++i) {
            expectMatchesOracle(code, clean, {i});
            for (std::size_t j = i + 1; j < n; ++j)
                expectMatchesOracle(code, clean, {i, j});
        }
        // Beyond the SECDED guarantee: sampled weight-3 and weight-4
        // patterns, where odd weights may miscorrect and must still
        // follow the same rule.
        for (const std::size_t weight : {3u, 4u}) {
            for (int trial = 0; trial < 2000; ++trial) {
                std::set<std::size_t> positions;
                while (positions.size() < weight)
                    positions.insert(rng.nextBelow(n));
                expectMatchesOracle(
                    code, clean,
                    std::vector<std::size_t>(positions.begin(),
                                             positions.end()));
            }
        }
    }
}

// k = 64 is the (72, 64) controller SECDED; k = 128 is the geometry of
// extension_secondary_interleaving (two on-die words under one code).
INSTANTIATE_TEST_SUITE_P(Geometries, SplitDecodeOracle,
                         ::testing::Values(64, 128));

} // namespace
} // namespace harp::ecc
