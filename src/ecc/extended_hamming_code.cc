#include "ecc/extended_hamming_code.hh"

#include <cassert>

namespace harp::ecc {

ExtendedHammingCode::ExtendedHammingCode(HammingCode inner)
    : inner_(std::move(inner))
{
}

ExtendedHammingCode
ExtendedHammingCode::randomSecDed(std::size_t k, common::Xoshiro256 &rng)
{
    return ExtendedHammingCode(HammingCode::randomSec(k, rng));
}

gf2::BitVector
ExtendedHammingCode::encode(const gf2::BitVector &dataword) const
{
    gf2::BitVector check(checkBits());
    encodeCheckInto(dataword, check);
    gf2::BitVector codeword(n());
    for (std::size_t i = 0; i < k(); ++i)
        codeword.set(i, dataword.get(i));
    for (std::size_t i = 0; i < check.size(); ++i)
        codeword.set(k() + i, check.get(i));
    return codeword;
}

void
ExtendedHammingCode::encodeCheckInto(const gf2::BitVector &dataword,
                                     gf2::BitVector &check) const
{
    assert(dataword.size() == k());
    assert(check.size() == checkBits());
    const std::size_t p = inner_.p();
    bool overall = dataword.popcount() & 1;
    for (std::size_t j = 0; j < p; ++j) {
        const bool bit = inner_.parityRow(j).dot(dataword);
        check.set(j, bit);
        overall ^= bit;
    }
    check.set(p, overall);
}

SecondaryDecodeOutcome
ExtendedHammingCode::decodeInPlace(gf2::BitVector &data,
                                   const gf2::BitVector &check) const
{
    assert(data.size() == k());
    assert(check.size() == checkBits());
    const std::size_t p = inner_.p();
    std::uint32_t s = 0;
    for (std::size_t j = 0; j < p; ++j)
        if (inner_.parityRow(j).dot(data) != check.get(j))
            s |= std::uint32_t{1} << j;
    // Parity of the whole received codeword: 1 means an odd number of
    // bit errors occurred.
    const bool overall = (data.popcount() + check.popcount()) & 1;

    SecondaryDecodeOutcome outcome;
    if (s == 0 && !overall)
        return outcome;
    // Even parity with a nonzero syndrome is a double error: detected,
    // not correctable.
    outcome.status = SecondaryDecodeStatus::DetectedUncorrectable;
    if (!overall)
        return outcome;

    // Odd error count: assume a single error (the SECDED guarantee).
    // A zero inner syndrome means the overall parity bit itself flipped.
    const std::optional<std::size_t> pos =
        s == 0 ? std::optional<std::size_t>(n() - 1)
               : inner_.syndromeToPosition(s);
    // An odd-weight pattern matching no column has >= 3 errors.
    if (!pos)
        return outcome;
    if (*pos < k())
        data.flip(*pos);
    outcome.status = SecondaryDecodeStatus::CorrectedSingle;
    outcome.correctedPosition = pos;
    return outcome;
}

SecondaryDecodeResult
ExtendedHammingCode::decode(const gf2::BitVector &codeword) const
{
    assert(codeword.size() == n());
    SecondaryDecodeResult result;
    result.dataword = codeword.slice(0, k());
    static_cast<SecondaryDecodeOutcome &>(result) =
        decodeInPlace(result.dataword, codeword.slice(k(), n()));
    return result;
}

} // namespace harp::ecc
