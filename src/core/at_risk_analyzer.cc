#include "core/at_risk_analyzer.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <set>
#include <stdexcept>

#include "ecc/word_codec.hh"

namespace harp::core {

namespace {

/**
 * Nonzero members of the dependency space of @p rows: every cell set T
 * (a bitmask over the row indices) whose rows XOR to zero. Gaussian
 * elimination tags each row with the set of input rows it combines; a
 * row that reduces to zero contributes its tag to a basis, which is
 * then expanded into all 2^dim - 1 nonzero combinations.
 */
std::vector<std::uint32_t>
dependencySpace(const std::vector<gf2::BitVector> &rows)
{
    struct Pivot
    {
        gf2::BitVector row;
        std::uint32_t tag;
        std::size_t bit;
    };
    std::vector<Pivot> pivots;
    std::vector<std::uint32_t> members;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        gf2::BitVector row = rows[i];
        std::uint32_t tag = std::uint32_t{1} << i;
        for (const Pivot &pivot : pivots) {
            if (row.get(pivot.bit)) {
                row ^= pivot.row;
                tag ^= pivot.tag;
            }
        }
        if (row.isZero()) {
            const std::size_t spanned = members.size();
            members.push_back(tag);
            for (std::size_t j = 0; j < spanned; ++j)
                members.push_back(members[j] ^ tag);
            continue;
        }
        std::size_t bit = 0;
        while (!row.get(bit))
            ++bit;
        pivots.push_back({std::move(row), tag, bit});
    }
    return members;
}

} // namespace

AtRiskAnalyzer::AtRiskAnalyzer(const ecc::HammingCode &code,
                               const fault::WordFaultModel &faults)
    : AtRiskAnalyzer(ecc::HammingWordCodec(code), faults)
{
}

AtRiskAnalyzer::AtRiskAnalyzer(const ecc::BchCode &code,
                               const fault::WordFaultModel &faults)
    : AtRiskAnalyzer(ecc::BchWordCodec(code), faults)
{
}

AtRiskAnalyzer::AtRiskAnalyzer(const ecc::WordCodec &codec,
                               const fault::WordFaultModel &faults)
    : cells_(faults.faults()),
      chargedValue_(faults.technology() ==
                    fault::CellTechnology::TrueCell),
      directAtRisk_(codec.k()),
      indirectAtRisk_(codec.k()),
      postCorrectionAtRisk_(codec.k())
{
    if (faults.wordBits() != codec.n())
        throw std::invalid_argument("AtRiskAnalyzer: fault model size");
    if (cells_.size() > maxCells)
        throw std::invalid_argument(
            "AtRiskAnalyzer: too many at-risk cells to enumerate");

    // Each cell's stored bit as a linear function of the dataword;
    // probability-1 cells fail whenever charged.
    const std::size_t k = codec.k();
    std::uint32_t certain = 0;
    cellRows_.reserve(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const std::size_t pos = cells_[i].position;
        if (pos < k) {
            cellRows_.emplace_back(k);
            cellRows_.back().set(pos, true);
            directAtRisk_.set(pos, true);
        } else {
            cellRows_.push_back(codec.parityRow(pos - k));
        }
        if (cells_[i].probability >= 1.0)
            certain |= std::uint32_t{1} << i;
    }
    const std::vector<std::uint32_t> dependencies =
        dependencySpace(cellRows_);

    gf2::BitVector received(codec.n());
    gf2::BitVector decoded(k);
    const std::uint32_t end = std::uint32_t{1} << cells_.size();
    for (std::uint32_t mask = 1; mask < end; ++mask) {
        // Feasible iff no dependency inside the constrained cells has
        // odd parity over the required stored values (see the header).
        const std::uint32_t constrained = mask | certain;
        const std::uint32_t rhs =
            chargedValue_ ? mask : constrained & ~mask;
        const bool feasible = std::none_of(
            dependencies.begin(), dependencies.end(),
            [&](std::uint32_t dep) {
                return (dep & ~constrained) == 0 &&
                       (std::popcount(dep & rhs) & 1) != 0;
            });
        if (!feasible)
            continue;

        received.fill(false);
        for (std::size_t i = 0; i < cells_.size(); ++i)
            if ((mask >> i) & 1)
                received.set(cells_[i].position, true);
        codec.decodeDataInto(received, decoded);

        ErrorPatternOutcome outcome;
        outcome.failingMask = mask;
        decoded.forEachSetBit([&](std::size_t pos) {
            outcome.postErrors.push_back(static_cast<std::uint16_t>(pos));
            postCorrectionAtRisk_.set(pos, true);
            // Indirect error: the decoder flipped a bit that did not fail.
            if (!received.get(pos))
                indirectAtRisk_.set(pos, true);
        });
        outcomes_.push_back(std::move(outcome));
    }
}

std::size_t
AtRiskAnalyzer::maxSimultaneousErrors(const gf2::BitVector &profile) const
{
    std::size_t max_count = 0;
    for (const ErrorPatternOutcome &outcome : outcomes_) {
        std::size_t count = 0;
        for (const std::uint16_t pos : outcome.postErrors)
            if (!profile.get(pos))
                ++count;
        max_count = std::max(max_count, count);
    }
    return max_count;
}

std::size_t
AtRiskAnalyzer::unsafeBitsAfterReactive(const gf2::BitVector &profile) const
{
    std::set<std::uint16_t> unsafe;
    for (const ErrorPatternOutcome &outcome : outcomes_) {
        std::size_t count = 0;
        for (const std::uint16_t pos : outcome.postErrors)
            if (!profile.get(pos))
                ++count;
        if (count < 2)
            continue; // a single residual error is absorbed by the
                      // secondary SEC and reactively profiled
        for (const std::uint16_t pos : outcome.postErrors)
            if (!profile.get(pos))
                unsafe.insert(pos);
    }
    return unsafe.size();
}

std::size_t
AtRiskAnalyzer::unidentifiedAtRisk(const gf2::BitVector &profile) const
{
    gf2::BitVector missed = postCorrectionAtRisk_;
    gf2::BitVector overlap = missed;
    overlap &= profile;
    return missed.popcount() - overlap.popcount();
}

std::vector<double>
AtRiskAnalyzer::perBitErrorProbability(const gf2::BitVector &dataword) const
{
    // Charged at-risk cells under this pattern, with their probabilities.
    std::vector<std::size_t> charged_idx;
    for (std::size_t i = 0; i < cells_.size(); ++i)
        if (cellRows_[i].dot(dataword) == chargedValue_)
            charged_idx.push_back(i);

    std::vector<double> prob(directAtRisk_.size(), 0.0);
    const std::size_t m = charged_idx.size();
    for (std::uint32_t sub = 1; sub < (std::uint32_t{1} << m); ++sub) {
        // Probability that exactly this subset of charged cells fails.
        double weight = 1.0;
        std::uint32_t full_mask = 0;
        for (std::size_t i = 0; i < m; ++i) {
            const fault::CellFault &cell = cells_[charged_idx[i]];
            if ((sub >> i) & 1) {
                weight *= cell.probability;
                full_mask |= std::uint32_t{1} << charged_idx[i];
            } else {
                weight *= 1.0 - cell.probability;
            }
        }
        if (weight == 0.0)
            continue;
        // @p dataword itself makes full_mask feasible: it charges every
        // member, and a charged p=1 cell left out would zero the weight.
        const auto outcome = std::ranges::lower_bound(
            outcomes_, full_mask, {}, &ErrorPatternOutcome::failingMask);
        assert(outcome != outcomes_.end() &&
               outcome->failingMask == full_mask);
        for (const std::uint16_t pos : outcome->postErrors)
            prob[pos] += weight;
    }
    return prob;
}

} // namespace harp::core
