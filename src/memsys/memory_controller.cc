#include "memsys/memory_controller.hh"

#include <cassert>

namespace harp::mem {

MemoryController::MemoryController(
    MemoryChip &chip,
    std::optional<ecc::ExtendedHammingCode> secondary_ecc)
    : chip_(chip),
      secondaryEcc_(std::move(secondary_ecc)),
      profile_(chip.numWords(), chip.datawordBits()),
      repair_(chip.numWords(), chip.datawordBits())
{
    lastRead_.dataword = gf2::BitVector(chip.datawordBits());
    if (secondaryEcc_) {
        assert(secondaryEcc_->k() == chip.datawordBits());
        secondaryCheckBits_.assign(
            chip.numWords(), gf2::BitVector(secondaryEcc_->checkBits()));
    }
}

void
MemoryController::write(std::size_t word, const gf2::BitVector &dataword)
{
    ++stats_.writes;
    writeInternal(word, dataword);
}

void
MemoryController::writeInternal(std::size_t word,
                                const gf2::BitVector &dataword)
{
    repair_.onWrite(word, dataword, profile_);
    if (secondaryEcc_)
        secondaryEcc_->encodeCheckInto(dataword,
                                       secondaryCheckBits_.at(word));
    chip_.write(word, dataword);
}

const ControllerReadResult &
MemoryController::read(std::size_t word)
{
    ++stats_.reads;
    ControllerReadResult &result = lastRead_;
    result.corrupt = false;
    result.newlyProfiledBit.reset();
    gf2::BitVector &data = result.dataword;

    // 1. On-die ECC decode inside the chip.
    chip_.read(word, data);

    // 2. Bit-repair of profiled positions.
    stats_.repairedBits += repair_.repair(word, data);

    // 3. Reactive profiling through the secondary ECC, decoded in place
    //    from the stored check bits.
    if (!secondaryEcc_)
        return result;
    const ecc::SecondaryDecodeOutcome decoded =
        secondaryEcc_->decodeInPlace(data, secondaryCheckBits_.at(word));
    switch (decoded.status) {
      case ecc::SecondaryDecodeStatus::NoError:
        return result;
      case ecc::SecondaryDecodeStatus::CorrectedSingle:
        if (*decoded.correctedPosition < data.size()) {
            // A genuine single data-bit error, already corrected in
            // place: record the bit as at-risk (first-failure reactive
            // identification).
            ++stats_.secondaryCorrections;
            if (!profile_.isAtRisk(word, *decoded.correctedPosition)) {
                profile_.markAtRisk(word, *decoded.correctedPosition);
                ++stats_.reactiveIdentifications;
                result.newlyProfiledBit = decoded.correctedPosition;
            }
            return result;
        }
        // The decoder blamed a check bit, but check bits live in reliable
        // controller storage: the real error pattern had >= 3 data errors.
        ++stats_.uncorrectableEvents;
        result.corrupt = true;
        return result;
      case ecc::SecondaryDecodeStatus::DetectedUncorrectable:
      default:
        ++stats_.uncorrectableEvents;
        result.corrupt = true;
        return result;
    }
}

gf2::BitVector
MemoryController::readRaw(std::size_t word) const
{
    return chip_.readRaw(word);
}

const ControllerReadResult &
MemoryController::scrub(std::size_t word)
{
    ++stats_.scrubs;
    // Detect whether the stored codeword currently carries raw *data*
    // errors: compare the bypass view (the stored data prefix, which a
    // read does not change) against the corrected data. Note that a
    // controller-side scrubber cannot see parity-cell errors (the
    // bypass path hides parity, section 5.2), so parity-only corruption
    // persists until the next write — a faithful consequence of on-die
    // ECC opacity.
    const ControllerReadResult &result = read(word);
    if (result.corrupt)
        return result; // cannot scrub what cannot be corrected
    if (!result.dataword.isPrefixOf(chip_.storedCodeword(word))) {
        // Write the clean value back, resetting accumulated raw errors.
        writeInternal(word, result.dataword);
        ++stats_.scrubWritebacks;
    }
    return result;
}

std::size_t
MemoryController::scrubAll()
{
    std::size_t corrupt_words = 0;
    for (std::size_t w = 0; w < chip_.numWords(); ++w)
        if (scrub(w).corrupt)
            ++corrupt_words;
    return corrupt_words;
}

} // namespace harp::mem
