/**
 * @file
 * Memory controller of a HARP-enabled system (HARP Fig. 5).
 *
 * Owns the error-mitigation resources the paper places in the controller:
 * the error profile, the ideal bit-repair mechanism, and the secondary
 * (SECDED) ECC that implements reactive profiling. The controller's read
 * path is: chip read (on-die ECC) -> repair -> secondary ECC decode
 * (reactive identification) -> return to CPU.
 */

#ifndef HARP_MEMSYS_MEMORY_CONTROLLER_HH
#define HARP_MEMSYS_MEMORY_CONTROLLER_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "ecc/extended_hamming_code.hh"
#include "gf2/bit_vector.hh"
#include "memsys/error_profile.hh"
#include "memsys/memory_chip.hh"
#include "memsys/repair_mechanism.hh"

namespace harp::mem {

/** Outcome of one controller read. */
struct ControllerReadResult
{
    /** Data returned to the CPU (post repair + secondary correction). */
    gf2::BitVector dataword;
    /** True iff this read returned corrupt data (uncorrectable event or
     *  secondary ECC disabled and an error slipped through repair). */
    bool corrupt = false;
    /** Bit newly identified as at-risk by reactive profiling, if any. */
    std::optional<std::size_t> newlyProfiledBit;
};

/** Lifetime statistics for the controller. */
struct ControllerStats
{
    std::size_t reads = 0;
    std::size_t writes = 0;
    std::size_t repairedBits = 0;
    std::size_t secondaryCorrections = 0;
    std::size_t uncorrectableEvents = 0;
    std::size_t reactiveIdentifications = 0;
    std::size_t scrubs = 0;
    std::size_t scrubWritebacks = 0;
};

/**
 * Memory controller wired to one chip (the paper's single-chip LPDDR4-like
 * configuration, section 6.3).
 */
class MemoryController
{
  public:
    /**
     * @param chip          The attached memory chip (externally owned).
     * @param secondary_ecc SECDED code over the chip's dataword length, or
     *                      std::nullopt to run without reactive profiling.
     */
    MemoryController(MemoryChip &chip,
                     std::optional<ecc::ExtendedHammingCode> secondary_ecc);

    /** Write a dataword: capture spares, update secondary check bits,
     *  store through the chip's on-die ECC. */
    void write(std::size_t word, const gf2::BitVector &dataword);

    /**
     * Normal read: on-die decode, repair, then reactive secondary decode.
     * Newly identified at-risk bits are recorded into the error profile.
     *
     * The result lives in a buffer the controller reuses, so a read
     * allocates nothing; it stays valid until the next read(), scrub()
     * or scrubAll() on this controller. Copy it to keep it longer.
     */
    const ControllerReadResult &read(std::size_t word);

    /** Active-profiling read: the chip's decode-bypass raw data path. */
    gf2::BitVector readRaw(std::size_t word) const;

    /**
     * ECC scrubbing pass over one word (the classic reactive-profiling
     * mechanism, HARP section 2.3.2): read through the full correction
     * path and, when anything was repaired or corrected, write the
     * clean data back so raw errors do not accumulate between accesses.
     *
     * @return The read outcome (newlyProfiledBit reports a reactive
     *         identification, corrupt reports an unscrubbable word),
     *         valid as read()'s is. A scrub that writes nothing back
     *         allocates nothing.
     */
    const ControllerReadResult &scrub(std::size_t word);

    /** Scrub every word once; returns the number of corrupt words. */
    std::size_t scrubAll();

    ErrorProfile &profile() { return profile_; }
    const ErrorProfile &profile() const { return profile_; }

    /**
     * Budget the repair mechanism's spare storage (fleet policy sweeps
     * size this per chip): at most @p bits profiled bits ever get spare
     * slots, first-come-first-served in write order. Pass
     * RepairMechanism::kUnlimited to remove the budget.
     */
    void setRepairCapacity(std::size_t bits) { repair_.setCapacity(bits); }

    /** The repair mechanism (spare-capacity observability). */
    const RepairMechanism &repairMechanism() const { return repair_; }

    const ControllerStats &stats() const { return stats_; }

    bool hasSecondaryEcc() const { return secondaryEcc_.has_value(); }

  private:
    /** Shared write path without application-write accounting. */
    void writeInternal(std::size_t word, const gf2::BitVector &dataword);

    MemoryChip &chip_;
    std::optional<ecc::ExtendedHammingCode> secondaryEcc_;
    ErrorProfile profile_;
    RepairMechanism repair_;
    /** Secondary ECC check bits per word, held in reliable controller-side
     *  storage (check-bit storage is assumed error-free, as in the paper's
     *  evaluation of the reactive phase). */
    std::vector<gf2::BitVector> secondaryCheckBits_;
    /** The buffer read() and scrub() return, reused across reads. */
    ControllerReadResult lastRead_;
    ControllerStats stats_;
};

} // namespace harp::mem

#endif // HARP_MEMSYS_MEMORY_CONTROLLER_HH
