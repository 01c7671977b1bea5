/**
 * @file
 * Exact ground-truth analysis of at-risk bits for one ECC word
 * (HARP sections 3.2, 4.1 and 7.1.2).
 *
 * Given the on-die ECC code (SEC Hamming or t-error-correcting BCH) and
 * the word's fault model, the analyzer enumerates every feasible
 * pre-correction error pattern (every subset of at-risk cells that some
 * dataword can make fail simultaneously) and decodes it. From the
 * resulting outcomes it derives:
 *
 *  - the set of bits at risk of direct error,
 *  - the set of bits at risk of indirect error (miscorrection targets),
 *  - per-bit post-correction error probabilities for a fixed data pattern
 *    (Fig. 4),
 *  - the maximum number of simultaneous post-correction errors possible
 *    given a repair profile (Fig. 9),
 *  - the bits that remain unsafe under a single-error-correcting
 *    secondary ECC (Fig. 10's "after reactive profiling" metric).
 *
 * The original artifact computed these quantities with the Z3 SAT
 * solver; enumerating all 2^m masks over the word's m <= maxCells
 * at-risk cells is exact. Cell i stores r_i . d for dataword d (a unit
 * row for a data cell, the code's parity row for a parity cell). Mask
 * M is feasible iff r_i . d = b_i is solvable over the cells A = M plus
 * every p=1 cell (a charged p=1 cell always fails), where b_i = 1
 * exactly on M for true cells and on A minus M for anti cells. That
 * holds iff every dependency T of the rows (XOR of r_i over T = 0) that
 * lies inside A has even parity over b. One Gaussian elimination per
 * word yields the dependency space of all m rows; its dimension is at
 * most the number of parity cells, as data rows are distinct unit
 * vectors. A feasible mask's post-correction errors are the decoded
 * dataword of the error pattern itself taken as a received word, which
 * for these syndrome decoders of linear codes equals decoding any
 * codeword that carries the pattern.
 */

#ifndef HARP_CORE_AT_RISK_ANALYZER_HH
#define HARP_CORE_AT_RISK_ANALYZER_HH

#include <cstdint>
#include <vector>

#include "ecc/bch_general.hh"
#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"
#include "gf2/bit_vector.hh"

namespace harp::ecc {
class WordCodec;
} // namespace harp::ecc

namespace harp::core {

/** One feasible pre-correction error pattern and its decode outcome. */
struct ErrorPatternOutcome
{
    /** Bitmask over the word's at-risk cell list: which cells fail. */
    std::uint32_t failingMask = 0;
    /** Data positions in error after decoding (sorted). */
    std::vector<std::uint16_t> postErrors;
};

/**
 * Ground-truth at-risk analysis for a single (code, fault model) pair.
 * Holds no reference to either after construction.
 */
class AtRiskAnalyzer
{
  public:
    /** Largest at-risk cell count enumerated (2^cells masks); the
     *  constructors throw std::invalid_argument above it. */
    static constexpr std::size_t maxCells = 16;

    /** Analyze a word protected by a SEC Hamming code. */
    AtRiskAnalyzer(const ecc::HammingCode &code,
                   const fault::WordFaultModel &faults);

    /** Analyze a word protected by a t-error-correcting BCH code. */
    AtRiskAnalyzer(const ecc::BchCode &code,
                   const fault::WordFaultModel &faults);

    /** Every feasible failing pattern with its decode outcome, in
     *  ascending failingMask order. */
    const std::vector<ErrorPatternOutcome> &outcomes() const
    {
        return outcomes_;
    }

    /** Data cells at risk of pre-correction (direct) error. */
    const gf2::BitVector &directAtRisk() const { return directAtRisk_; }

    /** Data bits at risk of indirect error (possible miscorrection
     *  targets), which may overlap directAtRisk(). */
    const gf2::BitVector &indirectAtRisk() const { return indirectAtRisk_; }

    /** Union of all data bits that can appear erroneous post-correction. */
    const gf2::BitVector &postCorrectionAtRisk() const
    {
        return postCorrectionAtRisk_;
    }

    /**
     * Maximum number of simultaneous post-correction errors possible in
     * bits *not* covered by @p profile (Fig. 9's secondary-ECC sizing
     * metric). @p profile is a k-bit bitmap of repaired positions.
     */
    std::size_t
    maxSimultaneousErrors(const gf2::BitVector &profile) const;

    /**
     * Number of unprofiled bits that can appear in a pattern with >= 2
     * simultaneous unprofiled post-correction errors — the bits a
     * single-error-correcting secondary ECC cannot guarantee to mitigate
     * during reactive profiling (Fig. 10, "after" metric).
     */
    std::size_t unsafeBitsAfterReactive(const gf2::BitVector &profile) const;

    /** Count of post-correction-at-risk bits missing from @p profile. */
    std::size_t unidentifiedAtRisk(const gf2::BitVector &profile) const;

    /**
     * Exact per-bit post-correction error probability for data pattern
     * @p dataword (Fig. 4): index i holds P[post-correction error at data
     * bit i] under independent Bernoulli cell failures.
     */
    std::vector<double>
    perBitErrorProbability(const gf2::BitVector &dataword) const;

    /** Number of at-risk cells in the underlying fault model. */
    std::size_t numAtRiskCells() const { return cells_.size(); }

  private:
    /** The one enumerator both public constructors delegate to. */
    AtRiskAnalyzer(const ecc::WordCodec &codec,
                   const fault::WordFaultModel &faults);

    std::vector<fault::CellFault> cells_;
    /** cellRows_[i] . d is the bit cell i stores under dataword d. */
    std::vector<gf2::BitVector> cellRows_;
    /** Stored bit value that charges a cell (true for true cells). */
    bool chargedValue_ = true;

    std::vector<ErrorPatternOutcome> outcomes_;
    gf2::BitVector directAtRisk_;
    gf2::BitVector indirectAtRisk_;
    gf2::BitVector postCorrectionAtRisk_;
};

} // namespace harp::core

#endif // HARP_CORE_AT_RISK_ANALYZER_HH
