/**
 * @file
 * Code-agnostic scalar encode/decode view used by the profiling-round
 * engines.
 *
 * The scalar RoundEngine (core/round_engine.hh) only ever needs three
 * things from an on-die code: the geometry (k, n), systematic encoding
 * into a caller-owned codeword buffer, and the post-correction
 * dataword of a received codeword. This header defines that minimal
 * interface plus thin adapters over the concrete code classes, so the
 * same engine drives SEC Hamming words and t-error BCH words — the
 * scalar twin of ecc::SlicedCode (ecc/sliced_code.hh).
 *
 * The `Into` signatures are allocation-free: both output vectors are
 * pre-sized scratch owned by the engine and reused every round.
 */

#ifndef HARP_ECC_WORD_CODEC_HH
#define HARP_ECC_WORD_CODEC_HH

#include <cstddef>

#include "ecc/bch_general.hh"
#include "ecc/hamming_code.hh"
#include "gf2/bit_vector.hh"

namespace harp::ecc {

/**
 * Minimal scalar encode/syndrome-decode interface of one ECC word.
 */
class WordCodec
{
  public:
    virtual ~WordCodec() = default;

    /** Dataword length. */
    virtual std::size_t k() const = 0;
    /** Codeword length. */
    virtual std::size_t n() const = 0;

    /** Parity bit @p j (codeword position k + j) as a linear function
     *  of the dataword. */
    virtual const gf2::BitVector &parityRow(std::size_t j) const = 0;

    /** Encode @p data (length k) into @p codeword (pre-sized n). */
    virtual void encodeInto(const gf2::BitVector &data,
                            gf2::BitVector &codeword) const = 0;

    /**
     * Post-correction dataword of @p received (length n) into
     * @p data_out (pre-sized k), exactly as the underlying code's
     * decode() reports it (detected-uncorrectable words keep the
     * uncorrected data).
     */
    virtual void decodeDataInto(const gf2::BitVector &received,
                                gf2::BitVector &data_out) const = 0;
};

/**
 * WordCodec over a systematic SEC Hamming code. Holds a reference; the
 * code must outlive the adapter.
 */
class HammingWordCodec final : public WordCodec
{
  public:
    explicit HammingWordCodec(const HammingCode &code) : code_(code) {}

    std::size_t k() const override { return code_.k(); }
    std::size_t n() const override { return code_.n(); }

    const gf2::BitVector &parityRow(std::size_t j) const override
    {
        return code_.parityRow(j);
    }

    void encodeInto(const gf2::BitVector &data,
                    gf2::BitVector &codeword) const override
    {
        code_.encodeInto(data, codeword);
    }

    void decodeDataInto(const gf2::BitVector &received,
                        gf2::BitVector &data_out) const override
    {
        code_.decodeDataInto(received, data_out);
    }

  private:
    const HammingCode &code_;
};

/**
 * WordCodec over a general t-error-correcting BCH code. Holds a
 * reference; the code must outlive the adapter. The adapter owns the
 * reusable decode result, so each concurrently-driven word needs its
 * own adapter; the BchCode itself may be shared (see bch_general.hh).
 */
class BchWordCodec final : public WordCodec
{
  public:
    explicit BchWordCodec(const BchCode &code) : code_(code) {}

    std::size_t k() const override { return code_.k(); }
    std::size_t n() const override { return code_.n(); }

    const gf2::BitVector &parityRow(std::size_t j) const override
    {
        return code_.parityRow(j);
    }

    void encodeInto(const gf2::BitVector &data,
                    gf2::BitVector &codeword) const override
    {
        code_.encodeInto(data, codeword);
    }

    void decodeDataInto(const gf2::BitVector &received,
                        gf2::BitVector &data_out) const override
    {
        code_.decodeInto(received, scratch_);
        data_out.assignPrefix(scratch_.dataword);
    }

  private:
    const BchCode &code_;
    /** Reused decode result (capacity persists across rounds). */
    mutable BchGeneralDecodeResult scratch_;
};

} // namespace harp::ecc

#endif // HARP_ECC_WORD_CODEC_HH
