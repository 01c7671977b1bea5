/**
 * @file
 * Dense bit vector over GF(2), word-packed for fast XOR/AND/parity.
 *
 * This is the element type for datawords, codewords, error patterns, and
 * parity-check matrix rows throughout the HARP reproduction.
 */

#ifndef HARP_GF2_BIT_VECTOR_HH
#define HARP_GF2_BIT_VECTOR_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.hh"
#include "common/rng.hh"

namespace harp::gf2 {

/**
 * Fixed-length vector over GF(2).
 *
 * Arithmetic is elementwise mod 2: operator^ is vector addition, dot() is
 * the inner product. All binary operations require equal lengths.
 */
class BitVector
{
  public:
    /** Construct an all-zero vector of @p size bits. */
    explicit BitVector(std::size_t size = 0);

    /** Construct from the low @p size bits of @p value (bit 0 first). */
    static BitVector fromUint(std::uint64_t value, std::size_t size);

    /** Construct a vector of @p size bits with the listed positions set. */
    static BitVector fromIndices(std::size_t size,
                                 const std::vector<std::size_t> &indices);

    /** Uniform random vector of @p size bits. */
    static BitVector random(std::size_t size, common::Xoshiro256 &rng);

    /** Refill this vector with uniform random bits in place, consuming
     *  the same RNG stream as random() of equal size. */
    void randomize(common::Xoshiro256 &rng);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    // Single-bit accessors are inline: the profiling engines and the
    // lane-native observation path call them in per-position loops.
    bool get(std::size_t i) const
    {
        assert(i < size_);
        return (words_[common::wordIndex(i)] >> common::bitOffset(i)) & 1;
    }

    void set(std::size_t i, bool value)
    {
        assert(i < size_);
        const std::uint64_t mask = std::uint64_t{1}
                                   << common::bitOffset(i);
        if (value)
            words_[common::wordIndex(i)] |= mask;
        else
            words_[common::wordIndex(i)] &= ~mask;
    }

    void flip(std::size_t i);

    /** Set every bit to @p value. */
    void fill(bool value);

    /** Number of set bits. */
    std::size_t popcount() const;

    bool isZero() const;

    /** Inner product mod 2. */
    bool dot(const BitVector &other) const;

    /** In-place XOR (vector addition over GF(2)). */
    BitVector &operator^=(const BitVector &other);
    /** In-place AND (elementwise product). */
    BitVector &operator&=(const BitVector &other);
    /** In-place OR (set union; not a GF(2) operation but handy for masks). */
    BitVector &operator|=(const BitVector &other);

    /** In-place AND-NOT (set difference): this &= ~other. */
    BitVector &andNot(const BitVector &other);

    /**
     * this = a ^ b in one pass; returns true iff the result is
     * nonzero. Fuses the copy + XOR + isZero() sequence of the
     * profiler observe hot paths (a and b must share this vector's
     * size; this is resized to match when default-constructed).
     */
    bool assignXor(const BitVector &a, const BitVector &b)
    {
        assert(a.size_ == b.size_);
        if (size_ != a.size_) {
            size_ = a.size_;
            words_.resize(a.words_.size());
        }
        std::uint64_t any = 0;
        for (std::size_t w = 0; w < words_.size(); ++w) {
            words_[w] = a.words_[w] ^ b.words_[w];
            any |= words_[w];
        }
        return any != 0;
    }

    friend BitVector operator^(BitVector lhs, const BitVector &rhs)
    {
        lhs ^= rhs;
        return lhs;
    }

    friend BitVector operator&(BitVector lhs, const BitVector &rhs)
    {
        lhs &= rhs;
        return lhs;
    }

    bool operator==(const BitVector &other) const
    {
        return size_ == other.size_ && words_ == other.words_;
    }
    bool operator!=(const BitVector &other) const { return !(*this == other); }

    /** Lexicographic order on (size, words); usable as a map key. */
    bool operator<(const BitVector &other) const;

    /** Indices of set bits in ascending order. */
    std::vector<std::size_t> setBits() const;

    /** Invoke @p fn for every set bit index in ascending order.
     *  Templated so hot callers pay no std::function indirection. */
    template <typename Fn>
    void forEachSetBit(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t word = words_[w];
            while (word != 0) {
                const int bit = std::countr_zero(word);
                fn(w * 64 + static_cast<std::size_t>(bit));
                word &= word - 1;
            }
        }
    }

    /** Low 64 bits as an integer (vector may be any length). */
    std::uint64_t toUint() const;

    /** "0"/"1" string, index 0 first; for diagnostics and tests. */
    std::string toString() const;

    /** Extract bits [begin, end) as a new vector. */
    BitVector slice(std::size_t begin, std::size_t end) const;

    /**
     * Overwrite this vector with the first size() bits of @p src
     * (@p src must be at least as long). The allocation-free
     * counterpart of `dst = src.slice(0, dst.size())` used on the
     * round-engine hot paths.
     */
    void assignPrefix(const BitVector &src);

    /** True iff this vector equals the first size() bits of @p src
     *  (@p src must be at least as long): `*this == src.slice(0,
     *  size())` without the slice. */
    bool isPrefixOf(const BitVector &src) const;

    /** Direct word access for performance-critical consumers. */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /**
     * Overwrite storage word @p w with @p value (bits beyond size() are
     * masked off). The allocation-free store used by bit-sliced
     * scatter paths; semantically equivalent to 64 set() calls.
     */
    void setWord(std::size_t w, std::uint64_t value)
    {
        assert(w < words_.size());
        words_[w] = value;
        if (w + 1 == words_.size())
            words_[w] &= common::tailMask(size_);
    }

  private:
    void maskTail();

    std::size_t size_;
    std::vector<std::uint64_t> words_;
};

} // namespace harp::gf2

#endif // HARP_GF2_BIT_VECTOR_HH
