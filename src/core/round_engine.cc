#include "core/round_engine.hh"

#include <stdexcept>

namespace harp::core {

namespace {

/** Reject a null codec before the member initializers dereference it. */
std::unique_ptr<const ecc::WordCodec>
requireCodec(std::unique_ptr<const ecc::WordCodec> codec)
{
    if (codec == nullptr)
        throw std::invalid_argument("RoundEngine: null codec");
    return codec;
}

} // namespace

RoundEngine::RoundEngine(std::unique_ptr<const ecc::WordCodec> codec,
                         const fault::WordFaultModel &faults,
                         PatternKind pattern, std::uint64_t seed)
    : codec_(requireCodec(std::move(codec))),
      faults_(faults),
      patterns_(pattern, codec_->k(),
                common::deriveSeed(seed, {0x9A77E2u})),
      crnRng_(common::deriveSeed(seed, {0xC28Bu})),
      profilerRng_(common::deriveSeed(seed, {0x9120F1u})),
      stored_(codec_->n()),
      received_(codec_->n()),
      post_(codec_->k()),
      raw_(codec_->k())
{
}

RoundEngine::RoundEngine(const ecc::HammingCode &code,
                         const fault::WordFaultModel &faults,
                         PatternKind pattern, std::uint64_t seed)
    : RoundEngine(std::make_unique<ecc::HammingWordCodec>(code), faults,
                  pattern, seed)
{
}

RoundEngine::RoundEngine(const ecc::BchCode &code,
                         const fault::WordFaultModel &faults,
                         PatternKind pattern, std::uint64_t seed)
    : RoundEngine(std::make_unique<ecc::BchWordCodec>(code), faults,
                  pattern, seed)
{
}

void
RoundEngine::runRound(const std::vector<Profiler *> &profilers)
{
    double *const ph_setup = phases_ ? &phases_->setup : nullptr;
    double *const ph_datapath = phases_ ? &phases_->datapath : nullptr;
    double *const ph_observe = phases_ ? &phases_->observe : nullptr;

    {
        PhaseScope t(ph_setup);
        patterns_.patternInto(round_, suggested_);
        // One shared uniform variate per at-risk cell (common random
        // numbers).
        uniforms_.resize(faults_.numFaults());
        for (double &u : uniforms_)
            u = crnRng_.nextDouble();
    }

    for (Profiler *profiler : profilers) {
        bool verbatim;
        {
            PhaseScope t(ph_setup);
            verbatim = profiler->chooseDatawordInto(
                round_, suggested_, profilerRng_, written_);
        }
        const gf2::BitVector &written = verbatim ? suggested_ : written_;
        {
            PhaseScope t(ph_datapath);
            codec_->encodeInto(written, stored_);
            // received = stored ^ error mask, the mask written in place.
            faults_.injectErrorsCrn(stored_, uniforms_, received_);
            received_ ^= stored_;

            codec_->decodeDataInto(received_, post_);
            raw_.assignPrefix(received_);
        }

        PhaseScope t(ph_observe);
        const RoundObservation obs{round_, written, post_, raw_};
        profiler->observe(obs);
    }
    ++round_;
}

} // namespace harp::core
