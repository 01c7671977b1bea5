#include "core/profiling_batch.hh"

#include "core/round_engine.hh"
#include "core/sliced_round_engine.hh"
#include "ecc/sliced_bch.hh"

namespace harp::core {

namespace {

template <typename Engine, typename Slots>
void
runRounds(Engine &engine, const Slots &slots, std::size_t rounds,
          const std::function<void(std::size_t)> &hook)
{
    for (std::size_t r = 0; r < rounds; ++r) {
        engine.runRound(slots);
        if (hook)
            hook(r);
    }
}

/** One block at lane width W; @p shared_bch is the batch's prewarmed
 *  BCH datapath, or null for per-lane Hamming codes. */
template <std::size_t W>
void
profileSliced(const ProfilingPlan &plan,
              const ecc::SlicedBchCodeW<W> *shared_bch,
              const ProfilingLanes &lanes,
              const std::function<void(std::size_t)> &hook)
{
    if (shared_bch != nullptr) {
        // Engines never share one datapath instance across workers;
        // the copy shares the memo and owns its scratch.
        const ecc::SlicedBchCodeW<W> datapath(*shared_bch);
        SlicedRoundEngineW<W> engine(datapath, lanes.faults, plan.pattern,
                                     lanes.seeds);
        runRounds(engine, lanes.profilers, plan.rounds, hook);
    } else {
        SlicedRoundEngineW<W> engine(lanes.codes, lanes.faults,
                                     plan.pattern, lanes.seeds);
        runRounds(engine, lanes.profilers, plan.rounds, hook);
    }
}

} // namespace

ProfilingBatch::ProfilingBatch(const ProfilingPlan &plan)
    : plan_(plan)
{
    if (plan_.bch == nullptr || plan_.words == 0)
        return;
    const std::size_t lanes = std::min(blockWidth(), plan_.words);
    if (plan_.engine == EngineKind::Sliced64)
        bch64_ = std::make_unique<ecc::SlicedBchCodeW<1>>(*plan_.bch, lanes);
    else if (plan_.engine == EngineKind::Sliced256)
        bch256_ = std::make_unique<ecc::SlicedBchCodeW<4>>(*plan_.bch, lanes);
}

ProfilingBatch::~ProfilingBatch() = default;

std::size_t
ProfilingBatch::blockWidth() const
{
    switch (plan_.engine) {
      case EngineKind::Scalar:
        return 1;
      case EngineKind::Sliced64:
        return gf2::BitSliceW<1>::laneCount;
      case EngineKind::Sliced256:
        return gf2::BitSliceW<4>::laneCount;
    }
    return 1;
}

void
ProfilingBatch::profile(const ProfilingLanes &lanes,
                        const RoundHook &hook) const
{
    switch (plan_.engine) {
      case EngineKind::Scalar:
        // Scalar blocks hold exactly one word.
        if (plan_.bch != nullptr) {
            RoundEngine engine(*plan_.bch, *lanes.faults[0], plan_.pattern,
                               lanes.seeds[0]);
            runRounds(engine, lanes.profilers[0], plan_.rounds, hook);
        } else {
            RoundEngine engine(*lanes.codes[0], *lanes.faults[0],
                               plan_.pattern, lanes.seeds[0]);
            runRounds(engine, lanes.profilers[0], plan_.rounds, hook);
        }
        break;
      case EngineKind::Sliced64:
        profileSliced<1>(plan_, bch64_.get(), lanes, hook);
        break;
      case EngineKind::Sliced256:
        profileSliced<4>(plan_, bch256_.get(), lanes, hook);
        break;
    }
}

} // namespace harp::core
