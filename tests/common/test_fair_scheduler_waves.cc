/**
 * @file
 * Slot-second shares of harpd-style wave loops under the weighted fair
 * slot governor: three 3:1:1 tenants, each one campaign that leaves the
 * pool between waves, on 2- and 3-slot pools where the heavy tenant's
 * fair share is fractional. The shares are measured on the wall clock
 * (5 ms jobs over 1.5 s), so this binary is in the overload tier, not
 * the unit loop.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/fair_scheduler.hh"

namespace harp::common {
namespace {

/**
 * One campaign's wave loop as harpd drives it (FairWaveScheduler over
 * CampaignSession::run): ask for all the jobs it has left (here always
 * more than the pool), run one job per granted slot, hand each slot
 * back as its job ends, then do the wave's bookkeeping before asking
 * again. During that pause the tenant neither waits nor holds a slot.
 * Returns the slot-seconds it held.
 */
double
runWaves(FairScheduler &fair, std::uint64_t id, std::atomic<bool> &stop,
         std::atomic<int> &latch)
{
    constexpr std::size_t want = 1u << 20;
    using Clock = std::chrono::steady_clock;
    latch.fetch_sub(1);
    while (latch.load() > 0)
        std::this_thread::yield();
    double held = 0.0;
    while (!stop.load()) {
        const FairScheduler::Grant grant = fair.acquire(id, want, &stop);
        if (grant.width == 0)
            break;
        const Clock::time_point start = Clock::now();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const double job =
            std::chrono::duration<double>(Clock::now() - start).count();
        for (std::size_t i = 0; i < grant.width; ++i)
            fair.releaseOne(id);
        held += job * static_cast<double>(grant.width);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    return held;
}

/** Slot-second shares of three 3:1:1 wave-loop tenants on @p slots. */
void
expectWaveSharesFollowWeights(std::size_t slots)
{
    FairScheduler::Config config;
    config.slots = slots;
    // Far longer than the loop's 300 us of bookkeeping, so a thread
    // descheduled under load still comes back within its grace: the
    // shares, not the default grace length, are under test.
    config.handoffGrace = std::chrono::milliseconds(200);
    FairScheduler fair(config);
    const char *names[3] = {"heavy", "light1", "light2"};
    const std::size_t weights[3] = {3, 1, 1};
    std::uint64_t ids[3];
    for (int i = 0; i < 3; ++i)
        ids[i] = fair.enroll(names[i], weights[i], PriorityClass::Normal);

    std::atomic<bool> stop{false};
    std::atomic<int> latch{3};
    double held[3] = {};
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i)
        threads.emplace_back([&, i] {
            held[i] = runWaves(fair, ids[i], stop, latch);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    stop.store(true);
    for (std::thread &thread : threads)
        thread.join();

    const double sum = held[0] + held[1] + held[2];
    ASSERT_GT(sum, 0.0);
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(held[i] / sum, static_cast<double>(weights[i]) / 5.0,
                    0.10)
            << names[i] << " on " << slots << " slots: " << held[0]
            << " / " << held[1] << " / " << held[2] << " slot-seconds";
    for (const std::uint64_t id : ids)
        fair.leave(id);
}

TEST(FairSchedulerTest, WaveLoopSharesFollowWeightsOnTwoSlots)
{
    // The regime of harpd's thundering-herd test: 3:1:1 on two slots,
    // where the heavy tenant's fair share (1.2 slots) is fractional
    // and it leaves the pool between waves.
    expectWaveSharesFollowWeights(2);
}

TEST(FairSchedulerTest, WaveLoopSharesFollowWeightsOnThreeSlots)
{
    expectWaveSharesFollowWeights(3);
}

} // namespace
} // namespace harp::common
