/**
 * @file
 * Weighted fair slot governor for campaigns multiplexed onto one
 * shared ThreadPool.
 *
 * The pool itself stays FIFO; fairness lives one level up. Each
 * campaign enrolls under its tenant and must acquire() a grant of
 * 1..want slots before dispatching a wave of jobs, then releaseOne()
 * per finished job. Tenants are picked by stride scheduling: every
 * tenant carries a virtual-time "pass" that advances by
 * stride1 / (weight x class boost) per granted slot, and the pending
 * tenant with the smallest pass is served first. That yields
 * proportional-share throughput (completed-slot shares converge to the
 * weight ratio), bounded latency for freshly arriving tenants (their
 * pass is clamped to the current virtual time, so a saturating
 * background sweep cannot push an interactive request arbitrarily far
 * into the future), and starvation-freedom (a waiting tenant's pass is
 * frozen while everyone else's advances, so it eventually becomes the
 * minimum).
 *
 * A campaign asks again only after its whole wave has finished, so
 * between two waves it neither waits nor holds a slot. Left alone, the
 * slot it just freed would go to whichever rival is already waiting,
 * and a heavy tenant would lose a slot at every wave boundary. So the
 * end of a wave that left jobs for another one keeps its entity a
 * stride candidate for a short handoff grace: while it is the stride
 * minimum, freed slots wait for it. A campaign's final wave arms no
 * grace, so a finished campaign never holds the pool for its rivals.
 *
 * Brownout, step one: while more than one tenant is active, grants are
 * capped at the tenant's weighted fair share of the pool, and
 * Background-class campaigns are narrowed harder — at most half their
 * fair share, with intra-job sharding forced to 1 — so interactive
 * work feels contention last. The fair share slots * weight /
 * activeWeight is rarely whole (3:1:1 on two slots gives the heavy
 * tenant 1.2), so each tenant carries the fraction its grants did not
 * use as a largest-remainder credit; once the credit adds up to a
 * slot, that grant is one slot wider and waits for the extra slot. A
 * campaign holds the slots of one grant at a time, so a grant that
 * took only the slots free at that moment would, on a pool whose jobs
 * end at scattered times, rarely be wider than one. A solo tenant
 * keeps the whole pool and the batch runner's trailing-wave widening
 * (inner = slots / width).
 *
 * Determinism note: the governor decides only *when* and *how wide*
 * each campaign's next wave runs. Per-campaign output bytes are pinned
 * by per-(name, point, repeat) seed derivation and the OrderedMerger,
 * so any interleaving the governor produces yields byte-identical
 * campaign results.
 */

#ifndef HARP_COMMON_FAIR_SCHEDULER_HH
#define HARP_COMMON_FAIR_SCHEDULER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace harp::common {

/** Service class of a campaign; scales the tenant's effective weight
 *  while that campaign runs and selects the brownout ladder rung. */
enum class PriorityClass
{
    Interactive,
    Normal,
    Background,
};

const char *priorityClassName(PriorityClass cls);
std::optional<PriorityClass> parsePriorityClass(const std::string &name);

class FairScheduler
{
  public:
    struct Config
    {
        /** Pool capacity: max slots granted and not yet released. */
        std::size_t slots = 1;
        /** Per-class multipliers applied on top of the tenant weight. */
        std::size_t interactiveBoost = 16;
        std::size_t normalBoost = 4;
        std::size_t backgroundBoost = 1;
        /** How long an entity stays a stride candidate after a wave
         *  that left jobs for another: longer than a campaign's
         *  bookkeeping between two waves, short against a job. */
        std::chrono::microseconds handoffGrace{10000};
    };

    struct Grant
    {
        /** Slots granted; 0 only when acquire() aborted. */
        std::size_t width = 0;
        /** Intra-job sharding allowance per granted job. */
        std::size_t innerThreads = 1;
        /** True when other tenants were active, i.e. the grant was
         *  capped at a fair share instead of the whole pool. */
        bool contended = false;
    };

    explicit FairScheduler(Config config);

    /**
     * Register one campaign under @p tenant (weight >= 1 enforced).
     * Returns the entity id used by acquire/releaseOne/leave. Entities
     * of one tenant are served FIFO among themselves.
     */
    std::uint64_t enroll(const std::string &tenant, std::size_t weight,
                         PriorityClass cls);

    /** Unregister; outstanding slots (if any) are force-released. */
    void leave(std::uint64_t id);

    /**
     * Block until this entity is the stride-chosen head and at least
     * one slot is free, then grant min(want, free, brownout cap)
     * slots. @p want is the campaign's jobs not yet dispatched: a grant
     * narrower than it arms the handoff grace when its wave ends.
     * Returns width 0 without granting when @p abort becomes true
     * (checked continuously) or @p want is 0.
     */
    Grant acquire(std::uint64_t id, std::size_t want,
                  const std::atomic<bool> *abort = nullptr);

    /** Return one slot of an outstanding grant to the pool. */
    void releaseOne(std::uint64_t id);

    /** Slots granted and not yet released. */
    std::size_t slotsInUse() const;

    /** Total acquire() grants issued — a logical clock for latency
     *  bounds in tests ("served within K grants of arrival"). */
    std::uint64_t grantCount() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Tenant
    {
        std::size_t weight = 1;
        std::uint64_t pass = 0;
        std::size_t entities = 0;
        std::size_t slotsHeld = 0;
        std::size_t waiting = 0;
        /** Fair-share fraction carried to the next contended grant,
         *  in 2^-20 slots (always below one slot). */
        std::uint64_t credit = 0;
        /** Latest handoff deadline of its entities. */
        Clock::time_point graceUntil{};
    };
    struct Entity
    {
        std::string tenant;
        PriorityClass cls = PriorityClass::Normal;
        std::size_t outstanding = 0;
        bool waiting = false;
        std::uint64_t ticket = 0; // FIFO order within the tenant
        /** The last grant left jobs for another wave. */
        bool moreWaves = false;
        /** Handoff deadline set when the last outstanding slot of a
         *  wave with moreWaves came back; a candidate until then
         *  although not waiting. */
        Clock::time_point graceUntil{};
    };

    /** Width limits of one grant to the stride head. */
    struct Share
    {
        /** Another tenant is active; otherwise the rest is unset. */
        bool contended = false;
        /** Weighted fair share plus the carried credit, in slots. */
        std::size_t slots = 0;
        /** Slots the grant may take: slots, halved for Background. */
        std::size_t cap = 0;
        /** Credit the tenant carries past this grant, in 2^-20 slots. */
        std::uint64_t credit = 0;
        /** The credit raised slots above the share's floor. */
        bool widened = false;
    };

    std::size_t classBoost(PriorityClass cls) const;
    /** Waiting, holding slots or inside a handoff grace. */
    static bool isActive(const Tenant &t, Clock::time_point now);
    /** Entity id the stride rule serves next; 0 when no candidate. The
     *  choice may be an entity in its handoff grace, not waiting. */
    std::uint64_t chooseLocked(Clock::time_point now) const;
    Share shareLocked(const Entity &e, const Tenant &t,
                      Clock::time_point now) const;
    /** Free slots plus those held by entities not waiting here: the
     *  slots that come back without another grant. */
    std::size_t returningLocked() const;

    Config config_;
    mutable std::mutex mutex_;
    std::condition_variable slotFreed_;
    std::map<std::string, Tenant> tenants_;
    std::map<std::uint64_t, Entity> entities_;
    std::size_t freeSlots_;
    std::uint64_t nextId_ = 1;
    std::uint64_t nextTicket_ = 1;
    std::uint64_t virtualTime_ = 0;
    std::uint64_t grants_ = 0;
};

} // namespace harp::common

#endif // HARP_COMMON_FAIR_SCHEDULER_HH
