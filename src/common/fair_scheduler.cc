#include "common/fair_scheduler.hh"

#include <algorithm>
#include <chrono>
#include <tuple>

namespace harp::common {

namespace {

/** Virtual-time quantum; one slot costs stride1 / effective weight. */
constexpr std::uint64_t stride1 = 1ull << 20;

/** Fixed-point unit of the fair-share credit: one slot. */
constexpr std::uint64_t creditUnit = 1ull << 20;

/** Lower rank is served first on a virtual-time tie. */
std::size_t
classRank(PriorityClass cls)
{
    switch (cls) {
    case PriorityClass::Interactive: return 0;
    case PriorityClass::Normal: return 1;
    case PriorityClass::Background: return 2;
    }
    return 1;
}

} // namespace

const char *
priorityClassName(PriorityClass cls)
{
    switch (cls) {
    case PriorityClass::Interactive: return "interactive";
    case PriorityClass::Normal: return "normal";
    case PriorityClass::Background: return "background";
    }
    return "normal";
}

std::optional<PriorityClass>
parsePriorityClass(const std::string &name)
{
    if (name == "interactive")
        return PriorityClass::Interactive;
    if (name == "normal")
        return PriorityClass::Normal;
    if (name == "background")
        return PriorityClass::Background;
    return std::nullopt;
}

FairScheduler::FairScheduler(Config config) : config_(config)
{
    if (config_.slots == 0)
        config_.slots = 1;
    if (config_.interactiveBoost == 0)
        config_.interactiveBoost = 1;
    if (config_.normalBoost == 0)
        config_.normalBoost = 1;
    if (config_.backgroundBoost == 0)
        config_.backgroundBoost = 1;
    freeSlots_ = config_.slots;
}

std::size_t
FairScheduler::classBoost(PriorityClass cls) const
{
    switch (cls) {
    case PriorityClass::Interactive: return config_.interactiveBoost;
    case PriorityClass::Normal: return config_.normalBoost;
    case PriorityClass::Background: return config_.backgroundBoost;
    }
    return config_.normalBoost;
}

std::uint64_t
FairScheduler::enroll(const std::string &tenant, std::size_t weight,
                      PriorityClass cls)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &t = tenants_[tenant];
    if (t.entities == 0)
        t.weight = std::max<std::size_t>(1, weight);
    ++t.entities;
    const std::uint64_t id = nextId_++;
    Entity entity;
    entity.tenant = tenant;
    entity.cls = cls;
    entities_.emplace(id, std::move(entity));
    return id;
}

void
FairScheduler::leave(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entities_.find(id);
    if (it == entities_.end())
        return;
    Entity &e = it->second;
    const auto tit = tenants_.find(e.tenant);
    if (tit != tenants_.end()) {
        Tenant &t = tit->second;
        if (e.waiting && t.waiting > 0)
            --t.waiting;
        t.slotsHeld -= std::min(t.slotsHeld, e.outstanding);
        if (t.entities > 0)
            --t.entities;
        if (t.entities == 0)
            tenants_.erase(tit);
    }
    freeSlots_ = std::min(config_.slots, freeSlots_ + e.outstanding);
    entities_.erase(it);
    slotFreed_.notify_all();
}

bool
FairScheduler::isActive(const Tenant &t, Clock::time_point now)
{
    return t.waiting > 0 || t.slotsHeld > 0 || now < t.graceUntil;
}

std::uint64_t
FairScheduler::chooseLocked(Clock::time_point now) const
{
    std::uint64_t best = 0;
    std::tuple<std::uint64_t, std::size_t, std::uint64_t> bestKey{};
    for (const auto &[id, e] : entities_) {
        const bool in_grace =
            !e.waiting && e.outstanding == 0 && now < e.graceUntil;
        if (!e.waiting && !in_grace)
            continue;
        const auto tit = tenants_.find(e.tenant);
        const std::uint64_t pass =
            tit == tenants_.end() ? 0 : tit->second.pass;
        // Min virtual time wins; ties fall to the better service class,
        // then to global arrival order — all deterministic.
        const auto key = std::make_tuple(pass, classRank(e.cls), e.ticket);
        if (best == 0 || key < bestKey) {
            best = id;
            bestKey = key;
        }
    }
    return best;
}

FairScheduler::Grant
FairScheduler::acquire(std::uint64_t id, std::size_t want,
                       const std::atomic<bool> *abort)
{
    Grant grant;
    if (want == 0)
        return grant;
    // A cancelled waver must never be granted fresh slots, even when
    // the pool is idle and the grant would be immediate.
    if (abort != nullptr && abort->load(std::memory_order_relaxed))
        return grant;
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = entities_.find(id);
    if (it == entities_.end())
        return grant;
    Entity &e = it->second;
    Tenant &t = tenants_[e.tenant];

    // A tenant coming back from idle starts at the current virtual
    // time: it neither owes history (unbounded wait) nor banks credit
    // from its idle period (unbounded burst). One returning within its
    // handoff grace is still active and keeps both.
    Clock::time_point now = Clock::now();
    if (!isActive(t, now)) {
        t.pass = std::max(t.pass, virtualTime_);
        t.credit = 0;
    }
    e.waiting = true;
    // Within its grace the entity never left the queue: it keeps the
    // place the grace held for it.
    if (!(now < e.graceUntil))
        e.ticket = nextTicket_++;
    e.graceUntil = {};
    ++t.waiting;

    Share share;
    for (;;) {
        now = Clock::now();
        const std::uint64_t head = chooseLocked(now);
        if (head == id && freeSlots_ > 0) {
            share = shareLocked(e, t, now);
            // A grant the credit widened waits for its extra slot:
            // granted narrower, it would spend the credit for nothing.
            // Only slots that come back without this grant count, so a
            // holder that is itself waiting cannot deadlock the head.
            if (!share.widened ||
                freeSlots_ >= std::min({want, share.cap, returningLocked()}))
                break;
        }
        if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
            e.waiting = false;
            if (t.waiting > 0)
                --t.waiting;
            return grant;
        }
        // Timed wait: abort flags flip without a notification, and a
        // bounded poll keeps the governor livelock-free by design. A
        // head in its handoff grace is waited for until the grace ends.
        Clock::time_point wake = now + std::chrono::milliseconds(25);
        if (head != 0 && head != id) {
            const Entity &h = entities_.at(head);
            if (!h.waiting)
                wake = std::min(wake, h.graceUntil);
        }
        slotFreed_.wait_until(lock, wake);
    }
    e.waiting = false;
    if (t.waiting > 0)
        --t.waiting;

    grant.contended = share.contended;
    if (!share.contended) {
        // Solo tenant: whole pool, batch-style trailing-wave widening.
        grant.width = std::min(want, freeSlots_);
        grant.innerThreads =
            std::max<std::size_t>(1, config_.slots / grant.width);
    } else {
        grant.width = std::min({want, freeSlots_, share.cap});
        grant.innerThreads =
            e.cls == PriorityClass::Background
                ? 1
                : std::max<std::size_t>(1, share.slots / grant.width);
    }
    t.credit = share.credit;
    e.moreWaves = grant.width < want;

    freeSlots_ -= grant.width;
    t.slotsHeld += grant.width;
    e.outstanding += grant.width;
    const std::uint64_t stride = std::max<std::uint64_t>(
        1, stride1 / (static_cast<std::uint64_t>(t.weight) *
                      classBoost(e.cls)));
    t.pass += grant.width * stride;
    // Virtual time is the minimum pass over *active* tenants — NOT the
    // pass of whoever was just granted. A low-share tenant's grant
    // advances its own pass by a huge stride; letting that define the
    // clock would catapult virtual time forward, and the idle-arrival
    // clamp would then charge every returning tenant for the laggard's
    // banked debt (a priority inversion for fresh interactive work).
    std::uint64_t minActive = ~0ull;
    for (const auto &[name, other] : tenants_)
        if (isActive(other, now))
            minActive = std::min(minActive, other.pass);
    if (minActive != ~0ull)
        virtualTime_ = minActive;
    ++grants_;
    // The head changed; re-evaluate every waiter's predicate.
    slotFreed_.notify_all();
    return grant;
}

FairScheduler::Share
FairScheduler::shareLocked(const Entity &e, const Tenant &t,
                           Clock::time_point now) const
{
    // Contended iff any *other* tenant is active right now.
    Share share;
    std::size_t activeWeight = t.weight;
    for (const auto &[name, other] : tenants_) {
        if (name == e.tenant || !isActive(other, now))
            continue;
        share.contended = true;
        activeWeight += other.weight;
    }
    if (!share.contended)
        return share;

    // Brownout rung 1: cap at the weighted fair share; Background
    // campaigns are squeezed to half of it and lose intra-job sharding
    // entirely, so interactive tenants feel overload last. The share's
    // fraction below a whole slot is carried to the tenant's next grant
    // (largest remainder), so over its grants the share averages
    // slots * weight / activeWeight, not its floor. Rounding the
    // fixed-point share up makes five 0.2 fractions add up to a slot.
    const std::uint64_t fair =
        (config_.slots * t.weight * creditUnit + activeWeight - 1) /
        activeWeight;
    const std::uint64_t exact = fair + t.credit;
    share.slots = std::max<std::size_t>(1, exact / creditUnit);
    share.credit = exact > share.slots * creditUnit
                       ? exact - share.slots * creditUnit
                       : 0;
    share.widened =
        share.slots > std::max<std::uint64_t>(1, fair / creditUnit);
    share.cap = e.cls == PriorityClass::Background
                    ? std::max<std::size_t>(1, share.slots / 2)
                    : share.slots;
    return share;
}

std::size_t
FairScheduler::returningLocked() const
{
    std::size_t slots = freeSlots_;
    for (const auto &[id, e] : entities_)
        if (!e.waiting)
            slots += e.outstanding;
    return slots;
}

void
FairScheduler::releaseOne(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entities_.find(id);
    if (it == entities_.end())
        return;
    Entity &e = it->second;
    if (e.outstanding == 0)
        return;
    --e.outstanding;
    const auto tit = tenants_.find(e.tenant);
    if (e.outstanding == 0 && e.moreWaves) {
        // The wave ended and another follows: its entity asks again
        // right after its bookkeeping, so it stays a candidate for the
        // handoff grace.
        e.graceUntil = Clock::now() + config_.handoffGrace;
        if (tit != tenants_.end())
            tit->second.graceUntil =
                std::max(tit->second.graceUntil, e.graceUntil);
    }
    if (tit != tenants_.end() && tit->second.slotsHeld > 0)
        --tit->second.slotsHeld;
    if (freeSlots_ < config_.slots)
        ++freeSlots_;
    slotFreed_.notify_all();
}

std::size_t
FairScheduler::slotsInUse() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return config_.slots - freeSlots_;
}

std::uint64_t
FairScheduler::grantCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return grants_;
}

} // namespace harp::common
