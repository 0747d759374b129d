/**
 * @file
 * ActiveSet — the simulation kernel's runnable-component scheduler.
 *
 * The per-cycle loop used to tick every router and terminal every
 * cycle; at low offered load almost all of that work is polling idle
 * components.  An ActiveSet tracks which components have (or may
 * have) work in the upcoming cycle, so Network::step() visits only
 * those:
 *
 *  - components are woken for the *next* cycle when they gain work
 *    now (a packet is queued, a flit/credit/ack is put on a wire
 *    that will deliver it next cycle, a component keeps buffered
 *    work across a cycle boundary);
 *  - timed events further out (multi-cycle channel time of flight,
 *    go-back-N retry deadlines) go through a wake-at-cycle min-heap
 *    and surface exactly at their target cycle.
 *
 * Correctness contract: a wake must be delivered *at or after* the
 * cycle its work becomes actionable, and every piece of pending work
 * must have a wake that fires exactly when it does — spurious (too
 * frequent) wakes only cost time, but an early wake that is consumed
 * by a no-op step loses the real one.  wakeAt() therefore routes
 * wakes for the immediately-next cycle into the bitmask and keeps
 * later ones in the heap, and beginCycle() serves strictly
 * consecutive cycles.
 *
 * Iteration order over active components is ascending component
 * index — the same order as the pre-rewrite full loops — so RNG
 * streams, arbitration and traces stay bit-identical (verified by
 * the golden-trace and idle-equivalence fixtures).
 *
 * Multi-shard stepping (Network cfg.shards > 1, DESIGN.md "Step
 * engine"): phase workers must not mutate the shared bitmask or heap
 * concurrently, so each shard stages its wakes into a private
 * WakeStage installed thread-locally (stageWakesTo).  Next-cycle
 * wakes land in a per-shard mask (merged with a commutative OR at
 * commit); later timed wakes are recorded in call order and replayed
 * through the real wakeAt() serially, in ascending-shard segment
 * order — the order one shard issues them directly (router receive,
 * terminal receive + plan, route + traverse, inject), so the heap
 * contents, push order and the per-component duplicate suppression
 * (lastAt_) stay bit-identical.
 */

#ifndef FBFLY_NETWORK_ACTIVE_SET_H
#define FBFLY_NETWORK_ACTIVE_SET_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace fbfly
{

/**
 * Two-generation bitmask of runnable components plus a wake-at-cycle
 * queue for timed events.  Component ids are dense [0, n): the
 * Network maps routers to [0, R) and terminals to [R, R + N).
 */
class ActiveSet
{
  public:
    /**
     * Per-shard wake staging buffer for phased (parallel) stepping.
     * While installed via stageWakesTo(), wakeNext()/wakeAt() record
     * into it instead of the shared state:
     *  - wakes due at or before `horizon` (the next cycle) set a bit
     *    in `mask` (order-insensitive: OR-merged at commit);
     *  - later wakes append to `timers` in call order, partitioned
     *    into phase segments by mark(); commit replays each segment
     *    through the real wakeAt() in ascending-shard order.
     */
    struct WakeStage
    {
        std::vector<std::uint64_t> mask;
        /** (component, due cycle) in call order. */
        std::vector<std::pair<std::uint32_t, Cycle>> timers;
        /** Segment end offsets into `timers` (one per mark()). */
        std::vector<std::size_t> seg;
        /** Wakes due at or before this cycle go into `mask`. */
        Cycle horizon = 0;

        void reset(std::size_t words, Cycle horizon_cycle)
        {
            mask.assign(words, 0);
            timers.clear();
            seg.clear();
            horizon = horizon_cycle;
        }

        /** Close the current phase segment. */
        void mark() { seg.push_back(timers.size()); }
    };

    /** Install @p stage as this thread's wake redirect (nullptr to
     *  restore direct operation).  Thread-local: phase workers of a
     *  multi-shard step each stage into their own shard's buffer. */
    static void stageWakesTo(WakeStage *stage) { tlsStage_ = stage; }

    /** RAII installer for stageWakesTo(). */
    class StageGuard
    {
      public:
        explicit StageGuard(WakeStage *stage) { stageWakesTo(stage); }
        ~StageGuard() { stageWakesTo(nullptr); }
        StageGuard(const StageGuard &) = delete;
        StageGuard &operator=(const StageGuard &) = delete;
    };

    /** Size the set for @p n components and wake them all for the
     *  first cycle (cycle 0 must step everything once so initial
     *  state — queued packets, pre-applied faults — is observed). */
    void init(std::size_t n)
    {
        n_ = n;
        const std::size_t words = (n + 63) / 64;
        cur_.assign(words, 0);
        next_.assign(words, 0);
        lastAt_.assign(n, kNeverQueued);
        timers_.clear();
        nextCycle_ = 0;
        wakeAllNext();
    }

    std::size_t size() const { return n_; }

    /** Mark component @p c runnable in the next beginCycle(). */
    void wakeNext(std::uint32_t c)
    {
        if (WakeStage *s = tlsStage_; s != nullptr) {
            s->mask[c >> 6] |= std::uint64_t{1} << (c & 63);
            return;
        }
        next_[c >> 6] |= std::uint64_t{1} << (c & 63);
    }

    /** Mark every component runnable in the next beginCycle(). */
    void wakeAllNext()
    {
        if (n_ == 0)
            return;
        std::fill(next_.begin(), next_.end(), ~std::uint64_t{0});
        // Keep bits past n_ clear so iteration never visits them.
        const std::uint32_t tail = static_cast<std::uint32_t>(n_) & 63;
        if (tail != 0)
            next_.back() &= (std::uint64_t{1} << tail) - 1;
    }

    /**
     * Wake component @p c for cycle @p at (>= the next cycle this
     * set will serve).  Wakes for the immediately-next cycle bypass
     * the heap entirely — the common case for latency-1 channels.
     */
    void wakeAt(std::uint32_t c, Cycle at)
    {
        if (WakeStage *s = tlsStage_; s != nullptr) {
            if (at <= s->horizon)
                s->mask[c >> 6] |= std::uint64_t{1} << (c & 63);
            else
                s->timers.emplace_back(c, at);
            return;
        }
        if (at <= nextCycle_) {
            wakeNext(c);
            return;
        }
        if (lastAt_[c] == at)
            return; // identical timer already queued
        lastAt_[c] = at;
        timers_.emplace_back(at, c);
        std::push_heap(timers_.begin(), timers_.end(),
                       std::greater<>{});
    }

    /**
     * Start cycle @p t: the wakes accumulated for it become the
     * current set, and every timer due by @p t is folded in.  Cycles
     * must be served consecutively (the caller's step loop advances
     * one cycle at a time).
     *
     * @return true when any component is runnable this cycle.
     */
    bool beginCycle(Cycle t)
    {
        FBFLY_ASSERT(t == nextCycle_,
                     "ActiveSet cycles must be consecutive: begin ",
                     t, " but expected ", nextCycle_);
        cur_.swap(next_);
        std::fill(next_.begin(), next_.end(), 0);
        while (!timers_.empty() && timers_.front().first <= t) {
            const std::uint32_t c = timers_.front().second;
            std::pop_heap(timers_.begin(), timers_.end(),
                          std::greater<>{});
            timers_.pop_back();
            if (lastAt_[c] <= t)
                lastAt_[c] = kNeverQueued;
            cur_[c >> 6] |= std::uint64_t{1} << (c & 63);
        }
        nextCycle_ = t + 1;
        for (const std::uint64_t w : cur_)
            if (w != 0)
                return true;
        return false;
    }

    /**
     * Visit every active component with id in [@p lo, @p hi), in
     * ascending id order.  Waking components from inside the visitor
     * affects only future cycles (wakes land in the next
     * generation / the heap), never the current iteration.
     */
    template <typename F>
    void forEachIn(std::uint32_t lo, std::uint32_t hi, F &&f) const
    {
        const std::size_t wlo = lo >> 6;
        const std::size_t whi = (static_cast<std::size_t>(hi) + 63)
                                >> 6;
        for (std::size_t w = wlo; w < whi && w < cur_.size(); ++w) {
            std::uint64_t bits = cur_[w];
            if (w == wlo && (lo & 63) != 0)
                bits &= ~std::uint64_t{0} << (lo & 63);
            while (bits != 0) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                const std::uint32_t c =
                    static_cast<std::uint32_t>((w << 6) + b);
                if (c >= hi)
                    return;
                f(c);
            }
        }
    }

    // ------------------------------------------------------------------
    // Multi-shard commit (called serially, with no stage installed).

    /** Words in the next-generation mask (WakeStage sizing). */
    std::size_t maskWords() const { return next_.size(); }

    /** OR a staged next-cycle mask into the shared next generation.
     *  Commutative: shard merge order does not matter. */
    void mergeStagedMask(const WakeStage &s)
    {
        FBFLY_ASSERT(s.mask.size() == next_.size(),
                     "staged wake mask width mismatch");
        for (std::size_t w = 0; w < next_.size(); ++w)
            next_[w] |= s.mask[w];
    }

    /** Replay phase segment @p seg_index of a staged timer list
     *  through the real wakeAt() (call with ascending shards per
     *  segment to reproduce the one-shard issue order). */
    void replayStagedTimers(const WakeStage &s, std::size_t seg_index)
    {
        FBFLY_ASSERT(seg_index < s.seg.size(),
                     "staged timer segment out of range");
        const std::size_t lo =
            seg_index == 0 ? 0 : s.seg[seg_index - 1];
        const std::size_t hi = s.seg[seg_index];
        for (std::size_t i = lo; i < hi; ++i)
            wakeAt(s.timers[i].first, s.timers[i].second);
    }

    // ------------------------------------------------------------------
    // Introspection (liveness classifier, wake-contract verifier,
    // stall dumps).  None of these mutate scheduling state.

    /** The cycle the next beginCycle() will serve. */
    Cycle nextCycle() const { return nextCycle_; }

    /** Was component @p c runnable in the most recent beginCycle()? */
    bool activeNow(std::uint32_t c) const
    {
        return (cur_[c >> 6] >> (c & 63)) & 1;
    }

    /** Is component @p c already woken for the next cycle? */
    bool queuedNext(std::uint32_t c) const
    {
        return (next_[c >> 6] >> (c & 63)) & 1;
    }

    /** Does component @p c hold any not-yet-due heap timer?  Linear
     *  in the heap size — diagnosis-path only, not the hot path. */
    bool timerPending(std::uint32_t c) const
    {
        for (const auto &[at, comp] : timers_)
            if (comp == c)
                return true;
        return false;
    }

    /** Any wake (next-cycle bit or heap timer) pending for @p c? */
    bool anyWakePending(std::uint32_t c) const
    {
        return queuedNext(c) || timerPending(c);
    }

    /** Number of queued heap timers (duplicates included). */
    std::size_t timerCount() const { return timers_.size(); }

    /** Earliest queued timer deadline, or kNeverQueued when none. */
    Cycle nextTimerDeadline() const
    {
        return timers_.empty() ? kNeverQueued : timers_.front().first;
    }

    /** Visit every component woken for the next cycle, ascending. */
    template <typename F>
    void forEachQueuedNext(F &&f) const
    {
        for (std::size_t w = 0; w < next_.size(); ++w) {
            std::uint64_t bits = next_[w];
            while (bits != 0) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                f(static_cast<std::uint32_t>((w << 6) + b));
            }
        }
    }

    /**
     * Remove component @p c from the *current* cycle's runnable set.
     * Debug/test hook (Network::debugSuppressComponent) used to
     * inject a missed wake: the component's work is stranded exactly
     * as a lost wake would strand it, which the liveness classifier
     * must then diagnose as a kernel bug.
     */
    void deactivate(std::uint32_t c)
    {
        cur_[c >> 6] &= ~(std::uint64_t{1} << (c & 63));
    }

    /** Sentinel deadline: "no timer queued". */
    static constexpr Cycle kNeverQueued = ~Cycle{0};

  private:
    /** Per-thread wake redirect for phased stepping (null when the
     *  thread writes the shared state directly). */
    static inline thread_local WakeStage *tlsStage_ = nullptr;

    std::vector<std::uint64_t> cur_;
    std::vector<std::uint64_t> next_;
    /** Last cycle queued in the heap per component (duplicate
     *  suppression for repeated same-deadline wakes). */
    std::vector<Cycle> lastAt_;
    /** Min-heap by (deadline, component) over a flat vector (std
     *  heap algorithms) so diagnosis code can enumerate pending
     *  timers; pop order is identical to the former priority_queue. */
    std::vector<std::pair<Cycle, std::uint32_t>> timers_;
    /** The cycle the next beginCycle() will serve. */
    Cycle nextCycle_ = 0;
    std::size_t n_ = 0;
};

} // namespace fbfly

#endif // FBFLY_NETWORK_ACTIVE_SET_H
