/**
 * @file
 * Forwarding decorators that time the routing and traffic layers from
 * outside the library.
 *
 * Each decorator forwards every call to the wrapped object unchanged
 * and adds the call's host time and a count to in-memory totals, so a
 * run through the decorators simulates exactly what a run without
 * them does (layers_test.cc checks this).  The totals are plain
 * members: a load point on one shard calls them from one thread only.
 */

#ifndef FBFLY_PERFBENCH_LAYERS_H
#define FBFLY_PERFBENCH_LAYERS_H

#include <chrono>
#include <cstdint>
#include <string>

#include <time.h>

#include "routing/routing.h"
#include "traffic/traffic_pattern.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU time of the whole process so far (all threads, user and
 *  system), in seconds.  Unlike wall time it does not grow while the
 *  process waits for a core on a busy host. */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Wall and CPU time elapsed since construction. */
struct Stopwatch
{
    Clock::time_point wall0 = Clock::now();
    double cpu0 = processCpuSeconds();

    double wallSeconds() const { return secondsSince(wall0); }
    double cpuSeconds() const { return processCpuSeconds() - cpu0; }
};

/** Host time and call count of one layer. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    double busySeconds = 0.0;
};

/** Times every RoutingAlgorithm::route() call of the wrapped
 *  algorithm and counts its drop decisions. */
class TracedRouting final : public fbfly::RoutingAlgorithm
{
  public:
    explicit TracedRouting(fbfly::RoutingAlgorithm &inner) : inner_(inner)
    {
    }

    std::string name() const override { return inner_.name(); }
    int numVcs() const override { return inner_.numVcs(); }
    bool sequential() const override { return inner_.sequential(); }
    bool preservesFlowOrder() const override
    {
        return inner_.preservesFlowOrder();
    }

    fbfly::RouteDecision route(fbfly::Router &router,
                               fbfly::Flit &flit) override
    {
        const Clock::time_point t0 = Clock::now();
        const fbfly::RouteDecision d = inner_.route(router, flit);
        totals.busySeconds += secondsSince(t0);
        ++totals.calls;
        if (d.drop)
            ++drops;
        return d;
    }

    LayerTotals totals;
    std::uint64_t drops = 0;

  private:
    fbfly::RoutingAlgorithm &inner_;
};

/** Times every TrafficPattern::dest() call of the wrapped pattern. */
class TracedTraffic final : public fbfly::TrafficPattern
{
  public:
    explicit TracedTraffic(const fbfly::TrafficPattern &inner)
        : TrafficPattern(inner.numNodes()), inner_(inner)
    {
    }

    std::string name() const override { return inner_.name(); }

    fbfly::NodeId dest(fbfly::NodeId src, fbfly::Rng &rng) const override
    {
        const Clock::time_point t0 = Clock::now();
        const fbfly::NodeId d = inner_.dest(src, rng);
        totals.busySeconds += secondsSince(t0);
        ++totals.calls;
        return d;
    }

    /** Mutable: dest() is const in the interface. */
    mutable LayerTotals totals;

  private:
    const fbfly::TrafficPattern &inner_;
};

} // namespace perfbench

#endif // FBFLY_PERFBENCH_LAYERS_H
