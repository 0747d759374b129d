/**
 * @file
 * Tests for ObsSampler's per-window transient series (accepted
 * throughput, window latency, backlog) and the hotspot traffic
 * pattern.
 */

#include <gtest/gtest.h>

#include "network/network.h"
#include "obs/metrics.h"
#include "obs/obs_sampler.h"
#include "routing/min_adaptive.h"
#include "topology/flattened_butterfly.h"
#include "traffic/injection.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{
namespace
{

TEST(Sampler, WindowsCoverTheRun)
{
    FlattenedButterfly topo(4, 2);
    MinAdaptive algo(topo);
    UniformRandom ur(topo.numNodes());
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    Network net(topo, algo, &ur, cfg);
    BernoulliInjection inj(0.3, 1, 5);

    MetricsRegistry m;
    ObsSampler sampler(net, m, 50);
    for (int c = 0; c < 500; ++c) {
        inj.tick(net, true);
        net.step();
        sampler.tick();
    }
    // Window i covers cycles [start + i * window, ...).
    for (const char *name :
         {"obs.accepted", "obs.window_latency", "obs.backlog"}) {
        const MetricsRegistry::Series *s = m.findSeries(name);
        ASSERT_NE(s, nullptr) << name;
        EXPECT_EQ(s->values.size(), 10u) << name;
        EXPECT_EQ(s->startCycle, 0u) << name;
        EXPECT_EQ(s->windowCycles, 50u) << name;
    }
}

TEST(Sampler, AcceptedMatchesSteadyState)
{
    FlattenedButterfly topo(4, 2);
    MinAdaptive algo(topo);
    UniformRandom ur(topo.numNodes());
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    Network net(topo, algo, &ur, cfg);
    BernoulliInjection inj(0.4, 1, 5);

    // Warm up, then sample.
    for (int c = 0; c < 300; ++c) {
        inj.tick(net, true);
        net.step();
    }
    MetricsRegistry m;
    ObsSampler sampler(net, m, 100);
    for (int c = 0; c < 1000; ++c) {
        inj.tick(net, true);
        net.step();
        sampler.tick();
    }
    const auto &accepted = m.findSeries("obs.accepted")->values;
    const auto &latency = m.findSeries("obs.window_latency")->values;
    const auto &backlog = m.findSeries("obs.backlog")->values;
    ASSERT_EQ(accepted.size(), 10u);
    EXPECT_EQ(m.findSeries("obs.accepted")->startCycle, 300u);
    double sum = 0.0;
    for (std::size_t i = 0; i < accepted.size(); ++i) {
        sum += accepted[i];
        EXPECT_GT(latency[i], 2.0);
        EXPECT_LT(latency[i], 30.0);
        EXPECT_GE(backlog[i], 0.0);
    }
    EXPECT_NEAR(sum / accepted.size(), 0.4, 0.05);
}

TEST(Sampler, QuietWindowHasNoSamplesOfLatency)
{
    FlattenedButterfly topo(4, 2);
    MinAdaptive algo(topo);
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    Network net(topo, algo, nullptr, cfg);
    MetricsRegistry m;
    ObsSampler sampler(net, m, 10);
    for (int c = 0; c < 20; ++c) {
        net.step();
        sampler.tick();
    }
    const auto &latency = m.findSeries("obs.window_latency")->values;
    ASSERT_EQ(latency.size(), 2u);
    EXPECT_EQ(latency[0], 0.0);
    EXPECT_EQ(m.findSeries("obs.accepted")->values[0], 0.0);
    EXPECT_EQ(m.findSeries("obs.backlog")->values[0], 0.0);
}

TEST(Hotspot, MixesHotAndBackgroundTraffic)
{
    Hotspot pattern(64, {7, 9}, 0.5);
    Rng rng(3);
    int hot = 0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        const NodeId d = pattern.dest(0, rng);
        EXPECT_NE(d, 0);
        EXPECT_GE(d, 0);
        EXPECT_LT(d, 64);
        if (d == 7 || d == 9)
            ++hot;
    }
    // ~50% targeted + ~2/63 background hits.
    const double rate = static_cast<double>(hot) / trials;
    EXPECT_GT(rate, 0.45);
    EXPECT_LT(rate, 0.60);
}

TEST(Hotspot, ZeroFractionIsUniform)
{
    Hotspot pattern(64, {7}, 0.0);
    Rng rng(4);
    int hits = 0;
    for (int i = 0; i < 6300; ++i) {
        if (pattern.dest(0, rng) == 7)
            ++hits;
    }
    EXPECT_NEAR(hits, 100, 45); // ~1/63 of draws
}

TEST(Hotspot, EjectionLinkBoundsThroughput)
{
    // Many-to-one traffic is limited by the hot node's single
    // ejection channel: with H hot-targeting nodes the per-node
    // accepted rate cannot exceed ~1/H plus background.
    FlattenedButterfly topo(8, 2);
    MinAdaptive algo(topo);
    Hotspot pattern(topo.numNodes(), {0}, 1.0);
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    Network net(topo, algo, &pattern, cfg);
    BernoulliInjection inj(0.5, 1, 9);
    for (int c = 0; c < 1500; ++c) {
        inj.tick(net, false);
        net.step();
    }
    const double accepted =
        static_cast<double>(net.stats().flitsEjected) /
        (1500.0 * topo.numNodes());
    EXPECT_LT(accepted, 0.05); // 1 flit/cycle over 63 senders
}

} // namespace
} // namespace fbfly
