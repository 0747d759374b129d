/**
 * @file
 * Tests for the churn/repair subsystem: Channel kill -> revive edge
 * cases, ChurnModel schedule properties, conservation invariants
 * through repeated kill/repair cycles, and the thread-count
 * determinism contract of the dynamic-service harness
 * (harness/churn.h) — 1-thread and 4-thread runChurnSweep must be
 * bit-identical, and a zero-churn run must reproduce a plain run of
 * the same harness bit for bit — plus churn combined with permanent
 * faults: a pinned fault+churn fixture and the pre-flight check that
 * churn pruning honours the fault set.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/churn_model.h"
#include "fault/fault_model.h"
#include "fixture_scenarios.h"
#include "harness/churn.h"
#include "harness/result_writer.h"
#include "network/channel.h"
#include "network/network.h"
#include "obs/trace.h"
#include "routing/min_adaptive.h"
#include "topology/flattened_butterfly.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{
namespace
{

Flit
makeFlit(FlitId id, bool measured = false)
{
    Flit f;
    f.id = id;
    f.packet = static_cast<PacketId>(id);
    f.head = f.tail = true;
    f.measured = measured;
    return f;
}

// --- Channel kill -> revive edge cases ----------------------------

TEST(ChannelRevive, PlainRevivalIsLossless)
{
    // A dead plain channel refuses new sends, so nothing is ever
    // stranded: the in-flight flit keeps flying across the outage
    // and revival loses nothing.
    Channel ch(3, 1);
    ch.sendFlit(makeFlit(1), 0);
    ch.kill();
    EXPECT_FALSE(ch.canSendFlit(1));

    const Channel::ReviveLoss loss = ch.revive();
    EXPECT_EQ(loss.flits, 0u);
    EXPECT_EQ(loss.packets, 0u);
    EXPECT_EQ(loss.measuredPackets, 0u);
    EXPECT_FALSE(ch.dead());

    // The pre-outage flit arrives on schedule, and the channel
    // accepts traffic again.
    const auto f = ch.receiveFlit(3);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->id, 1u);
    EXPECT_TRUE(ch.canSendFlit(3));
    ch.sendFlit(makeFlit(2), 3);
    EXPECT_EQ(ch.receiveFlit(6)->id, 2u);
    EXPECT_EQ(ch.flitsInFlight(), 0);
}

TEST(ChannelRevive, ReliableRevivalAcceptedFlitsAreNotLost)
{
    // Flits the receiver accepted before the outage are below
    // expectedSeq: only their acks died with the link, so revival
    // must not count them as lost even though they still sit in the
    // replay buffer (the transmitter never saw the acks).
    Channel ch(1, 1);
    ch.enableReliability({true, 8, 16, 64}, {}, Rng(1));
    ch.sendFlit(makeFlit(1), 0);
    ch.sendFlit(makeFlit(2), 1);
    EXPECT_EQ(ch.receiveFlit(3)->id, 1u);
    EXPECT_EQ(ch.receiveFlit(3)->id, 2u);
    EXPECT_EQ(ch.replayOccupancy(), 2); // acks never drained

    ch.kill();
    const Channel::ReviveLoss loss = ch.revive();
    EXPECT_EQ(loss.flits, 0u);
    EXPECT_EQ(loss.packets, 0u);
    EXPECT_EQ(ch.replayOccupancy(), 0);
}

TEST(ChannelRevive, ReliableRevivalCountsUnacceptedReplayFlits)
{
    // Flits at or above the receiver's expectedSeq were never
    // accepted downstream; the outage outlived their retransmission
    // window, so revival reports them (and their packets, and the
    // measured subset) as losses for drop accounting.
    Channel ch(1, 1);
    ch.enableReliability({true, 8, 16, 64}, {}, Rng(1));
    ch.sendFlit(makeFlit(1), 0);
    EXPECT_EQ(ch.receiveFlit(2)->id, 1u); // accepted, expectedSeq = 1
    ch.sendFlit(makeFlit(2, /*measured=*/true), 2);
    ch.sendFlit(makeFlit(3), 3);
    ch.kill();

    const Channel::ReviveLoss loss = ch.revive();
    EXPECT_EQ(loss.flits, 2u);
    EXPECT_EQ(loss.packets, 2u);
    EXPECT_EQ(loss.measuredPackets, 1u);
    // Clean reset: window empty, nothing logically in flight.
    EXPECT_EQ(ch.replayOccupancy(), 0);
    EXPECT_EQ(ch.flitsInFlight(), 0);
}

TEST(ChannelRevive, StaleWireFlitsAreFlushedNotReplayed)
{
    // A flit still on the wire at revival carries a pre-outage
    // sequence number that would confuse the reset receiver; it must
    // be flushed (and counted lost), never delivered after repair.
    Channel ch(4, 1);
    ch.enableReliability({true, 8, 16, 64}, {}, Rng(1));
    ch.sendFlit(makeFlit(7), 0);
    ch.kill(); // flit still in flight (arrives at cycle 4)
    const Channel::ReviveLoss loss = ch.revive();
    EXPECT_EQ(loss.flits, 1u);

    // Post-repair traffic restarts at sequence zero and is the only
    // thing the receiver ever sees.
    ch.sendFlit(makeFlit(8), 1);
    const auto f = ch.receiveFlit(5);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->id, 8u);
    EXPECT_FALSE(ch.receiveFlit(10).has_value());
    EXPECT_EQ(ch.linkStats().dupSuppressed, 0u);
    EXPECT_EQ(ch.linkStats().crcRejected, 0u);
}

TEST(ChannelRevive, DuplicateSuppressionSurvivesRevivalBoundary)
{
    // Force a duplicate before the outage (timeout retransmission of
    // a flit whose original arrives fine), then kill/revive and check
    // the receiver still accepts the fresh sequence-zero stream: the
    // suppression state must reset with the window, not leak across
    // the revival boundary.
    Channel ch(1, 1);
    ch.enableReliability({true, 8, 4, 8}, {}, Rng(1));
    ch.sendFlit(makeFlit(1), 0);
    // No receive yet: the retry timeout (4) fires and retransmits.
    for (Cycle t = 1; t <= 6; ++t)
        ch.tick(t);
    EXPECT_GE(ch.linkStats().retransmits, 1u);
    // The original is accepted; the retransmitted copy is suppressed.
    EXPECT_EQ(ch.receiveFlit(8)->id, 1u);
    EXPECT_FALSE(ch.receiveFlit(8).has_value());
    EXPECT_GE(ch.linkStats().dupSuppressed, 1u);
    const std::uint64_t dups = ch.linkStats().dupSuppressed;

    ch.kill();
    (void)ch.revive();

    // Fresh traffic after repair: in-order, no false suppression.
    ch.sendFlit(makeFlit(2), 9);
    ch.sendFlit(makeFlit(3), 10);
    EXPECT_EQ(ch.receiveFlit(12)->id, 2u);
    EXPECT_EQ(ch.receiveFlit(12)->id, 3u);
    EXPECT_EQ(ch.linkStats().dupSuppressed, dups);
}

TEST(ChannelRevive, RepeatedKillRepairCyclesStayConsistent)
{
    // N kill/repair cycles with traffic in between: every epoch's
    // flits either deliver or are counted in the revival loss —
    // nothing is double-counted and nothing leaks into the logical
    // in-flight accounting.
    Channel ch(2, 1);
    ch.enableReliability({true, 8, 16, 64}, {}, Rng(3));
    Cycle t = 0;
    std::uint64_t lost = 0;
    int delivered = 0;
    FlitId next_id = 1;
    for (int cycle = 0; cycle < 5; ++cycle) {
        // Two flits that the receiver accepts...
        for (int i = 0; i < 2; ++i) {
            ch.tick(t);
            ch.sendFlit(makeFlit(next_id++), t);
            ++t;
        }
        t += 2;
        while (ch.receiveFlit(t).has_value())
            ++delivered;
        // ...and one stranded mid-wire by the failure.
        ch.tick(t);
        ch.sendFlit(makeFlit(next_id++), t);
        ch.kill();
        const Channel::ReviveLoss loss = ch.revive();
        lost += loss.flits;
        EXPECT_EQ(ch.flitsInFlight(), 0);
        EXPECT_EQ(ch.replayOccupancy(), 0);
        ++t;
    }
    EXPECT_EQ(delivered, 10);
    EXPECT_EQ(lost, 5u);
}

TEST(ChannelReviveDeath, ReviveOnLiveChannelPanics)
{
    Channel ch(1, 1);
    EXPECT_DEATH((void)ch.revive(), "revive on a live channel");
}

// --- ChurnModel schedule properties -------------------------------

ChurnConfig
linkChurnConfig(double mtbf, double mttr, Cycle horizon,
                std::uint64_t seed = 7)
{
    ChurnConfig cc;
    cc.linkMtbf = mtbf;
    cc.linkMttr = mttr;
    cc.horizon = horizon;
    cc.seed = seed;
    return cc;
}

TEST(ChurnModel, ScheduleIsDeterministicAndSorted)
{
    FlattenedButterfly topo(4, 2);
    ChurnConfig cc = linkChurnConfig(800, 200, 6000);
    cc.routerMtbf = 3000;
    cc.routerMttr = 400;
    const ChurnModel a(topo, cc);
    const ChurnModel b(topo, cc);

    ASSERT_GT(a.events().size(), 0u);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        const ServiceEvent &ea = a.events()[i];
        const ServiceEvent &eb = b.events()[i];
        EXPECT_EQ(ea.at, eb.at);
        EXPECT_EQ(ea.kind, eb.kind);
        EXPECT_EQ(ea.link, eb.link);
        EXPECT_EQ(ea.router, eb.router);
        EXPECT_EQ(ea.episode, eb.episode);
        if (i > 0) {
            EXPECT_GE(ea.at, a.events()[i - 1].at);
        }
    }
    EXPECT_EQ(a.downEvents(), b.downEvents());
    EXPECT_EQ(a.prunedEpisodes(), b.prunedEpisodes());
}

TEST(ChurnModel, EveryDownEventHasAMatchingRepair)
{
    FlattenedButterfly topo(4, 2);
    const ChurnModel model(topo, linkChurnConfig(500, 150, 8000));
    ASSERT_TRUE(model.anyChurn());

    std::uint64_t downs = 0;
    std::uint64_t ups = 0;
    // episode id -> cycle of its down event.
    std::vector<std::pair<std::size_t, Cycle>> open;
    for (const ServiceEvent &ev : model.events()) {
        if (ev.isDown()) {
            ++downs;
            open.emplace_back(ev.episode, ev.at);
        } else {
            ++ups;
            bool matched = false;
            for (auto it = open.begin(); it != open.end(); ++it) {
                if (it->first == ev.episode) {
                    EXPECT_GE(ev.at, it->second);
                    open.erase(it);
                    matched = true;
                    break;
                }
            }
            EXPECT_TRUE(matched)
                << "repair without a prior outage, episode "
                << ev.episode;
        }
    }
    EXPECT_EQ(downs, ups) << "an outage was left open";
    EXPECT_TRUE(open.empty());
    EXPECT_EQ(downs, model.downEvents());
}

TEST(ChurnModel, LinkEventsUseRepresentativeArcs)
{
    FlattenedButterfly topo(4, 2);
    const ChurnModel model(topo, linkChurnConfig(500, 150, 8000));
    for (const ServiceEvent &ev : model.events()) {
        if (ev.kind != ServiceEvent::Kind::kLinkDown &&
            ev.kind != ServiceEvent::Kind::kLinkUp)
            continue;
        ASSERT_LT(ev.link, model.numArcs());
        const std::size_t rev = model.reverseArc(ev.link);
        ASSERT_NE(rev, ChurnModel::kNoPair)
            << "inter-router links are bidirectional";
        EXPECT_LT(ev.link, rev)
            << "representative arc must be the lower-indexed one";
    }
}

TEST(ChurnModel, ConnectivityPruningCancelsCriticalLinks)
{
    // The 2-ary 2-flat has exactly two terminal-hosting routers and
    // one bidirectional link between them: every link outage would
    // disconnect them, so pruning must cancel the entire schedule.
    FlattenedButterfly topo(2, 2);
    const ChurnModel model(topo, linkChurnConfig(300, 100, 10000));
    EXPECT_FALSE(model.anyChurn());
    EXPECT_EQ(model.downEvents(), 0u);
    EXPECT_GT(model.prunedEpisodes(), 0u);

    // With pruning off the same config produces a live schedule.
    ChurnConfig raw = linkChurnConfig(300, 100, 10000);
    raw.preserveConnectivity = false;
    const ChurnModel unpruned(topo, raw);
    EXPECT_TRUE(unpruned.anyChurn());
    EXPECT_GT(unpruned.downEvents(), 0u);
}

TEST(ChurnModel, ValidateConfigAcceptsSoundKnobs)
{
    FlattenedButterfly topo(4, 2);

    ChurnConfig ok = linkChurnConfig(500, 100, 1000);
    EXPECT_TRUE(ChurnModel(topo, ok).validateConfig().empty());

    ChurnConfig idle; // no churn at all: trivially sound
    EXPECT_TRUE(ChurnModel(topo, idle).validateConfig().empty());
}

TEST(ChurnModelDeath, IncompleteConfigPanics)
{
    // The constructor fails fast on unsound knobs (validateConfig);
    // a silent zero MTTR would model outages that never heal.
    FlattenedButterfly topo(4, 2);

    ChurnConfig no_mttr = linkChurnConfig(500, 0, 1000);
    EXPECT_DEATH(ChurnModel(topo, no_mttr), "churn config invalid");

    ChurnConfig no_horizon = linkChurnConfig(500, 100, 0);
    EXPECT_DEATH(ChurnModel(topo, no_horizon),
                 "churn config invalid");
}

// --- Conservation through kill/repair cycles ----------------------

/** Small, fast dynamic-service configuration shared by the harness
 *  tests below. */
ChurnRunConfig
smallRunConfig()
{
    ChurnRunConfig cfg;
    cfg.expcfg.warmupCycles = 200;
    cfg.expcfg.measureCycles = 2500;
    cfg.expcfg.drainCycles = 30000;
    cfg.expcfg.seed = 99;
    cfg.baseLoad = 0.10;
    cfg.peakLoad = 0.30;
    cfg.diurnalPeriod = 1000;
    cfg.epochCycles = 250;
    cfg.recoveryWindow = 128;
    return cfg;
}

/** Network knobs of the harness tests: small buffers, and the
 *  forward-progress watchdog every churn run needs. */
NetworkConfig
smallNetConfig()
{
    NetworkConfig netcfg;
    netcfg.vcDepth = 4;
    netcfg.watchdogCycles = 50000;
    return netcfg;
}

TEST(ChurnConservation, InvariantsHoldThroughKillRepairCycles)
{
    // Per-cycle conservation checks (flit and credit invariants,
    // Network::checkInvariants) across a schedule with many link and
    // router kill/repair transitions: any leak introduced by
    // killOutput/reviveOutput/revive() panics the run.
    FlattenedButterfly topo(4, 2);
    UniformRandom pattern(topo.numNodes());

    const ChurnRunConfig cfg = smallRunConfig();

    ChurnConfig cc = linkChurnConfig(400, 120, 0, 11);
    cc.routerMtbf = 1500;
    cc.routerMttr = 200;
    cc.horizon = static_cast<Cycle>(cfg.expcfg.warmupCycles) +
                 static_cast<Cycle>(cfg.expcfg.measureCycles);
    const ChurnModel model(topo, cc);
    ASSERT_GT(model.downEvents(), 2u);

    NetworkConfig netcfg = smallNetConfig();
    netcfg.invariantCheckInterval = 1;
    const ChurnPointResult r =
        runChurnPoint(topo, pattern, &model, netcfg, cfg);

    // The run finished (delivered, or legitimate unreachable drops
    // while a destination router was down) — never stalled or
    // rejected — and the end-to-end audit is clean across every
    // transition.
    EXPECT_TRUE(r.load.status == LoadPointStatus::kDelivered ||
                r.load.status == LoadPointStatus::kUnreachable)
        << toString(r.load.status) << "\n"
        << r.load.diagnostics;
    ASSERT_TRUE(r.load.deliveryChecked);
    EXPECT_TRUE(r.load.delivery.clean())
        << "silent loss/duplication across kill/repair cycles";
    EXPECT_GT(r.churn.downEvents, 0u);
    EXPECT_GT(r.churn.repairEvents, 0u);
}

// --- Dynamic-service determinism ----------------------------------

std::vector<SweepPointRecord>
runSmallChurnSweep(int threads)
{
    FlattenedButterfly topo(4, 2);
    UniformRandom pattern(topo.numNodes());
    const NetworkConfig netcfg = smallNetConfig();

    ChurnSweepConfig cfg;
    cfg.threads = threads;
    cfg.masterSeed = 2007;
    cfg.run = smallRunConfig();
    cfg.run.expcfg.obs.traceEnabled = true;
    cfg.run.expcfg.obs.traceCapacity = 1 << 15;

    ChurnCase none;
    none.label = "no churn";
    cfg.cases.push_back(none);

    ChurnCase links;
    links.label = "link churn";
    links.churn.linkMtbf = 600;
    links.churn.linkMttr = 150;
    cfg.cases.push_back(links);

    return runChurnSweep(topo, pattern, netcfg, cfg);
}

/** Serialize records with the wall-clock fields neutralized (wall
 *  time is the one legitimately nondeterministic output). */
std::string
canonicalJson(std::vector<SweepPointRecord> records)
{
    for (SweepPointRecord &rec : records)
        rec.wallSeconds = 0.0;
    SweepRunMeta meta;
    meta.bench = "test_churn";
    return sweepResultsToJson(meta, records, 2007, 1, 0.0);
}

TEST(ChurnDeterminism, SweepBitIdenticalAcrossThreadCounts)
{
    const std::vector<SweepPointRecord> serial =
        runSmallChurnSweep(1);
    const std::vector<SweepPointRecord> parallel =
        runSmallChurnSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 2u);

    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i) + ": " +
                     serial[i].series);
        const SweepPointRecord &a = serial[i];
        const SweepPointRecord &b = parallel[i];
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.load.accepted, b.load.accepted);
        EXPECT_EQ(a.load.measuredPackets, b.load.measuredPackets);
        EXPECT_EQ(a.load.status, b.load.status);
        // The churn extension (event counts, losses, p99.9, the full
        // recovery-time distribution) serialized identically.
        EXPECT_EQ(a.extraJson, b.extraJson);
        // Bit-identical flit-lifecycle traces, churn/repair events
        // included.
        ASSERT_NE(a.load.trace, nullptr);
        ASSERT_NE(b.load.trace, nullptr);
        EXPECT_EQ(a.load.trace->toText(), b.load.trace->toText());
    }

    // The whole fbfly-sweep-v1 document, wall fields neutralized,
    // must match byte for byte.
    EXPECT_EQ(canonicalJson(serial), canonicalJson(parallel));
}

TEST(ChurnDeterminism, ZeroChurnReproducesPlainRunBitForBit)
{
    // A null churn model and a ChurnModel with an empty schedule must
    // drive byte-identical simulations: churn bookkeeping with no
    // events is a strict no-op.
    FlattenedButterfly topo(4, 2);
    UniformRandom pattern(topo.numNodes());
    NetworkConfig netcfg = smallNetConfig();

    ChurnRunConfig cfg = smallRunConfig();
    cfg.expcfg.obs.traceEnabled = true;
    cfg.expcfg.obs.traceCapacity = 1 << 15;

    const ChurnModel empty(topo, ChurnConfig{});
    ASSERT_FALSE(empty.anyChurn());

    const ChurnPointResult plain =
        runChurnPoint(topo, pattern, nullptr, netcfg, cfg);
    const ChurnPointResult zero =
        runChurnPoint(topo, pattern, &empty, netcfg, cfg);

    EXPECT_EQ(plain.load.status, zero.load.status);
    EXPECT_EQ(plain.load.accepted, zero.load.accepted);
    EXPECT_EQ(plain.load.avgLatency, zero.load.avgLatency);
    EXPECT_EQ(plain.load.p99Latency, zero.load.p99Latency);
    EXPECT_EQ(plain.load.measuredPackets, zero.load.measuredPackets);
    EXPECT_EQ(plain.load.flitsDropped, zero.load.flitsDropped);
    EXPECT_EQ(plain.churn.downEvents, 0u);
    EXPECT_EQ(zero.churn.downEvents, 0u);
    EXPECT_EQ(churnExtraJson(ChurnConfig{}, plain.churn),
              churnExtraJson(ChurnConfig{}, zero.churn));
    ASSERT_NE(plain.load.trace, nullptr);
    ASSERT_NE(zero.load.trace, nullptr);
    EXPECT_EQ(plain.load.trace->toText(),
              zero.load.trace->toText());

    // Churn runs are watchdog-backed: the same run with the watchdog
    // off is refused up front, never silently given one.
    netcfg.watchdogCycles = 0;
    const ChurnPointResult unguarded =
        runChurnPoint(topo, pattern, &empty, netcfg, cfg);
    EXPECT_EQ(unguarded.load.status, LoadPointStatus::kInvalidConfig);
    EXPECT_NE(unguarded.load.diagnostics.find("watchdogCycles"),
              std::string::npos)
        << unguarded.load.diagnostics;
    EXPECT_FALSE(unguarded.load.valid());
}

// --- Churn combined with permanent faults -------------------------

TEST(ChurnFaults, ScenarioMatchesFixture)
{
    fixtures::checkAgainstFixture(fixtures::runFaultChurnScenario(),
                                  fixtures::kFaultChurnFixture);
}

TEST(ChurnFaults, ValidateRejectsChurnThatCutsAFaultSetBridge)
{
    // With links 0-2, 0-3 and 1-3 failed, the 4-ary 2-flat's four
    // routers hang on the path 0-1-2-3: every surviving link is a
    // bridge.  The ChurnModel prunes against its own episodes only,
    // so its schedule still takes those bridges down; the combined
    // pre-flight walk must catch the first one.
    FlattenedButterfly topo(4, 2);
    MinAdaptive algo(topo);
    FaultModel faults(topo);
    faults.failLinkBetween(0, 2);
    faults.failLinkBetween(0, 3);
    faults.failLinkBetween(1, 3);
    ASSERT_TRUE(faults.connected());

    ChurnConfig cc = linkChurnConfig(300, 100, 5000, 7);
    const ChurnModel churn(topo, cc);
    ASSERT_TRUE(churn.anyChurn());

    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.faults = &faults;
    cfg.churn = &churn;
    const ValidationReport rep = Network::validate(topo, algo, cfg);
    ASSERT_FALSE(rep.ok());
    EXPECT_NE(rep.summary().find("link 0-1 at cycle 178"),
              std::string::npos)
        << rep.summary();

    // A fault that lands while a churn outage is active and cuts the
    // network together with it is caught too: the schedule holds
    // 1-3 down over [108, 134), and 1-2 then fails for good.
    FaultModel late(topo);
    late.failLinkBetween(0, 2);
    late.failLinkBetween(0, 3);
    late.failLinkBetween(1, 2, 120);
    ASSERT_TRUE(late.connected());
    cfg.faults = &late;
    const ValidationReport lateRep = Network::validate(topo, algo, cfg);
    ASSERT_FALSE(lateRep.ok());
    EXPECT_NE(lateRep.summary().find("fault on link 1-2 at cycle 120"),
              std::string::npos)
        << lateRep.summary();
    cfg.faults = &faults;

    // Unpruned churn may disconnect on purpose: nothing to report.
    cc.preserveConnectivity = false;
    const ChurnModel raw(topo, cc);
    cfg.churn = &raw;
    EXPECT_TRUE(Network::validate(topo, algo, cfg).ok());

    // Either model alone is sound.
    cfg.churn = &churn;
    cfg.faults = nullptr;
    EXPECT_TRUE(Network::validate(topo, algo, cfg).ok());
}

} // namespace
} // namespace fbfly
