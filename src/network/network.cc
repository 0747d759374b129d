#include "network/network.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string_view>

#include "common/log.h"
#include "fault/churn_model.h"
#include "fault/error_model.h"
#include "fault/fault_model.h"
#include "obs/trace.h"
#include "routing/routing.h"
#include "sim/delivery_oracle.h"
#include "topology/topology.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{

std::string
ValidationReport::summary() const
{
    std::string out;
    for (const auto &issue : issues) {
        if (!out.empty())
            out += '\n';
        out += issue;
    }
    return out;
}

ValidationReport
Network::validate(const Topology &topo, const RoutingAlgorithm &algo,
                  const NetworkConfig &cfg)
{
    ValidationReport rep;
    const auto add = [&rep](auto &&...args) {
        rep.issues.push_back(detail::format(args...));
    };

    // --- Simulator knobs -------------------------------------------
    if (cfg.numVcs != algo.numVcs()) {
        add("routing algorithm '", algo.name(), "' needs ",
            algo.numVcs(), " VCs but the network has ", cfg.numVcs);
    }
    if (cfg.numVcs < 1)
        add("numVcs must be >= 1 (got ", cfg.numVcs, ")");
    if (cfg.vcDepth < 1)
        add("vcDepth must be >= 1 (got ", cfg.vcDepth, ")");
    if (cfg.packetSize < 1)
        add("packetSize must be >= 1 (got ", cfg.packetSize, ")");
    if (cfg.channelLatency < 1)
        add("channelLatency must be >= 1");
    if (cfg.channelPeriod < 1)
        add("channelPeriod must be >= 1");
    if (cfg.terminalLatency < 1)
        add("terminalLatency must be >= 1");
    if (cfg.shards < 1)
        add("shards must be >= 1 (got ", cfg.shards, ")");

    // --- Topology wiring -------------------------------------------
    const auto arcs = topo.arcs();
    if (!cfg.arcLatencies.empty() &&
        cfg.arcLatencies.size() != arcs.size()) {
        add("arcLatencies has ", cfg.arcLatencies.size(),
            " entries but the topology has ", arcs.size(), " arcs");
    }
    const int num_routers = topo.numRouters();
    std::set<std::pair<RouterId, PortId>> outUsed, inUsed;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
        const auto &a = arcs[i];
        if (a.src < 0 || a.src >= num_routers || a.dst < 0 ||
            a.dst >= num_routers) {
            add("arc ", i, " references router out of range");
            continue;
        }
        if (a.srcPort < 0 || a.srcPort >= topo.numPorts(a.src))
            add("arc ", i, " source port ", a.srcPort,
                " out of range on router ", a.src);
        else if (!outUsed.insert({a.src, a.srcPort}).second)
            add("router ", a.src, " output port ", a.srcPort,
                " wired twice");
        if (a.dstPort < 0 || a.dstPort >= topo.numPorts(a.dst))
            add("arc ", i, " dest port ", a.dstPort,
                " out of range on router ", a.dst);
        else if (!inUsed.insert({a.dst, a.dstPort}).second)
            add("router ", a.dst, " input port ", a.dstPort,
                " wired twice");
    }
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        const RouterId ir = topo.injectionRouter(n);
        const RouterId er = topo.ejectionRouter(n);
        if (ir < 0 || ir >= num_routers || er < 0 ||
            er >= num_routers) {
            add("node ", n, " attaches to router out of range");
            continue;
        }
        const PortId ip = topo.injectionPort(n);
        const PortId ep = topo.ejectionPort(n);
        if (ip < 0 || ip >= topo.numPorts(ir))
            add("node ", n, " injection port out of range");
        else if (!inUsed.insert({ir, ip}).second)
            add("node ", n, " injection port ", ip, " on router ",
                ir, " collides with other wiring");
        if (ep < 0 || ep >= topo.numPorts(er))
            add("node ", n, " ejection port out of range");
        else if (!outUsed.insert({er, ep}).second)
            add("node ", n, " ejection port ", ep, " on router ", er,
                " collides with other wiring");
    }

    // --- Transient errors + link-layer retry -----------------------
    if (cfg.errors != nullptr) {
        const ErrorModel &em = *cfg.errors;
        if (&em.topology() != &topo || em.numArcs() != arcs.size()) {
            add("error model was built over a different topology");
        } else {
            const std::string bad = em.validateRates();
            if (!bad.empty())
                add("error model rates invalid:\n", bad);
        }
    }
    if (cfg.linkRetry.enabled ||
        (cfg.errors != nullptr && cfg.errors->anyErrors())) {
        if (cfg.linkRetry.windowFlits < 1)
            add("linkRetry.windowFlits must be >= 1 (got ",
                cfg.linkRetry.windowFlits, ")");
        if (cfg.linkRetry.retryTimeout < 1)
            add("linkRetry.retryTimeout must be >= 1");
        if (cfg.linkRetry.maxTimeout < cfg.linkRetry.retryTimeout)
            add("linkRetry.maxTimeout must be >= retryTimeout");
    }

    // --- Churn (dynamic service) model -----------------------------
    if (cfg.churn != nullptr) {
        const ChurnModel &cm = *cfg.churn;
        if (&cm.topology() != &topo || cm.numArcs() != arcs.size()) {
            add("churn model was built over a different topology");
        } else {
            const std::string bad = cm.validateConfig();
            if (!bad.empty())
                add("churn model config invalid: ", bad);
        }
    }

    // --- Fault set -------------------------------------------------
    if (cfg.faults != nullptr) {
        const FaultModel &fm = *cfg.faults;
        if (&fm.topology() != &topo ||
            fm.numArcs() != arcs.size()) {
            add("fault model was built over a different topology");
        } else if (!fm.connected()) {
            add("fault set disconnects a terminal: some ",
                "terminal-hosting router is failed or unreachable ",
                "once all faults are active");
        }
    }
    return rep;
}

Network::Network(const Topology &topo, RoutingAlgorithm &algo,
                 const TrafficPattern *pattern,
                 const NetworkConfig &cfg)
    : topo_(topo), algo_(algo), pattern_(pattern), cfg_(cfg)
{
    FBFLY_ASSERT(algo.numVcs() == cfg.numVcs,
                 "routing algorithm '", algo.name(), "' needs ",
                 algo.numVcs(), " VCs but the network has ",
                 cfg.numVcs);

    Rng master(cfg.seed);
    Rng routerRngs = master.split(0x526f757465ULL);   // "Route"
    Rng terminalRngs = master.split(0x5465726dccULL); // "Term"

    // Single-flit packets use the bypass (speedup) switch path;
    // multi-flit wormhole packets need strict per-VC FIFO order.
    const bool bypass = cfg.packetSize == 1;

    const int num_routers = topo.numRouters();
    routers_.reserve(num_routers);
    for (RouterId r = 0; r < num_routers; ++r) {
        routers_.emplace_back(r, topo.numPorts(r), cfg.numVcs,
                              cfg.vcDepth, routerRngs.split(r),
                              bypass);
        if (cfg.trace != nullptr) {
            const std::int32_t track =
                cfg.trace->addTrack("router " + std::to_string(r),
                                    TrackKind::kRouter);
            routers_.back().setTrace(cfg.trace, track);
            routerTracks_.push_back(track);
        }
    }

    // Inter-router channels.  The link-layer retry protocol runs on
    // these (and only these — terminal channels are short local
    // wires) when an error model injects transient errors or when
    // the protocol is explicitly enabled.
    arcs_ = topo.arcs();
    FBFLY_ASSERT(cfg.arcLatencies.empty() ||
                 cfg.arcLatencies.size() == arcs_.size(),
                 "arcLatencies must match the topology's arc list");
    const bool reliable_links =
        cfg.linkRetry.enabled ||
        (cfg.errors != nullptr && cfg.errors->anyErrors());
    if (cfg.errors != nullptr) {
        FBFLY_ASSERT(&cfg.errors->topology() == &topo &&
                     cfg.errors->numArcs() == arcs_.size(),
                     "error model topology mismatch (",
                     cfg.errors->numArcs(), " arcs vs ",
                     arcs_.size(), ")");
        const std::string bad = cfg.errors->validateRates();
        FBFLY_ASSERT(bad.empty(), "error model rates invalid:\n",
                     bad);
    }
    // One contiguous allocation for every channel (inter-router arcs
    // plus one injection + one ejection lane per node).  Reserving
    // the exact count up front keeps the Channel* wiring below stable
    // and replaces the former deque's per-block overhead — part of
    // the memory-lean contract for 100k-terminal networks.
    const std::size_t total_channels =
        arcs_.size() +
        2 * static_cast<std::size_t>(topo.numNodes());
    channels_.reserve(total_channels);
    Rng linkRngs = master.split(0x4c696e6b52656cULL); // "LinkRel"
    for (std::size_t i = 0; i < arcs_.size(); ++i) {
        const auto &arc = arcs_[i];
        const Cycle latency = cfg.arcLatencies.empty()
            ? cfg.channelLatency : cfg.arcLatencies[i];
        channels_.emplace_back(latency, cfg.channelPeriod);
        Channel *ch = &channels_.back();
        ch->reserveVcs(cfg.numVcs);
        if (reliable_links) {
            LinkReliabilityConfig rc = cfg.linkRetry;
            rc.enabled = true;
            // Auto-scale per channel so the protocol stays
            // timing-transparent on clean wires at any latency: the
            // window must exceed the flits outstanding before the
            // first ack returns, and the timeout must exceed the ack
            // round trip (docs/FAULTS.md).
            rc.windowFlits = std::max(
                rc.windowFlits, static_cast<int>(latency) + 4);
            rc.retryTimeout =
                std::max(rc.retryTimeout, 2 * latency + 8);
            rc.maxTimeout = std::max(rc.maxTimeout, rc.retryTimeout);
            const LinkErrorRates rates = cfg.errors != nullptr
                ? cfg.errors->arcRates(i) : LinkErrorRates{};
            // Error draws come from the error model's own seed so
            // the same traffic can be replayed under different error
            // draws; with no error model the stream is never
            // consumed.
            Rng err_rng = cfg.errors != nullptr
                ? cfg.errors->arcRng(i) : linkRngs.split(i);
            ch->enableReliability(rc, rates, err_rng);
        }
        if (cfg.trace != nullptr) {
            const std::int32_t track = cfg.trace->addTrack(
                "chan " + std::to_string(i) + ": " +
                    std::to_string(arc.src) + "->" +
                    std::to_string(arc.dst),
                TrackKind::kChannel);
            ch->setTrace(cfg.trace, track);
            arcTracks_.push_back(track);
        }
        routers_[arc.src].connectOutput(arc.srcPort, ch, cfg.vcDepth);
        routers_[arc.dst].connectInput(arc.dstPort, ch);
    }
    numArcs_ = arcs_.size();

    // Terminals and their channels.
    const std::int64_t num_nodes = topo.numNodes();
    terminals_.reserve(num_nodes);
    injChannels_.reserve(num_nodes);
    ejChannels_.reserve(num_nodes);
    for (NodeId n = 0; n < num_nodes; ++n) {
        terminals_.emplace_back(n, cfg.numVcs, cfg.vcDepth,
                                terminalRngs.split(n), this);
        Terminal &term = terminals_.back();
        if (cfg.trace != nullptr) {
            term.setTrace(
                cfg.trace,
                cfg.trace->addTrack("node " + std::to_string(n),
                                    TrackKind::kTerminal));
        }

        channels_.emplace_back(cfg.terminalLatency, Cycle{1});
        Channel *inj = &channels_.back();
        inj->reserveVcs(cfg.numVcs);
        term.connectToRouter(inj);
        routers_[topo.injectionRouter(n)]
            .connectInput(topo.injectionPort(n), inj);
        injChannels_.push_back(inj);

        channels_.emplace_back(cfg.terminalLatency, Cycle{1});
        Channel *ej = &channels_.back();
        ej->reserveVcs(cfg.numVcs);
        routers_[topo.ejectionRouter(n)]
            .connectOutput(topo.ejectionPort(n), ej,
                           Router::kInfiniteCredits);
        term.connectFromRouter(ej);
        ejChannels_.push_back(ej);
    }
    FBFLY_ASSERT(channels_.size() == total_channels,
                 "channel reserve mismatch: ", channels_.size(),
                 " built vs ", total_channels, " reserved");

    // Active-set scheduler wiring: routers are components [0, R),
    // terminals [R, R + N).  Each channel wakes its endpoints when
    // an arrival or retry timer becomes actionable; init() wakes
    // everything for cycle 0 so initial state (pre-enqueued packets,
    // cycle-0 faults) is observed.
    active_.init(static_cast<std::size_t>(num_routers) +
                 static_cast<std::size_t>(num_nodes));
    for (std::size_t i = 0; i < numArcs_; ++i) {
        channels_[i].setScheduler(
            &active_, static_cast<std::uint32_t>(arcs_[i].src),
            static_cast<std::uint32_t>(arcs_[i].dst));
    }
    for (NodeId n = 0; n < num_nodes; ++n) {
        const auto tcomp =
            static_cast<std::uint32_t>(num_routers + n);
        terminals_[n].setScheduler(&active_, tcomp);
        injChannels_[n]->setScheduler(
            &active_, tcomp,
            static_cast<std::uint32_t>(topo.injectionRouter(n)));
        ejChannels_[n]->setScheduler(
            &active_,
            static_cast<std::uint32_t>(topo.ejectionRouter(n)),
            tcomp);
    }

    // Schedule fault activations.
    if (cfg.faults != nullptr) {
        const FaultModel &fm = *cfg.faults;
        FBFLY_ASSERT(&fm.topology() == &topo_ &&
                     fm.numArcs() == numArcs_,
                     "fault model topology mismatch (",
                     fm.numArcs(), " arcs vs ", numArcs_, ")");
        for (std::size_t i = 0; i < numArcs_; ++i) {
            const Cycle at = fm.arcFailCycle(i);
            if (at != FaultModel::kNever) {
                faultSchedule_.push_back(
                    {at, static_cast<std::int64_t>(i), kInvalid});
            }
        }
        for (RouterId r = 0; r < num_routers; ++r) {
            const Cycle at = fm.routerFailCycle(r);
            if (at != FaultModel::kNever)
                faultSchedule_.push_back({at, kInvalid, r});
        }
        std::sort(faultSchedule_.begin(), faultSchedule_.end(),
                  [](const FaultEvent &a, const FaultEvent &b) {
                      return a.at < b.at;
                  });
    }

    // Dynamic-service (churn) schedule.
    if (cfg.churn != nullptr) {
        const ChurnModel &cm = *cfg.churn;
        FBFLY_ASSERT(&cm.topology() == &topo_ &&
                     cm.numArcs() == numArcs_,
                     "churn model topology mismatch (", cm.numArcs(),
                     " arcs vs ", numArcs_, ")");
        const std::string bad = cm.validateConfig();
        FBFLY_ASSERT(bad.empty(), "churn model config invalid: ",
                     bad);
        arcDownCauses_.assign(numArcs_, 0);
    }
    if (cfg.faults != nullptr || cfg.churn != nullptr) {
        arcPermDead_.assign(numArcs_, 0);
        routerPermDead_.assign(
            static_cast<std::size_t>(num_routers), 0);
    }
    if (cfg.faults != nullptr)
        applyFaults(0);
    if (cfg.churn != nullptr)
        applyChurn(0);

    // Shadow-kernel wake-contract verifier: the config flag, or the
    // FBFLY_VERIFY_WAKES environment variable (any value but "0")
    // to force it on process-wide — e.g. across a whole CI test run.
    verifyWakes_ = cfg.verifyWakeContract;
    if (const char *env = std::getenv("FBFLY_VERIFY_WAKES");
        env != nullptr && std::string_view(env) != "0")
        verifyWakes_ = true;

    // Step engine shards (DESIGN.md "Step engine").  Reliable
    // channels carry go-back-N transmitter/receiver state that both
    // endpoints touch in both phases, so those configurations run on
    // one shard.
    int shard_count = std::max(1, cfg.shards);
    shard_count = std::min(shard_count, std::max(1, num_routers));
    if (reliable_links && shard_count > 1) {
        FBFLY_WARN("reliable links (link retry or an error model) ",
                   "run on one shard: requested ", cfg.shards,
                   " shards, running 1");
        shard_count = 1;
    }
    shardCount_ = shard_count;
    staged_ = shardCount_ > 1;
    shards_.resize(static_cast<std::size_t>(shardCount_));
    const auto R = static_cast<std::uint64_t>(num_routers);
    const auto N = static_cast<std::uint64_t>(num_nodes);
    for (int s = 0; s < shardCount_; ++s) {
        ShardContext &sc = shards_[static_cast<std::size_t>(s)];
        sc.routerLo = static_cast<std::uint32_t>(R * s / shardCount_);
        sc.routerHi =
            static_cast<std::uint32_t>(R * (s + 1) / shardCount_);
        sc.termLo =
            static_cast<std::uint32_t>(R + N * s / shardCount_);
        sc.termHi =
            static_cast<std::uint32_t>(R + N * (s + 1) / shardCount_);
        // Terminals report stats through their shard's sink
        // (shards_ never reallocates again).
        for (std::uint32_t c = sc.termLo; c < sc.termHi; ++c)
            terminals_[c - R].setShardSink(&sc.term);
    }
    pool_ = std::make_unique<PhasePool>(shardCount_ - 1);
}

void
Network::applyFaults(Cycle now)
{
    while (nextFault_ < faultSchedule_.size() &&
           faultSchedule_[nextFault_].at <= now) {
        const FaultEvent &ev = faultSchedule_[nextFault_++];
        if (ev.arc != kInvalid) {
            const auto idx = static_cast<std::size_t>(ev.arc);
            const auto &arc = arcs_[idx];
            if (!arcPermDead_.empty())
                arcPermDead_[idx] = 1; // churn never revives this
            channels_[idx].kill();
            routers_[arc.src].killOutput(arc.srcPort);
        } else {
            // Router failure: incident arcs are scheduled separately
            // (FaultModel::arcFailCycle folds router failures in);
            // here we sever the router's terminals.
            if (!routerPermDead_.empty())
                routerPermDead_[static_cast<std::size_t>(
                    ev.router)] = 1;
            for (NodeId n = 0; n < topo_.numNodes(); ++n) {
                if (topo_.injectionRouter(n) == ev.router)
                    injChannels_[n]->kill();
                if (topo_.ejectionRouter(n) == ev.router) {
                    ejChannels_[n]->kill();
                    routers_[ev.router].killOutput(
                        topo_.ejectionPort(n));
                }
            }
        }
    }
}

void
Network::churnKillArc(std::size_t i)
{
    if (++arcDownCauses_[i] != 1)
        return; // already down via another active episode
    if (arcPermDead_[i] != 0)
        return; // permanently failed; churn leaves it alone
    Channel &ch = channels_[i];
    if (ch.dead())
        return;
    ch.kill();
    routers_[arcs_[i].src].killOutput(arcs_[i].srcPort);
}

void
Network::churnReviveArc(std::size_t i)
{
    FBFLY_ASSERT(arcDownCauses_[i] > 0,
                 "unbalanced churn repair on arc ", i);
    if (--arcDownCauses_[i] != 0)
        return; // still held down by another active episode
    if (arcPermDead_[i] != 0)
        return; // permanently failed; never revived
    Channel &ch = channels_[i];
    if (!ch.dead())
        return;
    const Channel::ReviveLoss loss = ch.revive();
    stats_.churnFlitsLost += loss.flits;
    stats_.churnPacketsLost += loss.packets;
    stats_.churnMeasuredLost += loss.measuredPackets;
    // Churn losses fold straight into the aggregate drop counters
    // (drop aggregation is incremental now; there is no end-of-cycle
    // full sync to pick these up).
    stats_.flitsDropped += loss.flits;
    stats_.packetsUnreachable += loss.packets;
    stats_.measuredDropped += loss.measuredPackets;

    // Recompute the upstream credit levels from ground truth so the
    // per-lane conservation invariant (credits + occupancy +
    // in-flight flits + in-flight credits == vcDepth) holds from
    // this cycle on.  A plain channel kept its wire contents across
    // the outage; a reliable one just zeroed them.
    const auto &arc = arcs_[i];
    const Router &down = routers_[arc.dst];
    std::vector<int> cr(static_cast<std::size_t>(cfg_.numVcs));
    for (VcId v = 0; v < cfg_.numVcs; ++v) {
        const int occ = static_cast<int>(
            down.inputUnit(arc.dstPort, v).buf.size());
        const int level = cfg_.vcDepth - occ -
                          ch.flitsInFlightOnVc(v) -
                          ch.creditsInFlightOnVc(v);
        FBFLY_ASSERT(level >= 0 && level <= cfg_.vcDepth,
                     "revive credit level out of range on arc ", i,
                     " vc ", v, ": ", level);
        cr[static_cast<std::size_t>(v)] = level;
    }
    routers_[arc.src].reviveOutput(arc.srcPort, cr);
}

void
Network::applyServiceEvent(const ServiceEvent &ev, Cycle now)
{
    const ChurnModel &cm = *cfg_.churn;
    switch (ev.kind) {
    case ServiceEvent::Kind::kLinkDown: {
        churnKillArc(ev.link);
        const std::size_t rev = cm.reverseArc(ev.link);
        if (rev != ChurnModel::kNoPair)
            churnKillArc(rev);
        ++stats_.churnDownEvents;
        if (cfg_.trace != nullptr) {
            cfg_.trace->record(TraceEventType::kChurn, now,
                               arcTracks_[ev.link], Flit{},
                               static_cast<std::int32_t>(ev.link),
                               static_cast<std::int32_t>(ev.episode));
        }
        break;
    }
    case ServiceEvent::Kind::kLinkUp: {
        churnReviveArc(ev.link);
        const std::size_t rev = cm.reverseArc(ev.link);
        if (rev != ChurnModel::kNoPair)
            churnReviveArc(rev);
        ++stats_.churnRepairEvents;
        if (cfg_.trace != nullptr) {
            cfg_.trace->record(TraceEventType::kRepair, now,
                               arcTracks_[ev.link], Flit{},
                               static_cast<std::int32_t>(ev.link),
                               static_cast<std::int32_t>(ev.episode));
        }
        break;
    }
    case ServiceEvent::Kind::kRouterDown: {
        const auto r = static_cast<std::size_t>(ev.router);
        if (routerPermDead_[r] != 0)
            break; // fail-stopped for good; nothing left to churn
        for (std::size_t i = 0; i < numArcs_; ++i) {
            if (arcs_[i].src == ev.router ||
                arcs_[i].dst == ev.router)
                churnKillArc(i);
        }
        for (NodeId n = 0; n < topo_.numNodes(); ++n) {
            if (topo_.injectionRouter(n) == ev.router &&
                !injChannels_[n]->dead())
                injChannels_[n]->kill();
            if (topo_.ejectionRouter(n) == ev.router) {
                if (!ejChannels_[n]->dead())
                    ejChannels_[n]->kill();
                routers_[ev.router].killOutput(
                    topo_.ejectionPort(n));
            }
        }
        ++stats_.churnDownEvents;
        if (cfg_.trace != nullptr) {
            cfg_.trace->record(TraceEventType::kChurn, now,
                               routerTracks_[r], Flit{},
                               ev.router,
                               static_cast<std::int32_t>(ev.episode));
        }
        break;
    }
    case ServiceEvent::Kind::kRouterUp: {
        const auto r = static_cast<std::size_t>(ev.router);
        if (routerPermDead_[r] != 0)
            break;
        for (std::size_t i = 0; i < numArcs_; ++i) {
            if (arcs_[i].src == ev.router ||
                arcs_[i].dst == ev.router)
                churnReviveArc(i);
        }
        for (NodeId n = 0; n < topo_.numNodes(); ++n) {
            if (topo_.injectionRouter(n) == ev.router &&
                injChannels_[n]->dead()) {
                // Terminal channels are plain wires: revival is
                // lossless; restore the terminal's credit view from
                // ground truth (mirrors churnReviveArc).
                Channel &ch = *injChannels_[n];
                ch.revive();
                const Router &down =
                    routers_[topo_.injectionRouter(n)];
                const PortId port = topo_.injectionPort(n);
                std::vector<int> cr(
                    static_cast<std::size_t>(cfg_.numVcs));
                for (VcId v = 0; v < cfg_.numVcs; ++v) {
                    const int occ = static_cast<int>(
                        down.inputUnit(port, v).buf.size());
                    const int level = cfg_.vcDepth - occ -
                                      ch.flitsInFlightOnVc(v) -
                                      ch.creditsInFlightOnVc(v);
                    FBFLY_ASSERT(level >= 0 &&
                                 level <= cfg_.vcDepth,
                                 "revive credit level out of range "
                                 "on injection lane of node ", n,
                                 " vc ", v, ": ", level);
                    cr[static_cast<std::size_t>(v)] = level;
                }
                terminals_[n].setCredits(cr);
            }
            if (topo_.ejectionRouter(n) == ev.router) {
                if (ejChannels_[n]->dead())
                    ejChannels_[n]->revive();
                // Terminals never return ejection credits, so the
                // sink's budget is simply restored to "infinite".
                routers_[ev.router].reviveOutput(
                    topo_.ejectionPort(n),
                    std::vector<int>(
                        static_cast<std::size_t>(cfg_.numVcs),
                        Router::kInfiniteCredits));
            }
        }
        ++stats_.churnRepairEvents;
        if (cfg_.trace != nullptr) {
            cfg_.trace->record(TraceEventType::kRepair, now,
                               routerTracks_[r], Flit{},
                               ev.router,
                               static_cast<std::int32_t>(ev.episode));
        }
        break;
    }
    }

    // Repair invalidates stale route decisions everywhere: escape
    // detours chosen while the entity was down are re-decided against
    // the restored topology.  Beyond steering traffic back onto the
    // repaired capacity, this breaks frozen rings of lateral (hot-
    // potato) decisions that can hold a credit cycle closed after
    // every repair has landed.
    if (!ev.isDown()) {
        for (auto &r : routers_)
            r.invalidateRoutes();
    }
}

void
Network::applyChurn(Cycle now)
{
    const auto &events = cfg_.churn->events();
    while (nextService_ < events.size() &&
           events[nextService_].at <= now) {
        applyServiceEvent(events[nextService_++], now);
        // Reconfiguration counts as forward progress: an epoch
        // transition or mass-repair burst must not trip the
        // watchdog while the network re-converges.
        lastProgress_ = now;
    }
}

void
Network::step()
{
    bool reconfigured = false;
    if (nextFault_ < faultSchedule_.size()) {
        const std::size_t first = nextFault_;
        applyFaults(now_);
        reconfigured |= nextFault_ != first;
    }
    if (cfg_.churn != nullptr) {
        const std::size_t first = nextService_;
        applyChurn(now_);
        reconfigured |= nextService_ != first;
    }
    // A topology change can unblock, strand or re-expose work on any
    // component (kills, revives, network-wide route invalidation),
    // so the whole network re-examines itself this cycle.
    if (reconfigured)
        active_.wakeAllNext();

    const Cycle t = now_;
    const bool anyActive = active_.beginCycle(t);
    // Test hook: components with debug-suppressed wakes drop out of
    // the runnable set every cycle, stranding their work the way a
    // genuine missed wake would (sim/liveness.h kernel-bug tests).
    for (const std::uint32_t c : suppressed_)
        active_.deactivate(c);
    // The shadow verifier runs even on idle cycles: an all-idle
    // ActiveSet with actionable work somewhere is the worst miss.
    if (verifyWakes_)
        verifyWakes(t);

    if (anyActive)
        runPhases(t);

    ++now_;

    if (cfg_.invariantCheckInterval > 0 &&
        now_ % cfg_.invariantCheckInterval == 0) {
        const std::string violation = checkInvariants();
        FBFLY_ASSERT(violation.empty(),
                     "conservation invariant violated at cycle ",
                     now_, ":\n", violation);
    }
}

void
Network::runPhases(Cycle t)
{
    if (staged_) {
        const std::size_t words = active_.maskWords();
        for (ShardContext &sc : shards_) {
            sc.wake.reset(words, t + 1);
            sc.trace.reset();
        }
    }

    // SwitchableRouting may flip the allocator discipline between
    // cycles, so hoist the virtual sequential() call per cycle —
    // never cache it across cycles.  Nothing in phase A can flip it.
    algoSequential_ = algo_.sequential();

    pool_->run([this, t](int s) {
        phaseA(shards_[static_cast<std::size_t>(s)], t);
    });

    // Serial: hand each shard, in ascending order, the block of
    // packet/flit ids its terminals planned; phase B draws them in
    // ascending terminal order, so the id stream does not depend on
    // the shard count.
    for (ShardContext &sc : shards_) {
        sc.term.nextPacket = nextPacket_;
        sc.term.nextFlit = nextFlit_;
        nextPacket_ += sc.term.plannedPackets;
        nextFlit_ += sc.term.plannedFlits;
    }

    pool_->run([this, t](int s) {
        phaseB(shards_[static_cast<std::size_t>(s)], t);
    });

    if (commitPhases(t))
        lastProgress_ = t;
}

void
Network::phaseA(ShardContext &sc, Cycle t)
{
    // Routers drain arrivals, terminals drain ejects/credits and plan
    // this cycle's injection from terminal-local state.  Each
    // endpoint of a channel touches a disjoint field set (receiveFlit
    // side vs receiveCredit side).
    const auto num_routers =
        static_cast<std::uint32_t>(routers_.size());
    ActiveSet::StageGuard wakes(staged_ ? &sc.wake : nullptr);
    TraceSink::StageGuard traces(
        staged_ && cfg_.trace != nullptr ? &sc.trace : nullptr);
    active_.forEachIn(sc.routerLo, sc.routerHi, [&](std::uint32_t c) {
        routers_[c].receive(t);
    });
    markSegment(sc);
    active_.forEachIn(sc.termLo, sc.termHi, [&](std::uint32_t c) {
        Terminal &term = terminals_[c - num_routers];
        term.receive(t);
        term.planInject(t);
    });
    markSegment(sc);
}

void
Network::phaseB(ShardContext &sc, Cycle t)
{
    // Routers route + traverse, terminals send their planned flit.
    // Channel field sets are again disjoint per endpoint (sendFlit
    // side vs sendCredit side).
    const auto num_routers =
        static_cast<std::uint32_t>(routers_.size());
    ActiveSet::StageGuard wakes(staged_ ? &sc.wake : nullptr);
    TraceSink::StageGuard traces(
        staged_ && cfg_.trace != nullptr ? &sc.trace : nullptr);
    active_.forEachIn(sc.routerLo, sc.routerHi, [&](std::uint32_t c) {
        Router &r = routers_[c];
        sc.moved += r.routeAndTraverse(t, algo_, algoSequential_);
        // Routing may drop packets as unreachable even without a
        // fault schedule (misroute-budget exhaustion); the deltas
        // fold into the aggregate at this cycle's commit.
        if (r.hasPendingDrops()) {
            r.drainPendingDrops(sc.dropFlits, sc.dropPackets,
                                sc.dropMeasured);
        }
        // Buffered flits (blocked on credits, bandwidth or a dead
        // port) keep their router runnable.
        if (r.bufferedFlits() > 0)
            active_.wakeNext(c);
    });
    markSegment(sc);
    active_.forEachIn(sc.termLo, sc.termHi, [&](std::uint32_t c) {
        Terminal &term = terminals_[c - num_routers];
        term.executeInject(t);
        // Queued or partially injected packets keep their terminal
        // runnable.
        if (term.hasInjectionWork())
            active_.wakeNext(c);
    });
    markSegment(sc);
}

void
Network::markSegment(ShardContext &sc)
{
    if (staged_) {
        sc.wake.mark();
        sc.trace.mark();
    }
}

bool
Network::commitPhases(Cycle t)
{
    if (staged_) {
        // 1. Timed wakes and trace records, replayed per phase
        //    segment in ascending shard order — shard concatenation
        //    of ascending contiguous id ranges is exactly the
        //    schedule's call order on one shard, so the wake heap
        //    (push order, lastAt_ dedup) and the trace ring
        //    (contents, overwrite behavior) come out bit-identical.
        constexpr std::size_t kSegments = 4;
        for (std::size_t seg = 0; seg < kSegments; ++seg) {
            for (ShardContext &sc : shards_) {
                active_.replayStagedTimers(sc.wake, seg);
                if (cfg_.trace != nullptr)
                    cfg_.trace->replayStaged(sc.trace, seg);
            }
        }

        // 2. Next-cycle wake masks: a commutative OR.
        for (ShardContext &sc : shards_)
            active_.mergeStagedMask(sc.wake);
    }

    // 3. Stats and oracle callbacks.  The schedule's intra-cycle
    //    order is every eject (phase A, ascending terminal) before
    //    every inject (phase B, ascending terminal); Welford /
    //    histogram adds are order-sensitive doubles, so fold in
    //    exactly that order.
    DeliveryOracle *oracle = cfg_.oracle;
    bool progress = false;
    for (ShardContext &sc : shards_) {
        Terminal::ShardSink &k = sc.term;
        stats_.flitsEjected += k.flitsEjected;
        stats_.hopsEjected += k.hopsEjected;
        stats_.packetsEjected += k.packetsEjected;
        for (const Flit &f : k.measuredEjects) {
            if (oracle != nullptr)
                oracle->onEject(f);
            ++stats_.measuredEjected;
            const auto lat = static_cast<double>(t - f.createTime);
            stats_.packetLatency.add(lat);
            stats_.networkLatency.add(
                static_cast<double>(t - f.injectTime));
            stats_.hops.add(f.hops);
            stats_.latencyHist.add(t - f.createTime);
        }
    }
    for (ShardContext &sc : shards_) {
        Terminal::ShardSink &k = sc.term;
        stats_.flitsInjected += k.flitsInjected;
        stats_.pendingPackets += k.pendingPacketsDelta;
        stats_.midPacketTerminals += k.midPacketDelta;
        if (oracle != nullptr) {
            for (const Flit &f : k.measuredInjects)
                oracle->onInject(f);
        }
        stats_.flitsDropped += sc.dropFlits;
        stats_.packetsUnreachable += sc.dropPackets;
        stats_.measuredDropped += sc.dropMeasured;

        progress = progress || sc.moved > 0 || k.flitsEjected > 0 ||
                   k.flitsInjected > 0 || sc.dropFlits > 0;
        // Zeroed here, ready for the next cycle's phases.
        k.reset();
        sc.moved = 0;
        sc.dropFlits = 0;
        sc.dropPackets = 0;
        sc.dropMeasured = 0;
    }
    return progress;
}

bool
Network::quiescent() const
{
    return stats_.flitsInjected ==
               stats_.flitsEjected + stats_.flitsDropped &&
           stats_.pendingPackets == 0 &&
           stats_.midPacketTerminals == 0;
}

bool
Network::stalled() const
{
    if (cfg_.watchdogCycles == 0 || quiescent())
        return false;
    return now_ > lastProgress_ &&
           now_ - lastProgress_ > cfg_.watchdogCycles;
}

std::string
Network::stallDump(int max_flits) const
{
    std::ostringstream os;
    os << "=== stall dump at cycle " << now_ << " ===\n";
    os << "flits: injected=" << stats_.flitsInjected
       << " ejected=" << stats_.flitsEjected
       << " dropped=" << stats_.flitsDropped
       << " pendingPackets=" << stats_.pendingPackets
       << " lastProgress=" << lastProgress_ << "\n";

    // Kernel scheduler state: which components are woken for the
    // next cycle and what timed wakes remain.  A stall with pending
    // work and an empty wake set is a kernel bug, not a protocol
    // deadlock (see sim/liveness.h).
    const std::size_t num_routers = routers_.size();
    os << "active-set: nextCycle=" << active_.nextCycle()
       << " wake-heap=" << active_.timerCount();
    if (active_.timerCount() > 0)
        os << " nextDeadline=" << active_.nextTimerDeadline();
    if (!suppressed_.empty()) {
        os << " suppressed:";
        for (const std::uint32_t c : suppressed_)
            os << ' ' << c;
    }
    os << "\n  queued-next:";
    int queued = 0;
    active_.forEachQueuedNext([&](std::uint32_t c) {
        constexpr int kMaxListed = 64;
        if (queued < kMaxListed) {
            if (c < num_routers)
                os << " r" << c;
            else
                os << " t" << (c - num_routers);
        } else if (queued == kMaxListed) {
            os << " ...";
        }
        ++queued;
    });
    if (queued == 0)
        os << " (none)";
    os << " (" << queued << " components)\n";

    int shown = 0;
    for (const auto &r : routers_) {
        if (r.bufferedFlits() == 0)
            continue;
        os << "router " << r.id() << " (" << r.bufferedFlits()
           << " buffered";
        if (r.anyOutputDead()) {
            os << "; dead outputs:";
            for (PortId p = 0; p < r.numPorts(); ++p)
                if (!r.outputAlive(p))
                    os << ' ' << p;
        }
        os << ")\n";
        for (PortId p = 0; p < r.numPorts() && shown < max_flits;
             ++p) {
            for (VcId v = 0; v < r.numVcs() && shown < max_flits;
                 ++v) {
                const InputUnit &in = r.inputUnit(p, v);
                if (in.buf.empty())
                    continue;
                const Flit &f = in.buf.front();
                os << "  in(port=" << p << ",vc=" << v
                   << ") depth=" << in.buf.size() << " head{pkt="
                   << f.packet << " src=" << f.src << " dst="
                   << f.dst << " hops=" << f.hops;
                const bool routed =
                    f.routed || (in.routed && in.outPort != kInvalid);
                const PortId op = f.routed ? f.outPort : in.outPort;
                const VcId ov = f.routed ? f.outVc : in.outVc;
                if (routed && op != kInvalid) {
                    os << " -> out(port=" << op << ",vc=" << ov
                       << ") credits=" << r.credits(op, ov)
                       << (r.outputAlive(op) ? "" : " DEAD");
                } else {
                    os << " unrouted";
                }
                os << "}\n";
                ++shown;
            }
        }
    }
    for (std::size_t i = 0; i < numArcs_; ++i) {
        if (channels_[i].flitsInFlight() == 0)
            continue;
        os << "arc " << i << " (" << arcs_[i].src << "->"
           << arcs_[i].dst << ") in-flight="
           << channels_[i].flitsInFlight();
        if (channels_[i].reliable())
            os << " replay=" << channels_[i].replayOccupancy();
        os << (channels_[i].dead() ? " DEAD" : "") << "\n";
    }
    return os.str();
}

std::string
Network::checkInvariants() const
{
    std::ostringstream os;

    // Flit conservation across the whole system.
    std::uint64_t buffered = 0;
    for (const auto &r : routers_)
        buffered += static_cast<std::uint64_t>(r.bufferedFlits());
    std::uint64_t in_flight = 0;
    for (const auto &ch : channels_)
        in_flight += static_cast<std::uint64_t>(ch.flitsInFlight());
    const std::uint64_t accounted = buffered + in_flight +
                                    stats_.flitsEjected +
                                    stats_.flitsDropped;
    if (stats_.flitsInjected != accounted) {
        os << "flit conservation: injected=" << stats_.flitsInjected
           << " != buffered=" << buffered << " + in-flight="
           << in_flight << " + ejected=" << stats_.flitsEjected
           << " + dropped=" << stats_.flitsDropped << "\n";
    }

    // Credit conservation per alive inter-router (arc, VC) lane.
    for (std::size_t i = 0; i < numArcs_; ++i) {
        const Channel &ch = channels_[i];
        if (ch.dead())
            continue; // dead lanes intentionally leak credits
        const auto &arc = arcs_[i];
        const Router &up = routers_[arc.src];
        const Router &down = routers_[arc.dst];
        for (VcId v = 0; v < cfg_.numVcs; ++v) {
            const int credits = up.credits(arc.srcPort, v);
            const int occ =
                down.inputUnit(arc.dstPort, v).buf.size();
            const int flits = ch.flitsInFlightOnVc(v);
            const int back = ch.creditsInFlightOnVc(v);
            if (credits + occ + flits + back != cfg_.vcDepth) {
                os << "credit conservation on arc " << i << " ("
                   << arc.src << "->" << arc.dst << ") vc " << v
                   << ": credits=" << credits << " + occupancy="
                   << occ << " + flits-in-flight=" << flits
                   << " + credits-in-flight=" << back
                   << " != depth=" << cfg_.vcDepth << "\n";
            }
        }
    }

    // Ditto for terminal injection lanes.
    for (NodeId n = 0; n < static_cast<NodeId>(terminals_.size());
         ++n) {
        const Channel &ch = *injChannels_[n];
        if (ch.dead())
            continue;
        const Router &down = routers_[topo_.injectionRouter(n)];
        const PortId port = topo_.injectionPort(n);
        for (VcId v = 0; v < cfg_.numVcs; ++v) {
            const int credits = terminals_[n].credits(v);
            const int occ = down.inputUnit(port, v).buf.size();
            const int flits = ch.flitsInFlightOnVc(v);
            const int back = ch.creditsInFlightOnVc(v);
            if (credits + occ + flits + back != cfg_.vcDepth) {
                os << "credit conservation on injection lane of node "
                   << n << " vc " << v << ": credits=" << credits
                   << " + occupancy=" << occ << " + flits-in-flight="
                   << flits << " + credits-in-flight=" << back
                   << " != depth=" << cfg_.vcDepth << "\n";
            }
        }
    }
    return os.str();
}

LinkStats
Network::linkStats() const
{
    LinkStats total;
    for (std::size_t i = 0; i < numArcs_; ++i)
        total += channels_[i].linkStats();
    return total;
}

std::int64_t
Network::bufferedFlitsOnVc(VcId vc) const
{
    std::int64_t total = 0;
    for (const auto &r : routers_)
        total += r.bufferedFlitsOnVc(vc);
    return total;
}

std::vector<std::uint64_t>
Network::interRouterFlitCounts() const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(numArcs_);
    for (std::size_t i = 0; i < numArcs_; ++i)
        counts.push_back(channels_[i].flitsCarried());
    return counts;
}

NodeId
Network::drawDest(NodeId src, Rng &rng) const
{
    FBFLY_ASSERT(pattern_ != nullptr,
                 "packet without destination and no traffic pattern");
    return pattern_->dest(src, rng);
}

bool
Network::componentHasActionableWork(std::uint32_t c, Cycle at) const
{
    const auto num_routers =
        static_cast<std::uint32_t>(routers_.size());
    if (c < num_routers)
        return routers_[c].hasActionableWork(at);
    return terminals_[c - num_routers].hasActionableWork(at);
}

void
Network::verifyWakes(Cycle t)
{
    ++wakeChecks_;
    if (wakeDivergence_.has_value())
        return; // report the first divergence only
    const auto num_routers =
        static_cast<std::uint32_t>(routers_.size());
    const auto n = static_cast<std::uint32_t>(active_.size());
    for (std::uint32_t c = 0; c < n; ++c) {
        if (active_.activeNow(c) ||
            !componentHasActionableWork(c, t))
            continue;
        const bool injected =
            std::find(suppressed_.begin(), suppressed_.end(), c) !=
            suppressed_.end();
        wakeDivergence_ = WakeDivergence{c, t, injected};
        // A genuine missed wake is a kernel bug — work lost forever.
        // Injected misses (debugSuppressComponent) are recorded for
        // the liveness tests without aborting.
        FBFLY_ASSERT(injected,
                     "wake contract violated at cycle ", t,
                     ": component ", c,
                     c < num_routers ? " (router " : " (terminal ",
                     c < num_routers ? c : c - num_routers,
                     ") has actionable work but was not scheduled");
        return;
    }
}

void
Network::restartAfterRecovery()
{
    // Fold the kill accounting into the aggregate immediately: the
    // harness reads stats (and reports expected losses to the
    // delivery oracle) between steps, and checkInvariants() charges
    // drops against flit conservation from this cycle on.
    for (auto &r : routers_) {
        if (r.hasPendingDrops())
            r.drainPendingDrops(stats_.flitsDropped,
                                stats_.packetsUnreachable,
                                stats_.measuredDropped);
    }
    lastProgress_ = now_;
    // Freed credits, re-exposed routes and truncated remainders can
    // unblock any component; everything re-examines itself.
    active_.wakeAllNext();
}

void
Network::debugSuppressComponent(std::uint32_t c)
{
    FBFLY_ASSERT(c < active_.size(),
                 "debugSuppressComponent range: ", c);
    if (std::find(suppressed_.begin(), suppressed_.end(), c) ==
        suppressed_.end())
        suppressed_.push_back(c);
}

void
Network::debugClearSuppressed()
{
    suppressed_.clear();
    // The stranded components never ran, so their self-sustain wakes
    // never fired; re-wake everything so they resume.
    active_.wakeAllNext();
}

} // namespace fbfly
