#include "network/terminal.h"

#include "common/log.h"
#include "network/flit.h"
#include "network/network.h"
#include "obs/trace.h"

namespace fbfly
{

Terminal::Terminal(NodeId id, int num_vcs, int vc_depth, Rng rng,
                   Network *parent)
    : id_(id), numVcs_(num_vcs), rng_(rng), parent_(parent),
      credits_(num_vcs, vc_depth)
{
}

void
Terminal::enqueuePacket(Cycle create_time, NodeId dst, bool measured)
{
    queue_.push_back({create_time, dst, measured});
    ++parent_->stats().pendingPackets;
    if (measured)
        ++parent_->stats().measuredCreated;
    if (sched_ != nullptr)
        sched_->wakeNext(comp_);
}

void
Terminal::receive(Cycle now)
{
    if (toRouter_ != nullptr) {
        if (toRouter_->needsTick(now))
            toRouter_->tick(now);
        if (toRouter_->hasCreditArrival(now)) {
            while (auto vc = toRouter_->receiveCredit(now)) {
                FBFLY_ASSERT(*vc >= 0 && *vc < numVcs_,
                             "terminal credit VC range");
                ++credits_[*vc];
            }
        }
    }
    if (fromRouter_ == nullptr || !fromRouter_->hasFlitArrival(now))
        return;
    while (auto f = fromRouter_->receiveFlit(now)) {
        FBFLY_ASSERT(f->dst == id_, "flit for node ", f->dst,
                     " ejected at node ", id_);
        FBFLY_TRACE(trace_, TraceEventType::kEject, now, traceTrack_,
                    *f, f->vc);
        ++sink_->flitsEjected;
        sink_->hopsEjected += static_cast<std::uint64_t>(f->hops);
        if (f->tail) {
            ++sink_->packetsEjected;
            if (f->measured)
                sink_->measuredEjects.push_back(*f);
        }
    }
}

void
Terminal::planInject(Cycle now)
{
    planStart_ = false;
    planSend_ = false;
    if (toRouter_ == nullptr)
        return;

    // Start a new packet if idle and the channel + some VC allow it.
    // A successful start implies the send below also succeeds (the
    // channel check is the same and the chosen VC has a credit), so
    // starting never wastes a drawn packet id.
    if (remainingFlits_ == 0) {
        if (queue_.empty() || !toRouter_->canSendFlit(now))
            return;
        VcId vc = kInvalid;
        for (int i = 0; i < numVcs_; ++i) {
            const int c = (lastVc_ + 1 + i) % numVcs_;
            if (credits_[c] > 0) {
                vc = c;
                break;
            }
        }
        if (vc == kInvalid)
            return;
        lastVc_ = vc;
        currentVc_ = vc;
        current_ = queue_.front();
        queue_.pop_front();
        --sink_->pendingPacketsDelta;
        ++sink_->midPacketDelta;
        if (current_.dst == kInvalid)
            current_.dst = parent_->drawDest(id_, rng_);
        remainingFlits_ = parent_->packetSize();
        flitIndex_ = 0;
        planStart_ = true;
        ++sink_->plannedPackets;
    }

    // Continue the in-progress packet if flow control allows.
    if (!toRouter_->canSendFlit(now) || credits_[currentVc_] <= 0)
        return;
    planSend_ = true;
    ++sink_->plannedFlits;
}

void
Terminal::sendPlanned(Cycle now)
{
    if (planStart_)
        currentPacket_ = sink_->nextPacket++;
    if (!planSend_)
        return;

    Flit f;
    f.id = sink_->nextFlit++;
    f.packet = currentPacket_;
    f.src = id_;
    f.dst = current_.dst;
    f.head = flitIndex_ == 0;
    f.tail = remainingFlits_ == 1;
    f.packetSize = parent_->packetSize();
    f.createTime = current_.create;
    f.injectTime = now;
    f.measured = current_.measured;
    f.vc = currentVc_;

    --credits_[currentVc_];
    if (f.head && f.measured)
        sink_->measuredInjects.push_back(f);
    FBFLY_TRACE(trace_, TraceEventType::kInject, now, traceTrack_, f,
                currentVc_);
    toRouter_->sendFlit(f, now);
    ++sink_->flitsInjected;

    ++flitIndex_;
    --remainingFlits_;
    if (remainingFlits_ == 0)
        --sink_->midPacketDelta;
}

} // namespace fbfly
