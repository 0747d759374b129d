#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/json.h"
#include "common/log.h"

namespace fbfly
{

const char *
toString(TraceEventType t)
{
    switch (t) {
    case TraceEventType::kInject:
        return "inject";
    case TraceEventType::kVcAlloc:
        return "vc-alloc";
    case TraceEventType::kSwAlloc:
        return "sw-alloc";
    case TraceEventType::kLinkTraverse:
        return "link";
    case TraceEventType::kRetry:
        return "retry";
    case TraceEventType::kNack:
        return "nack";
    case TraceEventType::kDrop:
        return "drop";
    case TraceEventType::kEject:
        return "eject";
    case TraceEventType::kChurn:
        return "churn";
    case TraceEventType::kRepair:
        return "repair";
    case TraceEventType::kDeadlock:
        return "deadlock";
    case TraceEventType::kRecovery:
        return "recovery";
    }
    return "?";
}

namespace
{

std::uint32_t
levelMask(TraceLevel level)
{
    switch (level) {
    case TraceLevel::kOff:
        return 0;
    case TraceLevel::kPackets:
        return (1u << static_cast<unsigned>(TraceEventType::kInject)) |
               (1u << static_cast<unsigned>(TraceEventType::kDrop)) |
               (1u << static_cast<unsigned>(TraceEventType::kEject)) |
               (1u << static_cast<unsigned>(TraceEventType::kChurn)) |
               (1u << static_cast<unsigned>(TraceEventType::kRepair)) |
               (1u <<
                static_cast<unsigned>(TraceEventType::kDeadlock)) |
               (1u <<
                static_cast<unsigned>(TraceEventType::kRecovery));
    case TraceLevel::kFull:
        break;
    }
    return (1u << kNumTraceEventTypes) - 1u;
}

} // namespace

TraceSink::TraceSink(std::size_t capacity)
    : mask_(levelMask(TraceLevel::kFull)),
      counterCapacity_(capacity)
{
    FBFLY_ASSERT(capacity >= 1, "trace ring capacity must be >= 1");
    ring_.resize(capacity);
}

void
TraceSink::setLevel(TraceLevel level)
{
    mask_ = levelMask(level);
}

std::int32_t
TraceSink::addTrack(std::string name, TrackKind kind)
{
    const auto id = static_cast<std::int32_t>(tracks_.size());
    tracks_.push_back({std::move(name), kind});
    return id;
}

void
TraceSink::record(TraceEventType type, Cycle cycle,
                  std::int32_t track, const Flit &f, std::int32_t a,
                  std::int32_t b)
{
    if (!wants(type))
        return;
    if (Stage *s = tlsStage_; s != nullptr) {
        s->recs.push_back({type, cycle, track, f, a, b});
        return;
    }
    TraceRecord &r = ring_[head_];
    r.cycle = cycle;
    r.flit = f.id;
    r.packet = f.packet;
    r.src = f.src;
    r.dst = f.dst;
    r.track = track;
    r.a = a;
    r.b = b;
    r.type = type;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size())
        ++size_;
    ++recorded_;
    ++counts_[static_cast<std::size_t>(type)];
}

void
TraceSink::replayStaged(const Stage &s, std::size_t seg_index)
{
    FBFLY_ASSERT(seg_index < s.seg.size(),
                 "staged trace segment out of range");
    FBFLY_ASSERT(tlsStage_ == nullptr,
                 "trace replay must not run with a stage installed");
    const std::size_t lo = seg_index == 0 ? 0 : s.seg[seg_index - 1];
    const std::size_t hi = s.seg[seg_index];
    for (std::size_t i = lo; i < hi; ++i) {
        const Stage::StagedRecord &r = s.recs[i];
        record(r.type, r.cycle, r.track, r.flit, r.a, r.b);
    }
}

void
TraceSink::counter(std::int32_t track, Cycle cycle, double value)
{
    if (counterSamples_.size() >= counterCapacity_) {
        ++droppedCounters_;
        return;
    }
    counterSamples_.push_back({cycle, track, value});
}

const TraceRecord &
TraceSink::at(std::size_t i) const
{
    FBFLY_ASSERT(i < size_, "trace record index out of range");
    // Oldest record sits at head_ when the ring has wrapped, else 0.
    const std::size_t start =
        size_ == ring_.size() ? head_ : std::size_t{0};
    std::size_t pos = start + i;
    if (pos >= ring_.size())
        pos -= ring_.size();
    return ring_[pos];
}

std::string
TraceSink::toText() const
{
    std::ostringstream os;
    os << "fbfly-trace-v1 tracks=" << tracks_.size()
       << " events=" << size_ << " recorded=" << recorded_
       << " dropped=" << droppedRecords()
       << " counters=" << counterSamples_.size() << "\n";
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        static const char *kKind[] = {"router", "channel", "terminal"};
        os << "track " << i << ' '
           << kKind[static_cast<std::size_t>(tracks_[i].kind)] << ' '
           << tracks_[i].name << "\n";
    }
    char line[192];
    for (std::size_t i = 0; i < size_; ++i) {
        const TraceRecord &r = at(i);
        std::snprintf(line, sizeof line,
                      "%" PRIu64 " %d %s flit=%" PRIu64
                      " pkt=%" PRIu64 " src=%d dst=%d a=%d b=%d\n",
                      static_cast<std::uint64_t>(r.cycle), r.track,
                      toString(r.type),
                      static_cast<std::uint64_t>(r.flit),
                      static_cast<std::uint64_t>(r.packet), r.src,
                      r.dst, r.a, r.b);
        os << line;
    }
    for (const CounterSample &c : counterSamples_) {
        // Round-trip-exact value, formatted like the JSON writers.
        std::snprintf(line, sizeof line,
                      "%" PRIu64 " %d counter %s\n",
                      static_cast<std::uint64_t>(c.cycle), c.track,
                      jsonNumber(c.value).c_str());
        os << line;
    }
    return os.str();
}

} // namespace fbfly
