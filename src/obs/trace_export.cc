#include "obs/trace_export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/log.h"

namespace fbfly
{

namespace
{

/** Emit a metadata event naming a process or thread. */
void
writeMeta(std::ostringstream &os, bool &first, const char *what,
          std::size_t pid, std::int64_t tid, const std::string &name)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "    {\"ph\": \"M\", \"pid\": " << pid;
    if (tid >= 0)
        os << ", \"tid\": " << tid;
    os << ", \"name\": \"" << what << "\", \"args\": {\"name\": ";
    jsonAppendString(os, name);
    os << "}}";
}

} // namespace

std::string
tracesToChromeJson(const std::vector<TracePoint> &points)
{
    std::ostringstream os;
    os << "{\"traceEvents\": [\n";
    bool first = true;
    for (std::size_t pid = 0; pid < points.size(); ++pid) {
        const TracePoint &pt = points[pid];
        if (pt.trace == nullptr)
            continue;
        const TraceSink &sink = *pt.trace;

        writeMeta(os, first, "process_name", pid, -1,
                  pt.label.empty()
                      ? "point " + std::to_string(pid)
                      : pt.label);
        const auto &tracks = sink.tracks();
        for (std::size_t t = 0; t < tracks.size(); ++t) {
            writeMeta(os, first, "thread_name", pid,
                      static_cast<std::int64_t>(t), tracks[t].name);
        }

        char buf[256];
        for (std::size_t i = 0; i < sink.size(); ++i) {
            const TraceRecord &r = sink.at(i);
            if (!first)
                os << ",\n";
            first = false;
            // One cycle = 1 us of trace time.
            std::snprintf(
                buf, sizeof buf,
                "    {\"ph\": \"i\", \"s\": \"t\", \"pid\": %zu, "
                "\"tid\": %d, \"ts\": %" PRIu64 ", \"name\": "
                "\"%s\", \"args\": {\"flit\": %" PRIu64
                ", \"packet\": %" PRIu64
                ", \"src\": %d, \"dst\": %d, \"a\": %d, \"b\": %d}}",
                pid, r.track, static_cast<std::uint64_t>(r.cycle),
                toString(r.type), static_cast<std::uint64_t>(r.flit),
                static_cast<std::uint64_t>(r.packet), r.src, r.dst,
                r.a, r.b);
            os << buf;
        }

        for (const TraceSink::CounterSample &c :
             sink.counterSamples()) {
            if (!first)
                os << ",\n";
            first = false;
            os << "    {\"ph\": \"C\", \"pid\": " << pid
               << ", \"tid\": " << c.track << ", \"ts\": "
               << static_cast<std::uint64_t>(c.cycle)
               << ", \"name\": ";
            const std::string &track_name =
                c.track >= 0 && static_cast<std::size_t>(c.track) <
                                     sink.tracks().size()
                    ? sink.tracks()[static_cast<std::size_t>(c.track)]
                          .name
                    : std::string("counter");
            jsonAppendString(os, track_name + " util");
            os << ", \"args\": {\"value\": ";
            jsonAppendNumber(os, c.value);
            os << "}}";
        }
    }
    os << "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}";
    return os.str();
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<TracePoint> &points)
{
    std::ofstream out(path);
    if (!out) {
        FBFLY_WARN("cannot open '", path, "' for trace output");
        return false;
    }
    out << tracesToChromeJson(points) << "\n";
    out.flush();
    if (!out) {
        FBFLY_WARN("short write of trace JSON to '", path, "'");
        return false;
    }
    return true;
}

} // namespace fbfly
