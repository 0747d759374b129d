#include "harness/sweep.h"

#include <chrono>
#include <utility>

#include "common/log.h"
#include "routing/routing.h"
#include "topology/topology.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{

std::uint64_t
derivePointSeed(std::uint64_t master_seed, std::uint64_t point_index)
{
    // splitmix64 (Steele, Lea & Flood): advance the state by the
    // point index scaled with the golden-gamma increment, then apply
    // the finalizer.  Bijective in the state, full avalanche — a
    // one-bit change of either argument flips about half the output.
    std::uint64_t z =
        master_seed + (point_index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

int
ThreadPool::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int num_threads)
{
    const int n = resolveThreads(num_threads);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        workers_.emplace_back([this](const std::stop_token &stop) {
            workerLoop(stop);
        });
    }
}

ThreadPool::~ThreadPool()
{
    // Drain what was submitted, then stop the workers.  jthread's
    // destructor requests stop and joins; waking the sleepers is all
    // that is left to do.
    try {
        wait();
    } catch (...) {
        // Destruction must not throw; wait() already cleared the
        // exception slot.
    }
    for (auto &w : workers_)
        w.request_stop();
    workCv_.notify_all();
}

void
ThreadPool::submit(std::function<void()> job)
{
    FBFLY_ASSERT(job != nullptr, "null job submitted to ThreadPool");
    {
        const std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(job));
    }
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && active_ == 0; });
    if (firstError_) {
        std::exception_ptr err = std::exchange(firstError_, nullptr);
        lock.unlock();
        std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop(const std::stop_token &stop)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        workCv_.wait(lock, stop,
                     [this] { return !queue_.empty(); });
        if (queue_.empty()) {
            // Only reachable on stop with a drained queue.
            return;
        }
        std::function<void()> job = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        lock.unlock();
        try {
            job();
        } catch (...) {
            const std::lock_guard<std::mutex> relock(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        lock.lock();
        --active_;
        if (queue_.empty() && active_ == 0)
            idleCv_.notify_all();
    }
}

// ---------------------------------------------------------------------
// SweepEngine
// ---------------------------------------------------------------------

SweepEngine::SweepEngine(SweepConfig cfg)
    : cfg_(cfg), threads_(ThreadPool::resolveThreads(cfg.threads))
{
}

std::size_t
SweepEngine::reserveRecord(const std::string &series,
                           SweepPointKind kind, const Topology &topo,
                           const RoutingAlgorithm &algo,
                           const TrafficPattern &pattern)
{
    const std::size_t index = records_.size();
    SweepPointRecord rec;
    rec.index = index;
    rec.kind = kind;
    rec.series = series;
    rec.topology = topo.name();
    rec.routing = algo.name();
    rec.traffic = pattern.name();
    rec.seed = derivePointSeed(cfg_.masterSeed,
                               static_cast<std::uint64_t>(index));
    records_.push_back(std::move(rec));
    return index;
}

std::size_t
SweepEngine::addLoadPoint(const std::string &series,
                          const Topology &topo,
                          RoutingAlgorithm &algo,
                          const TrafficPattern &pattern,
                          const NetworkConfig &netcfg,
                          const ExperimentConfig &expcfg,
                          double offered)
{
    FBFLY_ASSERT(!ran_, "SweepEngine::addLoadPoint after run()");
    const std::size_t index = reserveRecord(
        series, SweepPointKind::kLoadPoint, topo, algo, pattern);
    jobs_.push_back([&topo, &algo, &pattern, netcfg, expcfg,
                     offered](SweepPointRecord &rec) {
        ExperimentConfig pointcfg = expcfg;
        pointcfg.seed = rec.seed;
        rec.load = runLoadPoint(topo, algo, pattern, netcfg,
                                pointcfg, offered);
    });
    return index;
}

void
SweepEngine::addLoadSweep(const std::string &series,
                          const Topology &topo,
                          RoutingAlgorithm &algo,
                          const TrafficPattern &pattern,
                          const NetworkConfig &netcfg,
                          const ExperimentConfig &expcfg,
                          const std::vector<double> &loads)
{
    for (const double load : loads) {
        addLoadPoint(series, topo, algo, pattern, netcfg, expcfg,
                     load);
    }
}

std::size_t
SweepEngine::addBatch(const std::string &series, const Topology &topo,
                      RoutingAlgorithm &algo,
                      const TrafficPattern &pattern,
                      const NetworkConfig &netcfg, int batch_size,
                      Cycle max_cycles)
{
    FBFLY_ASSERT(!ran_, "SweepEngine::addBatch after run()");
    const std::size_t index = reserveRecord(
        series, SweepPointKind::kBatch, topo, algo, pattern);
    jobs_.push_back([&topo, &algo, &pattern, netcfg, batch_size,
                     max_cycles](SweepPointRecord &rec) {
        BatchResult res = runBatch(topo, algo, pattern, netcfg,
                                   rec.seed, batch_size, max_cycles);
        rec.load = std::move(res.load);
        rec.batchSize = res.batchSize;
        rec.completionTime = res.completionTime;
    });
    return index;
}

const std::vector<SweepPointRecord> &
SweepEngine::run()
{
    FBFLY_ASSERT(!ran_, "SweepEngine::run() called twice");
    ran_ = true;

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    {
        ThreadPool pool(threads_);
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            // Each job owns exactly records_[i]; the vector is fully
            // sized before any worker starts, so concurrent writes
            // touch disjoint elements.
            SweepPointRecord &rec = records_[i];
            Job &job = jobs_[i];
            pool.submit([&rec, &job] {
                const auto p0 = Clock::now();
                job(rec);
                rec.wallSeconds =
                    std::chrono::duration<double>(Clock::now() - p0)
                        .count();
            });
        }
        pool.wait();
    }
    totalWall_ =
        std::chrono::duration<double>(Clock::now() - t0).count();
    jobs_.clear();
    return records_;
}

double
SweepEngine::pointWallSecondsSum() const
{
    double sum = 0.0;
    for (const auto &rec : records_)
        sum += rec.wallSeconds;
    return sum;
}

} // namespace fbfly
