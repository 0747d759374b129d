/**
 * @file
 * Parallel sweep engine (docs/SWEEPS.md).
 *
 * Every figure bench replays the paper's evaluation as a set of
 * *independent* simulations — one Network per (algorithm, pattern,
 * offered-load) point.  The SweepEngine executes those points
 * concurrently on a bounded pool of std::jthread workers fed from a
 * work queue, while keeping results **bit-identical regardless of
 * thread count or scheduling order**:
 *
 *  - each queued point gets an index, and its RNG seed is derived as
 *    splitmix64(masterSeed, index) (derivePointSeed) — never from
 *    shared mutable state or execution order;
 *  - each point builds its own Network (runLoadPoint / runBatch
 *    already do); the shared Topology, RoutingAlgorithm and
 *    TrafficPattern objects are stateless during routing (all
 *    simulation RNG lives inside the per-point Network);
 *  - results are written into a pre-sized, index-addressed record
 *    vector, so completion order cannot reorder output.
 *
 * The determinism contract is enforced by tests/test_sweep.cc: a
 * sweep run with 1 thread and with N threads must produce identical
 * results, field for field.
 */

#ifndef FBFLY_HARNESS_SWEEP_H
#define FBFLY_HARNESS_SWEEP_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"

namespace fbfly
{

class Topology;
class RoutingAlgorithm;
class TrafficPattern;

/**
 * Per-point seed derivation: a splitmix64 hash of
 * (master_seed, point_index).
 *
 * Adjacent indices yield decorrelated streams (splitmix64 is a
 * bijective avalanche mixer), and the derivation depends on nothing
 * but its two arguments, so a point rerun in isolation reproduces
 * its in-sweep result exactly.
 */
std::uint64_t derivePointSeed(std::uint64_t master_seed,
                              std::uint64_t point_index);

/**
 * Bounded pool of std::jthread workers fed from a FIFO work queue.
 *
 * Jobs may be submitted from the owning thread at any time; wait()
 * blocks until the queue is empty and every in-flight job finished.
 * The first exception thrown by a job is captured and rethrown from
 * wait() (remaining queued jobs still run).  Destruction joins all
 * workers after draining the queue.
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; <= 0 selects
     *        std::thread::hardware_concurrency() (at least 1).
     */
    explicit ThreadPool(int num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int numThreads() const
    {
        return static_cast<int>(workers_.size());
    }

    /** Enqueue one job. */
    void submit(std::function<void()> job);

    /**
     * Block until all submitted jobs completed; rethrows the first
     * job exception (if any), clearing it.
     */
    void wait();

    /** Map a requested thread count to an actual one (<= 0: all
     *  hardware threads; always >= 1). */
    static int resolveThreads(int requested);

  private:
    void workerLoop(const std::stop_token &stop);

    std::mutex mu_;
    std::condition_variable_any workCv_; ///< workers sleep here
    std::condition_variable idleCv_;     ///< wait() sleeps here
    std::deque<std::function<void()>> queue_;
    int active_ = 0;
    std::exception_ptr firstError_;
    std::vector<std::jthread> workers_; ///< last: joins before rest
};

/** What kind of simulation a sweep point ran. */
enum class SweepPointKind
{
    kLoadPoint, ///< open-loop offered-load point (runLoadPoint)
    kBatch,     ///< fixed-batch delivery run (runBatch)
    kChurn,     ///< dynamic-service run (runChurnPoint, harness/churn.h)
};

/**
 * One executed sweep point: identification, the derived seed, the
 * wall-clock cost, and the simulation result.
 */
struct SweepPointRecord
{
    /** Queue position; also the seed-derivation index. */
    std::size_t index = 0;
    SweepPointKind kind = SweepPointKind::kLoadPoint;
    /** Series label, e.g. "fig4a MIN AD / uniform". */
    std::string series;
    std::string topology;
    std::string routing;
    std::string traffic;
    /** The derived per-point seed actually used. */
    std::uint64_t seed = 0;
    /** Wall-clock seconds this point took on its worker. */
    double wallSeconds = 0.0;

    /** The run's result, whatever the kind (churn points report
     *  their steady-state fields here; a batch's `accepted` is its
     *  throughput, see BatchResult). */
    LoadPointResult load;
    /** kBatch only: packets per node and the cycle the batch
     *  completed (see BatchResult). */
    int batchSize = 0;
    Cycle completionTime = 0;

    /** Extra kind-specific JSON, spliced verbatim into this point's
     *  object right before its closing brace ("" for none).  Must be
     *  a comma-free-prefix fragment like `"churn": {...}`.  Used by
     *  the fbfly-sweep-v1 churn extension (docs/SWEEPS.md). */
    std::string extraJson;
};

/**
 * Sweep engine configuration.
 */
struct SweepConfig
{
    /** Worker threads; <= 0 selects all hardware threads. */
    int threads = 1;
    /** Master seed; per-point seeds derive from it by index. */
    std::uint64_t masterSeed = 1;
};

/**
 * Queue-then-run sweep executor.
 *
 * Usage: construct, add*() every point (series by series), run()
 * once, then read records() — ordered by queue index, independent of
 * scheduling.  The referenced Topology / RoutingAlgorithm /
 * TrafficPattern objects must outlive run() and may be shared across
 * points (they are read-only during simulation).
 */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepConfig cfg);

    /** Queue one offered-load point; returns its index. */
    std::size_t addLoadPoint(const std::string &series,
                             const Topology &topo,
                             RoutingAlgorithm &algo,
                             const TrafficPattern &pattern,
                             const NetworkConfig &netcfg,
                             const ExperimentConfig &expcfg,
                             double offered);

    /** Queue one point per load (a whole latency-vs-load series). */
    void addLoadSweep(const std::string &series, const Topology &topo,
                      RoutingAlgorithm &algo,
                      const TrafficPattern &pattern,
                      const NetworkConfig &netcfg,
                      const ExperimentConfig &expcfg,
                      const std::vector<double> &loads);

    /** Queue one batch run; returns its index. */
    std::size_t addBatch(const std::string &series,
                         const Topology &topo, RoutingAlgorithm &algo,
                         const TrafficPattern &pattern,
                         const NetworkConfig &netcfg, int batch_size,
                         Cycle max_cycles = 10000000);

    /** Points queued so far. */
    std::size_t size() const { return jobs_.size(); }

    /**
     * Execute every queued point on the pool and return the records
     * in queue order.  One-shot: a second call is rejected.
     */
    const std::vector<SweepPointRecord> &run();

    /** Records of a completed run (empty before run()). */
    const std::vector<SweepPointRecord> &records() const
    {
        return records_;
    }

    /** Actual worker count run() uses. */
    int threads() const { return threads_; }

    std::uint64_t masterSeed() const { return cfg_.masterSeed; }

    /** Wall-clock seconds of the whole run() call. */
    double totalWallSeconds() const { return totalWall_; }

    /** Sum of per-point wall seconds (the serial-equivalent cost). */
    double pointWallSecondsSum() const;

  private:
    /** A queued point: fills its record when invoked. */
    using Job = std::function<void(SweepPointRecord &)>;

    std::size_t reserveRecord(const std::string &series,
                              SweepPointKind kind,
                              const Topology &topo,
                              const RoutingAlgorithm &algo,
                              const TrafficPattern &pattern);

    SweepConfig cfg_;
    int threads_;
    bool ran_ = false;
    std::vector<Job> jobs_;
    std::vector<SweepPointRecord> records_;
    double totalWall_ = 0.0;
};

} // namespace fbfly

#endif // FBFLY_HARNESS_SWEEP_H
