/**
 * @file
 * Live metrics: a lock-cheap registry of counters, gauges and
 * fixed-bucket latency histograms.
 *
 * The stats package (sim/stats.hh) is built for end-of-run dumps of
 * a single-threaded model tree; the campaign *service* needs the
 * opposite: many threads (connection handlers, workers, the
 * supervisor watchdog, a sampler) bumping shared counters while a
 * health endpoint snapshots them mid-flight, thousands of times over
 * a daemon's life, without ever blocking the hot path.
 *
 * Design points:
 *
 *  - *Writes are single relaxed atomics.* Counter::inc, Gauge::set
 *    and Histogram::observe never take a lock; a histogram observe
 *    is one bucket fetch_add plus one sum fetch_add. That is the
 *    whole hot-path cost, on every thread, under any contention.
 *
 *  - *Registration is rare and locked.* counter()/gauge()/
 *    histogram() intern by name under a mutex and return a stable
 *    reference (the registry never deallocates a metric), so models
 *    register once at construction and keep the handle.
 *
 *  - *Snapshots are per-metric atomic, monotone for counters.* A
 *    snapshot loads each atomic exactly once. There is no global
 *    consistency point across metrics — a snapshot taken during a
 *    burst may see counter A's increment but not B's — but every
 *    individual counter and histogram bucket is monotonically
 *    non-decreasing across snapshots, which is the property rate
 *    readers and the reconciliation tests rely on.
 *
 *  - *Histogram buckets carry explicit upper bounds* (Prometheus
 *    `le` edges, the last bucket +Inf), so the JSON rendering and
 *    the Prometheus text exposition agree on boundaries by
 *    construction. A histogram's count is derived from its bucket
 *    sums inside one snapshot, keeping count and buckets coherent.
 *
 * The registry renders its own Prometheus text exposition (the sim
 * layer has no JSON dependency); JSON rendering belongs to whoever
 * owns a JSON type (the service layer renders health frames from a
 * Snapshot).
 */

#ifndef CONTUTTO_SIM_METRICS_HH
#define CONTUTTO_SIM_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace contutto::metrics
{

/** A monotonically increasing counter. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** An instantaneous signed level (queue depth, in-flight, ...). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t n)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    void sub(std::int64_t n) { add(-n); }

    std::int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * A fixed-bucket histogram of non-negative integer observations
 * (latencies in ms or us, depths, ...). Buckets are defined by
 * strictly increasing inclusive upper bounds; observations above
 * the last bound land in the implicit +Inf bucket.
 */
class Histogram
{
  public:
    /** @p le: strictly increasing inclusive upper bounds. */
    explicit Histogram(std::vector<std::uint64_t> le);

    void observe(std::uint64_t v);

    const std::vector<std::uint64_t> &edges() const { return le_; }

    /** Buckets including +Inf (edges().size() + 1 entries). */
    std::vector<std::uint64_t> bucketCounts() const;

    std::uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

  private:
    std::vector<std::uint64_t> le_;
    /** le_.size() + 1 buckets; the last is +Inf. */
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> sum_{0};
};

/** One metric family captured by Snapshot. */
struct CounterSample
{
    std::string name;
    std::string help;
    std::uint64_t value = 0;
};

struct GaugeSample
{
    std::string name;
    std::string help;
    std::int64_t value = 0;
};

struct HistogramSample
{
    std::string name;
    std::string help;
    /** Inclusive upper bounds; buckets has one extra +Inf entry. */
    std::vector<std::uint64_t> le;
    /** Per-bucket (non-cumulative) counts, +Inf last. */
    std::vector<std::uint64_t> buckets;
    /** Derived from buckets within this snapshot. */
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

/** A point-in-time read of a whole registry. */
struct Snapshot
{
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;

    /** @{ Lookup helpers (nullptr when absent). */
    const CounterSample *counter(const std::string &name) const;
    const GaugeSample *gauge(const std::string &name) const;
    const HistogramSample *
    histogram(const std::string &name) const;
    /** @} */

    /** Counter value or @p def when absent. */
    std::uint64_t counterValue(const std::string &name,
                               std::uint64_t def = 0) const;
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** @{ Intern by name; a repeated name returns the existing
     *  metric (help and, for histograms, edges must then match —
     *  a mismatch is a programming error and asserts). */
    Counter &counter(const std::string &name,
                     const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &help);
    Histogram &histogram(const std::string &name,
                         const std::string &help,
                         std::vector<std::uint64_t> le);
    /** @} */

    /** Per-metric-atomic capture of everything registered. */
    Snapshot snapshot() const;


    /**
     * Prometheus text exposition format 0.0.4: HELP/TYPE comments,
     * cumulative `le`-labelled histogram buckets with +Inf, _sum
     * and _count series. Ends with a trailing newline.
     */
    std::string prometheusText() const;

  private:
    template <typename T> struct Named
    {
        std::string name;
        std::string help;
        std::unique_ptr<T> metric;
    };

    mutable std::mutex mtx_;
    /** Registration order; stable addresses (unique_ptr). */
    std::vector<Named<Counter>> counters_;
    std::vector<Named<Gauge>> gauges_;
    std::vector<Named<Histogram>> histograms_;
};

} // namespace contutto::metrics

#endif // CONTUTTO_SIM_METRICS_HH
