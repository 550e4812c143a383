/**
 * @file
 * Unit tests for the live metrics registry (sim/metrics.hh): the
 * lock-cheap counters/gauges/histograms behind campaignd's health
 * endpoint. The concurrent hammer runs under the TSan CI job (the
 * whole point of the relaxed-atomic design is that it is clean
 * there), and the snapshot tests pin the monotonicity and
 * coherence properties the service reconciliation relies on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sim/metrics.hh"

using namespace contutto::metrics;

TEST(Metrics, CounterGaugeBasics)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("requests_total", "requests");
    Gauge &g = reg.gauge("depth", "queue depth");

    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);

    g.set(7);
    g.add(3);
    g.sub(12);
    EXPECT_EQ(g.value(), -2);
}

TEST(Metrics, RegistrationInternsByName)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("hits_total", "hits");
    Counter &b = reg.counter("hits_total", "hits");
    EXPECT_EQ(&a, &b); // same metric, stable address

    Histogram &h1 = reg.histogram("lat_ms", "latency", {1, 10});
    Histogram &h2 = reg.histogram("lat_ms", "latency", {1, 10});
    EXPECT_EQ(&h1, &h2);
}

TEST(Metrics, HistogramBucketsAndInf)
{
    MetricsRegistry reg;
    Histogram &h =
        reg.histogram("lat_ms", "latency", {1, 5, 25});
    // Bounds are inclusive; above the last bound lands in +Inf.
    h.observe(0);
    h.observe(1);
    h.observe(2);
    h.observe(5);
    h.observe(25);
    h.observe(26);
    h.observe(1000);

    std::vector<std::uint64_t> buckets = h.bucketCounts();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 2u); // 0, 1
    EXPECT_EQ(buckets[1], 2u); // 2, 5
    EXPECT_EQ(buckets[2], 1u); // 25
    EXPECT_EQ(buckets[3], 2u); // 26, 1000 -> +Inf
    EXPECT_EQ(h.sum(), 0u + 1 + 2 + 5 + 25 + 26 + 1000);
}

TEST(Metrics, SnapshotCountMatchesBuckets)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("h", "h", {10});
    for (int i = 0; i < 9; ++i)
        h.observe(std::uint64_t(i));

    Snapshot snap = reg.snapshot();
    const HistogramSample *hs = snap.histogram("h");
    ASSERT_NE(hs, nullptr);
    std::uint64_t total = 0;
    for (std::uint64_t b : hs->buckets)
        total += b;
    // Coherence by construction: count is derived from the very
    // bucket values this snapshot read.
    EXPECT_EQ(hs->count, total);
    EXPECT_EQ(hs->count, 9u);
    ASSERT_EQ(hs->le.size(), 1u);
    EXPECT_EQ(hs->le[0], 10u);
    EXPECT_EQ(hs->buckets.size(), 2u);
}

TEST(Metrics, PrometheusTextFormat)
{
    MetricsRegistry reg;
    reg.counter("reqs_total", "requests served").inc(3);
    reg.gauge("depth", "queue depth").set(2);
    Histogram &h = reg.histogram("lat_ms", "latency", {1, 10});
    h.observe(1);
    h.observe(5);
    h.observe(100);

    std::string text = reg.prometheusText();

    EXPECT_NE(text.find("# HELP reqs_total requests served\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE reqs_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("reqs_total 3\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE depth gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("depth 2\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE lat_ms histogram\n"),
              std::string::npos);
    // Buckets are CUMULATIVE in the exposition.
    EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_ms_bucket{le=\"10\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_ms_sum 106\n"), std::string::npos);
    EXPECT_NE(text.find("lat_ms_count 3\n"), std::string::npos);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
}

/**
 * The hammer: many threads bumping the same metrics while a reader
 * snapshots continuously. Run under TSan (the CI tsan job includes
 * test_sim) this proves the relaxed-atomic design is race-free;
 * under any build it proves per-metric snapshot monotonicity —
 * counters and histogram buckets never go backwards between
 * consecutive snapshots, and histogram count always equals the sum
 * of its buckets.
 */
TEST(Metrics, ConcurrentHammerSnapshotsStayMonotone)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("hammer_total", "hammered");
    Gauge &g = reg.gauge("hammer_level", "level");
    Histogram &h =
        reg.histogram("hammer_lat", "lat", {1, 4, 16, 64});

    constexpr unsigned kWriters = 4;
    constexpr std::uint64_t kOpsPerWriter = 20000;
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (std::uint64_t i = 0; i < kOpsPerWriter; ++i) {
                c.inc();
                g.set(std::int64_t(i));
                h.observe((i * 7 + w) % 100);
            }
        });
    }

    std::thread reader([&] {
        Snapshot prev = reg.snapshot();
        while (!stop.load(std::memory_order_acquire)) {
            Snapshot cur = reg.snapshot();
            const CounterSample *pc = prev.counter("hammer_total");
            const CounterSample *cc = cur.counter("hammer_total");
            ASSERT_NE(pc, nullptr);
            ASSERT_NE(cc, nullptr);
            EXPECT_GE(cc->value, pc->value);
            const HistogramSample *ph =
                prev.histogram("hammer_lat");
            const HistogramSample *ch =
                cur.histogram("hammer_lat");
            ASSERT_NE(ph, nullptr);
            ASSERT_NE(ch, nullptr);
            std::uint64_t total = 0;
            for (std::size_t i = 0; i < ch->buckets.size(); ++i) {
                EXPECT_GE(ch->buckets[i], ph->buckets[i]);
                total += ch->buckets[i];
            }
            EXPECT_EQ(ch->count, total);
            EXPECT_GE(ch->count, ph->count);
            EXPECT_GE(ch->sum, ph->sum);
            prev = std::move(cur);
        }
    });

    for (std::thread &w : writers)
        w.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    Snapshot fin = reg.snapshot();
    EXPECT_EQ(fin.counterValue("hammer_total"),
              std::uint64_t(kWriters) * kOpsPerWriter);
    const HistogramSample *hs = fin.histogram("hammer_lat");
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->count, std::uint64_t(kWriters) * kOpsPerWriter);
}
