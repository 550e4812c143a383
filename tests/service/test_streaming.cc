/**
 * @file
 * The live telemetry plane, end to end over a real Unix socket:
 * streaming progress frames (ordering and rate limiting, with and
 * without injected wire faults), the health endpoint (JSON and
 * Prometheus, reconciled against client-observed outcomes), the
 * request-level trace attribution in result frames, and the
 * structured straggler log of a blown drain budget.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/server.hh"
#include "harness.hh"

using namespace contutto::service;
using Clock = std::chrono::steady_clock;

namespace
{

CampaignServer::Params
fastServer(const std::string &socket)
{
    CampaignServer::Params p;
    p.socketPath = socket;
    p.workers = 2;
    p.watchdogInterval = std::chrono::milliseconds(2);
    p.cancelGrace = std::chrono::milliseconds(500);
    p.progressPeriod = std::chrono::milliseconds(20);
    p.samplePeriod = std::chrono::milliseconds(10);
    return p;
}

CampaignClient::Params
fastClient(const std::string &socket)
{
    CampaignClient::Params p;
    p.socketPath = socket;
    p.callTimeout = std::chrono::seconds(60);
    p.responseTimeout = std::chrono::seconds(30);
    p.backoffBase = std::chrono::milliseconds(1);
    return p;
}

Request
spinRequest(const std::string &id, std::uint64_t spinMs,
            std::uint64_t seed = 1)
{
    Request r;
    r.id = id;
    r.kind = "spin";
    r.seed = seed;
    r.config = Json::object();
    r.config.set("spinMs", Json::number(spinMs));
    return r;
}

/** Collected frames of one streamed submit. */
struct StreamLog
{
    std::vector<Json> progress;
    std::vector<Json> results;
    unsigned garbled = 0;
};

StreamLog
streamSubmit(const std::string &socket, Request req)
{
    req.stream = true;
    StreamLog log;
    RawStream s(socket);
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(s.send(req.toJson().dump()));
    // Drain until the terminal result, then linger several progress
    // periods to catch any frame illegally emitted after it.
    bool sawResult = false;
    for (;;) {
        std::string line =
            s.nextLine(std::chrono::milliseconds(
                sawResult ? 150 : 10000));
        if (line.empty())
            break;
        try {
            Json j = Json::parse(line);
            const std::string type = j.getString("type", "?");
            if (type == "progress")
                log.progress.push_back(std::move(j));
            else if (type == "result") {
                log.results.push_back(std::move(j));
                sawResult = true;
            } else
                ADD_FAILURE() << "unexpected frame: " << line;
        } catch (const ProtocolError &) {
            ++log.garbled;
        }
        if (sawResult && log.results.size() > 1)
            break;
    }
    return log;
}

void
expectMonotoneSeq(const StreamLog &log)
{
    std::uint64_t last = 0;
    for (const Json &p : log.progress) {
        std::uint64_t seq = p.getU64("seq", 0);
        EXPECT_GT(seq, last) << "seq must be strictly increasing";
        last = seq;
    }
}

} // namespace

TEST(Streaming, ProgressFramesThenExactlyOneResult)
{
    TempPath sock("stream_basic.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();
    CampaignClient probe(fastClient(sock.str()));
    ASSERT_TRUE(probe.waitReady(std::chrono::seconds(10)));

    StreamLog log =
        streamSubmit(sock.str(), spinRequest("st-1", 250));

    // A 250 ms spin at a 20 ms progress period must surface at
    // least 3 rate-limited frames before the terminal result.
    EXPECT_GE(log.progress.size(), 3u);
    ASSERT_EQ(log.results.size(), 1u);
    EXPECT_EQ(log.garbled, 0u);
    expectMonotoneSeq(log);
    EXPECT_EQ(log.results[0].at("status").asString(), "ok");

    // Frames report the request's life: elapsed advances, and the
    // spin campaign publishes workDone/workTotal while running.
    bool sawRunningWork = false;
    for (const Json &p : log.progress) {
        EXPECT_EQ(p.at("id").asString(), "st-1");
        const std::string state = p.getString("state", "?");
        EXPECT_TRUE(state == "queued" || state == "running");
        if (state == "running" && p.getU64("workTotal", 0) == 250
            && p.getU64("workDone", 0) > 0)
            sawRunningWork = true;
    }
    EXPECT_TRUE(sawRunningWork);

    // The supervisor tick heartbeat reached the frames.
    EXPECT_GT(log.progress.back().getU64("heartbeats", 0), 0u);

    EXPECT_TRUE(server.stop());
}

TEST(Streaming, NonStreamingSubmitGetsNoProgressFrames)
{
    TempPath sock("stream_off.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();
    CampaignClient probe(fastClient(sock.str()));
    ASSERT_TRUE(probe.waitReady(std::chrono::seconds(10)));

    RawStream s(sock.str());
    ASSERT_TRUE(s.ok());
    Request req = spinRequest("off-1", 120);
    ASSERT_TRUE(s.send(req.toJson().dump()));
    std::string line = s.nextLine(std::chrono::seconds(10));
    ASSERT_FALSE(line.empty());
    Json j = Json::parse(line);
    // First (and only) frame is already the result.
    EXPECT_EQ(j.at("type").asString(), "result");
    EXPECT_TRUE(server.stop());
}

TEST(Streaming, SurvivesDroppedAndDelayedProgressFrames)
{
    TempPath sock("stream_faults.sock");
    CampaignServer::Params p = fastServer(sock.str());
    // Drop every 2nd and delay every 3rd progress frame. The same
    // plan governs result responses on their own cadence; with one
    // submit the single result (tick 1) fires neither fault.
    p.faults.dropEveryN = 2;
    p.faults.delayEveryN = 3;
    p.faults.delayMs = 30;
    CampaignServer server(p);
    server.start();
    CampaignClient probe(fastClient(sock.str()));
    ASSERT_TRUE(probe.waitReady(std::chrono::seconds(10)));

    StreamLog log =
        streamSubmit(sock.str(), spinRequest("flt-1", 400));

    // Terminal contract under fire: exactly one result, nothing
    // after it, and the frames that did arrive stay monotone (the
    // drops show as seq gaps, never as reordering).
    ASSERT_EQ(log.results.size(), 1u);
    EXPECT_EQ(log.results[0].at("status").asString(), "ok");
    EXPECT_GE(log.progress.size(), 3u);
    expectMonotoneSeq(log);
    std::uint64_t maxSeq = log.progress.back().getU64("seq", 0);
    // Dropped frames consumed seqs: the top seq must exceed the
    // delivered count, proving the gaps are real.
    EXPECT_GT(maxSeq, std::uint64_t(log.progress.size()));

    // The server counted the injected faults.
    auto snap = server.metricsSnapshot();
    EXPECT_GT(
        snap.counterValue("campaignd_faults_injected_total"), 0u);
    EXPECT_TRUE(server.stop());
}

TEST(Streaming, HealthCountersReconcileWithClientOutcomes)
{
    TempPath sock("health_rec.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();
    CampaignClient client(fastClient(sock.str()));
    ASSERT_TRUE(client.waitReady(std::chrono::seconds(10)));

    // A deterministic little history:
    //   3 distinct executions,
    //   1 duplicate id (replayed, no new execution),
    //   1 fresh id with a known (config, seed) (memo hit).
    for (int i = 0; i < 3; ++i) {
        auto r = client.submit(
            spinRequest("h-" + std::to_string(i), 20,
                        std::uint64_t(i + 1)));
        ASSERT_EQ(r.outcome, CampaignClient::Outcome::ok);
    }
    auto dup = client.submit(spinRequest("h-0", 20, 1));
    ASSERT_EQ(dup.outcome, CampaignClient::Outcome::ok);
    auto memo = client.submit(spinRequest("h-new", 20, 2));
    ASSERT_EQ(memo.outcome, CampaignClient::Outcome::ok);
    EXPECT_EQ(memo.response.at("outcome").asString(), "memo");

    // The health endpoint over the wire, JSON form.
    auto health = client.health();
    ASSERT_EQ(health.outcome, CampaignClient::Outcome::ok);
    const Json &m = health.response.at("metrics");
    const Json &c = m.at("counters");
    EXPECT_EQ(c.at("campaignd_submitted_total").asU64(), 5u);
    EXPECT_EQ(c.at("campaignd_accepted_total").asU64(), 3u);
    EXPECT_EQ(c.at("campaignd_executions_total").asU64(), 3u);
    EXPECT_EQ(c.at("campaignd_duplicates_total").asU64(), 1u);
    EXPECT_EQ(c.at("campaignd_memo_hits_total").asU64(), 1u);
    // Only the 3 executed originals missed: the replay answers
    // before the memo probe, the memo hit never reaches the miss
    // counter.
    EXPECT_EQ(c.at("campaignd_memo_misses_total").asU64(), 3u);
    // completed = 3 executions + 1 memo fast path (the replay
    // answers from the done window without re-completing).
    EXPECT_EQ(c.at("campaignd_completed_total").asU64(), 4u);
    const Json &g = m.at("gauges");
    EXPECT_EQ(g.at("campaignd_inflight").asI64(), 0);
    EXPECT_EQ(g.at("campaignd_running").asI64(), 0);
    EXPECT_EQ(g.at("campaignd_queue_depth").asI64(), 0);

    // Histogram coherence over the wire: count == sum(buckets).
    const Json &hist =
        m.at("histograms").at("campaignd_exec_ms");
    std::uint64_t total = 0;
    for (const Json &b : hist.at("buckets").items())
        total += b.asU64();
    EXPECT_EQ(hist.at("count").asU64(), total);
    EXPECT_EQ(total, 3u); // one exec histogram entry per execution

    // And the Prometheus exposition agrees on the counters.
    auto prom = client.health("prometheus");
    ASSERT_EQ(prom.outcome, CampaignClient::Outcome::ok);
    const std::string text =
        prom.response.at("text").asString();
    EXPECT_NE(text.find("# TYPE campaignd_submitted_total "
                        "counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("campaignd_submitted_total 5\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("campaignd_exec_ms_bucket{le=\"+Inf\"} 3\n"),
        std::string::npos);

    // The sampler ticked while all this ran.
    EXPECT_GT(c.at("campaignd_sampler_ticks_total").asU64(), 0u);
    EXPECT_TRUE(server.stop());
}

TEST(Streaming, TraceAttributionSumsToClientLatency)
{
    TempPath sock("trace_sum.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();
    CampaignClient client(fastClient(sock.str()));
    ASSERT_TRUE(client.waitReady(std::chrono::seconds(10)));

    Request req = spinRequest("tr-1", 150);
    req.traceId = 77;

    const auto t0 = Clock::now();
    auto rep = client.submit(req);
    const auto e2eUs = std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - t0)
            .count());
    ASSERT_EQ(rep.outcome, CampaignClient::Outcome::ok);

    const Json &trace = rep.response.at("trace");
    EXPECT_EQ(trace.at("id").asU64(), 77u);
    const std::uint64_t queueUs = trace.at("queueUs").asU64();
    const std::uint64_t execUs = trace.at("execUs").asU64();
    const std::uint64_t serializeUs =
        trace.at("serializeUs").asU64();
    const std::uint64_t totalUs = trace.at("totalUs").asU64();

    // Exact partition: the three stages sum to the reported total.
    EXPECT_EQ(totalUs, queueUs + execUs + serializeUs);
    // The execution stage contains the 150 ms spin.
    EXPECT_GE(execUs, 140000u);
    // Server-side total is bounded by what the client saw, and the
    // client-side overhead (connect, write, read, parse) accounts
    // for the remainder to within one sampler period's slack.
    EXPECT_LE(totalUs, e2eUs);
    EXPECT_LE(e2eUs - totalUs, 100000u);

    // A server-assigned id when the client offers none.
    auto rep2 = client.submit(spinRequest("tr-2", 20, 2));
    ASSERT_EQ(rep2.outcome, CampaignClient::Outcome::ok);
    EXPECT_NE(rep2.response.at("trace").at("id").asU64(), 0u);

    EXPECT_TRUE(server.stop());
}

TEST(Streaming, MemoHitCarriesZeroQueueAndExecAttribution)
{
    TempPath sock("trace_memo.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();
    CampaignClient client(fastClient(sock.str()));
    ASSERT_TRUE(client.waitReady(std::chrono::seconds(10)));

    auto first = client.submit(spinRequest("m-1", 30));
    ASSERT_EQ(first.outcome, CampaignClient::Outcome::ok);
    auto hit = client.submit(spinRequest("m-2", 30));
    ASSERT_EQ(hit.outcome, CampaignClient::Outcome::ok);
    ASSERT_EQ(hit.response.at("outcome").asString(), "memo");

    const Json &trace = hit.response.at("trace");
    EXPECT_EQ(trace.at("queueUs").asU64(), 0u);
    EXPECT_EQ(trace.at("execUs").asU64(), 0u);
    EXPECT_EQ(trace.at("totalUs").asU64(),
              trace.at("serializeUs").asU64());
    EXPECT_TRUE(server.stop());
}

TEST(Streaming, BlownDrainLogsStructuredStragglerLines)
{
    TempPath sock("drain_log.sock");
    CampaignServer::Params p = fastServer(sock.str());
    p.workers = 1;
    p.drainTimeout = std::chrono::milliseconds(50);
    CampaignServer server(p);
    server.start();
    CampaignClient probe(fastClient(sock.str()));
    ASSERT_TRUE(probe.waitReady(std::chrono::seconds(10)));

    // One long spin occupying the only worker, one queued behind
    // it; the 50 ms drain budget cannot cover the 2 s spin, so
    // stop() must cancel both and log each as a structured line.
    std::thread runner([&] {
        CampaignClient c(fastClient(sock.str()));
        Request r = spinRequest("straggler-run", 2000);
        r.deadlineMs = 30000;
        c.submit(r);
    });
    std::thread queued([&] {
        CampaignClient c(fastClient(sock.str()));
        c.submit(spinRequest("straggler-q", 2000, 2));
    });
    // Let both reach the server before draining.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(server.stop()); // dirty drain by construction
    std::string err = ::testing::internal::GetCapturedStderr();
    runner.join();
    queued.join();

    EXPECT_NE(err.find("drain-cancel"), std::string::npos);
    EXPECT_NE(err.find("\"id\":\"straggler-run\""),
              std::string::npos);
    EXPECT_NE(err.find("\"state\":\"running\""),
              std::string::npos);
    EXPECT_NE(err.find("\"id\":\"straggler-q\""),
              std::string::npos);
    EXPECT_NE(err.find("\"state\":\"queued\""),
              std::string::npos);
    EXPECT_NE(err.find("\"deadlineRemainingMs\":"),
              std::string::npos);

    auto snap = server.metricsSnapshot();
    EXPECT_EQ(
        snap.counterValue("campaignd_drain_cancelled_total"), 2u);
}
