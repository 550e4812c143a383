/**
 * @file
 * Campaign server end to end over a real Unix socket: admission
 * and shedding, idempotent ids (coalesce + replay), memoization
 * and its byte-identity contract, deadlines in the queue and in
 * execution, priority ordering, and the drain/restart cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>
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

Request
soakRequest(const std::string &id, std::uint64_t seed)
{
    Request r;
    r.id = id;
    r.kind = "ras_soak";
    r.seed = seed;
    r.config = Json::object();
    r.config.set("ops", Json::number(std::uint64_t(48)));
    return r;
}

std::string
payloadText(const Json &response)
{
    return response.at("payload").dump();
}

/** This process's virtual size, from /proc/self/status. */
std::int64_t
vmSizeKiB()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmSize:", 0) == 0)
            return std::stoll(line.substr(7));
    return -1;
}

TEST(CampaignServer, ComputesThenMemoizes)
{
    TempPath sock("srv_memo.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();
    CampaignClient client(fastClient(sock.str()));
    ASSERT_TRUE(client.waitReady(std::chrono::seconds(10)));

    auto first = client.submit(soakRequest("a-1", 7));
    ASSERT_EQ(first.outcome, CampaignClient::Outcome::ok);
    EXPECT_EQ(first.response.at("status").asString(), "ok");
    EXPECT_EQ(first.response.at("outcome").asString(), "ok");

    // Different id, same (config, seed): answered from the memo,
    // byte-identical payload.
    auto second = client.submit(soakRequest("a-2", 7));
    ASSERT_EQ(second.outcome, CampaignClient::Outcome::ok);
    EXPECT_EQ(second.response.at("outcome").asString(), "memo");
    EXPECT_EQ(payloadText(second.response),
              payloadText(first.response));

    // Different seed: computed, different fingerprint key.
    auto third = client.submit(soakRequest("a-3", 8));
    ASSERT_EQ(third.outcome, CampaignClient::Outcome::ok);
    EXPECT_EQ(third.response.at("outcome").asString(), "ok");
    EXPECT_EQ(third.response.at("configHash").asString(),
              first.response.at("configHash").asString());

    EXPECT_EQ(counter(server, "campaignd_executions_total"), 2u);
    EXPECT_EQ(counter(server, "campaignd_memo_hits_total"), 1u);
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServer, DuplicateInFlightIdsCoalesce)
{
    TempPath sock("srv_dup.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();

    // Three concurrent submits of the SAME id: one execution, three
    // identical answers.
    std::vector<CampaignClient::Reply> replies(3);
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i)
        threads.emplace_back([&, i] {
            CampaignClient c(fastClient(sock.str()));
            replies[i] = c.submit(spinRequest("same-id", 150));
        });
    for (auto &t : threads)
        t.join();
    for (const auto &r : replies) {
        ASSERT_EQ(r.outcome, CampaignClient::Outcome::ok);
        EXPECT_EQ(r.response.at("status").asString(), "ok");
        EXPECT_EQ(payloadText(r.response),
                  payloadText(replies[0].response));
    }
    EXPECT_EQ(counter(server, "campaignd_executions_total"), 1u);
    EXPECT_EQ(counter(server, "campaignd_duplicates_total"), 2u);

    // A late duplicate replays the completed response.
    CampaignClient c(fastClient(sock.str()));
    auto replay = c.submit(spinRequest("same-id", 150));
    ASSERT_EQ(replay.outcome, CampaignClient::Outcome::ok);
    EXPECT_EQ(payloadText(replay.response),
              payloadText(replies[0].response));
    EXPECT_EQ(counter(server, "campaignd_executions_total"), 1u);
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServer, ConcurrentFreshIdsWithOneKeySingleFlight)
{
    TempPath sock("srv_keyflight.sock");
    auto sp = fastServer(sock.str());
    sp.workers = 3; // enough workers to run twins concurrently
    CampaignServer server(sp);
    server.start();

    // Three concurrent submits with DISTINCT ids but the same
    // (config, seed): single-flight must hold them to one
    // execution even though all three could run at once.
    std::vector<CampaignClient::Reply> replies(3);
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i)
        threads.emplace_back([&, i] {
            CampaignClient c(fastClient(sock.str()));
            replies[i] = c.submit(spinRequest(
                "fresh-" + std::to_string(i), 150, 77));
        });
    for (auto &t : threads)
        t.join();
    for (const auto &r : replies) {
        ASSERT_EQ(r.outcome, CampaignClient::Outcome::ok);
        EXPECT_EQ(r.response.at("status").asString(), "ok");
        EXPECT_EQ(payloadText(r.response),
                  payloadText(replies[0].response));
    }
    EXPECT_EQ(counter(server, "campaignd_executions_total"), 1u);
    // The two followers.
    EXPECT_EQ(counter(server, "campaignd_memo_hits_total"), 2u);
    // Ids were all distinct.
    EXPECT_EQ(counter(server, "campaignd_duplicates_total"), 0u);
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServer, FullQueueShedsWithRetryAfter)
{
    auto p = fastServer(
        (::testing::TempDir() + "srv_shed.sock"));
    p.workers = 1;
    p.queueCap = 1;
    p.shedRetryAfterMs = 35;
    CampaignServer server(p);
    server.start();

    // Occupy the worker, fill the queue, then overflow it.
    std::thread blocker([&] {
        CampaignClient c(fastClient(p.socketPath));
        auto r = c.submit(spinRequest("blocker", 600));
        EXPECT_EQ(r.outcome, CampaignClient::Outcome::ok);
    });
    std::thread filler([&] {
        CampaignClient c(fastClient(p.socketPath));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
        // Distinct seed: same key as the blocker or the overflow
        // request would single-flight instead of costing a slot.
        auto r = c.submit(spinRequest("filler", 10, 2));
        EXPECT_EQ(r.outcome, CampaignClient::Outcome::ok);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    auto cp = fastClient(p.socketPath);
    cp.maxAttempts = 1; // surface the shed instead of retrying
    CampaignClient c(cp);
    auto shed = c.submit(spinRequest("overflow", 10, 3));
    EXPECT_EQ(shed.outcome, CampaignClient::Outcome::shedGiveUp);
    EXPECT_EQ(shed.response.at("reason").asString(), "queue full");
    EXPECT_GE(shed.response.at("retryAfterMs").asU64(), 35u);

    // With retries allowed, the same request eventually lands.
    cp.maxAttempts = 64;
    CampaignClient retry(cp);
    auto ok = retry.submit(spinRequest("overflow", 10, 3));
    EXPECT_EQ(ok.outcome, CampaignClient::Outcome::ok);
    EXPECT_GE(ok.shedRetries, 0u);

    blocker.join();
    filler.join();
    EXPECT_GE(counter(server, "campaignd_shed_total"), 1u);
    EXPECT_GE(gauge(server, "campaignd_queue_peak"), 1);
    EXPECT_LE(gauge(server, "campaignd_queue_peak"),
              std::int64_t(p.queueCap));
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServer, DrainingShedsNewWork)
{
    TempPath sock("srv_drain_shed.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();
    server.requestDrain();

    auto cp = fastClient(sock.str());
    cp.maxAttempts = 1;
    CampaignClient c(cp);
    auto shed = c.submit(spinRequest("late", 10));
    EXPECT_EQ(shed.outcome, CampaignClient::Outcome::shedGiveUp);
    EXPECT_EQ(shed.response.at("reason").asString(), "draining");
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServer, DeadlinesExpireInExecutionAndInQueue)
{
    auto p = fastServer(
        (::testing::TempDir() + "srv_deadline.sock"));
    p.workers = 1;
    CampaignServer server(p);
    server.start();
    CampaignClient client(fastClient(p.socketPath));

    // Execution overrun: the supervisor watchdog cancels the spin.
    Request slow = spinRequest("slow", 10'000);
    slow.deadlineMs = 80;
    const auto t0 = Clock::now();
    auto r = client.submit(slow);
    ASSERT_EQ(r.outcome, CampaignClient::Outcome::ok);
    EXPECT_EQ(r.response.at("status").asString(), "timeout");
    EXPECT_EQ(r.response.at("outcome").asString(), "timedOut");
    EXPECT_LT(Clock::now() - t0, std::chrono::seconds(8));

    // Queue-wait overrun: answered without burning the worker.
    std::thread blocker([&] {
        CampaignClient c(fastClient(p.socketPath));
        auto br = c.submit(spinRequest("blocker", 400));
        EXPECT_EQ(br.outcome, CampaignClient::Outcome::ok);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Request doomed = spinRequest("doomed", 10);
    doomed.deadlineMs = 50; // expires while the blocker runs
    auto dr = client.submit(doomed);
    blocker.join();
    ASSERT_EQ(dr.outcome, CampaignClient::Outcome::ok);
    EXPECT_EQ(dr.response.at("status").asString(), "timeout");
    EXPECT_EQ(dr.response.at("outcome").asString(),
              "expiredInQueue");
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServer, PriorityOrdersTheQueue)
{
    auto p = fastServer(
        (::testing::TempDir() + "srv_prio.sock"));
    p.workers = 1;
    CampaignServer server(p);
    server.start();

    // Occupy the single worker, then queue three requests with
    // priorities 1, 5, 3 (in that arrival order). Completion order
    // must be 5, 3, 1.
    std::thread blocker([&] {
        CampaignClient c(fastClient(p.socketPath));
        c.submit(spinRequest("blocker", 500));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(120));

    std::mutex mtx;
    std::vector<std::string> order;
    auto submitAt = [&](const std::string &id,
                        std::int64_t priority) {
        // Distinct seeds: same-key requests would single-flight
        // onto the first admission instead of queueing.
        Request r = spinRequest(id, 120,
                                std::uint64_t(priority));
        r.priority = priority;
        CampaignClient c(fastClient(p.socketPath));
        auto rep = c.submit(r);
        EXPECT_EQ(rep.outcome, CampaignClient::Outcome::ok);
        std::lock_guard<std::mutex> lk(mtx);
        order.push_back(id);
    };
    std::vector<std::thread> threads;
    threads.emplace_back(submitAt, "low", 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    threads.emplace_back(submitAt, "high", 5);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    threads.emplace_back(submitAt, "mid", 3);
    for (auto &t : threads)
        t.join();
    blocker.join();

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "high");
    EXPECT_EQ(order[1], "mid");
    EXPECT_EQ(order[2], "low");
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServer, MalformedRequestsGetErrorResponses)
{
    TempPath sock("srv_err.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();
    CampaignClient probe(fastClient(sock.str()));
    ASSERT_TRUE(probe.waitReady(std::chrono::seconds(10)));

    // Raw garbage on the wire.
    RawStream raw(sock.str());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw.send("this is not json"));
    Json err = Json::parse(raw.nextLine(std::chrono::seconds(10)));
    EXPECT_EQ(err.at("type").asString(), "error");

    // Well-formed JSON, invalid request: unknown kind and unknown
    // knob both answered as protocol errors, not executions.
    CampaignClient client(fastClient(sock.str()));
    Request bad = spinRequest("bad", 10);
    bad.kind = "warp_drive";
    auto r = client.submit(bad);
    EXPECT_EQ(r.outcome, CampaignClient::Outcome::error);

    Request typo = spinRequest("typo", 10);
    typo.config = Json::object();
    typo.config.set("spinMz", Json::number(std::uint64_t(5)));
    auto r2 = client.submit(typo);
    EXPECT_EQ(r2.outcome, CampaignClient::Outcome::error);

    // The counters are read through health alone: a stats request
    // is an unknown type like any other.
    ASSERT_TRUE(raw.send("{\"type\":\"stats\"}"));
    Json gone = Json::parse(raw.nextLine(std::chrono::seconds(10)));
    EXPECT_EQ(gone.at("type").asString(), "error");
    EXPECT_EQ(gone.at("message").asString(),
              "unknown request type 'stats'");

    EXPECT_GE(counter(server, "campaignd_protocol_errors_total"), 4u);
    EXPECT_EQ(counter(server, "campaignd_executions_total"), 0u);
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServer, MemoSurvivesDrainAndRestart)
{
    TempPath sock("srv_restart.sock");
    TempPath memo("srv_restart.memo");
    std::string firstPayload;
    {
        auto p = fastServer(sock.str());
        p.memoPath = memo.str();
        CampaignServer server(p);
        server.start();
        CampaignClient client(fastClient(sock.str()));
        auto r = client.submit(soakRequest("gen1", 21));
        ASSERT_EQ(r.outcome, CampaignClient::Outcome::ok);
        firstPayload = payloadText(r.response);
        EXPECT_TRUE(server.stop()); // persists the memo index
    }
    {
        auto p = fastServer(sock.str());
        p.memoPath = memo.str();
        CampaignServer server(p);
        server.start(); // warms from the persisted index
        CampaignClient client(fastClient(sock.str()));
        auto r = client.submit(soakRequest("gen2", 21));
        ASSERT_EQ(r.outcome, CampaignClient::Outcome::ok);
        EXPECT_EQ(r.response.at("outcome").asString(), "memo");
        EXPECT_EQ(payloadText(r.response), firstPayload);
        EXPECT_EQ(counter(server, "campaignd_executions_total"),
                  0u);
        EXPECT_TRUE(server.stop());
    }
}

TEST(CampaignServer, FinishedConnectionsAreReaped)
{
    TempPath sock("srv_reap.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();
    CampaignClient probe(fastClient(sock.str()));
    ASSERT_TRUE(probe.waitReady(std::chrono::seconds(10)));

    // One handler thread per connection; an exited one keeps its
    // stack mapped until joined, so a daemon scraped once a second
    // must join finished handlers as it goes, not only at stop().
    const std::int64_t before = vmSizeKiB();
    ASSERT_GT(before, 0);
    for (int i = 0; i < 300; ++i) {
        RawStream s(sock.str());
        ASSERT_TRUE(s.ok());
        ASSERT_TRUE(s.send("{\"type\":\"ping\"}"));
        ASSERT_EQ(Json::parse(s.nextLine(std::chrono::seconds(10)))
                      .at("type")
                      .asString(),
                  "pong");
    }
    const std::int64_t grownKiB = vmSizeKiB() - before;
    EXPECT_LT(grownKiB, 64 * 1024)
        << "300 one-shot connections grew VmSize by " << grownKiB
        << " KiB";
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServer, FuzzedFramesGetOneAsciiAnswerEach)
{
    TempPath sock("srv_fuzz.sock");
    CampaignServer server(fastServer(sock.str()));
    server.start();
    CampaignClient probe(fastClient(sock.str()));
    ASSERT_TRUE(probe.waitReady(std::chrono::seconds(10)));

    Request spin = spinRequest("fuzz", 1);
    spin.deadlineMs = 200;
    const std::vector<std::string> frames{
        "{\"type\":\"ping\"}",
        "{\"type\":\"health\"}",
        "{\"type\":\"health\",\"format\":\"prometheus\"}",
        spin.toJson().dump(),
    };
    // Every truncation and every single-bit flip that keeps the
    // frame on one line.
    std::vector<std::string> cases;
    for (const std::string &f : frames) {
        for (std::size_t n = 1; n < f.size(); ++n)
            cases.push_back(f.substr(0, n));
        for (std::size_t i = 0; i < f.size(); ++i)
            for (unsigned bit = 0; bit < 8; ++bit) {
                std::string m = f;
                m[i] = char(m[i] ^ (1u << bit));
                if (m[i] != '\n')
                    cases.push_back(std::move(m));
            }
    }

    const std::set<std::string> answers{"error", "result", "shed",
                                        "pong", "health"};
    auto ascii = [](const std::string &line) {
        return std::all_of(line.begin(), line.end(), [](char c) {
            return static_cast<unsigned char>(c) < 0x80;
        });
    };
    for (const std::string &c : cases) {
        // The case itself may be binary: report it escaped.
        const std::string shown = Json::string(c).dump();
        RawStream s(sock.str());
        ASSERT_TRUE(s.ok());
        ASSERT_TRUE(s.send(c));
        const std::string line =
            s.nextLine(std::chrono::seconds(10));
        ASSERT_FALSE(line.empty()) << "no answer to " << shown;
        ASSERT_TRUE(ascii(line))
            << "non-ASCII answer to " << shown << ": " << line;
        Json j;
        ASSERT_NO_THROW(j = Json::parse(line))
            << "unparseable answer to " << shown << ": " << line;
        ASSERT_EQ(answers.count(j.getString("type", "")), 1u)
            << "answer to " << shown << ": " << line;
        // Exactly one answer: the next line is the ping's.
        ASSERT_TRUE(s.send("{\"type\":\"ping\"}"));
        ASSERT_EQ(Json::parse(s.nextLine(std::chrono::seconds(10)))
                      .getString("type", ""),
                  "pong")
            << "after " << shown;
    }
    EXPECT_TRUE(server.stop());
}

} // namespace
