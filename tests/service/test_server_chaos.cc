/**
 * @file
 * Service-layer chaos: with responses delayed, dropped and
 * truncated and workers crashing on a deterministic cadence, the
 * retrying client still gets every request answered exactly once,
 * payloads stay byte-identical per (config hash, seed), and a
 * drain under load answers everything it admitted.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/server.hh"
#include "harness.hh"

using namespace contutto::service;

namespace
{

CampaignClient::Params
chaosClient(const std::string &socket, std::uint64_t jitterSeed)
{
    CampaignClient::Params p;
    p.socketPath = socket;
    p.callTimeout = std::chrono::seconds(120);
    p.responseTimeout = std::chrono::seconds(2);
    p.backoffBase = std::chrono::milliseconds(1);
    p.backoffCap = std::chrono::milliseconds(50);
    p.jitterSeed = jitterSeed;
    p.maxAttempts = 64;
    return p;
}

Request
spinRequest(const std::string &id, std::uint64_t spinMs,
            std::uint64_t seed)
{
    Request r;
    r.id = id;
    r.kind = "spin";
    r.seed = seed;
    r.config = Json::object();
    r.config.set("spinMs", Json::number(spinMs));
    return r;
}

TEST(CampaignServerChaos, FaultyWireStillAnswersExactlyOnce)
{
    CampaignServer::Params p;
    p.socketPath = ::testing::TempDir() + "chaos_wire.sock";
    p.workers = 2;
    p.watchdogInterval = std::chrono::milliseconds(2);
    p.faults.dropEveryN = 3;     // every 3rd result vanishes
    p.faults.truncateEveryN = 4; // every 4th is cut mid-line
    p.faults.delayEveryN = 5;    // every 5th arrives late
    p.faults.delayMs = 20;
    CampaignServer server(p);
    server.start();

    // 12 requests over 4 threads: 8 distinct (config, seed) keys
    // plus 4 verbatim duplicates that must coalesce or memoize.
    const unsigned kDistinct = 8;
    const unsigned kTotal = 12;
    std::vector<CampaignClient::Reply> replies(kTotal);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            CampaignClient client(
                chaosClient(p.socketPath, 100 + t));
            for (unsigned i = t; i < kTotal; i += 4) {
                unsigned logical = i % kDistinct;
                replies[i] = client.submit(spinRequest(
                    "chaos-" + std::to_string(logical), 20,
                    logical + 1));
            }
        });
    for (auto &t : threads)
        t.join();

    // Every request answered ok, and answers for the same key are
    // byte-identical however they were produced (computed, memo,
    // replay after a dropped response).
    std::map<std::string, std::string> byId;
    for (unsigned i = 0; i < kTotal; ++i) {
        ASSERT_EQ(replies[i].outcome, CampaignClient::Outcome::ok)
            << "request " << i << ": " << replies[i].error;
        EXPECT_EQ(replies[i].response.at("status").asString(),
                  "ok");
        const std::string id =
            replies[i].response.at("id").asString();
        const std::string payload =
            replies[i].response.at("payload").dump();
        auto [it, fresh] = byId.emplace(id, payload);
        if (!fresh) {
            EXPECT_EQ(it->second, payload)
                << "divergent payload for " << id;
        }
    }

    EXPECT_GT(counter(server, "campaignd_faults_injected_total"), 0u);
    // At-most-one execution per distinct key, however many times
    // the wire forced a resubmit.
    EXPECT_EQ(counter(server, "campaignd_executions_total"), kDistinct);
    EXPECT_GE(counter(server, "campaignd_duplicates_total")
                  + counter(server, "campaignd_memo_hits_total"),
              kTotal - kDistinct);
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServerChaos, MemoHitSurvivesDroppedResponse)
{
    // Regression: a memo-hit response that lands on a fault tick
    // once self-deadlocked the server (respond() re-took the stats
    // lock the memo path was still holding), wedging every later
    // connection. Drive a memo hit straight into a dropped
    // response and insist the retry is answered.
    CampaignServer::Params p;
    p.socketPath = ::testing::TempDir() + "chaos_memo_drop.sock";
    p.workers = 1;
    p.watchdogInterval = std::chrono::milliseconds(2);
    p.faults.dropEveryN = 2; // 2nd faultable response: the memo hit
    CampaignServer server(p);
    server.start();

    CampaignClient client(chaosClient(p.socketPath, 9));
    auto first = client.submit(spinRequest("memo-a", 10, 42));
    ASSERT_EQ(first.outcome, CampaignClient::Outcome::ok);

    // Fresh id, same (config, seed): served from the memo. The
    // drop eats the first answer; the retry must get through.
    auto second = client.submit(spinRequest("memo-b", 10, 42));
    ASSERT_EQ(second.outcome, CampaignClient::Outcome::ok);
    EXPECT_EQ(second.response.at("outcome").asString(), "memo");
    EXPECT_EQ(second.response.at("payload").dump(),
              first.response.at("payload").dump());
    EXPECT_GT(second.attempts, 1u);

    // And the server is still responsive, not wedged.
    EXPECT_GE(counter(server, "campaignd_memo_hits_total"), 2u);
    EXPECT_GT(counter(server, "campaignd_faults_injected_total"), 0u);
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServerChaos, ResultFrameFaultsAreCounted)
{
    // A fault on a result frame counts in the registry like any
    // other, so health shows the torn answer the client saw.
    using Plan = CampaignServer::FaultPlan;
    struct Case
    {
        const char *name;
        unsigned Plan::*every;
        bool delivered; ///< the result line still arrives whole
    };
    for (const Case &c : {Case{"drop", &Plan::dropEveryN, false},
                          Case{"truncate", &Plan::truncateEveryN,
                               false},
                          Case{"delay", &Plan::delayEveryN, true}}) {
        SCOPED_TRACE(c.name);
        TempPath sock(std::string("chaos_count_") + c.name + ".sock");
        CampaignServer::Params p;
        p.socketPath = sock.str();
        p.workers = 1;
        p.watchdogInterval = std::chrono::milliseconds(2);
        p.faults.delayMs = 1;
        p.faults.*c.every = 1;
        CampaignServer server(p);
        server.start();

        RawStream s(sock.str());
        ASSERT_TRUE(s.ok());
        ASSERT_TRUE(
            s.send(spinRequest("torn", 1, 1).toJson().dump()));
        const std::string line =
            s.nextLine(std::chrono::seconds(10));
        EXPECT_EQ(!line.empty(), c.delivered);
        EXPECT_EQ(
            counter(server, "campaignd_faults_injected_total"), 1u);
        EXPECT_TRUE(server.stop());
    }
}

TEST(CampaignServerChaos, InjectedWorkerCrashesAreAbsorbed)
{
    CampaignServer::Params p;
    p.socketPath = ::testing::TempDir() + "chaos_crash.sock";
    p.workers = 2;
    p.watchdogInterval = std::chrono::milliseconds(2);
    p.attempts = 2;
    p.faults.crashEveryN = 1; // every execution crashes once
    CampaignServer server(p);
    server.start();

    CampaignClient client(chaosClient(p.socketPath, 7));
    for (unsigned i = 0; i < 4; ++i) {
        auto r = client.submit(spinRequest(
            "crashy-" + std::to_string(i), 10, i + 1));
        ASSERT_EQ(r.outcome, CampaignClient::Outcome::ok);
        EXPECT_EQ(r.response.at("status").asString(), "ok");
        // The supervisor's retry ladder absorbed the crash.
        EXPECT_EQ(r.response.at("outcome").asString(),
                  "okRetried");
    }
    EXPECT_EQ(counter(server, "campaignd_executions_total"), 4u);
    EXPECT_GE(counter(server, "campaignd_faults_injected_total"), 4u);
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServerChaos, CrashRetryExhaustionIsAnExplicitError)
{
    CampaignServer::Params p;
    p.socketPath = ::testing::TempDir() + "chaos_exhaust.sock";
    p.workers = 1;
    p.watchdogInterval = std::chrono::milliseconds(2);
    p.attempts = 1; // the injected crash has no retry to hide in
    p.faults.crashEveryN = 1;
    CampaignServer server(p);
    server.start();

    CampaignClient client(chaosClient(p.socketPath, 8));
    auto r = client.submit(spinRequest("doomed", 10, 1));
    ASSERT_EQ(r.outcome, CampaignClient::Outcome::ok);
    EXPECT_EQ(r.response.at("status").asString(), "error");
    EXPECT_EQ(r.response.at("outcome").asString(), "quarantined");
    EXPECT_EQ(counter(server, "campaignd_failed_total"), 1u);
    EXPECT_TRUE(server.stop());
}

TEST(CampaignServerChaos, DrainUnderLoadAnswersEverything)
{
    CampaignServer::Params p;
    p.socketPath = ::testing::TempDir() + "chaos_drain.sock";
    p.workers = 2;
    p.watchdogInterval = std::chrono::milliseconds(2);
    CampaignServer server(p);
    server.start();

    // A burst of 8 clients; the drain lands mid-burst. Every
    // submit must get an explicit answer: a result for admitted
    // work, a shed for late arrivals — never silence.
    std::atomic<unsigned> ok{0}, shed{0}, other{0};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < 8; ++i)
        threads.emplace_back([&, i] {
            auto cp = chaosClient(p.socketPath, 200 + i);
            cp.maxAttempts = 1; // a drain shed is terminal here
            CampaignClient client(cp);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10 * i));
            auto r = client.submit(spinRequest(
                "drain-" + std::to_string(i), 80, i + 1));
            if (r.outcome == CampaignClient::Outcome::ok)
                ++ok;
            else if (r.outcome
                     == CampaignClient::Outcome::shedGiveUp)
                ++shed;
            else
                ++other;
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(35));
    server.requestDrain();
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(other.load(), 0u);
    EXPECT_EQ(ok.load() + shed.load(), 8u);
    EXPECT_GT(ok.load(), 0u); // the early ones got in
    EXPECT_TRUE(server.stop());

    EXPECT_EQ(counter(server, "campaignd_completed_total")
                  + counter(server, "campaignd_shed_total"),
              counter(server, "campaignd_submitted_total"));
    EXPECT_EQ(gauge(server, "campaignd_running"), 0);
    EXPECT_EQ(gauge(server, "campaignd_queue_depth"), 0);
}

TEST(CampaignServerChaos, BlownDrainBudgetCancelsButStillAnswers)
{
    CampaignServer::Params p;
    p.socketPath = ::testing::TempDir() + "chaos_budget.sock";
    p.workers = 1;
    p.watchdogInterval = std::chrono::milliseconds(2);
    p.cancelGrace = std::chrono::milliseconds(500);
    p.drainTimeout = std::chrono::milliseconds(60);
    CampaignServer server(p);
    server.start();

    // One long spin in flight and one queued behind it; the drain
    // budget (60 ms) expires long before either would finish.
    std::vector<CampaignClient::Reply> replies(2);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < 2; ++i)
        threads.emplace_back([&, i] {
            CampaignClient client(
                chaosClient(p.socketPath, 300 + i));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20 * i));
            replies[i] = client.submit(spinRequest(
                "straggler-" + std::to_string(i), 5000, i + 1));
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(server.stop()); // dirty: stragglers cancelled
    for (auto &t : threads)
        t.join();

    for (unsigned i = 0; i < 2; ++i) {
        ASSERT_EQ(replies[i].outcome, CampaignClient::Outcome::ok)
            << "straggler " << i << " got silence: "
            << replies[i].error;
        EXPECT_EQ(replies[i].response.at("status").asString(),
                  "cancelled");
    }
    EXPECT_EQ(counter(server, "campaignd_cancelled_total"), 2u);
    EXPECT_EQ(counter(server, "campaignd_completed_total"),
              counter(server, "campaignd_submitted_total"));
}

} // namespace
