/**
 * @file
 * campaign_client: burst driver for the campaign service.
 *
 * Submits a burst of requests — optionally duplicated, mixed
 * priority, deadline-bounded — from worker threads, each through
 * the retrying CampaignClient, and prints one JSON line per
 * answered request plus a final summary line. The smoke/chaos
 * harness parses those lines to assert exactly-once answers and
 * byte-identical payloads across duplicates and restarts.
 *
 *   campaign_client --socket=PATH [--kind=ras_soak|crash|spin]
 *                   [--count=N] [--dup-every=N] [--threads=N]
 *                   [--seed-base=N] [--priority-mod=N]
 *                   [--deadline-ms=N] [--config=JSON]
 *                   [--id-prefix=S] [--jitter-seed=N]
 *                   [--call-timeout-ms=N] [--response-timeout-ms=N]
 *                   [--max-attempts=N]
 *                   [--wait-ready-ms=N]
 *                   [--stream=1] [--trace-id-base=N]
 *                   [--health=json|prometheus]
 *
 * Request i gets id "<prefix>-<i>", seed seed-base + (i %
 * distinct), priority i % priority-mod; with --dup-every=N every
 * Nth request reuses the id AND seed of its predecessor, which
 * must coalesce/memoize server-side to a byte-identical payload.
 *
 * With --stream=1 every submit subscribes to progress frames; the
 * driver renders a live per-key progress line on stderr (carriage-
 * return style on a TTY, one "progress ..." line per frame
 * otherwise, so harnesses can count frames). --trace-id-base=N
 * stamps request i with trace id N+i, which --trace-out on the
 * daemon then turns into per-request Perfetto rows.
 *
 * --health=json prints the daemon's metrics-registry snapshot, its
 * only counter plane, as one JSON line and exits; --health=prometheus
 * prints the same registry as Prometheus text.
 */

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "service/client.hh"

using namespace contutto::service;

namespace
{

const char *
outcomeName(CampaignClient::Outcome o)
{
    switch (o) {
      case CampaignClient::Outcome::ok:
        return "ok";
      case CampaignClient::Outcome::shedGiveUp:
        return "shedGiveUp";
      case CampaignClient::Outcome::timedOut:
        return "timedOut";
      case CampaignClient::Outcome::error:
        return "error";
      case CampaignClient::Outcome::unreachable:
        return "unreachable";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignClient::Params cp;
    cp.socketPath =
        bench::parseFlag(argc, argv, "--socket", "campaignd.sock");
    cp.callTimeout = std::chrono::milliseconds(bench::parseUnsigned(
        argc, argv, "--call-timeout-ms", 30000));
    cp.responseTimeout = std::chrono::milliseconds(
        bench::parseUnsigned(argc, argv, "--response-timeout-ms",
                             5000));
    cp.maxAttempts = unsigned(
        bench::parseUnsigned(argc, argv, "--max-attempts", 16));
    cp.jitterSeed =
        bench::parseUnsigned(argc, argv, "--jitter-seed", 1);

    const std::uint64_t waitReadyMs =
        bench::parseUnsigned(argc, argv, "--wait-ready-ms", 0);
    if (waitReadyMs != 0) {
        CampaignClient probe(cp);
        if (!probe.waitReady(
                std::chrono::milliseconds(waitReadyMs))) {
            std::fprintf(stderr,
                         "campaign_client: server not ready\n");
            return 2;
        }
    }

    const std::string healthFmt =
        bench::parseFlag(argc, argv, "--health");
    if (!healthFmt.empty()) {
        CampaignClient c(cp);
        CampaignClient::Reply r = c.health(
            healthFmt == "prometheus" ? "prometheus" : "");
        if (r.outcome != CampaignClient::Outcome::ok)
            return 2;
        if (healthFmt == "prometheus")
            // Unwrap: the exposition is the useful artifact, not
            // its JSON envelope.
            std::printf(
                "%s",
                r.response.at("text").asString().c_str());
        else
            std::printf("%s\n", r.response.dump().c_str());
        return 0;
    }

    const std::string kind =
        bench::parseFlag(argc, argv, "--kind", "spin");
    const std::string idPrefix =
        bench::parseFlag(argc, argv, "--id-prefix", "req");
    const std::string configText =
        bench::parseFlag(argc, argv, "--config", "{}");
    const unsigned count = unsigned(
        bench::parseUnsigned(argc, argv, "--count", 8));
    const unsigned dupEvery = unsigned(
        bench::parseUnsigned(argc, argv, "--dup-every", 0));
    const unsigned threads = unsigned(
        bench::parseUnsigned(argc, argv, "--threads", 4));
    const std::uint64_t seedBase =
        bench::parseUnsigned(argc, argv, "--seed-base", 1);
    const unsigned distinct = unsigned(
        bench::parseUnsigned(argc, argv, "--distinct", count));
    const unsigned priorityMod = unsigned(
        bench::parseUnsigned(argc, argv, "--priority-mod", 1));
    const std::uint64_t deadlineMs =
        bench::parseUnsigned(argc, argv, "--deadline-ms", 0);
    const bool stream =
        bench::parseFlag(argc, argv, "--stream") == "1"
        || bench::parseFlag(argc, argv, "--stream") == "true";
    const std::uint64_t traceIdBase =
        bench::parseUnsigned(argc, argv, "--trace-id-base", 0);

    Json config;
    try {
        config = Json::parse(configText);
    } catch (const ProtocolError &e) {
        std::fprintf(stderr, "campaign_client: bad --config: %s\n",
                     e.what());
        return 2;
    }

    // Build the whole burst up front so duplication is explicit.
    std::vector<Request> burst;
    for (unsigned i = 0; i < count; ++i) {
        Request r;
        unsigned logical = i;
        if (dupEvery != 0 && i % dupEvery == dupEvery - 1 && i > 0)
            logical = i - 1; // Verbatim duplicate of predecessor.
        r.id = idPrefix + "-" + std::to_string(logical);
        r.kind = kind;
        r.seed = seedBase
                 + (distinct != 0 ? logical % distinct : logical);
        r.priority =
            priorityMod > 1 ? std::int64_t(i % priorityMod) : 0;
        r.deadlineMs = deadlineMs;
        r.stream = stream;
        if (traceIdBase != 0)
            r.traceId = traceIdBase + i;
        r.config = config;
        burst.push_back(std::move(r));
    }

    std::mutex outMtx;
    std::atomic<unsigned> next{0};
    std::atomic<unsigned> ok{0}, shed{0}, timedOut{0}, failed{0};

    std::atomic<unsigned> progressFrames{0};
    const bool liveTty = ::isatty(STDERR_FILENO) == 1;

    auto work = [&](unsigned worker) {
        CampaignClient::Params wp = cp;
        wp.jitterSeed = cp.jitterSeed * 1000003 + worker;
        CampaignClient client(wp);
        if (stream) {
            client.onProgress([&](const Json &frame) {
                ++progressFrames;
                // The live per-key line: id, seq, state and work
                // counts from the frame. On a TTY frames overwrite
                // in place; piped, one line per frame so harnesses
                // can count and order them.
                std::lock_guard<std::mutex> lk(outMtx);
                std::fprintf(
                    stderr,
                    "%sprogress %s seq=%llu %s %llu/%llu hb=%llu "
                    "depth=%llu%s",
                    liveTty ? "\r\x1b[2K" : "",
                    frame.getString("id", "?").c_str(),
                    (unsigned long long)frame.getU64("seq", 0),
                    frame.getString("state", "?").c_str(),
                    (unsigned long long)frame.getU64("workDone",
                                                     0),
                    (unsigned long long)frame.getU64("workTotal",
                                                     0),
                    (unsigned long long)frame.getU64("heartbeats",
                                                     0),
                    (unsigned long long)frame.getU64("queueDepth",
                                                     0),
                    liveTty ? "" : "\n");
            });
        }
        for (;;) {
            unsigned i = next.fetch_add(1);
            if (i >= burst.size())
                return;
            CampaignClient::Reply rep = client.submit(burst[i]);
            switch (rep.outcome) {
              case CampaignClient::Outcome::ok:
                ++ok;
                break;
              case CampaignClient::Outcome::shedGiveUp:
                ++shed;
                break;
              case CampaignClient::Outcome::timedOut:
                ++timedOut;
                break;
              default:
                ++failed;
                break;
            }
            Json lineJ = Json::object();
            lineJ.set("id", Json::string(burst[i].id));
            lineJ.set("seed", Json::number(burst[i].seed));
            lineJ.set("clientOutcome",
                      Json::string(outcomeName(rep.outcome)));
            lineJ.set("attempts",
                      Json::number(std::uint64_t(rep.attempts)));
            lineJ.set("shedRetries",
                      Json::number(
                          std::uint64_t(rep.shedRetries)));
            if (!rep.response.isNull())
                lineJ.set("response", rep.response);
            std::lock_guard<std::mutex> lk(outMtx);
            std::printf("%s\n", lineJ.dump().c_str());
        }
    };

    std::vector<std::thread> pool;
    for (unsigned w = 0; w < std::max(threads, 1u); ++w)
        pool.emplace_back(work, w);
    for (std::thread &t : pool)
        t.join();

    if (liveTty && stream)
        std::fprintf(stderr, "\n");
    std::fprintf(stderr,
                 "campaign_client: %u ok, %u shed, %u timedOut, "
                 "%u failed of %zu",
                 ok.load(), shed.load(), timedOut.load(),
                 failed.load(), burst.size());
    if (stream)
        std::fprintf(stderr, ", %u progress frames",
                     progressFrames.load());
    std::fprintf(stderr, "\n");
    return failed.load() == 0 ? 0 : 1;
}
