/**
 * @file
 * Protocol layer: request validation fails fast and precisely, the
 * config hash is stable / seed-free / knob-sensitive, and a
 * CampaignJob's payload is deterministic and cancellable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "service/protocol.hh"
#include "trace/generate.hh"

using namespace contutto::service;

namespace
{

Json
parseConfig(const char *text)
{
    return Json::parse(text);
}

/** Generate a small deterministic binary trace for the "trace"
 *  kind; returns its path. */
std::string
makeTrace(const std::string &leaf, std::uint64_t seed,
          std::uint64_t records = 2000)
{
    contutto::trace::GenerateSpec spec;
    spec.shape = contutto::trace::Shape::qsort;
    spec.records = records;
    spec.seed = seed;
    spec.meanDelay = contutto::nanoseconds(50);
    std::string path = ::testing::TempDir() + "proto_" + leaf;
    contutto::trace::generate(spec, path);
    return path;
}

Json
traceConfig(const std::string &path, const char *extra = nullptr)
{
    Json cfg = extra ? Json::parse(extra) : Json::object();
    cfg.set("path", Json::string(path));
    return cfg;
}

TEST(Protocol, RequestRoundTrip)
{
    Request r;
    r.id = "sweep-17";
    r.kind = "ras_soak";
    r.seed = 0xdeadbeefcafef00dull;
    r.priority = -3;
    r.deadlineMs = 1500;
    r.config = parseConfig("{\"ops\":64}");
    Request back = Request::fromJson(r.toJson());
    EXPECT_EQ(back.id, r.id);
    EXPECT_EQ(back.kind, r.kind);
    EXPECT_EQ(back.seed, r.seed);
    EXPECT_EQ(back.priority, r.priority);
    EXPECT_EQ(back.deadlineMs, r.deadlineMs);
    EXPECT_EQ(back.config.dump(), r.config.dump());
}

TEST(Protocol, RequestValidation)
{
    Json j = Json::parse(
        "{\"type\":\"submit\",\"kind\":\"spin\"}");
    EXPECT_THROW(Request::fromJson(j), ProtocolError); // no id
    j.set("id", Json::string(""));
    EXPECT_THROW(Request::fromJson(j), ProtocolError); // empty id
    j.set("id", Json::string(std::string(300, 'x')));
    EXPECT_THROW(Request::fromJson(j), ProtocolError); // huge id
    j.set("id", Json::string("ok"));
    j.set("config", Json::number(std::uint64_t(1)));
    EXPECT_THROW(Request::fromJson(j), ProtocolError); // non-object
}

TEST(Protocol, UnknownKindAndKnobsRejectedAtAdmission)
{
    EXPECT_THROW(CampaignJob("nope", 1, Json::object()),
                 ProtocolError);
    EXPECT_THROW(
        CampaignJob("ras_soak", 1, parseConfig("{\"opz\":3}")),
        ProtocolError);
    EXPECT_THROW(
        CampaignJob("crash", 1, parseConfig("{\"powerCuts\":0}")),
        ProtocolError);
    EXPECT_THROW(
        CampaignJob("spin", 1, parseConfig("{\"spinMs\":999999}")),
        ProtocolError);
    // u32 knobs reject out-of-range u64 values.
    EXPECT_THROW(
        CampaignJob("ras_soak", 1,
                    parseConfig("{\"ops\":5000000000}")),
        ProtocolError);
}

TEST(Protocol, ConfigHashIsStableSeedFreeAndKnobSensitive)
{
    Json cfg = parseConfig("{\"ops\":64,\"bitFlips\":8}");
    CampaignJob a("ras_soak", 1, cfg);
    CampaignJob b("ras_soak", 999, cfg); // different seed
    CampaignJob c("ras_soak", 1, parseConfig(
                      "{\"bitFlips\":8,\"ops\":64}")); // reordered
    EXPECT_EQ(a.configHash(), b.configHash());
    EXPECT_EQ(a.configHash(), c.configHash());

    CampaignJob d("ras_soak", 1,
                  parseConfig("{\"ops\":65,\"bitFlips\":8}"));
    EXPECT_NE(a.configHash(), d.configHash());

    // Kinds are domain-separated even with default knobs.
    CampaignJob soak("ras_soak", 1, Json::object());
    CampaignJob crash("crash", 1, Json::object());
    CampaignJob spin("spin", 1, Json::object());
    EXPECT_NE(soak.configHash(), crash.configHash());
    EXPECT_NE(soak.configHash(), spin.configHash());
    EXPECT_NE(crash.configHash(), spin.configHash());
}

TEST(Protocol, SpecHashMatchesJobHash)
{
    // The bench binaries stamp Spec::hash() into --stats-json; the
    // service derives the same key from the JSON config. They must
    // agree or the memo key is useless across tools.
    contutto::ras::SoakCampaign::Spec spec;
    spec.ops = 64;
    spec.seed = 42; // must NOT matter
    CampaignJob job("ras_soak", 7, parseConfig("{\"ops\":64}"));
    EXPECT_EQ(job.configHash(), spec.hash());

    contutto::storage::CrashRecoveryCampaign::Spec cspec;
    cspec.powerCuts = 2;
    CampaignJob cjob("crash", 7,
                     parseConfig("{\"powerCuts\":2}"));
    EXPECT_EQ(cjob.configHash(), cspec.hash());
}

TEST(Protocol, PayloadIsDeterministic)
{
    std::atomic<bool> cancel{false};
    Json cfg = parseConfig("{\"ops\":48,\"bitFlips\":6}");
    CampaignJob a("ras_soak", 11, cfg);
    CampaignJob b("ras_soak", 11, cfg);
    EXPECT_EQ(a.run(cancel), b.run(cancel));
    // And the payload is parseable, self-describing JSON.
    Json p = Json::parse(a.run(cancel));
    EXPECT_EQ(p.at("kind").asString(), "ras_soak");
    EXPECT_EQ(p.at("seed").asU64(), 11u);
    EXPECT_EQ(p.at("configHash").asString(),
              hashHex(a.configHash()));
}

TEST(Protocol, SpecKindValidatesItsKnobs)
{
    EXPECT_THROW(
        CampaignJob("spec", 1, parseConfig("{\"nope\":1}")),
        ProtocolError);
    EXPECT_THROW(
        CampaignJob("spec", 1, parseConfig("{\"benchmark\":12}")),
        ProtocolError);
    EXPECT_THROW(
        CampaignJob("spec", 1, parseConfig("{\"buffer\":2}")),
        ProtocolError);
    // Centaur allows knob 0-3; ConTutto 0-7.
    EXPECT_THROW(
        CampaignJob("spec", 1,
                    parseConfig("{\"buffer\":0,\"knob\":4}")),
        ProtocolError);
    EXPECT_NO_THROW(
        CampaignJob("spec", 1,
                    parseConfig("{\"buffer\":1,\"knob\":7}")));
    EXPECT_THROW(
        CampaignJob("spec", 1, parseConfig("{\"instructions\":0}")),
        ProtocolError);
    // Sampled mode validates the window shape at admission.
    EXPECT_THROW(
        CampaignJob("spec", 1,
                    parseConfig("{\"sampleMode\":1,"
                                "\"sampleWindow\":0}")),
        ProtocolError);
    EXPECT_THROW(
        CampaignJob("spec", 1,
                    parseConfig("{\"sampleMode\":1,"
                                "\"samplePeriod\":8}")),
        ProtocolError);
}

TEST(Protocol, SpecHashFoldsSamplingKnobs)
{
    Json detailed = parseConfig("{\"benchmark\":3}");
    CampaignJob a("spec", 1, detailed);
    CampaignJob b("spec", 999, detailed); // seed never in the hash
    EXPECT_EQ(a.configHash(), b.configHash());
    EXPECT_FALSE(a.sampled());

    // Turning sampling on moves the hash: a sampled run must never
    // share a memo entry with a detailed one.
    CampaignJob s("spec", 1,
                  parseConfig("{\"benchmark\":3,\"sampleMode\":1}"));
    EXPECT_TRUE(s.sampled());
    EXPECT_NE(a.configHash(), s.configHash());

    // And so does each sampling knob.
    CampaignJob s2("spec", 1,
                   parseConfig("{\"benchmark\":3,\"sampleMode\":1,"
                               "\"samplePeriod\":8192}"));
    EXPECT_NE(s.configHash(), s2.configHash());
}

TEST(Protocol, SpecPayloadDeterministicInBothRegimes)
{
    std::atomic<bool> cancel{false};
    Json cfg = parseConfig(
        "{\"benchmark\":3,\"instructions\":20000,\"sampleMode\":1,"
        "\"sampleWarmup\":8,\"sampleWindow\":32,"
        "\"samplePeriod\":256}");
    CampaignJob a("spec", 11, cfg);
    CampaignJob b("spec", 11, cfg);
    std::string pa = a.run(cancel);
    EXPECT_EQ(pa, b.run(cancel));

    Json p = Json::parse(pa);
    EXPECT_EQ(p.at("kind").asString(), "spec");
    EXPECT_EQ(p.at("benchmark").asString(), "429.mcf");
    EXPECT_EQ(p.at("simMode").asString(), "sampled");
    EXPECT_EQ(p.at("instructions").asU64(), 20000u);
    EXPECT_GT(p.at("runtimeTicks").asU64(), 0u);
    EXPECT_GT(p.at("windows").asU64(), 0u);
    EXPECT_GT(p.at("fastForwardMisses").asU64(), 0u);

    // Detailed regime: no sampling members, simMode says so.
    CampaignJob d("spec", 11,
                  parseConfig("{\"benchmark\":3,"
                              "\"instructions\":20000}"));
    Json pd = Json::parse(d.run(cancel));
    EXPECT_EQ(pd.at("simMode").asString(), "detailed");
    EXPECT_EQ(pd.find("windows"), nullptr);
}

TEST(Protocol, ResultFramesCarrySimMode)
{
    CampaignJob sampled(
        "spec", 1,
        parseConfig("{\"sampleMode\":1,\"sampleWindow\":32,"
                    "\"sampleWarmup\":8,\"samplePeriod\":256}"));
    Json res = makeResult("id1", "ok", "ok",
                          sampled.configHash(), 1, "");
    attachSimMode(res, sampled);
    EXPECT_EQ(res.at("simMode").asString(), "sampled");
    EXPECT_EQ(res.at("sampling").at("windowUnits").asU64(), 32u);
    EXPECT_EQ(res.at("sampling").at("periodUnits").asU64(), 256u);

    CampaignJob spin("spin", 1, Json::object());
    Json res2 = makeResult("id2", "ok", "ok", spin.configHash(), 1,
                           "");
    attachSimMode(res2, spin);
    EXPECT_EQ(res2.at("simMode").asString(), "detailed");
    EXPECT_EQ(res2.find("sampling"), nullptr);
}

TEST(Protocol, TraceKindValidatesKnobsAtAdmission)
{
    const std::string path = makeTrace("validate.bin", 1);

    // No path, unknown knob, or a path that is not a valid trace:
    // rejected at admission, before any queue wait.
    EXPECT_THROW(CampaignJob("trace", 1, Json::object()),
                 ProtocolError);
    EXPECT_THROW(
        CampaignJob("trace", 1, traceConfig(path, "{\"nope\":1}")),
        ProtocolError);
    EXPECT_THROW(
        CampaignJob("trace", 1,
                    traceConfig(path + ".does_not_exist")),
        ProtocolError);

    EXPECT_THROW(
        CampaignJob("trace", 1, traceConfig(path, "{\"buffer\":2}")),
        ProtocolError);
    // Centaur allows knob 0-3; ConTutto 0-7.
    EXPECT_THROW(
        CampaignJob("trace", 1,
                    traceConfig(path, "{\"buffer\":0,\"knob\":4}")),
        ProtocolError);
    EXPECT_NO_THROW(
        CampaignJob("trace", 1,
                    traceConfig(path, "{\"buffer\":1,\"knob\":7}")));
    EXPECT_THROW(
        CampaignJob("trace", 1, traceConfig(path, "{\"timed\":2}")),
        ProtocolError);
    EXPECT_THROW(
        CampaignJob("trace", 1, traceConfig(path, "{\"window\":0}")),
        ProtocolError);
    EXPECT_THROW(
        CampaignJob("trace", 1,
                    traceConfig(path, "{\"sampleMode\":1,"
                                      "\"sampleWindow\":0}")),
        ProtocolError);

    // A structurally corrupt file is an admission failure too.
    const std::string bad =
        ::testing::TempDir() + "proto_corrupt.bin";
    {
        std::ofstream os(bad, std::ios::binary | std::ios::trunc);
        os << "not a trace";
    }
    EXPECT_THROW(CampaignJob("trace", 1, traceConfig(bad)),
                 ProtocolError);
}

TEST(Protocol, TraceHashKeyedByContentNotPath)
{
    // The same trace content at two different paths memoizes to the
    // same key; different content (another seed) does not.
    const std::string a = makeTrace("hash_a.bin", 7);
    const std::string b = makeTrace("hash_b.bin", 7);
    const std::string c = makeTrace("hash_c.bin", 8);

    CampaignJob ja("trace", 1, traceConfig(a));
    CampaignJob jb("trace", 999, traceConfig(b)); // seed-free too
    CampaignJob jc("trace", 1, traceConfig(c));
    EXPECT_EQ(ja.configHash(), jb.configHash());
    EXPECT_NE(ja.configHash(), jc.configHash());

    // Replay knobs move the hash: timed vs window mode, knob
    // position, and sampling must never share a memo entry.
    CampaignJob jw("trace", 1, traceConfig(a, "{\"timed\":0}"));
    CampaignJob jk("trace", 1, traceConfig(a, "{\"knob\":2}"));
    CampaignJob js("trace", 1,
                   traceConfig(a, "{\"sampleMode\":1}"));
    EXPECT_NE(ja.configHash(), jw.configHash());
    EXPECT_NE(ja.configHash(), jk.configHash());
    EXPECT_NE(ja.configHash(), js.configHash());
    EXPECT_TRUE(js.sampled());
    EXPECT_FALSE(ja.sampled());
}

TEST(Protocol, TracePayloadDeterministicBothReplayModes)
{
    std::atomic<bool> cancel{false};
    const std::string path = makeTrace("payload.bin", 3);

    CampaignJob a("trace", 11, traceConfig(path));
    CampaignJob b("trace", 11, traceConfig(path));
    std::string pa = a.run(cancel);
    EXPECT_EQ(pa, b.run(cancel));
    // detailedTrips counts the trips that travelled the channel:
    // every record in detail, only the measured windows' trips when
    // sampled. The timed payloads are pinned whole.
    EXPECT_EQ(pa, "{\"kind\":\"trace\",\"seed\":11,"
                  "\"configHash\":\"d42ff49beae58095\","
                  "\"traceChecksum\":\"b21661025de1035d\","
                  "\"records\":2000,\"reads\":1330,\"writes\":670,"
                  "\"detailedTrips\":2000,\"runtimeTicks\":100996000,"
                  "\"replayMode\":\"timed\",\"simMode\":\"detailed\"}");

    // Window mode replays the same records through the MLP-window
    // model instead.
    CampaignJob w("trace", 11,
                  traceConfig(path, "{\"timed\":0,\"window\":4}"));
    Json pw = Json::parse(w.run(cancel));
    EXPECT_EQ(pw.at("replayMode").asString(), "window");
    EXPECT_EQ(pw.at("records").asU64(), 2000u);
    EXPECT_EQ(pw.at("detailedTrips").asU64(), 2000u);
    EXPECT_EQ(pw.at("runtimeTicks").asU64(), 101375000u);

    // Sampled replay, in both modes, reports its window counters.
    const std::string sampled = "\"sampleMode\":1,"
                                "\"sampleWarmup\":8,"
                                "\"sampleWindow\":32,"
                                "\"samplePeriod\":256";
    CampaignJob s("trace", 11,
                  traceConfig(path, ("{" + sampled + "}").c_str()));
    EXPECT_EQ(s.run(cancel),
              "{\"kind\":\"trace\",\"seed\":11,"
              "\"configHash\":\"30951c9493c8f897\","
              "\"traceChecksum\":\"b21661025de1035d\","
              "\"records\":2000,\"reads\":1330,\"writes\":670,"
              "\"detailedTrips\":320,\"runtimeTicks\":101028514,"
              "\"replayMode\":\"timed\",\"simMode\":\"sampled\","
              "\"windows\":8,\"detailedMisses\":320,"
              "\"fastForwardMisses\":1680}");
    CampaignJob sw("trace", 11,
                   traceConfig(path, ("{\"timed\":0,\"window\":4,"
                                      + sampled + "}")
                                         .c_str()));
    Json psw = Json::parse(sw.run(cancel));
    EXPECT_EQ(psw.at("simMode").asString(), "sampled");
    EXPECT_EQ(psw.at("detailedMisses").asU64(), 320u);
    EXPECT_EQ(psw.at("detailedTrips").asU64(), 320u);
    EXPECT_EQ(psw.at("runtimeTicks").asU64(), 101204106u);
}

TEST(Protocol, TraceFileChangedAfterAdmissionIsRejected)
{
    std::atomic<bool> cancel{false};
    const std::string path = makeTrace("swap.bin", 21);
    CampaignJob job("trace", 1, traceConfig(path));

    // Swap in different (but valid) content behind the admitted
    // job's back: the run must refuse, not silently replay the
    // wrong trace under the old memo key.
    const std::string other = makeTrace("swap_other.bin", 22);
    std::filesystem::rename(other, path);
    try {
        job.run(cancel);
        FAIL() << "run accepted a swapped trace file";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("changed since "
                                             "admission"),
                  std::string::npos);
    }
}

TEST(Protocol, SpinHonoursItsCancelToken)
{
    std::atomic<bool> cancel{false};
    CampaignJob spin("spin", 1, parseConfig("{\"spinMs\":30000}"));
    std::thread raiser([&cancel] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        cancel.store(true);
    });
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(spin.run(cancel), CampaignJob::Cancelled);
    raiser.join();
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
}

} // namespace
