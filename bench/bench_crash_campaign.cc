/**
 * @file
 * Seeded power-fault campaign over the pmem block path: crash at
 * random ticks under a closed-loop write workload, recover through
 * the power domain + link retrain, audit every block against the
 * durability ledger. Prints the counters a robustness report needs;
 * rerunning with the same --seed reproduces them bit for bit.
 *
 * Checkpoint/restore flags (the chaos-smoke recipe in
 * EXPERIMENTS.md drives these):
 *
 *   --checkpoint=FILE        snapshot the campaign to FILE at round
 *                            boundaries
 *   --checkpoint-every=N     ... every N completed rounds (default 2)
 *   --kill-after=N           exit after writing N checkpoints (a
 *                            deterministic mid-run kill; implies a
 *                            partial run)
 *   --resume=FILE            restore FILE into a fresh campaign and
 *                            continue; the finished run's counters
 *                            and stats JSON are bit-identical to an
 *                            uninterrupted run with the same seed
 *
 * A checkpoint that cannot be resumed or written prints
 * "resume refused: ..." or "checkpoint write failed: ..." to stderr
 * and exits 2; exit 1 is a durability violation.
 */

#include "bench_util.hh"
#include "storage/crash_campaign.hh"

using namespace contutto;
using namespace contutto::storage;

int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);
    CrashRecoveryCampaign::Spec spec;
    spec.seed = bench::parseSeed(argc, argv, 1);
    spec.powerCuts = 8;
    spec.regionBlocks = 64;
    spec.brownouts = 4;

    bench::header("Power-fault campaign: crash/recover/verify over "
                  "the NVDIMM-backed pmem device");
    std::printf("seed %llu, %u cuts, %u brownouts, %u-block region, "
                "queue depth %u\n",
                static_cast<unsigned long long>(spec.seed),
                spec.powerCuts, spec.brownouts, spec.regionBlocks,
                spec.queueDepth);

    // The real memo key: the spec hash, not the argv hash — so a
    // resumed run and its uninterrupted control share a header.
    tm.setConfigHash(spec.hash());

    CrashRecoveryCampaign::RunOptions opts;
    opts.checkpointPath =
        bench::parseFlag(argc, argv, "--checkpoint");
    opts.checkpointEvery = unsigned(
        bench::parseUnsigned(argc, argv, "--checkpoint-every", 2));
    if (opts.checkpointPath.empty())
        opts.checkpointEvery = 0;
    const std::string resume =
        bench::parseFlag(argc, argv, "--resume");
    opts.stopAfterCheckpoints = unsigned(
        bench::parseUnsigned(argc, argv, "--kill-after", 0));

    // A checkpoint that cannot be read or written ends the run with
    // exit 2 (1 means a durability violation), never a crash.
    CrashRecoveryCampaign campaign(spec);
    if (!resume.empty()) {
        try {
            campaign.restoreCheckpoint(resume);
        } catch (const ckpt::Error &e) {
            std::fprintf(stderr, "resume refused: %s\n", e.what());
            return 2;
        }
    }
    CrashRecoveryCampaign::Result r;
    try {
        r = campaign.run(opts);
    } catch (const ckpt::Error &e) {
        std::fprintf(stderr, "checkpoint write failed: %s\n",
                     e.what());
        return 2;
    }
    tm.capture("crash_campaign", campaign.system());

    if (campaign.stoppedEarly()) {
        std::printf("killed after %u checkpoint(s); resume with "
                    "--resume=%s\n",
                    opts.stopAfterCheckpoints,
                    opts.checkpointPath.c_str());
        return 0;
    }

    bench::rule();
    std::printf("%-28s %12s\n", "counter", "value");
    bench::rule();
    std::printf("%-28s %12u\n", "power cuts", r.cuts);
    std::printf("%-28s %12u\n", "brownouts injected",
                r.brownoutsInjected);
    std::printf("%-28s %12u\n", "recoveries", r.recoveries);
    std::printf("%-28s %12u\n", "failed recoveries",
                r.failedRecoveries);
    std::printf("%-28s %12llu\n", "writes submitted",
                static_cast<unsigned long long>(r.writesSubmitted));
    std::printf("%-28s %12llu\n", "writes completed",
                static_cast<unsigned long long>(r.writesCompleted));
    std::printf("%-28s %12llu\n", "writes failed (power)",
                static_cast<unsigned long long>(r.writesFailed));
    std::printf("%-28s %12llu\n", "blocks fenced",
                static_cast<unsigned long long>(r.blocksFenced));
    bench::rule();
    std::printf("%-28s %12llu\n", "audit: intact",
                static_cast<unsigned long long>(r.intact));
    std::printf("%-28s %12llu\n", "audit: superseded (newer)",
                static_cast<unsigned long long>(r.newer));
    std::printf("%-28s %12llu\n", "audit: torn",
                static_cast<unsigned long long>(r.torn));
    std::printf("%-28s %12llu\n", "audit: stale",
                static_cast<unsigned long long>(r.stale));
    std::printf("%-28s %12llu\n", "audit: lost",
                static_cast<unsigned long long>(r.lost));
    std::printf("%-28s %12llu\n", "audit: unwritten",
                static_cast<unsigned long long>(r.unwritten));
    std::printf("%-28s %12u\n", "module loss events",
                r.moduleLossEvents);
    std::printf("%-28s %12llu\n", "detected (legal) losses",
                static_cast<unsigned long long>(r.detectedLosses));
    std::printf("%-28s %12llu\n", "DURABILITY VIOLATIONS",
                static_cast<unsigned long long>
                (r.durabilityViolations));
    bench::rule();

    if (r.durabilityViolations != 0) {
        std::printf("FAIL: a fenced block did not survive the "
                    "power fault\n");
        return 1;
    }
    std::printf("ok: every fenced block survived; every tear was "
                "detected, none served silently\n");
    return 0;
}
