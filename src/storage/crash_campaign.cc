#include "storage/crash_campaign.hh"

namespace contutto::storage
{

void
CrashRecoveryCampaign::Spec::serialize(ckpt::Section &out) const
{
    out.putU32(powerCuts);
    out.putU32(regionBlocks);
    out.putU32(queueDepth);
    out.putU64(workMin);
    out.putU64(workMax);
    out.putU64(outageMin);
    out.putU64(outageMax);
    out.putU32(longOutageEvery);
    out.putU32(brownouts);
    out.putU64(brownoutMin);
    out.putU64(brownoutMax);
    out.putU64(dimmCapacity);
    out.putF64(nvdimm.flashBandwidth);
    out.putF64(nvdimm.supercapJoules);
    out.putF64(nvdimm.joulesPerGiB);
    out.putU8(nvdimm.charged ? 1 : 0);
    out.putU64(nvdimm.flash.segmentSize);
    out.putU32(nvdimm.flash.spareBlocks);
    out.putU64(nvdimm.flash.eraseLimit);
}

std::uint64_t
CrashRecoveryCampaign::Spec::hash() const
{
    ckpt::Section s("spec");
    serialize(s);
    return ckpt::fnv1a(s.bytes().data(), s.bytes().size());
}

CrashRecoveryCampaign::CrashRecoveryCampaign(const Spec &spec)
    : spec_(spec), rng_(spec.seed)
{
    ct_assert(spec_.powerCuts > 0);
    ct_assert(spec_.regionBlocks > 0);
    ct_assert(spec_.queueDepth > 0);

    // A single NVDIMM: the card stripes consecutive 128 B lines
    // across its DIMM ports, so a second module would split every
    // 4 KiB block across devices and the durability story would be
    // about the *weakest* module, not the fence.
    cpu::Power8System::Params p;
    p.buffer = cpu::BufferKind::contutto;
    p.dimms = {cpu::DimmSpec{.tech = mem::MemTech::nvdimmN,
                             .capacity = spec_.dimmCapacity,
                             .nvdimm = spec_.nvdimm}};
    p.seed = spec_.seed;
    sys_ = std::make_unique<cpu::Power8System>(p);
    ct_assert(sys_->train());

    nv_ = dynamic_cast<mem::NvdimmDevice *>(&sys_->dimm(0));
    ct_assert(nv_ != nullptr);
    ct_assert(spec_.regionBlocks * blockSize <= spec_.dimmCapacity);

    control_ = std::make_unique<firmware::SystemCardControl>(*sys_);
    domain_ = std::make_unique<firmware::PowerDomain>(
        "power_domain", sys_->eventq(), sys_->nestDomain(),
        sys_.get(), control_->power());
    domain_->attachDevice(nv_);

    PmemBlockDevice::Params pp = PmemBlockDevice::Params::forNvdimm();
    pp.capacityBlocks = spec_.dimmCapacity / blockSize;
    pmem_ = std::make_unique<PmemBlockDevice>("pmem", *sys_,
                                              sys_.get(), pp);

    // Cut ordering matters: the device must stop accepting work
    // before the port abort replays its in-flight callbacks (a
    // completion arriving on a live device would start the next
    // request onto a dead link), and the link freezes last.
    domain_->addCutHook([this] { pmem_->powerCut(); });
    domain_->addCutHook([this] { sys_->port().abortInFlight(); });
    // The host MC sees the channel drop and freezes its half of the
    // link — without this it replays unacked frames into the dead
    // card every ack-timeout for the whole outage.
    domain_->addCutHook([this] { sys_->hostLink().resetLink(); });
    domain_->addCutHook([this] { sys_->card()->powerReset(); });

    injector_ = std::make_unique<ras::FaultInjector>(
        "injector", sys_->eventq(), sys_->nestDomain(), sys_.get(),
        spec_.seed);
    injector_->addPowerTarget(domain_.get());
}

CrashRecoveryCampaign::~CrashRecoveryCampaign() = default;

void
CrashRecoveryCampaign::submitOne()
{
    if (!workloadOn_ || pmem_->offline())
        return;
    BlockRequest req;
    req.lba = rng_.below(spec_.regionBlocks);
    req.isWrite = true;
    req.onDone = [this](const BlockRequest &r) {
        if (r.failed)
            ++result_.writesFailed;
        else
            ++result_.writesCompleted;
        // Closed loop: keep the queue full until the lights go out.
        submitOne();
    };
    ++result_.writesSubmitted;
    pmem_->submit(std::move(req));
}

void
CrashRecoveryCampaign::runRound(unsigned round)
{
    EventQueue &eq = sys_->eventq();
    const Tick start = eq.curTick();
    const Tick work_delay =
        Tick(rng_.range(spec_.workMin, spec_.workMax));
    const Tick cut_at = start + work_delay;

    // Every Nth outage outlasts the supercap save so the module
    // parks its image in flash and streams it back; the short ones
    // interrupt the save with DRAM still alive (abort path).
    const bool long_outage =
        spec_.longOutageEvery != 0
        && (round + 1) % spec_.longOutageEvery == 0;
    const Tick outage =
        long_outage ? nv_->saveDuration() + milliseconds(1)
                    : Tick(rng_.range(spec_.outageMin,
                                      spec_.outageMax));

    // Seeded input dips inside the workload window. One that turns
    // into an outage simply moves the blackout earlier: the domain
    // is already dark when the scheduled cut arrives, and the
    // restore below waits for the input to come good.
    for (unsigned b = 0; b < spec_.brownouts; ++b) {
        if (b % spec_.powerCuts != round)
            continue;
        ras::FaultEvent dip;
        dip.when = start + Tick(rng_.range(1, work_delay));
        dip.kind = ras::FaultKind::brownout;
        dip.duration = Tick(
            rng_.range(spec_.brownoutMin, spec_.brownoutMax));
        injector_->schedule(dip);
    }
    ras::FaultEvent cut;
    cut.when = cut_at;
    cut.kind = ras::FaultKind::powerCut;
    injector_->schedule(cut);

    workloadOn_ = true;
    for (unsigned i = 0; i < spec_.queueDepth; ++i)
        submitOne();

    // The abort/stale-response warnings across the cut are the
    // modeled behaviour under test, not failures worth console
    // noise on every round.
    const bool warn = LogControl::warnings();
    LogControl::warnings() = false;
    eq.run(cut_at + outage);
    workloadOn_ = false;
    recover();
    LogControl::warnings() = warn;
}

void
CrashRecoveryCampaign::recover()
{
    EventQueue &eq = sys_->eventq();

    bool done = false;
    bool power_ok = false;
    domain_->powerRestore([&](bool ok) {
        done = true;
        power_ok = ok;
    });
    while (!done && eq.step()) {}
    if (!power_ok) {
        ++result_.failedRecoveries;
        return;
    }

    // The rails are up and every module reports ready. The FPGA
    // comes out of configuration with clean state — anything the
    // wire delivered while the card was dark never happened — and
    // the link has to retrain before the host can talk to it.
    sys_->card()->powerReset();
    sys_->hostLink().resetLink();
    bool trained = false;
    bool train_ok = false;
    sys_->trainAsync([&](const dmi::TrainingResult &r) {
        trained = true;
        train_ok = r.success;
    });
    while (!trained && eq.step()) {}
    if (!train_ok) {
        ++result_.failedRecoveries;
        return;
    }
    ++result_.recoveries;

    // Firmware's per-module question: did your contents survive?
    const mem::RestoreOutcome oc = nv_->restoreOutcome();
    const bool module_lost = oc == mem::RestoreOutcome::torn
        || oc == mem::RestoreOutcome::stale
        || oc == mem::RestoreOutcome::lost;
    if (module_lost) {
        ++result_.moduleLossEvents;
        errorLog().record(
            eq.curTick(), "dimm0", firmware::Severity::recoverable,
            std::string("contents lost across power fault (")
                + mem::restoreOutcomeName(oc) + " image)");
    }

    pmem_->powerOn();
    verifyRegion(module_lost);
}

void
CrashRecoveryCampaign::verifyRegion(bool module_lost)
{
    for (std::uint64_t lba = 0; lba < spec_.regionBlocks; ++lba) {
        const BlockCheck check = pmem_->verifyBlock(lba);
        switch (check) {
          case BlockCheck::unwritten: ++result_.unwritten; break;
          case BlockCheck::intact: ++result_.intact; break;
          case BlockCheck::newer: ++result_.newer; break;
          case BlockCheck::torn: ++result_.torn; break;
          case BlockCheck::stale: ++result_.stale; break;
          case BlockCheck::lost: ++result_.lost; break;
        }

        const bool damaged = check == BlockCheck::torn
            || check == BlockCheck::stale
            || check == BlockCheck::lost;
        const std::uint64_t durable = pmem_->durableSeq(lba);
        if (durable == 0) {
            // Nothing was ever promised for this block; a tear here
            // is legal as long as it was *detected*, which the
            // verify just did.
            if (damaged)
                ++result_.detectedLosses;
            continue;
        }
        if (check == BlockCheck::intact)
            continue;
        if (check == BlockCheck::newer)
            continue; // A later unfenced write landed whole: legal.
        if (module_lost || pmem_->issuedSeq(lba) > durable) {
            // The module owned up to the loss, or the tear belongs
            // to a write whose fence never completed. Detected,
            // reported, legal.
            ++result_.detectedLosses;
        } else {
            // A fenced block that did not read back: the one thing
            // the persist fence guarantees can never happen.
            ++result_.durabilityViolations;
        }
    }
}

void
CrashRecoveryCampaign::saveCheckpoint(const std::string &path,
                                      unsigned next_round) const
{
    ct_assert(sys_->port().idle());
    ct_assert(sys_->card()->quiescent());

    ckpt::Checkpoint ck;

    ckpt::Section &camp = ck.add("campaign");
    camp.putU64(spec_.seed);
    camp.putU32(spec_.powerCuts);
    camp.putU32(spec_.regionBlocks);
    camp.putU32(spec_.queueDepth);
    camp.putU64(spec_.dimmCapacity);
    camp.putU32(next_round);
    camp.putU32(result_.cuts);
    camp.putU32(result_.brownoutsInjected);
    camp.putU32(result_.recoveries);
    camp.putU32(result_.failedRecoveries);
    camp.putU64(result_.writesSubmitted);
    camp.putU64(result_.writesCompleted);
    camp.putU64(result_.writesFailed);
    camp.putU64(result_.blocksFenced);
    camp.putU64(result_.intact);
    camp.putU64(result_.newer);
    camp.putU64(result_.torn);
    camp.putU64(result_.stale);
    camp.putU64(result_.lost);
    camp.putU64(result_.unwritten);
    camp.putU64(result_.detectedLosses);
    camp.putU64(result_.durabilityViolations);
    camp.putU32(result_.moduleLossEvents);

    sys_->eventq().checkpointSave(ck.add("eq"));
    rng_.checkpointSave(ck.add("rng"));
    ckpt::saveStats(*sys_, ck.add("stats"));
    nv_->checkpointSave(ck.add("nvdimm"));
    {
        ckpt::Section &sec = ck.add("ddr3");
        fpga::ContuttoCard *card = sys_->card();
        sec.putU32(card->numPorts());
        for (unsigned i = 0; i < card->numPorts(); ++i)
            card->controller(i).checkpointSave(sec);
    }
    sys_->card()->mbs().checkpointSave(ck.add("mbs"));
    pmem_->checkpointSave(ck.add("pmem"));
    sys_->channel().errorLog().checkpointSave(ck.add("errlog"));
    domain_->checkpointSave(ck.add("domain"));
    injector_->checkpointSave(ck.add("injector"));
    {
        // Every RNG stream in the system: the trainer draws per
        // retrain, the channels per injected error, and a resumed
        // run must continue each stream where the saved run left it.
        ckpt::Section &sec = ck.add("linkrng");
        sys_->channel().trainer().rng().checkpointSave(sec);
        sys_->downChannel().rng().checkpointSave(sec);
        sys_->upChannel().rng().checkpointSave(sec);
    }

    ck.writeFile(path);
}

unsigned
CrashRecoveryCampaign::restoreCheckpoint(const std::string &path)
{
    EventQueue &eq = sys_->eventq();
    ckpt::Checkpoint ck = ckpt::Checkpoint::readFile(path);

    ckpt::Section &camp = ck.section("campaign");
    if (camp.getU64() != spec_.seed
        || camp.getU32() != spec_.powerCuts
        || camp.getU32() != spec_.regionBlocks
        || camp.getU32() != spec_.queueDepth
        || camp.getU64() != spec_.dimmCapacity)
        throw ckpt::Error(
            "checkpoint was taken under a different campaign spec");
    unsigned next_round = camp.getU32();
    result_.cuts = camp.getU32();
    result_.brownoutsInjected = camp.getU32();
    result_.recoveries = camp.getU32();
    result_.failedRecoveries = camp.getU32();
    result_.writesSubmitted = camp.getU64();
    result_.writesCompleted = camp.getU64();
    result_.writesFailed = camp.getU64();
    result_.blocksFenced = camp.getU64();
    result_.intact = camp.getU64();
    result_.newer = camp.getU64();
    result_.torn = camp.getU64();
    result_.stale = camp.getU64();
    result_.lost = camp.getU64();
    result_.unwritten = camp.getU64();
    result_.detectedLosses = camp.getU64();
    result_.durabilityViolations = camp.getU64();
    result_.moduleLossEvents = camp.getU32();

    // Phase 1 — drain: every component with a live event deschedules
    // it so the queue is provably empty before its clock moves.
    fpga::ContuttoCard *card = sys_->card();
    for (unsigned i = 0; i < card->numPorts(); ++i)
        card->controller(i).checkpointDrain();

    // Phase 2 — the event core itself (asserts the queue is empty).
    eq.checkpointRestore(ck.section("eq"));

    // Phase 3 — refill: components restore state and re-arm their
    // events at the recorded absolute ticks. The counter freeze
    // keeps these schedule() calls from re-counting history that is
    // already present in the restored counters.
    EventQueue::CounterFreeze freeze(eq);
    rng_.checkpointRestore(ck.section("rng"));
    ckpt::restoreStats(*sys_, ck.section("stats"));
    nv_->checkpointRestore(ck.section("nvdimm"));
    {
        ckpt::Section &sec = ck.section("ddr3");
        if (sec.getU32() != card->numPorts())
            throw ckpt::Error("DDR3 port count mismatch");
        for (unsigned i = 0; i < card->numPorts(); ++i)
            card->controller(i).checkpointRestore(sec);
    }
    card->mbs().checkpointRestore(ck.section("mbs"));
    pmem_->checkpointRestore(ck.section("pmem"));
    sys_->channel().errorLog().checkpointRestore(ck.section("errlog"));
    domain_->checkpointRestore(ck.section("domain"));
    injector_->checkpointRestore(ck.section("injector"));
    {
        ckpt::Section &sec = ck.section("linkrng");
        sys_->channel().trainer().rng().checkpointRestore(sec);
        sys_->downChannel().rng().checkpointRestore(sec);
        sys_->upChannel().rng().checkpointRestore(sec);
    }

    startRound_ = next_round;
    return next_round;
}

CrashRecoveryCampaign::Result
CrashRecoveryCampaign::run(const RunOptions &opts)
{
    EventQueue &eq = sys_->eventq();
    stoppedEarly_ = false;
    cancelled_ = false;
    if (!opts.resumeFrom.empty())
        restoreCheckpoint(opts.resumeFrom);

    unsigned written = 0;
    for (unsigned round = startRound_; round < spec_.powerCuts;
         ++round) {
        // Cooperative cancellation: rounds are the natural safe
        // points (power restored, region verified), so a deadline
        // raised by the supervisor stops the campaign here rather
        // than mid-outage.
        if (opts.cancel != nullptr
            && opts.cancel->load(std::memory_order_relaxed)) {
            cancelled_ = true;
            return result_;
        }
        // Round-boundary normalization probe, in EVERY run: pulls
        // any due overflow residents into the wheel here, so wheel/
        // overflow residency — and the pull counters — agree at this
        // boundary between a run that checkpoints, a run that
        // resumes, and a run that does neither.
        eq.nextEventTick();
        if (opts.checkpointEvery != 0 && round != 0
            && round != startRound_
            && round % opts.checkpointEvery == 0) {
            saveCheckpoint(opts.checkpointPath, round);
            if (opts.stopAfterCheckpoints != 0
                && ++written >= opts.stopAfterCheckpoints) {
                stoppedEarly_ = true;
                return result_;
            }
        }
        runRound(round);
    }
    eq.nextEventTick(); // terminal boundary, same normalization

    result_.cuts = unsigned(domain_->domainStats().cuts.value());
    result_.brownoutsInjected = unsigned(
        injector_->injected(ras::FaultKind::brownout));
    result_.blocksFenced = std::uint64_t(
        pmem_->pmemStats().blocksFenced.value());
    return result_;
}

} // namespace contutto::storage
