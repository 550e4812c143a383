#include "cpu/channel.hh"

namespace contutto::cpu
{

using namespace dmi;
using namespace mem;

DmiChannel::Params
linkParams(BufferKind buffer, bool upstream)
{
    DmiChannel::Params p;
    p.lanes = upstream ? 21 : 14;
    p.bitPeriod = buffer == BufferKind::contutto ? 125 : 104;
    p.flightTime = nanoseconds(1);
    return p;
}

MemoryChannel::MemoryChannel(const std::string &name, EventQueue &eq,
                             const SocketClocks &clocks,
                             stats::StatGroup *parent,
                             const ChannelParams &params)
    : stats::StatGroup(name, parent), params_(params), eq_(eq)
{
    ct_assert(!params_.dimms.empty());

    auto lanes = [&](bool upstream, std::uint64_t seed) {
        DmiChannel::Params p = linkParams(params_.buffer, upstream);
        p.frameErrorRate = params_.channelErrorRate;
        p.seed = seed;
        return p;
    };
    down_ = std::make_unique<DmiChannel>(name + ".down", eq, clocks.fabric,
                                         this, lanes(false, params_.seed));
    up_ = std::make_unique<DmiChannel>(name + ".up", eq, clocks.fabric,
                                       this, lanes(true, params_.seed + 1));

    HostLink::Params host_params;
    host_params.txProcCycles = 1; // 0.5 ns at the 2 GHz nest
    host_params.rxProcCycles = 2;
    hostLink_ = std::make_unique<HostLink>(name + ".hostLink", eq,
                                           clocks.nest, this,
                                           host_params, *down_, *up_);

    if (params_.buffer == BufferKind::contutto) {
        std::vector<MemoryDevice *> raw;
        for (unsigned i = 0; i < params_.dimms.size(); ++i) {
            const DimmSpec &spec = params_.dimms[i];
            std::string dname = name + ".dimm" + std::to_string(i);
            switch (spec.tech) {
              case MemTech::dram:
                devices_.push_back(std::make_unique<DramDevice>(
                    dname, eq, clocks.ddr, this, spec.capacity));
                break;
              case MemTech::sttMram:
                devices_.push_back(std::make_unique<MramDevice>(
                    dname, eq, clocks.ddr, this, spec.capacity,
                    spec.junction));
                break;
              case MemTech::nvdimmN:
                devices_.push_back(std::make_unique<NvdimmDevice>(
                    dname, eq, clocks.ddr, this, spec.capacity,
                    spec.nvdimm));
                break;
            }
            raw.push_back(devices_.back().get());
        }
        card_ = std::make_unique<fpga::ContuttoCard>(
            name + ".contutto", eq, clocks.fabric, clocks.ddr, this,
            params_.cardParams, *up_, *down_, raw);
    } else {
        // Centaur: four DDR ports, DRAM only (the whole point of
        // ConTutto is that Centaur cannot host other technologies).
        std::uint64_t total = 0;
        for (const DimmSpec &spec : params_.dimms)
            total += spec.capacity;
        constexpr unsigned centaurPorts = 4;
        std::vector<Ddr3Controller *> raw_ports;
        Ddr3Controller::Params mc;
        mc.frontendLatency = nanoseconds(3); // hard ASIC controller
        for (unsigned i = 0; i < centaurPorts; ++i) {
            devices_.push_back(std::make_unique<DramDevice>(
                name + ".port" + std::to_string(i), eq, clocks.ddr,
                this, total / centaurPorts));
            centaurControllers_.push_back(
                std::make_unique<Ddr3Controller>(
                    name + ".centaurMc" + std::to_string(i), eq,
                    clocks.ddr, this, mc, *devices_.back()));
            raw_ports.push_back(centaurControllers_.back().get());
        }
        BufferLink::Params link_params;
        link_params.txProcCycles = 2; // ASIC pipeline at 2 GHz
        link_params.rxProcCycles = 4;
        link_params.freezeRepeats = 0;
        bufferLink_ = std::make_unique<BufferLink>(
            name + ".centaurLink", eq, clocks.centaurClk, this,
            link_params, *up_, *down_);
        centaur_ = std::make_unique<centaur::CentaurModel>(
            name + ".centaur", eq, clocks.centaurClk, this,
            params_.centaurConfig, *bufferLink_, raw_ports);
    }

    port_ = std::make_unique<HostMemPort>(name + ".hostPort", eq,
                                          clocks.nest, this,
                                          *hostLink_);

    BufferLink &buffer_link = card_ ? card_->mbi() : *bufferLink_;
    trainer_ = std::make_unique<LinkTrainer>(
        name + ".trainer", eq, clocks.nest, this, params_.training,
        *hostLink_, buffer_link, *down_, *up_);

    // RAS: the FSP error log is always wired into the command
    // engines; patrol scrub and the link watchdog are opt-in.
    if (card_)
        card_->mbs().attachErrorLog(&errorLog_);
    if (centaur_)
        centaur_->attachErrorLog(&errorLog_);

    if (params_.ras.scrubEnabled) {
        for (unsigned i = 0; i < devices_.size(); ++i) {
            scrubbers_.push_back(std::make_unique<ras::PatrolScrubber>(
                name + ".scrub" + std::to_string(i), eq, clocks.ddr,
                this, params_.ras.scrub, devices_[i]->image()));
            scrubbers_.back()->attachErrorLog(&errorLog_);
            scrubbers_.back()->start();
        }
    }

    if (params_.ras.watchdogEnabled) {
        watchdog_ = std::make_unique<ras::LinkWatchdog>(
            name + ".watchdog", eq, clocks.nest, this);
        watchdog_->attachErrorLog(&errorLog_);
        ras::LinkWatchdog::Actions actions;
        actions.retrain = [this] {
            down_->reseedScramblers();
            up_->reseedScramblers();
        };
        actions.spareLane = [this] {
            // Replacing the marginal lane clears the injected noise.
            down_->setFrameErrorRate(0);
            up_->setFrameErrorRate(0);
            down_->failLane(0);
            up_->failLane(0);
        };
        actions.degrade = [] {
            // Degraded-width operation; modelled as log-only since
            // the channel's timing already reflects worst case.
        };
        actions.offline = [this] { port_->abortInFlight(); };
        watchdog_->setActions(std::move(actions));
        hostLink_->onReplay = [this] { watchdog_->noteReplay(); };
        buffer_link.onReplay = [this] { watchdog_->noteReplay(); };
    }
}

MemoryChannel::~MemoryChannel() = default;

void
MemoryChannel::trainAsync(
    std::function<void(const dmi::TrainingResult &)> cb)
{
    trainer_->start([this, cb](const TrainingResult &r) {
        trainResult_ = r;
        if (cb)
            cb(r);
    });
}

std::uint64_t
MemoryChannel::memoryCapacity() const
{
    if (card_)
        return card_->capacity();
    std::uint64_t total = 0;
    for (const auto &d : devices_)
        total += d->capacity();
    return total;
}

void
MemoryChannel::storeLines(Addr addr, std::size_t len,
                          const std::uint8_t *data, ImageStore store)
{
    LineInterleave li{unsigned(devices_.size()), cacheLineSize};
    while (len > 0) {
        std::size_t in_line =
            cacheLineSize - std::size_t(addr % cacheLineSize);
        std::size_t chunk = std::min(len, in_line);
        (devices_[li.portOf(addr)]->image().*store)(li.localAddr(addr),
                                                    chunk, data);
        addr += chunk;
        data += chunk;
        len -= chunk;
    }
}

void
MemoryChannel::functionalWrite(Addr addr, std::size_t len,
                               const std::uint8_t *data)
{
    storeLines(addr, len, data, &mem::MemImage::write);
}

void
MemoryChannel::warmWrite(Addr addr, std::size_t len,
                         const std::uint8_t *data)
{
    storeLines(addr, len, data, &mem::MemImage::warmWrite);
}

void
MemoryChannel::functionalRead(Addr addr, std::size_t len,
                              std::uint8_t *data)
{
    LineInterleave li{unsigned(devices_.size()), cacheLineSize};
    while (len > 0) {
        std::size_t in_line =
            cacheLineSize - std::size_t(addr % cacheLineSize);
        std::size_t chunk = std::min(len, in_line);
        devices_[li.portOf(addr)]->image().read(li.localAddr(addr),
                                                chunk, data);
        addr += chunk;
        data += chunk;
        len -= chunk;
    }
}

bool
MemoryChannel::quiescent() const
{
    if (!port_->idle() || !hostLink_->quiescent())
        return false;
    if (card_)
        return card_->quiescent();
    if (!centaur_->quiescent() || !bufferLink_->quiescent())
        return false;
    for (const auto &c : centaurControllers_)
        if (c->pending() != 0)
            return false;
    return true;
}

} // namespace contutto::cpu
