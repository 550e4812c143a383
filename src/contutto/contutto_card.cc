#include "contutto/contutto_card.hh"

namespace contutto::fpga
{

ContuttoCard::ContuttoCard(const std::string &name, EventQueue &eq,
                           const ClockDomain &fabricDomain,
                           const ClockDomain &ddrDomain,
                           stats::StatGroup *parent,
                           const Params &params,
                           dmi::DmiChannel &upChannel,
                           dmi::DmiChannel &downChannel,
                           std::vector<mem::MemoryDevice *> devices)
    : SimObject(name, eq, fabricDomain, parent),
      mbi_(name + ".mbi", eq, fabricDomain, this, params.mbi,
           upChannel, downChannel),
      bus_(name + ".avalon", eq, fabricDomain, this)
{
    ct_assert(!devices.empty());
    std::vector<mem::Ddr3Controller *> raw_ports;
    for (unsigned i = 0; i < devices.size(); ++i) {
        ct_assert(devices[i] != nullptr);
        controllers_.push_back(std::make_unique<mem::Ddr3Controller>(
            name + ".mc" + std::to_string(i), eq, ddrDomain, this,
            params.memctrl, *devices[i]));
        raw_ports.push_back(controllers_.back().get());
        capacity_ += devices[i]->capacity();
    }

    memSlave_ = std::make_unique<InterleavedMemSlave>(
        raw_ports,
        mem::LineInterleave{unsigned(raw_ports.size()),
                            dmi::cacheLineSize});
    bus_.attach(*memSlave_, bus::AddressRange{0, capacity_});

    mbs_ = std::make_unique<Mbs>(name + ".mbs", eq, fabricDomain,
                                 this, params.mbs, mbi_, bus_);
}

} // namespace contutto::fpga
