#include "cpu/energy.hh"

#include <sstream>

namespace contutto::cpu
{

std::string
EnergyReport::toString() const
{
    std::ostringstream os;
    os.precision(2);
    os << std::fixed;
    os << "link " << linkPj / 1e6 << " uJ, dram " << dramPj / 1e6
       << " uJ, host " << hostPj / 1e6 << " uJ, buffer "
       << bufferPj / 1e6 << " uJ, accessProc " << apPj / 1e6
       << " uJ, total " << totalUj() << " uJ";
    return os.str();
}

EnergyMeter::EnergyMeter(Power8System &sys, EnergyCoefficients coeffs)
    : sys_(sys), coeffs_(coeffs)
{
    base_ = take();
}

void
EnergyMeter::attach(const stats::Scalar &apInstructions)
{
    apInstructions_ = &apInstructions;
    base_ = take();
}

void
EnergyMeter::reset()
{
    base_ = take();
}

EnergyMeter::Snapshot
EnergyMeter::take() const
{
    Snapshot s;
    s.linkBytes =
        sys_.downChannel().channelStats().bytesCarried.value()
        + sys_.upChannel().channelStats().bytesCarried.value();

    // DRAM traffic counts at the devices, so Centaur and ConTutto
    // systems meter identically.
    for (unsigned i = 0; i < sys_.numDimms(); ++i) {
        const auto &dev = sys_.dimm(i);
        s.dramReads += dev.bytesRead() / double(dmi::cacheLineSize);
        s.dramWrites +=
            dev.bytesWritten() / double(dmi::cacheLineSize);
    }

    if (auto *card = sys_.card()) {
        const auto &ms = card->mbs().mbsStats();
        s.bufferCommands = ms.reads.value() + ms.writes.value()
            + ms.rmws.value() + ms.flushes.value()
            + ms.inlineOps.value();
    } else if (auto *centaur = sys_.centaurBuffer()) {
        const auto &cs = centaur->centaurStats();
        s.bufferCommands = cs.reads.value() + cs.writes.value()
            + cs.rmws.value();
    }

    // Host lines: every read/write command the port issued moved a
    // line through the core's load/store machinery.
    const auto &ps = sys_.port().portStats();
    s.hostLines = ps.reads.value() + ps.writes.value()
        + ps.rmws.value();

    if (apInstructions_)
        s.apInstructions = apInstructions_->value();
    return s;
}

EnergyReport
EnergyMeter::report() const
{
    Snapshot now = take();
    EnergyReport r;
    r.linkPj =
        (now.linkBytes - base_.linkBytes) * coeffs_.pjPerLinkByte;
    double dram_bytes = ((now.dramReads - base_.dramReads)
                         + (now.dramWrites - base_.dramWrites))
        * double(dmi::cacheLineSize);
    r.dramPj = dram_bytes * coeffs_.pjPerDramByte;
    r.hostPj = (now.hostLines - base_.hostLines)
        * coeffs_.pjPerHostLine;
    r.apPj = (now.apInstructions - base_.apInstructions)
        * coeffs_.pjPerApInstruction;
    r.bufferPj = (now.bufferCommands - base_.bufferCommands)
        * coeffs_.pjPerBufferCommand;
    return r;
}

} // namespace contutto::cpu
