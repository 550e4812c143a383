#include "accel/complex.hh"

namespace contutto::accel
{

namespace
{

/** Size of the MMIO window (one control block + headroom). */
constexpr std::uint64_t mmioSize = 4096;

} // namespace

AccelComplex::AccelComplex(const std::string &name, EventQueue &eq,
                           const ClockDomain &domain,
                           stats::StatGroup *parent,
                           fpga::ContuttoCard &card, Addr mmio_base)
    : SimObject(name, eq, domain, parent), mmioBase_(mmio_base),
      tasksRun_(this, "tasksRun", "acceleration tasks completed")
{
    ct_assert(mmio_base >= card.capacity());
    ap_ = std::make_unique<AccessProcessor>(
        name + ".ap", eq, domain, this, card.avalon());
    memcpyUnit_ = std::make_unique<MemcpyUnit>(name + ".memcpy", eq,
                                               domain, this);
    minMaxUnit_ = std::make_unique<MinMaxUnit>(name + ".minmax", eq,
                                               domain, this);
    fft_ = std::make_unique<FftUnit>(name + ".fft", eq, domain, this);
    card.avalon().attach(
        *this, bus::AddressRange{mmio_base, mmioSize});
}

AcceleratorUnit &
AccelComplex::unitFor(AccelOp op)
{
    switch (op) {
      case AccelOp::memcpyBlock: return *memcpyUnit_;
      case AccelOp::minMaxScan: return *minMaxUnit_;
      case AccelOp::fft1024: return *fft_;
      default:
        panic("accel: no unit for opcode %u", unsigned(op));
    }
}

void
AccelComplex::access(const mem::MemRequestPtr &req)
{
    // The control block occupies the window's first line; req->addr
    // is slave-relative.
    if (req->isWrite) {
        if (req->addr == 0) {
            if (req->masked) {
                dmi::CacheLine merged = cbLine_;
                for (std::size_t i = 0; i < merged.size(); ++i)
                    if (req->enables[i])
                        merged[i] = req->data[i];
                cbLine_ = merged;
            } else {
                cbLine_ = req->data;
            }
            ControlBlock cb = ControlBlock::fromLine(cbLine_);
            if (cb.opcode != AccelOp::idle
                && cb.status == AccelStatus::idle) {
                doorbell(cb);
            }
        }
    } else {
        req->data.fill(0);
        if (req->addr == 0)
            req->data = cbLine_;
    }
    if (req->onDone)
        req->onDone(*req);
}

void
AccelComplex::doorbell(const ControlBlock &cb)
{
    if (ap_->running()) {
        warn("accel: doorbell while busy; task dropped");
        ControlBlock err = cb;
        err.status = AccelStatus::error;
        cbLine_ = err.toLine();
        return;
    }
    ControlBlock running = cb;
    running.status = AccelStatus::running;
    cbLine_ = running.toLine();
    ap_->launch(cb, unitFor(cb.opcode), [this](const ControlBlock &r) {
        ++tasksRun_;
        cbLine_ = r.toLine();
    });
}

} // namespace contutto::accel
