/**
 * @file
 * The acceleration complex: Access processor + units + MMIO window.
 *
 * This is the paper's Figure 12 attach point: the accelerator
 * appears as a special memory-mapped region on the Avalon bus. Host
 * stores deliver the control block; host loads poll the status and
 * completion fields the accelerator writes back.
 */

#ifndef CONTUTTO_ACCEL_COMPLEX_HH
#define CONTUTTO_ACCEL_COMPLEX_HH

#include <memory>

#include "accel/access_processor.hh"
#include "contutto/contutto_card.hh"

namespace contutto::accel
{

/** The MMIO-visible acceleration subsystem on a ConTutto card. */
class AccelComplex : public SimObject, public bus::AvalonSlave
{
  public:
    /**
     * Attaches itself to the card's Avalon bus at @p mmio_base
     * (must lie outside the DIMM address range).
     */
    AccelComplex(const std::string &name, EventQueue &eq,
                 const ClockDomain &domain, stats::StatGroup *parent,
                 fpga::ContuttoCard &card, Addr mmio_base);

    /** @{ AvalonSlave: the control-block window. */
    void access(const mem::MemRequestPtr &req) override;
    std::string slaveName() const override { return name(); }
    /** @} */

    Addr mmioBase() const { return mmioBase_; }
    AccessProcessor &accessProcessor() { return *ap_; }
    FftUnit &fftUnit() { return *fft_; }

    /** True while a task is executing. */
    bool busy() const { return ap_->running(); }

  private:
    void doorbell(const ControlBlock &cb);
    AcceleratorUnit &unitFor(AccelOp op);

    Addr mmioBase_;
    std::unique_ptr<AccessProcessor> ap_;
    std::unique_ptr<MemcpyUnit> memcpyUnit_;
    std::unique_ptr<MinMaxUnit> minMaxUnit_;
    std::unique_ptr<FftUnit> fft_;
    dmi::CacheLine cbLine_{};
    stats::Scalar tasksRun_;
};

} // namespace contutto::accel

#endif // CONTUTTO_ACCEL_COMPLEX_HH
