/**
 * @file
 * A DDR3 memory controller with bank-state timing.
 *
 * Models the soft memory controller ConTutto instantiates per DIMM
 * port (the Altera DDR3 HPC II equivalent, paper §3.3(v)): an
 * open-page FCFS controller tracking per-bank open rows, the shared
 * data bus, and periodic refresh. Requests complete with latencies
 * that emerge from row hits/misses/conflicts and bus contention; the
 * functional access is applied to the device's MemImage at
 * completion time.
 *
 * The same controller drives DRAM, STT-MRAM and NVDIMM modules; the
 * device contributes extra per-access latency (MRAM write pulse) and
 * opts out of refresh, mirroring how the paper's team modified the
 * generated DRAM controller per vendor guidance (§3.3(v)).
 */

#ifndef CONTUTTO_MEM_DDR3_CONTROLLER_HH
#define CONTUTTO_MEM_DDR3_CONTROLLER_HH

#include <array>

#include "mem/device.hh"
#include "mem/request.hh"
#include "sim/ring.hh"
#include "sim/sim_object.hh"

namespace contutto::mem
{

/** One DDR3 channel driving one memory device (DIMM). */
class Ddr3Controller : public SimObject, public ckpt::Checkpointable
{
  public:
    struct Params
    {
        /** Fixed controller pipeline latency each way. */
        Tick frontendLatency = nanoseconds(8);
        /**
         * Data-bus turnaround penalty when switching between read
         * and write bursts (tWTR/tRTW class). Mixed read/write
         * streams lose bus efficiency to this, which is why the
         * near-memory memcpy moves ~6 GB/s while the read-only
         * min/max scan sustains ~10.5 GB/s (Table 5).
         */
        Tick busTurnaround = nanoseconds(7);
    };

    Ddr3Controller(const std::string &name, EventQueue &eq,
                   const ClockDomain &domain, stats::StatGroup *parent,
                   const Params &params, MemoryDevice &device);

    ~Ddr3Controller() override;

    /** Queue a request; completion via request->onDone. */
    void submit(const MemRequestPtr &req);

    /** True if submit() can accept another request. */
    bool canAccept() const { return queue_.size() < queueCapacity; }

    /** Outstanding requests (queued or in flight). */
    std::size_t pending() const { return queue_.size() + inFlight_; }

    MemoryDevice &device() { return device_; }

    struct CtrlStats
    {
        stats::Scalar reads;
        stats::Scalar writes;
        stats::Scalar rowHits;
        stats::Scalar rowMisses;
        stats::Scalar refreshes;
        stats::Scalar eccCorrected;     ///< Single-bit reads repaired.
        stats::Scalar eccUncorrectable; ///< Reads returned poisoned.
        stats::Distribution accessLatency; ///< ns, submit to done.
    };

    const CtrlStats &ctrlStats() const { return stats_; }

    /** @{ ckpt::Checkpointable: bank/bus timing state plus the
     *  absolute tick of the periodic refresh. Only legal when the
     *  request queue is empty and nothing is in flight; drain
     *  deschedules the refresh event, restore re-arms it at the
     *  recorded tick (after the event queue's tick is restored). */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointDrain() override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    /** Max queued requests before submit() asserts. */
    static constexpr std::size_t queueCapacity = 64;
    /** Banks per DIMM rank (DDR3). */
    static constexpr unsigned numBanks = 8;

    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick readyAt = 0;
    };

    void tryIssue();
    void complete(const MemRequestPtr &req, Tick submitted);
    void refreshTick();

    unsigned bankOf(Addr addr) const;
    std::uint64_t rowOf(Addr addr) const;

    Params params_;
    MemoryDevice &device_;
    sim::Ring<std::pair<MemRequestPtr, Tick>> queue_;
    std::array<Bank, numBanks> banks_{};
    Tick busFreeAt_ = 0;
    bool lastWasWrite_ = false;
    bool anyTransfer_ = false;
    Tick refreshUntil_ = 0;
    unsigned inFlight_ = 0;
    EventFunctionWrapper issueEvent_;
    EventFunctionWrapper refreshEvent_;
    CtrlStats stats_;
};

} // namespace contutto::mem

#endif // CONTUTTO_MEM_DDR3_CONTROLLER_HH
