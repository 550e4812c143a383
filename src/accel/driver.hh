/**
 * @file
 * Host-side driver for the near-memory acceleration complex.
 *
 * Mirrors the paper's software flow (§4.3): the driver keeps the
 * pre-compiled Access-processor programs resident in the DIMMs,
 * sends a control block to the accelerator's memory-mapped window
 * with store instructions, and polls the status field with loads
 * until the accelerator reports completion.
 */

#ifndef CONTUTTO_ACCEL_DRIVER_HH
#define CONTUTTO_ACCEL_DRIVER_HH

#include <functional>

#include "accel/complex.hh"
#include "cpu/system.hh"

namespace contutto::accel
{

/** The host driver. */
class AccelDriver
{
  public:
    /**
     * Assembles the kernel programs and stages their executable
     * images into the DIMMs behind @p complex's card, starting at
     * @p programRegion in main memory.
     */
    AccelDriver(cpu::Power8System &sys, AccelComplex &complex,
                Addr programRegion);

    using Callback = std::function<void(const ControlBlock &)>;

    /** @{ Offload one task; the callback fires on completion. */
    void memcpyAsync(Addr src, Addr dst, std::uint64_t bytes,
                     Callback done);
    void minMaxAsync(Addr base, std::uint64_t bytes, Callback done);
    /**
     * Batched 1024-point FFTs. @p src and @p dst are logical stream
     * offsets; the Access processor's mapping unit pins the input
     * stream to DIMM port 0 and the output stream to port 1.
     */
    void fftAsync(Addr src, Addr dst, std::uint64_t bytes,
                  Callback done);
    /** @} */

    /** @{ Stage/fetch data under a mapping mode (FFT buffers). */
    void stageMapped(MapMode mode, Addr logical, std::size_t len,
                     const std::uint8_t *data);
    void fetchMapped(MapMode mode, Addr logical, std::size_t len,
                     std::uint8_t *data);
    /** @} */

    /** The assembly sources (exposed for tests and docs). */
    static std::string memcpyProgram();
    static std::string minMaxProgram();
    static std::string fftProgram();

  private:
    void submit(ControlBlock cb, Callback done);
    void poll(Callback done);

    cpu::Power8System &sys_;
    AccelComplex &complex_;
    Addr memcpyProgAddr_ = 0;
    std::uint64_t memcpyProgBytes_ = 0;
    Addr minMaxProgAddr_ = 0;
    std::uint64_t minMaxProgBytes_ = 0;
    Addr fftProgAddr_ = 0;
    std::uint64_t fftProgBytes_ = 0;
};

} // namespace contutto::accel

#endif // CONTUTTO_ACCEL_DRIVER_HH
