#include "accel/driver.hh"

namespace contutto::accel
{

namespace
{

/** Status poll spacing. */
constexpr Tick pollInterval = microseconds(1);

} // namespace

std::string
AccelDriver::memcpyProgram()
{
    // r0 tid, r1 src, r2 dst, r3 nLines; thread 0 streams the
    // source in address order, thread 1 drains the pass-through
    // FIFO to the destination in the same order — a decoupled
    // reader/writer pair so reads run ahead of the write stream.
    return R"(
        li r10, 1
        bge r0, r10, writer
        li r5, 0               ; reader
        add r8, r1, r14
rloop:  bge r5, r3, end
        lineRead r8
        addi r8, r8, 128
        addi r5, r5, 1
        jmp rloop
writer: li r5, 0
        add r9, r2, r14
wloop:  bge r5, r3, end
        lineWrite r9
        addi r9, r9, 128
        addi r5, r5, 1
        jmp wloop
end:    halt
)";
}

std::string
AccelDriver::minMaxProgram()
{
    return R"(
        add r5, r0, r14        ; i = tid
        shl r6, r4, 7
        shl r7, r5, 7
        add r8, r1, r7
loop:   bge r5, r3, end
        lineRead r8
        add r8, r8, r6
        add r5, r5, r4
        jmp loop
end:    halt
)";
}

std::string
AccelDriver::fftProgram()
{
    // Thread 0 streams samples in; thread 1 streams results out.
    // The mapping unit pins the two streams to different DIMM
    // ports. Loops are unrolled 4x so the issue pipe keeps both
    // ~10 GB/s streams fed (batches are 64 lines: divisible by 4).
    return R"(
        li r10, 1
        bge r0, r10, writer
        li r5, 0               ; reader
        add r8, r1, r14
rloop:  bge r5, r3, end
        lineRead r8
        addi r8, r8, 128
        lineRead r8
        addi r8, r8, 128
        lineRead r8
        addi r8, r8, 128
        lineRead r8
        addi r8, r8, 128
        addi r5, r5, 4
        jmp rloop
writer: li r5, 0
        add r9, r2, r14
wloop:  bge r5, r3, end
        lineWrite r9
        addi r9, r9, 128
        lineWrite r9
        addi r9, r9, 128
        lineWrite r9
        addi r9, r9, 128
        lineWrite r9
        addi r9, r9, 128
        addi r5, r5, 4
        jmp wloop
end:    halt
)";
}

AccelDriver::AccelDriver(cpu::Power8System &sys, AccelComplex &complex,
                         Addr programRegion)
    : sys_(sys), complex_(complex)
{
    // Stage the pre-compiled executables into the DIMMs.
    Addr cursor = programRegion;
    auto stage = [&](const std::string &src, Addr &addr,
                     std::uint64_t &size) {
        Program prog = assemble(src);
        auto image = prog.encode();
        addr = cursor;
        size = image.size();
        sys_.functionalWrite(addr, image.size(), image.data());
        cursor += (image.size() + dmi::cacheLineSize - 1)
            / dmi::cacheLineSize * dmi::cacheLineSize;
    };
    stage(memcpyProgram(), memcpyProgAddr_, memcpyProgBytes_);
    stage(minMaxProgram(), minMaxProgAddr_, minMaxProgBytes_);
    stage(fftProgram(), fftProgAddr_, fftProgBytes_);
}

void
AccelDriver::memcpyAsync(Addr src, Addr dst, std::uint64_t bytes,
                         Callback done)
{
    ct_assert(bytes % dmi::cacheLineSize == 0);
    ControlBlock cb;
    cb.opcode = AccelOp::memcpyBlock;
    cb.src = src;
    cb.dst = dst;
    cb.lengthBytes = bytes;
    cb.programAddr = memcpyProgAddr_;
    cb.programBytes = memcpyProgBytes_;
    cb.threads = 2; // decoupled reader + writer
    submit(cb, std::move(done));
}

void
AccelDriver::minMaxAsync(Addr base, std::uint64_t bytes, Callback done)
{
    ct_assert(bytes % dmi::cacheLineSize == 0);
    ControlBlock cb;
    cb.opcode = AccelOp::minMaxScan;
    cb.src = base;
    cb.lengthBytes = bytes;
    cb.programAddr = minMaxProgAddr_;
    cb.programBytes = minMaxProgBytes_;
    cb.threads = 4;
    submit(cb, std::move(done));
}

void
AccelDriver::fftAsync(Addr src, Addr dst, std::uint64_t bytes,
                      Callback done)
{
    ct_assert(bytes % (1024 * 8) == 0);
    ControlBlock cb;
    cb.opcode = AccelOp::fft1024;
    cb.src = src;
    cb.dst = dst;
    cb.lengthBytes = bytes;
    cb.programAddr = fftProgAddr_;
    cb.programBytes = fftProgBytes_;
    cb.threads = 2; // one reader, one writer
    cb.srcMap = MapMode::port0Linear;
    cb.dstMap = MapMode::port1Linear;
    submit(cb, std::move(done));
}

void
AccelDriver::stageMapped(MapMode mode, Addr logical, std::size_t len,
                         const std::uint8_t *data)
{
    // Apply the same mapping the Access processor will use.
    while (len > 0) {
        Addr line = logical / dmi::cacheLineSize;
        std::size_t off = std::size_t(logical % dmi::cacheLineSize);
        std::size_t chunk =
            std::min(len, dmi::cacheLineSize - off);
        Addr phys;
        switch (mode) {
          case MapMode::interleaved:
            phys = logical;
            break;
          case MapMode::port0Linear:
            phys = line * 2 * dmi::cacheLineSize + off;
            break;
          case MapMode::port1Linear:
            phys = line * 2 * dmi::cacheLineSize
                + dmi::cacheLineSize + off;
            break;
          default:
            phys = logical;
            break;
        }
        sys_.functionalWrite(phys, chunk, data);
        logical += chunk;
        data += chunk;
        len -= chunk;
    }
}

void
AccelDriver::fetchMapped(MapMode mode, Addr logical, std::size_t len,
                         std::uint8_t *data)
{
    while (len > 0) {
        Addr line = logical / dmi::cacheLineSize;
        std::size_t off = std::size_t(logical % dmi::cacheLineSize);
        std::size_t chunk =
            std::min(len, dmi::cacheLineSize - off);
        Addr phys;
        switch (mode) {
          case MapMode::interleaved:
            phys = logical;
            break;
          case MapMode::port0Linear:
            phys = line * 2 * dmi::cacheLineSize + off;
            break;
          case MapMode::port1Linear:
            phys = line * 2 * dmi::cacheLineSize
                + dmi::cacheLineSize + off;
            break;
          default:
            phys = logical;
            break;
        }
        sys_.functionalRead(phys, chunk, data);
        logical += chunk;
        data += chunk;
        len -= chunk;
    }
}

void
AccelDriver::submit(ControlBlock cb, Callback done)
{
    cb.status = AccelStatus::idle;
    // Store the control block into the MMIO window; the write's
    // arrival rings the doorbell.
    sys_.port().write(complex_.mmioBase(), cb.toLine(),
                      [this, done](const cpu::HostOpResult &) {
                          poll(done);
                      });
}

void
AccelDriver::poll(Callback done)
{
    OneShotEvent::schedule(
        sys_.eventq(),
        sys_.eventq().curTick() + pollInterval, [this, done] {
            sys_.port().read(
                complex_.mmioBase(),
                [this, done](const cpu::HostOpResult &r) {
                    ControlBlock cb = ControlBlock::fromLine(r.data);
                    if (cb.status == AccelStatus::done
                        || cb.status == AccelStatus::error) {
                        done(cb);
                    } else {
                        poll(done);
                    }
                });
        });
}

} // namespace contutto::accel
