/** @file Access-processor execution tests: scalar ops, maps. */

#include <gtest/gtest.h>

#include "accel/complex.hh"
#include "accel/driver.hh"
#include "cpu/system.hh"

using namespace contutto;
using namespace contutto::accel;
using namespace contutto::cpu;

namespace
{

struct ApRig
{
    Power8System sys;
    std::unique_ptr<AccelComplex> complex;

    ApRig() : sys(makeParams())
    {
        bool trained = sys.train();
        ct_assert(trained);
        complex = std::make_unique<AccelComplex>(
            "accel", sys.eventq(), sys.fabricDomain(), &sys,
            *sys.card(), 2ull * GiB);
    }

    static Power8System::Params
    makeParams()
    {
        Power8System::Params p;
        p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
                   DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
        return p;
    }

    /** Stage a program and run it with the given control block. */
    ControlBlock
    run(const std::string &source, ControlBlock cb)
    {
        Program prog = assemble(source);
        auto image = prog.encode();
        const Addr prog_addr = 64 * MiB;
        sys.functionalWrite(prog_addr, image.size(), image.data());
        cb.programAddr = prog_addr;
        cb.programBytes = image.size();
        if (cb.opcode == AccelOp::idle)
            cb.opcode = AccelOp::minMaxScan; // any unit works

        bool done = false;
        ControlBlock result;
        complex->accessProcessor().launch(
            cb, complex->fftUnit(), [&](const ControlBlock &r) {
                result = r;
                done = true;
            });
        while (!done && sys.eventq().step()) {
        }
        return result;
    }
};

TEST(AccessProcessor, ScalarLoadComputeStore)
{
    ApRig rig;
    // mem[0x1000] = 40, mem[0x1008] = 2; program stores the sum at
    // the destination address (r2).
    std::uint64_t a = 40, b = 2;
    rig.sys.functionalWrite(0x1000, 8,
                            reinterpret_cast<std::uint8_t *>(&a));
    rig.sys.functionalWrite(0x1008, 8,
                            reinterpret_cast<std::uint8_t *>(&b));

    ControlBlock cb;
    cb.src = 0x1000;
    cb.dst = 0x2000;
    cb.lengthBytes = 128;
    cb.threads = 1;
    auto result = rig.run(R"(
        ldScalar r5, r1, 0
        ldScalar r6, r1, 8
        add r7, r5, r6
        stScalar r2, r7, 0
        halt
    )", cb);
    EXPECT_EQ(result.status, AccelStatus::done);

    std::uint64_t sum = 0;
    rig.sys.functionalRead(0x2000, 8,
                           reinterpret_cast<std::uint8_t *>(&sum));
    EXPECT_EQ(sum, 42u);
}

TEST(AccessProcessor, ScalarLoopComputesFibonacci)
{
    ApRig rig;
    ControlBlock cb;
    cb.dst = 0x3000;
    cb.lengthBytes = 128;
    cb.threads = 1;
    // fib(12) = 144 with a register loop, stored via stScalar.
    auto result = rig.run(R"(
        li r5, 0          ; fib(0)
        li r6, 1          ; fib(1)
        li r7, 12         ; n
loop:   beq r7, r14, end  ; r14 is always zero
        add r8, r5, r6
        add r5, r6, r14
        add r6, r8, r14
        addi r7, r7, -1
        jmp loop
end:    stScalar r2, r5, 0
        halt
    )", cb);
    EXPECT_EQ(result.status, AccelStatus::done);

    std::uint64_t fib = 0;
    rig.sys.functionalRead(0x3000, 8,
                           reinterpret_cast<std::uint8_t *>(&fib));
    EXPECT_EQ(fib, 144u);
}

TEST(AccessProcessor, SetMapRedirectsLineStreams)
{
    ApRig rig;
    // Stage data at logical address 0 under the port0-linear map.
    std::vector<std::uint8_t> blob(256);
    for (std::size_t i = 0; i < blob.size(); ++i)
        blob[i] = std::uint8_t(i + 1);
    AccelDriver driver(rig.sys, *rig.complex, 128 * MiB);
    driver.stageMapped(MapMode::port0Linear, 0, blob.size(),
                       blob.data());

    // Program: select src map port0Linear (value 1) via setMap,
    // stream 2 lines in, write them out under the (default)
    // interleaved map at dst.
    ControlBlock cb;
    cb.src = 0;
    cb.dst = 8 * MiB;
    cb.lengthBytes = 256;
    cb.threads = 1;
    Program prog = assemble(R"(
        li r10, 1         ; srcMap = port0Linear, dstMap = interleaved
        setMap r10
        add r8, r1, r14
        add r9, r2, r14
        lineRead r8
        addi r8, r8, 128
        lineRead r8
        lineWrite r9
        addi r9, r9, 128
        lineWrite r9
        halt
    )");
    auto image = prog.encode();
    rig.sys.functionalWrite(64 * MiB, image.size(), image.data());
    cb.programAddr = 64 * MiB;
    cb.programBytes = image.size();

    MemcpyUnit unit("copyUnit", rig.sys.eventq(),
                    rig.sys.fabricDomain(), &rig.sys);
    bool done = false;
    rig.complex->accessProcessor().launch(
        cb, unit, [&](const ControlBlock &) { done = true; });
    while (!done && rig.sys.eventq().step()) {
    }
    ASSERT_TRUE(done);

    // The interleaved destination must now hold the port0-linear
    // source bytes.
    std::vector<std::uint8_t> out(blob.size());
    rig.sys.functionalRead(8 * MiB, out.size(), out.data());
    EXPECT_EQ(out, blob);
}

} // namespace
