/**
 * @file
 * The Access processor's instruction set and assembler.
 *
 * The Access processor is "a programmable state machine" that
 * arbitrates and schedules loads/stores to the DDR3 DIMMs on behalf
 * of the attached accelerators, with a programmable address mapping
 * and multithreading (paper §4.3). Its micro-architecture was left
 * to a future paper; this ISA realizes the capabilities §4.3
 * describes: scalar control flow, line-granule load/store streams
 * feeding the accelerator FIFOs, address mapping, and per-thread
 * registers. Programs are authored in a small assembly dialect and
 * stored as executable images in the DIMMs, from which the processor
 * loads them dynamically.
 */

#ifndef CONTUTTO_ACCEL_ISA_HH
#define CONTUTTO_ACCEL_ISA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace contutto::accel
{

/** Number of 64-bit registers per hardware thread. */
constexpr unsigned numRegs = 16;

/** Opcodes. */
enum class Op : std::uint8_t
{
    nop,
    halt,      ///< Thread finished.
    li,        ///< rd = imm.
    add,       ///< rd = ra + rb.
    sub,       ///< rd = ra - rb.
    addi,      ///< rd = ra + imm.
    shl,       ///< rd = ra << imm.
    shr,       ///< rd = ra >> imm.
    andi,      ///< rd = ra & imm.
    jmp,       ///< pc = imm.
    beq,       ///< if (ra == rb) pc = imm.
    bne,       ///< if (ra != rb) pc = imm.
    blt,       ///< if (ra < rb) pc = imm (unsigned).
    bge,       ///< if (ra >= rb) pc = imm (unsigned).
    lineRead,  ///< Stream the 128 B line at [ra] into the accel.
    lineWrite, ///< Pop an accel output line and store it at [ra].
    ldScalar,  ///< rd = 64-bit load from [ra + imm].
    stScalar,  ///< store rb to [ra + imm].
    setMap,    ///< Select address-map mode ra for subsequent lines.
    yield,     ///< Explicit thread switch hint (round-robin anyway).
};

/** One decoded instruction. */
struct Instr
{
    Op op = Op::nop;
    std::uint8_t rd = 0;
    std::uint8_t ra = 0;
    std::uint8_t rb = 0;
    std::int64_t imm = 0;

    std::string toString() const;
};

/** A program image plus its entry metadata. */
struct Program
{
    std::vector<Instr> code;

    /** Encode to the executable byte image stored in the DIMMs. */
    std::vector<std::uint8_t> encode() const;

    /** Decode an image fetched from memory. */
    static Program decode(const std::vector<std::uint8_t> &bytes);
};

/**
 * Two-pass assembler.
 *
 * Syntax: one instruction per line; `label:` defines a label;
 * `;` starts a comment; registers are r0..r15; immediates are
 * decimal or 0x hex; branch/jump targets are labels.
 *
 *     loop:  lineRead r7
 *            addi r7, r7, 128
 *            addi r5, r5, 1
 *            blt r5, r3, loop
 *            halt
 *
 * @throw FatalError on syntax errors or undefined labels.
 */
Program assemble(const std::string &source);

} // namespace contutto::accel

#endif // CONTUTTO_ACCEL_ISA_HH
