#include "accel/access_processor.hh"

#include <cstring>

namespace contutto::accel
{

using mem::MemRequest;
using mem::MemRequestPtr;

namespace
{

/** Instructions retired per fabric cycle. */
constexpr unsigned issueWidth = 2;
constexpr unsigned maxThreads = 4;
constexpr unsigned maxOutstandingReads = 24;
constexpr unsigned maxOutstandingWrites = 24;
/** Pending input lines tolerated before reads throttle. */
constexpr std::size_t inputStageCapacity = 32;
constexpr std::size_t imemCapacity = 4096;
static_assert(issueWidth > 0 && maxThreads > 0);

} // namespace

AccessProcessor::AccessProcessor(const std::string &name,
                                 EventQueue &eq,
                                 const ClockDomain &domain,
                                 stats::StatGroup *parent,
                                 bus::AvalonBus &bus)
    : SimObject(name, eq, domain, parent),
      readPort_(&bus.createPort(name + ".rd")),
      writePort_(&bus.createPort(name + ".wr")),
      cycleEvent_([this] { cycle(); }, name + ".cycle"),
      stats_{{this, "instructions", "instructions retired"},
             {this, "linesRead", "lines streamed from the DIMMs"},
             {this, "linesWritten", "lines streamed to the DIMMs"},
             {this, "fifoStalls", "cycles stalled on accel FIFOs"},
             {this, "memStalls", "cycles stalled on memory limits"},
             {this, "programsLoaded", "program images fetched"}}
{}

AccessProcessor::~AccessProcessor()
{
    if (cycleEvent_.scheduled())
        eventq().deschedule(&cycleEvent_);
}

void
AccessProcessor::launch(const ControlBlock &cb, AcceleratorUnit &unit,
                        std::function<void(const ControlBlock &)> done)
{
    ct_assert(!running_);
    running_ = true;
    cb_ = cb;
    cb_.status = AccelStatus::running;
    unit_ = &unit;
    done_ = std::move(done);
    unit_->reset(cb_);
    outstandingReads_ = outstandingWrites_ = 0;
    inputStage_.clear();
    readSeqNext_ = readSeqExpected_ = 0;
    readReorder_.clear();
    fetchProgram();
}

void
AccessProcessor::fetchProgram()
{
    // The executable image is retrieved from the DDR3 DIMMs into the
    // internal instruction memory (paper §4.3), over the same bus.
    ct_assert(cb_.programBytes > 0
              && cb_.programBytes % 16 == 0);
    unsigned lines = unsigned((cb_.programBytes
                               + dmi::cacheLineSize - 1)
                              / dmi::cacheLineSize);
    fetchLinesLeft_ = lines;
    fetchBuffer_.assign(std::size_t(lines) * dmi::cacheLineSize, 0);
    for (unsigned i = 0; i < lines; ++i) {
        auto req = std::make_shared<MemRequest>();
        req->addr = cb_.programAddr + Addr(i) * dmi::cacheLineSize;
        req->isWrite = false;
        unsigned idx = i;
        req->onDone = [this, idx](MemRequest &r) {
            std::memcpy(fetchBuffer_.data()
                            + std::size_t(idx) * dmi::cacheLineSize,
                        r.data.data(), dmi::cacheLineSize);
            if (--fetchLinesLeft_ == 0) {
                fetchBuffer_.resize(cb_.programBytes);
                program_ = Program::decode(fetchBuffer_);
                if (program_.code.size() > imemCapacity)
                    fatal("program exceeds instruction memory");
                ++stats_.programsLoaded;
                startThreads();
            }
        };
        readPort_->submit(req);
    }
}

void
AccessProcessor::startThreads()
{
    unsigned n = std::min(cb_.threads, maxThreads);
    ct_assert(n > 0);
    threads_.assign(n, Thread{});
    for (unsigned t = 0; t < n; ++t) {
        Thread &th = threads_[t];
        th.state = ThreadState::runnable;
        th.pc = 0;
        th.regs[0] = t;
        th.regs[1] = cb_.src;
        th.regs[2] = cb_.dst;
        th.regs[3] = cb_.lengthBytes / dmi::cacheLineSize;
        th.regs[4] = n;
        th.srcMap = cb_.srcMap;
        th.dstMap = cb_.dstMap;
    }
    rrNext_ = 0;
    if (!cycleEvent_.scheduled())
        scheduleClocked(&cycleEvent_, 0);
}

Addr
AccessProcessor::mapAddr(Addr logical, MapMode mode) const
{
    // The programmable address-mapping unit. Port-linear modes pin a
    // logical stream to one DIMM port so a read stream and a write
    // stream never share a data bus (no turnaround penalties) — how
    // the FFT keeps both directions at full rate.
    Addr line = logical / dmi::cacheLineSize;
    Addr offset = logical % dmi::cacheLineSize;
    switch (mode) {
      case MapMode::interleaved:
        return logical;
      case MapMode::port0Linear:
        return line * 2 * dmi::cacheLineSize + offset;
      case MapMode::port1Linear:
        return line * 2 * dmi::cacheLineSize + dmi::cacheLineSize
            + offset;
    }
    return logical;
}

void
AccessProcessor::drainInputStage()
{
    while (!inputStage_.empty()
           && unit_->pushInput(inputStage_.front()))
        inputStage_.pop_front();
}

void
AccessProcessor::cycle()
{
    drainInputStage();

    unsigned issued = 0;
    unsigned attempts = 0;
    unsigned n = unsigned(threads_.size());
    while (issued < issueWidth && attempts < n) {
        unsigned tid = rrNext_;
        rrNext_ = (rrNext_ + 1) % n;
        ++attempts;
        if (threads_[tid].state != ThreadState::runnable)
            continue;
        if (execute(tid)) {
            ++issued;
            ++stats_.instructions;
        }
    }

    // Only runnable threads keep the clock alive. When every live
    // thread is blocked on a scalar load, the core quiesces instead
    // of polling edges through the whole memory round trip; the load
    // completion calls wake() and execution resumes on the edge the
    // old poll would have reached. Threads stalled on FIFO or
    // outstanding-op limits stay runnable and therefore keep the
    // clock ticking until the retry succeeds.
    bool any_runnable = false;
    for (const Thread &t : threads_)
        if (t.state == ThreadState::runnable)
            any_runnable = true;
    if (running_ && any_runnable)
        scheduleClocked(&cycleEvent_, 1);
}

bool
AccessProcessor::execute(unsigned tid)
{
    Thread &th = threads_[tid];
    if (th.pc >= program_.code.size()) {
        th.state = ThreadState::halted;
        maybeFinish();
        return true;
    }
    const Instr &i = program_.code[th.pc];
    auto r = [&](std::uint8_t n) -> std::uint64_t & {
        return th.regs[n];
    };

    switch (i.op) {
      case Op::nop:
      case Op::yield:
        ++th.pc;
        return true;
      case Op::halt:
        th.state = ThreadState::halted;
        maybeFinish();
        return true;
      case Op::li:
        r(i.rd) = std::uint64_t(i.imm);
        ++th.pc;
        return true;
      case Op::add:
        r(i.rd) = r(i.ra) + r(i.rb);
        ++th.pc;
        return true;
      case Op::sub:
        r(i.rd) = r(i.ra) - r(i.rb);
        ++th.pc;
        return true;
      case Op::addi:
        r(i.rd) = r(i.ra) + std::uint64_t(i.imm);
        ++th.pc;
        return true;
      case Op::shl:
        r(i.rd) = r(i.ra) << (i.imm & 63);
        ++th.pc;
        return true;
      case Op::shr:
        r(i.rd) = r(i.ra) >> (i.imm & 63);
        ++th.pc;
        return true;
      case Op::andi:
        r(i.rd) = r(i.ra) & std::uint64_t(i.imm);
        ++th.pc;
        return true;
      case Op::jmp:
        th.pc = std::uint64_t(i.imm);
        return true;
      case Op::beq:
        th.pc = (r(i.ra) == r(i.rb)) ? std::uint64_t(i.imm)
                                     : th.pc + 1;
        return true;
      case Op::bne:
        th.pc = (r(i.ra) != r(i.rb)) ? std::uint64_t(i.imm)
                                     : th.pc + 1;
        return true;
      case Op::blt:
        th.pc = (r(i.ra) < r(i.rb)) ? std::uint64_t(i.imm)
                                    : th.pc + 1;
        return true;
      case Op::bge:
        th.pc = (r(i.ra) >= r(i.rb)) ? std::uint64_t(i.imm)
                                     : th.pc + 1;
        return true;

      case Op::lineRead: {
        if (outstandingReads_ >= maxOutstandingReads
            || inputStage_.size() >= inputStageCapacity
            || !readPort_->canAccept()) {
            ++stats_.memStalls;
            return false;
        }
        auto req = std::make_shared<MemRequest>();
        req->addr = mapAddr(r(i.ra), th.srcMap);
        req->isWrite = false;
        ++outstandingReads_;
        if (unit_->needsOrderedInput()) {
            // The bus and banks may reorder completions; a reorder
            // stage restores stream order so the data popping out of
            // the unit pairs with the write addresses.
            std::uint64_t seq = readSeqNext_++;
            req->onDone = [this, seq](MemRequest &rq) {
                --outstandingReads_;
                readReorder_[seq] = rq.data;
                while (!readReorder_.empty()
                       && readReorder_.begin()->first
                              == readSeqExpected_) {
                    inputStage_.push_back(
                        readReorder_.begin()->second);
                    readReorder_.erase(readReorder_.begin());
                    ++readSeqExpected_;
                }
                drainInputStage();
                maybeFinish();
            };
        } else {
            req->onDone = [this](MemRequest &rq) {
                --outstandingReads_;
                inputStage_.push_back(rq.data);
                drainInputStage();
                maybeFinish();
            };
        }
        readPort_->submit(req);
        ++stats_.linesRead;
        ++th.pc;
        return true;
      }

      case Op::lineWrite: {
        if (outstandingWrites_ >= maxOutstandingWrites
            || !writePort_->canAccept()) {
            ++stats_.memStalls;
            return false;
        }
        dmi::CacheLine out;
        if (!unit_->popOutput(out)) {
            ++stats_.fifoStalls;
            return false;
        }
        auto req = std::make_shared<MemRequest>();
        req->addr = mapAddr(r(i.ra), th.dstMap);
        req->isWrite = true;
        req->data = out;
        ++outstandingWrites_;
        req->onDone = [this](MemRequest &) {
            --outstandingWrites_;
            maybeFinish();
        };
        writePort_->submit(req);
        ++stats_.linesWritten;
        ++th.pc;
        return true;
      }

      case Op::ldScalar: {
        if (!readPort_->canAccept()) {
            ++stats_.memStalls;
            return false;
        }
        Addr target = r(i.ra) + std::uint64_t(i.imm);
        Addr line_addr = target & ~Addr(dmi::cacheLineSize - 1);
        auto req = std::make_shared<MemRequest>();
        req->addr = line_addr;
        req->isWrite = false;
        th.state = ThreadState::blockedLoad;
        std::uint8_t rd = i.rd;
        std::size_t off = std::size_t(target - line_addr);
        unsigned t = tid;
        req->onDone = [this, rd, off, t](MemRequest &rq) {
            std::uint64_t v;
            std::memcpy(&v, rq.data.data() + off, 8);
            threads_[t].regs[rd] = v;
            threads_[t].state = ThreadState::runnable;
            wake();
        };
        readPort_->submit(req);
        ++th.pc;
        return true;
      }

      case Op::stScalar: {
        if (outstandingWrites_ >= maxOutstandingWrites
            || !writePort_->canAccept()) {
            ++stats_.memStalls;
            return false;
        }
        Addr target = r(i.ra) + std::uint64_t(i.imm);
        Addr line_addr = target & ~Addr(dmi::cacheLineSize - 1);
        auto req = std::make_shared<MemRequest>();
        req->addr = line_addr;
        req->isWrite = true;
        req->masked = true;
        std::uint64_t v = r(i.rb);
        std::size_t off = std::size_t(target - line_addr);
        std::memcpy(req->data.data() + off, &v, 8);
        for (std::size_t b = 0; b < 8; ++b)
            req->enables.set(off + b);
        ++outstandingWrites_;
        req->onDone = [this](MemRequest &) {
            --outstandingWrites_;
            maybeFinish();
        };
        writePort_->submit(req);
        ++th.pc;
        return true;
      }

      case Op::setMap: {
        std::uint64_t v = r(i.ra);
        th.srcMap = MapMode(v & 0xF);
        th.dstMap = MapMode((v >> 4) & 0xF);
        ++th.pc;
        return true;
      }
    }
    panic("access processor: bad opcode %d", int(i.op));
}

void
AccessProcessor::wake()
{
    if (running_ && !cycleEvent_.scheduled())
        scheduleClocked(&cycleEvent_, 0);
}

void
AccessProcessor::maybeFinish()
{
    if (!running_)
        return;
    for (const Thread &t : threads_)
        if (t.state != ThreadState::halted)
            return;
    if (outstandingReads_ || outstandingWrites_)
        return;
    if (!inputStage_.empty() || !readReorder_.empty()
        || unit_->busy())
        return;
    running_ = false;
    unit_->finalize(cb_);
    cb_.status = AccelStatus::done;
    if (done_)
        done_(cb_);
}

} // namespace contutto::accel
