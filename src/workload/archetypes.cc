#include "workload/archetypes.hh"

#include <algorithm>

#include "support/log.hh"
#include "workload/kernels.hh"

namespace prorace::workload {

namespace {

uint32_t
scaledItems(uint32_t items, double scale)
{
    const auto scaled = static_cast<uint32_t>(items * scale);
    return std::max<uint32_t>(1, scaled);
}

/** rcx = &sym[index_reg], clobbering rsi. index_reg is in elements. */
void
emitElemAddr(ProgramBuilder &b, const std::string &sym, Reg index_reg,
             Reg out)
{
    b.movrr(Reg::rsi, index_reg);
    b.aluri(AluOp::kShl, Reg::rsi, 3);
    b.lea(out, b.symRef(sym));
    b.alurr(AluOp::kAdd, out, Reg::rsi);
}

} // namespace

Workload
makeMpmcQueue(unsigned threads, uint32_t items, bool racy_publish,
              double scale)
{
    // Producers and consumers are DISJOINT thread sets on purpose: a
    // thread that both produced and consumed would release its slot
    // stores into the tail acq_rel chain via its own consume ticket,
    // ordering them before every later consume — making even the plain
    // flag handshake race-free. Keeping the roles apart means the only
    // producer->consumer edge is the per-cell rel/acq flag, so the
    // "-racy" plain-flag variant races in every schedule.
    PRORACE_ASSERT(threads >= 2 && threads % 2 == 0,
                   "MPMC needs an even thread count >= 2");
    items = scaledItems(items, scale);
    const unsigned producers = threads / 2;
    const uint64_t capacity =
        static_cast<uint64_t>(producers) * items; // single-use ring

    ProgramBuilder b;
    b.global("head", 8);
    b.global("tail", 8);
    b.global("ring", capacity * 8);
    b.global("flags", capacity * 8);

    b.label("main");
    b.movri(Reg::rcx, 0);
    b.label("m_spawn_p");
    b.movrr(Reg::r12, Reg::rcx);
    b.spawn(Reg::rax, "producer", Reg::r12);
    b.push(Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, producers);
    b.jcc(CondCode::kLt, "m_spawn_p");
    b.movri(Reg::rcx, 0);
    b.label("m_spawn_c");
    b.movrr(Reg::r12, Reg::rcx);
    b.spawn(Reg::rax, "consumer", Reg::r12);
    b.push(Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, producers);
    b.jcc(CondCode::kLt, "m_spawn_c");
    b.movri(Reg::rcx, 0);
    b.label("m_join");
    b.pop(Reg::rax);
    b.join(Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, threads);
    b.jcc(CondCode::kLt, "m_join");
    b.halt();

    // Producer: claim a head ticket, fill the slot, publish the flag.
    b.beginFunction("producer");
    b.movri(Reg::r13, 0); // iteration; doubles as the payload
    b.label("p_loop");
    b.movri(Reg::rdx, 1);
    b.atomicRmwAcqRel(AluOp::kAdd, Reg::rax, b.symRef("head"), Reg::rdx);
    emitElemAddr(b, "ring", Reg::rax, Reg::rcx);
    const uint32_t slot_store =
        b.store(MemOperand::baseDisp(Reg::rcx, 0), Reg::r13);
    emitElemAddr(b, "flags", Reg::rax, Reg::rcx);
    b.movri(Reg::r8, 1);
    const uint32_t flag_store = racy_publish
        ? b.store(MemOperand::baseDisp(Reg::rcx, 0), Reg::r8)
        : b.storeRel(MemOperand::baseDisp(Reg::rcx, 0), Reg::r8);
    emitComputeLoop(b, "p_work", 12);
    b.addri(Reg::r13, 1);
    b.cmpri(Reg::r13, items);
    b.jcc(CondCode::kLt, "p_loop");
    b.halt();
    b.endFunction();

    // Consumer: claim a tail ticket, spin until its flag is up, read.
    b.beginFunction("consumer");
    b.movri(Reg::r13, 0); // iteration
    b.label("c_loop");
    b.movri(Reg::rdx, 1);
    b.atomicRmwAcqRel(AluOp::kAdd, Reg::rax, b.symRef("tail"), Reg::rdx);
    emitElemAddr(b, "flags", Reg::rax, Reg::rcx);
    b.label("c_spin");
    const uint32_t flag_load = racy_publish
        ? b.load(Reg::r8, MemOperand::baseDisp(Reg::rcx, 0))
        : b.loadAcq(Reg::r8, MemOperand::baseDisp(Reg::rcx, 0));
    b.cmpri(Reg::r8, 0);
    b.jcc(CondCode::kEq, "c_spin");
    emitElemAddr(b, "ring", Reg::rax, Reg::rcx);
    const uint32_t slot_load =
        b.load(Reg::rax, MemOperand::baseDisp(Reg::rcx, 0));
    emitComputeLoop(b, "c_work", 12);
    b.addri(Reg::r13, 1);
    b.cmpri(Reg::r13, items);
    b.jcc(CondCode::kLt, "c_loop");
    b.halt();
    b.endFunction();
    emitLibHelpers(b);

    Workload w;
    w.name = racy_publish ? "mpmc-queue-racy" : "mpmc-queue";
    w.description = racy_publish
        ? "lock-free MPMC queue with plain (unordered) flag publication"
        : "lock-free MPMC queue over acq_rel tickets and rel/acq flags";
    w.program = std::make_shared<asmkit::Program>(b.build());
    w.setup = [](vm::Machine &m) { m.addThread("main"); };
    w.pt_filter = mainExecutableFilter(*w.program);
    if (racy_publish) {
        RacyBug slot_bug;
        slot_bug.id = w.name + "/slot";
        slot_bug.manifestation = "unpublished slot read";
        slot_bug.kind = AddressKind::kRegisterIndirect;
        slot_bug.racy_insns = {slot_store, slot_load};
        w.bugs.push_back(slot_bug);
        RacyBug flag_bug;
        flag_bug.id = w.name + "/flag";
        flag_bug.manifestation = "plain flag handshake";
        flag_bug.kind = AddressKind::kRegisterIndirect;
        flag_bug.racy_insns = {flag_store, flag_load};
        w.bugs.push_back(flag_bug);
    }
    return w;
}

Workload
makeRcuTable(unsigned threads, uint32_t items, double scale)
{
    PRORACE_ASSERT(threads >= 2, "RCU table needs >= 2 threads");
    items = scaledItems(items, scale);
    constexpr uint32_t kCells = 64;

    ProgramBuilder b;
    b.global("rcu_rw", 8);
    b.global("table", kCells * 8);
    b.global("epoch", 8);

    b.label("main");
    b.movri(Reg::rcx, 0);
    b.label("m_spawn");
    b.movrr(Reg::r12, Reg::rcx);
    b.spawn(Reg::rax, "worker", Reg::r12);
    b.push(Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, threads);
    b.jcc(CondCode::kLt, "m_spawn");
    b.movri(Reg::rcx, 0);
    b.label("m_join");
    b.pop(Reg::rax);
    b.join(Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, threads);
    b.jcc(CondCode::kLt, "m_join");
    b.halt();

    b.beginFunction("worker");
    b.movrr(Reg::r14, Reg::rdi); // tid
    b.movri(Reg::r13, 0);        // iteration
    b.cmpri(Reg::r14, 0);
    b.jcc(CondCode::kNe, "rdr");

    // Thread 0: the writer. Updates one cell and the epoch per grace
    // period, under the write lock.
    b.label("wrt");
    b.wrlock(b.symRef("rcu_rw"));
    b.movrr(Reg::rax, Reg::r13);
    b.aluri(AluOp::kAnd, Reg::rax, kCells - 1);
    emitElemAddr(b, "table", Reg::rax, Reg::rcx);
    b.store(MemOperand::baseDisp(Reg::rcx, 0), Reg::r13);
    b.load(Reg::rdx, b.symRef("epoch"));
    b.addri(Reg::rdx, 1);
    b.store(b.symRef("epoch"), Reg::rdx);
    b.rwunlock(b.symRef("rcu_rw"));
    emitComputeLoop(b, "wrt_gap", 24);
    b.addri(Reg::r13, 1);
    b.cmpri(Reg::r13, items);
    b.jcc(CondCode::kLt, "wrt");
    b.halt();

    // Everyone else: read-side critical sections sweeping the table.
    // Concurrent readers keep the cells' shadow state read-shared.
    b.label("rdr");
    b.rdlock(b.symRef("rcu_rw"));
    b.lea(Reg::r8, b.symRef("table"));
    emitArraySweep(b, "rdr_sweep", Reg::r8, 8, false);
    b.load(Reg::rax, b.symRef("epoch"));
    b.rwunlock(b.symRef("rcu_rw"));
    emitComputeLoop(b, "rdr_gap", 12);
    b.addri(Reg::r13, 1);
    b.cmpri(Reg::r13, items);
    b.jcc(CondCode::kLt, "rdr");
    b.halt();
    b.endFunction();
    emitLibHelpers(b);

    Workload w;
    w.name = "rcu-table";
    w.description =
        "rwlock-protected table: one writer, many concurrent readers";
    w.program = std::make_shared<asmkit::Program>(b.build());
    w.setup = [](vm::Machine &m) { m.addThread("main"); };
    w.pt_filter = mainExecutableFilter(*w.program);
    return w;
}

Workload
makeEventLoop(unsigned threads, uint32_t items, double scale)
{
    PRORACE_ASSERT(threads >= 1, "event loop needs >= 1 worker");
    items = scaledItems(items, scale);
    const uint64_t total = static_cast<uint64_t>(threads) * items;

    ProgramBuilder b;
    b.global("jobs_sem", 8);
    b.global("qlock", 8);
    b.global("qhead", 8);
    b.global("qtail", 8);
    b.global("jobs", total * 8);
    b.global("stats", 8);

    // main doubles as the dispatcher: it spawns the workers, then
    // pushes every job (ring write under the spinlock, then a post).
    b.label("main");
    b.semInit(b.symRef("jobs_sem"), 0);
    b.movri(Reg::rcx, 0);
    b.label("m_spawn");
    b.movrr(Reg::r12, Reg::rcx);
    b.spawn(Reg::rax, "worker", Reg::r12);
    b.push(Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, threads);
    b.jcc(CondCode::kLt, "m_spawn");

    b.movri(Reg::r13, 0);
    b.label("m_dispatch");
    b.spinLock(b.symRef("qlock"));
    b.load(Reg::rax, b.symRef("qtail"));
    emitElemAddr(b, "jobs", Reg::rax, Reg::rcx);
    b.store(MemOperand::baseDisp(Reg::rcx, 0), Reg::r13);
    b.addri(Reg::rax, 1);
    b.store(b.symRef("qtail"), Reg::rax);
    b.spinUnlock(b.symRef("qlock"));
    b.semPost(b.symRef("jobs_sem"));
    b.addri(Reg::r13, 1);
    b.cmpri(Reg::r13, static_cast<int64_t>(total));
    b.jcc(CondCode::kLt, "m_dispatch");

    b.movri(Reg::rcx, 0);
    b.label("m_join");
    b.pop(Reg::rax);
    b.join(Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, threads);
    b.jcc(CondCode::kLt, "m_join");
    b.halt();

    // Workers: wait for a job credit, pop under the spinlock (which is
    // also what orders the dispatcher's ring write before the read),
    // then simulate handling the request.
    b.beginFunction("worker");
    b.movri(Reg::r13, 0);
    b.label("w_loop");
    b.semWait(b.symRef("jobs_sem"));
    b.spinLock(b.symRef("qlock"));
    b.load(Reg::rax, b.symRef("qhead"));
    emitElemAddr(b, "jobs", Reg::rax, Reg::rcx);
    b.load(Reg::r9, MemOperand::baseDisp(Reg::rcx, 0));
    b.addri(Reg::rax, 1);
    b.store(b.symRef("qhead"), Reg::rax);
    b.load(Reg::rdx, b.symRef("stats"));
    b.addri(Reg::rdx, 1);
    b.store(b.symRef("stats"), Reg::rdx);
    b.spinUnlock(b.symRef("qlock"));
    b.aluri(AluOp::kAnd, Reg::r9, 15);
    b.addri(Reg::r9, 8);
    emitVariableComputeLoop(b, "w_handle", Reg::r9);
    b.addri(Reg::r13, 1);
    b.cmpri(Reg::r13, items);
    b.jcc(CondCode::kLt, "w_loop");
    b.halt();
    b.endFunction();
    emitLibHelpers(b);

    Workload w;
    w.name = "event-loop";
    w.description =
        "semaphore-signaled job queue behind a spinlock, N workers";
    w.program = std::make_shared<asmkit::Program>(b.build());
    w.setup = [](vm::Machine &m) { m.addThread("main"); };
    w.pt_filter = mainExecutableFilter(*w.program);
    return w;
}

Workload
makePtrDispatch(unsigned threads, uint32_t items, double scale)
{
    PRORACE_ASSERT(threads >= 1, "ptr-dispatch needs >= 1 worker");
    items = scaledItems(items, scale);
    constexpr uint32_t kHandlers = 4;
    constexpr uint32_t kBufElems = 16;

    ProgramBuilder b;
    // coeff is never stored to: a provably-immutable global. coeffp is
    // a second-level pointer whose init word is coeff's address, so a
    // handler reaches coeff through a register-indirect load — the
    // points-to layer's constant-recovery showcase.
    const uint64_t coeff_addr = b.globalU64("coeff", 0x243f6a8885a308d3ull);
    b.globalU64("coeffp", coeff_addr);
    b.global("htab", kHandlers * 8);
    b.global("fin_ptr", 8);

    // main installs the handler table at runtime (movLabel + store, the
    // pattern the blunt address-taken scan over-approximates), spawns
    // the workers, and finishes with an indirect call through fin_ptr.
    b.label("main");
    b.movLabel(Reg::rdx, "h0");
    b.store(b.symRef("htab", 0), Reg::rdx);
    b.movLabel(Reg::rdx, "h1");
    b.store(b.symRef("htab", 8), Reg::rdx);
    b.movLabel(Reg::rdx, "h2");
    b.store(b.symRef("htab", 16), Reg::rdx);
    b.movLabel(Reg::rdx, "h3");
    b.store(b.symRef("htab", 24), Reg::rdx);
    b.movLabel(Reg::rdx, "finalizer");
    b.store(b.symRef("fin_ptr"), Reg::rdx);
    b.movri(Reg::rcx, 0);
    b.label("m_spawn");
    b.movrr(Reg::r12, Reg::rcx);
    b.spawn(Reg::rax, "worker", Reg::r12);
    b.push(Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, threads);
    b.jcc(CondCode::kLt, "m_spawn");
    b.movri(Reg::rcx, 0);
    b.label("m_join");
    b.pop(Reg::rax);
    b.join(Reg::rax);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, threads);
    b.jcc(CondCode::kLt, "m_join");
    b.load(Reg::rdx, b.symRef("fin_ptr"));
    b.callind(Reg::rdx);
    b.halt();

    // Worker: malloc a private buffer, fill it before any calls, then
    // dispatch through the table. The buffer never escapes the thread.
    b.beginFunction("worker");
    b.movrr(Reg::r14, Reg::rdi); // tid
    b.movri(Reg::rax, kBufElems * 8);
    b.mallocCall(Reg::r15, Reg::rax);
    b.movri(Reg::rcx, 0);
    b.label("w_fill");
    b.movrr(Reg::rdx, Reg::rcx);
    b.alurr(AluOp::kAdd, Reg::rdx, Reg::r14);
    b.store(MemOperand::baseIndex(Reg::r15, Reg::rcx, 8), Reg::rdx);
    b.addri(Reg::rcx, 1);
    b.cmpri(Reg::rcx, kBufElems);
    b.jcc(CondCode::kLt, "w_fill");
    b.movri(Reg::r13, 0); // iteration
    b.label("w_loop");
    b.movrr(Reg::rax, Reg::r13);
    b.aluri(AluOp::kAnd, Reg::rax, kHandlers - 1);
    emitElemAddr(b, "htab", Reg::rax, Reg::rcx);
    b.load(Reg::rdx, MemOperand::baseDisp(Reg::rcx, 0));
    b.callind(Reg::rdx);
    emitComputeLoop(b, "w_gap", 8);
    b.addri(Reg::r13, 1);
    b.cmpri(Reg::r13, items);
    b.jcc(CondCode::kLt, "w_loop");
    b.freeCall(Reg::r15);
    b.halt();
    b.endFunction();

    // Handlers: read-only on shared state. Each loads coeff through the
    // coeffp indirection (register-indirect immutable load) and mixes
    // it with a slot of the calling thread's private buffer.
    for (uint32_t k = 0; k < kHandlers; ++k) {
        const std::string name = "h" + std::to_string(k);
        b.beginFunction(name);
        b.load(Reg::r8, b.symRef("coeffp"));
        b.load(Reg::r9, MemOperand::baseDisp(Reg::r8, 0));
        b.load(Reg::rdx,
               MemOperand::baseDisp(Reg::r15,
                                    static_cast<int64_t>(k) * 8));
        b.alurr(AluOp::kXor, Reg::rdx, Reg::r9);
        b.aluri(AluOp::kAdd, Reg::rdx, k + 1);
        b.ret();
        b.endFunction();
    }

    b.beginFunction("finalizer");
    b.load(Reg::r8, b.symRef("coeffp"));
    b.load(Reg::r9, MemOperand::baseDisp(Reg::r8, 0));
    b.aluri(AluOp::kShr, Reg::r9, 7);
    b.ret();
    b.endFunction();
    emitLibHelpers(b);

    Workload w;
    w.name = "ptr-dispatch";
    w.description =
        "indirect dispatch table over read-only handlers, private heap "
        "buffers";
    w.program = std::make_shared<asmkit::Program>(b.build());
    w.setup = [](vm::Machine &m) { m.addThread("main"); };
    w.pt_filter = mainExecutableFilter(*w.program);
    return w;
}

std::vector<std::string>
archetypeNames()
{
    return {"mpmc-queue", "mpmc-queue-racy", "rcu-table", "event-loop",
            "ptr-dispatch"};
}

bool
isArchetypeName(const std::string &name)
{
    const auto names = archetypeNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

Workload
makeArchetype(const std::string &name, double scale)
{
    if (name == "mpmc-queue")
        return makeMpmcQueue(4, 40, false, scale);
    if (name == "mpmc-queue-racy")
        return makeMpmcQueue(4, 40, true, scale);
    if (name == "rcu-table")
        return makeRcuTable(4, 60, scale);
    if (name == "event-loop")
        return makeEventLoop(3, 50, scale);
    if (name == "ptr-dispatch")
        return makePtrDispatch(3, 40, scale);
    PRORACE_ASSERT(false, "unknown archetype ", name);
    return {};
}

} // namespace prorace::workload
