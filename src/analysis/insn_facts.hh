/**
 * @file
 * Per-instruction static facts — the single source of truth for
 * may-write register masks and memory-event counts.
 *
 * `replay/static_info.hh` forwards here; keeping every per-instruction
 * fact in one table means the aligner, the replayer, and the dataflow
 * passes can never drift apart on what an opcode may touch.
 */

#ifndef PRORACE_ANALYSIS_INSN_FACTS_HH
#define PRORACE_ANALYSIS_INSN_FACTS_HH

#include <cstdint>

#include "isa/insn.hh"

namespace prorace::analysis {

/** Bit for one GPR in a 16-bit register mask. */
inline constexpr uint16_t
regBit(isa::Reg reg)
{
    return static_cast<uint16_t>(1u << isa::gprIndex(reg));
}

/** The write mask of a path gap: untraced code may clobber anything. */
inline constexpr uint16_t kGapWriteMask = 0xffff;

/**
 * Bitmask of GPRs an instruction may write (bit i = gpr i).
 * "May write" is what matters: backward propagation of a register value
 * is valid only across instructions that definitely do not write it.
 */
inline uint16_t
regWriteMask(const isa::Insn &insn)
{
    using isa::Op;
    using isa::Reg;
    uint16_t mask = 0;
    if (isa::writesDst(insn.op) && isa::isGpr(insn.dst))
        mask |= regBit(insn.dst);
    switch (insn.op) {
      case Op::kPush:
      case Op::kPop:
      case Op::kCall:
      case Op::kCallInd:
      case Op::kRet:
        mask |= regBit(Reg::rsp);
        break;
      case Op::kSyscall:
        mask |= regBit(Reg::rax);
        break;
      default:
        break;
    }
    return mask;
}

/**
 * Number of PEBS-countable memory events one instruction retires.
 * kCas may retire one or two (the store happens only on success);
 * callers using this for distance arithmetic must allow slack.
 */
inline unsigned
memOpCount(const isa::Insn &insn)
{
    using isa::Op;
    switch (insn.op) {
      case Op::kLoad:
      case Op::kStore:
      case Op::kStoreI:
      case Op::kPush:
      case Op::kPop:
      case Op::kCall:
      case Op::kCallInd:
      case Op::kRet:
      case Op::kLoadAcq:
      case Op::kStoreRel:
        return 1;
      case Op::kAtomicRmw:
      case Op::kCas:
      case Op::kAtomicRmwAcqRel:
        return 2;
      default:
        return 0;
    }
}

/**
 * Static facts of one instruction, precomputed once per program so the
 * replay inner loops index a flat table instead of re-deriving them.
 */
struct InsnFacts {
    /** May-write register mask (== regWriteMask). */
    uint16_t kill = 0;
    /** PEBS-countable memory events (== memOpCount). */
    uint8_t mem_ops = 0;
};

/** Classify one instruction. */
inline InsnFacts
classifyInsn(const isa::Insn &insn)
{
    InsnFacts f;
    f.kill = regWriteMask(insn);
    f.mem_ops = static_cast<uint8_t>(memOpCount(insn));
    return f;
}

} // namespace prorace::analysis

#endif // PRORACE_ANALYSIS_INSN_FACTS_HH
