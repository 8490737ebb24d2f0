/**
 * @file
 * Inclusion-based (Andersen) points-to analysis over the ISA.
 *
 * Abstract objects are allocation sites (one per kMalloc instruction),
 * global data symbols, a single collective stack object, the global
 * slop (global address space outside any symbol), and code targets
 * (instruction indices materialized as immediates). Two distinguished
 * objects close the lattice: ⊤ ("may be any data address") and ⊤code
 * ("may be any code address, or an arithmetic derivative of a code/
 * small-integer immediate"). A small immediate in [1, program size) is
 * indistinguishable from a movLabel code pointer, so it is typed as
 * the code object of that index; arithmetic on it degrades to ⊤code,
 * and a store through a ⊤/⊤code address is a *top store*. A third
 * program-level object, the *forged-heap* object, types immediates in
 * the heap address range: its contents alias the contents of every
 * allocation site (a forged heap pointer could name any of them), but
 * it stays distinct from ⊤ so a store through a heap-range constant —
 * e.g. a PRNG seed that merely looks like a heap address — is not a
 * top store and does not void constant recovery.
 *
 * Constraints are generated from the PR 5 reaching-definitions facts:
 * each register read at a block entry is wired to the unique reaching
 * def when there is one, and to every predecessor's out-state when the
 * def is ambiguous. Reads the collapsed meet calls *external* are
 * wired to BOTH inflows a value can take: per-register *boundary
 * pool* nodes that collect, for each register, its value at every
 * control-transfer boundary (call, indirect call/jump, return) plus
 * every spawn argument (delivered in rdi) — covering values that
 * arrive at an unenumerable entry — and every predecessor's
 * out-state, covering values flowing in along ordinary edges (the
 * meet taints every path once one of them passes an unknown entry,
 * so external does not imply a boundary crossing). Host-created root
 * threads are assumed to receive scalar (non-pointer) arguments, the
 * convention everywhere in this codebase (`addThread("main")`,
 * arg 0); the fig20 on/off identity sweep and the StaticLint
 * points-to battery check the consequences dynamically. Memory-operand
 * index registers are ignored under the standard field-insensitive
 * in-object-arithmetic assumption: [base + index*scale + disp] aliases
 * exactly what base aliases. The solver is a classic worklist with
 * propagation and lazy cycle detection: when a copy edge connects two
 * nodes with equal non-empty solutions, the solver looks for the cycle
 * and collapses it with union-find, keeping the fixpoint near-linear.
 *
 * One consumer, replay constant recovery: globals no store may reach
 * are immutable, so their initial bytes are their bytes forever and
 * reverse execution can recover loads from them. Any top store voids
 * it entirely (a smeared store could overwrite a global that the
 * per-object contents miss).
 *
 * See DESIGN.md §17 for the full model and the soundness argument.
 */

#ifndef PRORACE_ANALYSIS_POINTSTO_HH
#define PRORACE_ANALYSIS_POINTSTO_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/dataflow.hh"
#include "analysis/escape.hh"

namespace prorace::analysis {

/** Dense bitset over abstract-object ids. */
class ObjSet
{
  public:
    ObjSet() = default;
    explicit ObjSet(uint32_t num_objects)
        : words_((num_objects + 63) / 64, 0)
    {
    }

    bool
    test(uint32_t obj) const
    {
        return (words_[obj >> 6] >> (obj & 63)) & 1u;
    }
    bool
    set(uint32_t obj)
    {
        uint64_t &w = words_[obj >> 6];
        const uint64_t bit = 1ull << (obj & 63);
        if (w & bit)
            return false;
        w |= bit;
        return true;
    }
    /** this |= other; returns true when this grew. */
    bool
    merge(const ObjSet &other)
    {
        bool grew = false;
        for (size_t i = 0; i < words_.size(); ++i) {
            const uint64_t next = words_[i] | other.words_[i];
            grew = grew || next != words_[i];
            words_[i] = next;
        }
        return grew;
    }
    bool
    intersects(const ObjSet &other) const
    {
        for (size_t i = 0; i < words_.size(); ++i) {
            if (words_[i] & other.words_[i])
                return true;
        }
        return false;
    }
    bool
    empty() const
    {
        for (const uint64_t w : words_)
            if (w)
                return false;
        return true;
    }
    bool operator==(const ObjSet &) const = default;

    /** Enumerate set object ids, ascending. */
    std::vector<uint32_t>
    toVector() const
    {
        std::vector<uint32_t> out;
        for (size_t i = 0; i < words_.size(); ++i) {
            uint64_t w = words_[i];
            while (w) {
                const int b = __builtin_ctzll(w);
                out.push_back(static_cast<uint32_t>(i * 64 + b));
                w &= w - 1;
            }
        }
        return out;
    }
    uint32_t
    count() const
    {
        uint32_t n = 0;
        for (const uint64_t w : words_)
            n += static_cast<uint32_t>(__builtin_popcountll(w));
        return n;
    }

  private:
    std::vector<uint64_t> words_;
};

/**
 * The constraint solver: variable nodes hold sets of abstract-object
 * ids; constraints are subset inclusions. Exposed separately from the
 * program-facing PointsTo so tests can drive it on synthetic systems
 * and diff it against a naive cubic reference.
 *
 * Built-in memory model (mirrored by the test reference solver):
 *  - every object's contents node folds into a hidden *all-values*
 *    node (anything stored anywhere is reachable via an unknown
 *    pointer), which is seeded with ⊤;
 *  - a load through ⊤, ⊤code, or a code object yields the all-values
 *    node (code space may have been smeared by ⊤code stores);
 *  - a store through ⊤/⊤code sets the top-store flag, and from then
 *    on *every* store's source also escapes into ⊤'s contents (a
 *    smeared store may have planted a pointer that typed loads miss,
 *    so anything ever stored must be treated as reachable).
 */
class AndersenSolver
{
  public:
    /** Distinguished object ids (callers must reserve them). */
    static constexpr uint32_t kObjTop = 0;     ///< any data address
    static constexpr uint32_t kObjTopCode = 1; ///< any code address

    /**
     * @p num_objects total abstract objects including the two
     * distinguished ids. @p collapse_cycles disables lazy cycle
     * collapse (for differential testing only).
     */
    explicit AndersenSolver(uint32_t num_objects,
                            bool collapse_cycles = true);

    /**
     * Mark which objects are code targets (adjust-edge and opaque-load
     * semantics). Should include kObjTopCode. Call before adding
     * constraints.
     */
    void setCodeObjects(const ObjSet &code);

    /** Create a fresh variable node. */
    uint32_t addNode();

    /** The contents variable of one object (created on first use). */
    uint32_t contents(uint32_t obj);

    /** The hidden all-values node (for tests and diagnostics). */
    uint32_t allValues() const { return av_; }

    /** obj ∈ pts(node). */
    void seed(uint32_t node, uint32_t obj);

    /** pts(to) ⊇ pts(from). */
    void copy(uint32_t from, uint32_t to);

    /**
     * pts(to) ⊇ adjust(pts(from)): pointer arithmetic. Data objects
     * pass through (field-insensitive, arithmetic assumed in-object);
     * any code object additionally yields ⊤code.
     */
    void copyAdjust(uint32_t from, uint32_t to);

    /** ∀o ∈ pts(addr): pts(dst) ⊇ pts(contents(o)) (or all-values). */
    void load(uint32_t addr, uint32_t dst);

    /** ∀o ∈ pts(addr): pts(contents(o)) ⊇ pts(src). */
    void store(uint32_t addr, uint32_t src);

    /** Run (or re-run, after adding constraints) to fixpoint. */
    void solve();

    /** Solution of one node (valid after solve()). */
    const ObjSet &pointsTo(uint32_t node) const;
    bool
    pointsToObj(uint32_t node, uint32_t obj) const
    {
        return pointsTo(node).test(obj);
    }

    /** True when some store's address may be ⊤/⊤code. */
    bool topStoreSeen() const { return top_store_seen_; }

    uint32_t numObjects() const { return num_objects_; }
    uint32_t numNodes() const
    {
        return static_cast<uint32_t>(pts_.size());
    }
    uint64_t numConstraints() const { return num_constraints_; }
    uint64_t iterations() const { return iterations_; }
    uint32_t cyclesCollapsed() const { return cycles_collapsed_; }

  private:
    struct Edge {
        uint32_t to;
        bool adjust;
    };

    uint32_t find(uint32_t n) const;
    void unite(uint32_t a, uint32_t b);
    void collapseCycle(uint32_t from, uint32_t to);
    bool propagate(uint32_t from, const ObjSet &delta, uint32_t to,
                   bool adjust);
    void enqueue(uint32_t n);
    bool opaque(uint32_t obj) const;
    void onTopStore();
    void loadFrom(uint32_t obj, uint32_t dst);
    void storeTo(uint32_t obj, uint32_t src);

    uint32_t num_objects_;
    bool collapse_cycles_;
    ObjSet code_objects_;
    std::vector<ObjSet> pts_;      ///< current solution per rep node
    std::vector<ObjSet> delta_;    ///< not-yet-propagated portion
    std::vector<std::vector<Edge>> edges_;
    std::vector<std::vector<uint32_t>> load_dsts_;
    std::vector<std::vector<uint32_t>> store_srcs_;
    /** Objects already expanded per complex-constraint node. */
    std::vector<ObjSet> complex_done_;
    mutable std::vector<uint32_t> parent_; ///< union-find
    std::map<uint32_t, uint32_t> contents_;
    std::vector<uint32_t> worklist_;
    std::vector<uint8_t> queued_;
    std::vector<uint32_t> all_store_srcs_;
    uint32_t av_ = 0; ///< the all-values node
    bool top_store_seen_ = false;
    uint64_t num_constraints_ = 0;
    uint64_t iterations_ = 0;
    uint32_t cycles_collapsed_ = 0;
};

/** One abstract memory object. */
struct AbstractObject {
    enum class Kind : uint8_t {
        kTop = 0,    ///< unknown data address
        kTopCode,    ///< unknown code address
        kStack,      ///< all thread stacks, collectively
        kGlobalSlop, ///< global address space outside any symbol
        kHeapForge,  ///< forged heap pointer: any allocation site
        kGlobal,     ///< one data symbol
        kAlloc,      ///< one kMalloc allocation site
        kCode,       ///< one code target (instruction index)
    };
    Kind kind = Kind::kTop;
    uint32_t insn = 0;   ///< kAlloc: site; kCode: target index
    uint64_t addr = 0;   ///< kGlobal: symbol base
    uint64_t size = 0;   ///< kGlobal: symbol size
};

/** Aggregate counters for --stats / static-report. */
struct PointsToStats {
    uint32_t objects = 0;
    uint32_t alloc_sites = 0;
    uint32_t nodes = 0;
    uint64_t constraints = 0;
    uint64_t iterations = 0;
    uint32_t cycles_collapsed = 0;
    uint32_t immutable_globals = 0;
    bool top_store = false;  ///< some store's address may be ⊤/⊤code
};

/**
 * Program-facing points-to results: constraint generation from the
 * CFG/dataflow/escape trio, plus the immutability view constant
 * recovery reads. Immutable after construction.
 */
class PointsTo
{
  public:
    PointsTo(const Cfg &cfg, const Dataflow &dataflow,
             const EscapeAnalysis &escape,
             const std::vector<InsnFacts> &facts);

    /** True when at least one global is provably immutable. */
    bool anyImmutable() const { return stats_.immutable_globals > 0; }

    /**
     * True when every byte of [addr, addr+size) lies in a global no
     * store may reach (so memory there always equals the init image).
     */
    bool immutableCovers(uint64_t addr, uint64_t size) const;

    /** Initial bytes at @p addr, zero-extended to @p width. */
    uint64_t constantAt(uint64_t addr, uint8_t width) const;

    const PointsToStats &stats() const { return stats_; }
    const std::vector<AbstractObject> &objects() const
    {
        return objects_;
    }

    /** Solution of the address node of @p insn's memory operand. */
    std::vector<uint32_t> siteObjects(uint32_t insn) const;

  private:
    uint32_t objectCovering(uint64_t addr);
    uint32_t literalNode(int64_t imm);
    uint32_t inNode(uint32_t block, unsigned reg);
    void generate();
    void wireInNodes();
    void classify();

    const Cfg *cfg_;
    const Dataflow *dataflow_;
    const EscapeAnalysis *escape_;
    const std::vector<InsnFacts> *facts_;

    std::vector<AbstractObject> objects_;
    ObjSet code_mask_;
    std::map<uint32_t, uint32_t> code_obj_;   ///< target → object id
    std::map<uint64_t, uint32_t> global_obj_; ///< base → object id
    std::map<uint32_t, uint32_t> alloc_obj_;  ///< insn → object id

    std::unique_ptr<AndersenSolver> solver_;
    /** Per-register boundary pool: reg values at transfer boundaries. */
    std::array<uint32_t, isa::kNumGprs> boundary_{};
    std::map<uint64_t, uint32_t> in_nodes_;   ///< (block<<4|reg) → node
    std::map<uint64_t, uint32_t> def_nodes_;  ///< (insn<<4|reg) → node
    std::vector<std::array<uint32_t, isa::kNumGprs>> block_out_;
    std::vector<uint32_t> site_addr_;   ///< per-insn address node or ~0
    std::vector<uint8_t> site_writes_;  ///< insn may write its target
    std::vector<uint32_t> extra_written_; ///< nodes whose pointees are
                                          ///< written outside a store
    std::vector<std::pair<uint64_t, uint64_t>> immutable_ranges_;
    PointsToStats stats_;
};

} // namespace prorace::analysis

#endif // PRORACE_ANALYSIS_POINTSTO_HH
