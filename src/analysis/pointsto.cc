#include "analysis/pointsto.hh"

#include <algorithm>

#include "asmkit/layout.hh"
#include "support/log.hh"

namespace prorace::analysis {

using isa::AluOp;
using isa::Insn;
using isa::Op;
using isa::Reg;

// ---------------------------------------------------------------------
// AndersenSolver
// ---------------------------------------------------------------------

AndersenSolver::AndersenSolver(uint32_t num_objects, bool collapse_cycles)
    : num_objects_(num_objects), collapse_cycles_(collapse_cycles),
      code_objects_(num_objects)
{
    PRORACE_ASSERT(num_objects >= 2, "need the two distinguished objects");
    av_ = addNode();
    // A value read through an unknown pointer may itself be any
    // pointer.
    seed(av_, kObjTop);
}

void
AndersenSolver::setCodeObjects(const ObjSet &code)
{
    code_objects_ = code;
}

bool
AndersenSolver::opaque(uint32_t obj) const
{
    return obj == kObjTop || obj == kObjTopCode || code_objects_.test(obj);
}

uint32_t
AndersenSolver::addNode()
{
    const uint32_t n = static_cast<uint32_t>(pts_.size());
    pts_.emplace_back(num_objects_);
    delta_.emplace_back(num_objects_);
    edges_.emplace_back();
    load_dsts_.emplace_back();
    store_srcs_.emplace_back();
    complex_done_.emplace_back(num_objects_);
    parent_.push_back(n);
    queued_.push_back(0);
    return n;
}

uint32_t
AndersenSolver::contents(uint32_t obj)
{
    const auto it = contents_.find(obj);
    if (it != contents_.end())
        return it->second;
    const uint32_t n = addNode();
    contents_.emplace(obj, n);
    // Anything stored anywhere is reachable through an unknown pointer.
    copy(n, av_);
    return n;
}

uint32_t
AndersenSolver::find(uint32_t n) const
{
    while (parent_[n] != n) {
        parent_[n] = parent_[parent_[n]];
        n = parent_[n];
    }
    return n;
}

void
AndersenSolver::enqueue(uint32_t n)
{
    n = find(n);
    if (!queued_[n]) {
        queued_[n] = 1;
        worklist_.push_back(n);
    }
}

void
AndersenSolver::seed(uint32_t node, uint32_t obj)
{
    node = find(node);
    if (pts_[node].set(obj)) {
        delta_[node].set(obj);
        enqueue(node);
    }
}

void
AndersenSolver::copy(uint32_t from, uint32_t to)
{
    from = find(from);
    to = find(to);
    ++num_constraints_;
    if (from == to)
        return;
    for (const Edge &e : edges_[from]) {
        if (find(e.to) == to && !e.adjust)
            return;
    }
    edges_[from].push_back({to, false});
    if (propagate(from, pts_[from], to, false))
        enqueue(to);
}

void
AndersenSolver::copyAdjust(uint32_t from, uint32_t to)
{
    from = find(from);
    to = find(to);
    ++num_constraints_;
    for (const Edge &e : edges_[from]) {
        if (find(e.to) == to && e.adjust)
            return;
    }
    edges_[from].push_back({to, true});
    if (propagate(from, pts_[from], to, true))
        enqueue(to);
}

void
AndersenSolver::loadFrom(uint32_t obj, uint32_t dst)
{
    if (opaque(obj))
        copy(av_, dst);
    else
        copy(contents(obj), dst);
}

void
AndersenSolver::storeTo(uint32_t obj, uint32_t src)
{
    if (obj == kObjTop || obj == kObjTopCode) {
        onTopStore();
        copy(src, contents(kObjTop));
    } else {
        copy(src, contents(obj));
    }
}

void
AndersenSolver::onTopStore()
{
    if (top_store_seen_)
        return;
    top_store_seen_ = true;
    // A smeared store may plant a pointer where typed loads miss it,
    // so every value ever stored must be treated as reachable.
    const std::vector<uint32_t> srcs = all_store_srcs_;
    for (const uint32_t src : srcs)
        copy(src, contents(kObjTop));
}

void
AndersenSolver::load(uint32_t addr, uint32_t dst)
{
    addr = find(addr);
    dst = find(dst);
    ++num_constraints_;
    load_dsts_[addr].push_back(dst);
    for (const uint32_t obj : pts_[addr].toVector())
        loadFrom(obj, dst);
}

void
AndersenSolver::store(uint32_t addr, uint32_t src)
{
    addr = find(addr);
    src = find(src);
    ++num_constraints_;
    store_srcs_[addr].push_back(src);
    all_store_srcs_.push_back(src);
    if (top_store_seen_)
        copy(src, contents(kObjTop));
    for (const uint32_t obj : pts_[addr].toVector())
        storeTo(obj, src);
}

bool
AndersenSolver::propagate(uint32_t from, const ObjSet &delta, uint32_t to,
                          bool adjust)
{
    from = find(from);
    to = find(to);
    if (from == to && !adjust)
        return false;
    bool grew;
    if (adjust && delta.intersects(code_objects_)) {
        ObjSet adj = delta;
        adj.set(kObjTopCode);
        grew = pts_[to].merge(adj);
        if (grew)
            delta_[to].merge(adj);
    } else {
        grew = pts_[to].merge(delta);
        if (grew)
            delta_[to].merge(delta);
    }
    if (grew)
        return true;
    // Lazy cycle detection: an edge between equal non-empty solutions
    // is a cycle candidate; collapsing it removes redundant work.
    if (collapse_cycles_ && !adjust && from != to &&
        !pts_[from].empty() && pts_[from] == pts_[to]) {
        collapseCycle(from, to);
    }
    return false;
}

void
AndersenSolver::unite(uint32_t a, uint32_t b)
{
    a = find(a);
    b = find(b);
    if (a == b)
        return;
    parent_[b] = a;
    pts_[a].merge(pts_[b]);
    delta_[a].merge(delta_[b]);
    complex_done_[a].merge(complex_done_[b]);
    for (const Edge &e : edges_[b])
        edges_[a].push_back(e);
    edges_[b].clear();
    for (const uint32_t d : load_dsts_[b])
        load_dsts_[a].push_back(d);
    load_dsts_[b].clear();
    for (const uint32_t s : store_srcs_[b])
        store_srcs_[a].push_back(s);
    store_srcs_[b].clear();
    ++cycles_collapsed_;
    enqueue(a);
}

void
AndersenSolver::collapseCycle(uint32_t from, uint32_t to)
{
    // DFS from `to` along non-adjust edges looking for `from`; if a
    // path exists, from→to closed a cycle through every node on it.
    std::vector<uint32_t> stack{find(to)};
    std::map<uint32_t, uint32_t> came_from;
    came_from[find(to)] = find(to);
    uint32_t hit = UINT32_MAX;
    while (!stack.empty() && hit == UINT32_MAX) {
        const uint32_t n = stack.back();
        stack.pop_back();
        for (const Edge &e : edges_[n]) {
            if (e.adjust)
                continue;
            const uint32_t t = find(e.to);
            if (t == find(from)) {
                came_from[t] = n;
                hit = t;
                break;
            }
            if (came_from.emplace(t, n).second)
                stack.push_back(t);
        }
    }
    if (hit == UINT32_MAX)
        return;
    // Merge every node on the found path into `to`'s component.
    uint32_t n = hit;
    while (came_from.at(n) != n) {
        const uint32_t prev = came_from.at(n);
        unite(find(to), n);
        n = prev;
    }
    unite(find(to), n);
}

void
AndersenSolver::solve()
{
    while (!worklist_.empty()) {
        uint32_t n = worklist_.back();
        worklist_.pop_back();
        queued_[n] = 0;
        n = find(n);
        if (delta_[n].empty())
            continue;
        ++iterations_;
        ObjSet delta = delta_[n];
        delta_[n] = ObjSet(num_objects_);

        // Expand complex constraints for newly discovered objects.
        std::vector<uint32_t> fresh;
        for (const uint32_t obj : delta.toVector()) {
            if (complex_done_[n].set(obj))
                fresh.push_back(obj);
        }
        if (!fresh.empty() &&
            (!load_dsts_[n].empty() || !store_srcs_[n].empty())) {
            const std::vector<uint32_t> dsts = load_dsts_[n];
            const std::vector<uint32_t> srcs = store_srcs_[n];
            for (const uint32_t obj : fresh) {
                for (const uint32_t d : dsts)
                    loadFrom(obj, d);
                for (const uint32_t s : srcs)
                    storeTo(obj, s);
            }
        }

        // Propagate the delta along outgoing copy edges.
        const std::vector<Edge> edges = edges_[n];
        for (const Edge &e : edges) {
            if (propagate(n, delta, find(e.to), e.adjust))
                enqueue(e.to);
        }
    }
}

const ObjSet &
AndersenSolver::pointsTo(uint32_t node) const
{
    return pts_[find(node)];
}

// ---------------------------------------------------------------------
// PointsTo: constraint generation
// ---------------------------------------------------------------------

namespace {

constexpr uint32_t kInvalidNode = UINT32_MAX;
constexpr uint32_t kObjStack = 2;
constexpr uint32_t kObjGlobalSlop = 3;
constexpr uint32_t kObjHeapForge = 4;

uint64_t
nodeKey(uint32_t major, unsigned reg)
{
    return (static_cast<uint64_t>(major) << 4) | reg;
}

/** The instruction may mutate the memory its address resolves to. */
bool
writesMemory(Op op)
{
    switch (op) {
      case Op::kStore:
      case Op::kStoreI:
      case Op::kStoreRel:
      case Op::kAtomicRmw:
      case Op::kAtomicRmwAcqRel:
      case Op::kCas:
      case Op::kPush:
      case Op::kCall:
      case Op::kCallInd:
        return true;
      case Op::kLoadAcq:
      case Op::kSpawn:
      case Op::kJoin:
      case Op::kMalloc:
      case Op::kFree:
        return false;
      default:
        // Remaining sync operations mutate the sync word at [mem].
        return isa::isSyncOp(op);
    }
}

} // namespace

PointsTo::PointsTo(const Cfg &cfg, const Dataflow &dataflow,
                   const EscapeAnalysis &escape,
                   const std::vector<InsnFacts> &facts)
    : cfg_(&cfg), dataflow_(&dataflow), escape_(&escape), facts_(&facts)
{
    const asmkit::Program &p = cfg.program();

    // --- abstract objects -------------------------------------------
    objects_.push_back({AbstractObject::Kind::kTop, 0, 0, 0});
    objects_.push_back({AbstractObject::Kind::kTopCode, 0, 0, 0});
    objects_.push_back({AbstractObject::Kind::kStack, 0, 0, 0});
    objects_.push_back({AbstractObject::Kind::kGlobalSlop, 0, 0, 0});
    objects_.push_back({AbstractObject::Kind::kHeapForge, 0, 0, 0});
    for (const auto &[name, sym] : p.symbols()) {
        global_obj_.emplace(sym.addr,
                            static_cast<uint32_t>(objects_.size()));
        objects_.push_back(
            {AbstractObject::Kind::kGlobal, 0, sym.addr, sym.size});
    }
    auto addCodeObject = [&](uint64_t target) {
        if (target == 0 || target >= p.size())
            return; // zero is an integer, not the entry's address
        const auto t = static_cast<uint32_t>(target);
        if (code_obj_.find(t) == code_obj_.end()) {
            code_obj_.emplace(t, static_cast<uint32_t>(objects_.size()));
            objects_.push_back({AbstractObject::Kind::kCode, t, 0, 0});
        }
    };
    // Pre-create code objects for every literal a constraint may type
    // as a code pointer (the solver's object universe is fixed).
    for (uint32_t i = 0; i < p.size(); ++i) {
        const Insn &insn = p.insnAt(i);
        if (insn.op == Op::kMalloc) {
            alloc_obj_.emplace(i, static_cast<uint32_t>(objects_.size()));
            objects_.push_back({AbstractObject::Kind::kAlloc, i, 0, 0});
        }
        if ((insn.op == Op::kMovRI || insn.op == Op::kStoreI ||
             insn.op == Op::kSyscall) &&
            insn.imm > 0) {
            addCodeObject(static_cast<uint64_t>(insn.imm));
        }
        if (insn.hasMemOperand() && insn.mem.disp > 0)
            addCodeObject(static_cast<uint64_t>(insn.mem.disp));
    }
    // Statically initialized data may hold pointers (function-pointer
    // tables, pointer globals): scan init words.
    for (const auto &[name, sym] : p.symbols()) {
        for (size_t off = 0; off + 8 <= sym.init.size(); off += 8) {
            uint64_t w = 0;
            for (int b = 7; b >= 0; --b)
                w = (w << 8) | sym.init[off + static_cast<size_t>(b)];
            addCodeObject(w);
        }
    }

    const uint32_t num_objects = static_cast<uint32_t>(objects_.size());
    code_mask_ = ObjSet(num_objects);
    code_mask_.set(AndersenSolver::kObjTopCode);
    for (const auto &[target, obj] : code_obj_)
        code_mask_.set(obj);

    solver_ = std::make_unique<AndersenSolver>(num_objects);
    solver_->setCodeObjects(code_mask_);
    // Instantiate every object's contents up front so the all-values
    // absorption edges exist before any complex constraint fires.
    for (uint32_t o = 0; o < num_objects; ++o)
        solver_->contents(o);
    // A forged heap pointer could name any allocation: the forged-heap
    // object's contents and every allocation site's contents alias.
    for (const auto &[site, obj] : alloc_obj_) {
        solver_->copy(solver_->contents(kObjHeapForge),
                      solver_->contents(obj));
        solver_->copy(solver_->contents(obj),
                      solver_->contents(kObjHeapForge));
    }

    // Statically initialized pointer words seed the global's contents.
    for (const auto &[name, sym] : p.symbols()) {
        const uint32_t holder = global_obj_.at(sym.addr);
        for (size_t off = 0; off + 8 <= sym.init.size(); off += 8) {
            uint64_t w = 0;
            for (int b = 7; b >= 0; --b)
                w = (w << 8) | sym.init[off + static_cast<size_t>(b)];
            if (w == 0)
                continue;
            uint32_t obj;
            if (w < p.size())
                obj = code_obj_.at(static_cast<uint32_t>(w));
            else if (asmkit::isGlobalAddress(w))
                obj = objectCovering(w);
            else if (asmkit::isHeapAddress(w))
                obj = kObjHeapForge;
            else if (asmkit::isStackAddress(w))
                obj = kObjStack;
            else
                obj = AndersenSolver::kObjTop;
            solver_->seed(solver_->contents(holder), obj);
        }
    }

    site_addr_.assign(p.size(), kInvalidNode);
    site_writes_.assign(p.size(), 0);
    block_out_.assign(cfg.numBlocks(), {});
    for (auto &out : block_out_)
        out.fill(kInvalidNode);

    generate();
    wireInNodes();
    solver_->solve();
    classify();
}

uint32_t
PointsTo::objectCovering(uint64_t addr)
{
    auto it = global_obj_.upper_bound(addr);
    if (it != global_obj_.begin()) {
        --it;
        const AbstractObject &o = objects_[it->second];
        if (addr >= o.addr && addr < o.addr + o.size)
            return it->second;
    }
    return kObjGlobalSlop;
}

uint32_t
PointsTo::literalNode(int64_t imm)
{
    const uint32_t n = solver_->addNode();
    const uint64_t u = static_cast<uint64_t>(imm);
    const asmkit::Program &p = cfg_->program();
    if (imm == 0) {
        // Null / zero: an integer, never a live pointer.
    } else if (imm > 0 && u < p.size()) {
        solver_->seed(n, code_obj_.at(static_cast<uint32_t>(u)));
    } else if (asmkit::isGlobalAddress(u)) {
        solver_->seed(n, objectCovering(u));
    } else if (asmkit::isHeapAddress(u)) {
        // Usually an integer that merely lands in the heap range (PRNG
        // seeds); costs nothing unless actually dereferenced.
        solver_->seed(n, kObjHeapForge);
    } else if (asmkit::isStackAddress(u)) {
        solver_->seed(n, kObjStack);
    } else {
        // Out of every known range: usually an integer constant, but
        // arithmetic can carry it anywhere, so ⊤ if ever dereferenced.
        solver_->seed(n, AndersenSolver::kObjTop);
    }
    return n;
}

uint32_t
PointsTo::inNode(uint32_t block, unsigned reg)
{
    const uint64_t key = nodeKey(block, reg);
    const auto it = in_nodes_.find(key);
    if (it != in_nodes_.end())
        return it->second;
    const uint32_t n = solver_->addNode();
    in_nodes_.emplace(key, n);
    return n;
}

void
PointsTo::generate()
{
    const asmkit::Program &p = cfg_->program();
    const bool rsp_ok = escape_->rspIntegrity();
    const bool has_calls = std::any_of(
        p.code().begin(), p.code().end(), [](const Insn &insn) {
            return insn.op == Op::kCall || insn.op == Op::kCallInd;
        });
    // Return addresses live on the stack; popping one yields a code
    // pointer the analysis cannot name.
    if (has_calls)
        solver_->seed(solver_->contents(kObjStack),
                      AndersenSolver::kObjTopCode);

    // Per-register boundary pools: a value can only arrive at an
    // unenumerable entry (thread entry, indirect target, return site)
    // in a register that held it at some transfer boundary — a call,
    // indirect call/jump, or return — or as a spawn argument in rdi.
    // Host-created root threads pass scalar args (arg 0 everywhere in
    // this codebase), so they contribute nothing.
    for (unsigned r = 0; r < isa::kNumGprs; ++r)
        boundary_[r] = solver_->addNode();

    for (uint32_t b = 0; b < cfg_->numBlocks(); ++b) {
        std::array<uint32_t, isa::kNumGprs> cur;
        cur.fill(kInvalidNode);
        auto use = [&](Reg r) {
            const unsigned idx = isa::gprIndex(r);
            if (cur[idx] == kInvalidNode)
                cur[idx] = inNode(b, idx);
            return cur[idx];
        };
        auto stackNode = [&]() {
            const uint32_t n = solver_->addNode();
            if (rsp_ok)
                solver_->seed(n, kObjStack);
            else
                solver_->copy(use(Reg::rsp), n);
            return n;
        };
        // The address node of a memory operand. Index registers are
        // ignored: [base + index*scale + disp] stays inside base's
        // object (field-insensitive in-object-arithmetic assumption).
        auto memAddrNode = [&](const isa::MemOperand &mem) -> uint32_t {
            if (mem.rip_relative || !isa::isGpr(mem.base))
                return literalNode(mem.disp);
            const uint32_t n = solver_->addNode();
            if (mem.disp == 0 && !isa::isGpr(mem.index))
                solver_->copy(use(mem.base), n);
            else
                solver_->copyAdjust(use(mem.base), n);
            return n;
        };

        for (uint32_t i = p.blockBegin(b); i < p.blockEnd(b); ++i) {
            const Insn &insn = p.insnAt(i);
            uint16_t defed = 0;
            auto def = [&](Reg r, uint32_t node) {
                cur[isa::gprIndex(r)] = node;
                def_nodes_[nodeKey(i, isa::gprIndex(r))] = node;
                defed = static_cast<uint16_t>(defed | regBit(r));
            };

            // Address node of the instruction's memory target.
            if (insn.hasMemOperand()) {
                const SiteClass sc = escape_->site(i);
                if (escape_->sound() &&
                    (sc == SiteClass::kStackImplicit ||
                     sc == SiteClass::kStackDirect)) {
                    const uint32_t n = solver_->addNode();
                    solver_->seed(n, kObjStack);
                    site_addr_[i] = n;
                } else {
                    site_addr_[i] = memAddrNode(insn.mem);
                }
            } else {
                switch (insn.op) {
                  case Op::kPush:
                  case Op::kPop:
                  case Op::kCall:
                  case Op::kCallInd:
                  case Op::kRet:
                    site_addr_[i] = stackNode();
                    break;
                  default:
                    break;
                }
            }
            if (writesMemory(insn.op))
                site_writes_[i] = 1;

            // Pre-transfer register state feeds the boundary pools
            // (the callee / indirect target / return site sees it).
            switch (insn.op) {
              case Op::kCall:
              case Op::kCallInd:
              case Op::kJmpInd:
              case Op::kRet:
                for (unsigned r = 0; r < isa::kNumGprs; ++r)
                    solver_->copy(use(isa::gprFromIndex(r)),
                                  boundary_[r]);
                break;
              case Op::kSpawn:
                // The child thread finds the argument in rdi.
                solver_->copy(use(insn.src),
                              boundary_[isa::gprIndex(Reg::rdi)]);
                break;
              default:
                break;
            }

            switch (insn.op) {
              case Op::kMovRI:
                def(insn.dst, literalNode(insn.imm));
                break;
              case Op::kMovRR: {
                const uint32_t n = solver_->addNode();
                solver_->copy(use(insn.src), n);
                def(insn.dst, n);
                break;
              }
              case Op::kLoad:
              case Op::kLoadAcq: {
                const uint32_t n = solver_->addNode();
                solver_->load(site_addr_[i], n);
                def(insn.dst, n);
                break;
              }
              case Op::kStore:
              case Op::kStoreRel:
                solver_->store(site_addr_[i], use(insn.src));
                break;
              case Op::kStoreI:
                solver_->store(site_addr_[i], literalNode(insn.imm));
                break;
              case Op::kLea:
                def(insn.dst, memAddrNode(insn.mem));
                break;
              case Op::kAluRR: {
                const uint32_t n = solver_->addNode();
                // xor r,r / sub r,r zero the register: an integer.
                const bool zeroing = insn.src == insn.dst &&
                    (insn.alu == AluOp::kXor || insn.alu == AluOp::kSub);
                if (!zeroing) {
                    solver_->copyAdjust(use(insn.dst), n);
                    solver_->copyAdjust(use(insn.src), n);
                }
                def(insn.dst, n);
                break;
              }
              case Op::kAluRI: {
                const uint32_t n = solver_->addNode();
                solver_->copyAdjust(use(insn.dst), n);
                def(insn.dst, n);
                break;
              }
              case Op::kPush:
                solver_->store(site_addr_[i], use(insn.src));
                def(Reg::rsp, stackNode());
                break;
              case Op::kPop: {
                const uint32_t n = solver_->addNode();
                solver_->load(site_addr_[i], n);
                def(insn.dst, n);
                def(Reg::rsp, stackNode());
                break;
              }
              case Op::kCall:
              case Op::kCallInd:
              case Op::kRet:
                def(Reg::rsp, stackNode());
                break;
              case Op::kAtomicRmw:
              case Op::kAtomicRmwAcqRel: {
                const uint32_t old = solver_->addNode();
                solver_->load(site_addr_[i], old);
                const uint32_t writeback = solver_->addNode();
                solver_->copyAdjust(old, writeback);
                solver_->copyAdjust(use(insn.src), writeback);
                solver_->store(site_addr_[i], writeback);
                def(insn.dst, old);
                break;
              }
              case Op::kCas: {
                const uint32_t old = solver_->addNode();
                solver_->load(site_addr_[i], old);
                solver_->store(site_addr_[i], use(insn.src));
                def(insn.dst, old);
                break;
              }
              case Op::kSpawn: {
                // The argument register is handed to the child thread.
                solver_->copy(use(insn.src),
                              solver_->contents(AndersenSolver::kObjTop));
                const uint32_t n = solver_->addNode();
                def(insn.dst, n); // a thread id: an integer
                break;
              }
              case Op::kMalloc: {
                const uint32_t n = solver_->addNode();
                solver_->seed(n, alloc_obj_.at(i));
                def(insn.dst, n);
                break;
              }
              case Op::kCondWait:
                // The mutex variable (address in src) is written too.
                extra_written_.push_back(use(insn.src));
                break;
              case Op::kSyscall:
                // rax <- imm: same typing as a mov-immediate.
                def(Reg::rax, literalNode(insn.imm));
                break;
              default:
                break;
            }

            // Safety net: any remaining killed register degrades to ⊤.
            uint16_t rest =
                static_cast<uint16_t>((*facts_)[i].kill & ~defed);
            while (rest) {
                const unsigned r =
                    static_cast<unsigned>(__builtin_ctz(rest));
                rest = static_cast<uint16_t>(rest & (rest - 1));
                const uint32_t n = solver_->addNode();
                solver_->seed(n, AndersenSolver::kObjTop);
                def(isa::gprFromIndex(r), n);
            }
        }
        block_out_[b] = cur;
    }
}

void
PointsTo::wireInNodes()
{
    const bool rsp_ok = escape_->rspIntegrity();
    // in_nodes_ may grow while wiring (ambiguous defs pull in
    // predecessor out-states); iterate until every node is wired.
    std::vector<uint64_t> pending;
    pending.reserve(in_nodes_.size());
    for (const auto &[key, node] : in_nodes_)
        pending.push_back(key);
    std::map<uint64_t, bool> wired;
    while (!pending.empty()) {
        const uint64_t key = pending.back();
        pending.pop_back();
        if (wired[key])
            continue;
        wired[key] = true;
        const uint32_t b = static_cast<uint32_t>(key >> 4);
        const unsigned r = static_cast<unsigned>(key & 15);
        const uint32_t node = in_nodes_.at(key);
        if (r == isa::gprIndex(Reg::rsp) && rsp_ok) {
            // rsp points into the own stack at every program point.
            solver_->seed(node, kObjStack);
            continue;
        }
        // Pull every predecessor's out-state into @p node (creating
        // and scheduling missing out-nodes).
        auto wirePreds = [&](uint32_t block, uint32_t node_,
                             unsigned reg) {
            for (const uint32_t pb : cfg_->block(block).preds) {
                uint32_t out = block_out_[pb][reg];
                if (out == kInvalidNode) {
                    out = inNode(pb, reg);
                    block_out_[pb][reg] = out;
                    pending.push_back(nodeKey(pb, reg));
                }
                solver_->copy(out, node_);
            }
        };
        const ReachingDef &rd = dataflow_->block(b).reach_in[r];
        switch (rd.kind) {
          case ReachingDef::kNone:
            // No def reaches: the register reads as its initial zero.
            break;
          case ReachingDef::kExternal:
            // The collapsed meet taints every path once one of them
            // passes an unenumerable entry, discarding the enumerable
            // defs on the others. So wire BOTH inflows: the boundary
            // pool for values that crossed a transfer boundary, and
            // every predecessor's out-state for values arriving along
            // ordinary edges (a pool-only wiring here let a register
            // that never crossed a boundary read as empty — caught by
            // the StaticLint points-to battery).
            solver_->copy(boundary_[r], node);
            wirePreds(b, node, r);
            break;
          case ReachingDef::kUnique: {
            const auto it = def_nodes_.find(nodeKey(rd.insn, r));
            if (it != def_nodes_.end())
                solver_->copy(it->second, node);
            else
                solver_->seed(node, AndersenSolver::kObjTop);
            break;
          }
          case ReachingDef::kAmbiguous:
            if (cfg_->block(b).preds.empty())
                solver_->seed(node, AndersenSolver::kObjTop);
            wirePreds(b, node, r);
            break;
        }
    }
}

void
PointsTo::classify()
{
    const asmkit::Program &p = cfg_->program();
    const AndersenSolver &s = *solver_;
    stats_.objects = static_cast<uint32_t>(objects_.size());
    stats_.alloc_sites = static_cast<uint32_t>(alloc_obj_.size());
    stats_.nodes = s.numNodes();
    stats_.constraints = s.numConstraints();
    stats_.iterations = s.iterations();
    stats_.cycles_collapsed = s.cyclesCollapsed();
    stats_.top_store = s.topStoreSeen();

    // --- immutable globals ------------------------------------------
    if (!s.topStoreSeen()) {
        ObjSet written(static_cast<uint32_t>(objects_.size()));
        for (uint32_t i = 0; i < p.size(); ++i) {
            if (site_writes_[i] && site_addr_[i] != kInvalidNode)
                written.merge(s.pointsTo(site_addr_[i]));
        }
        for (const uint32_t n : extra_written_)
            written.merge(s.pointsTo(n));
        for (const auto &[base, obj] : global_obj_) {
            if (!written.test(obj) && objects_[obj].size > 0) {
                immutable_ranges_.emplace_back(
                    objects_[obj].addr,
                    objects_[obj].addr + objects_[obj].size);
                ++stats_.immutable_globals;
            }
        }
        std::sort(immutable_ranges_.begin(), immutable_ranges_.end());
    }
}

bool
PointsTo::immutableCovers(uint64_t addr, uint64_t size) const
{
    if (immutable_ranges_.empty() || size == 0)
        return false;
    uint64_t cur = addr;
    const uint64_t end = addr + size;
    while (cur < end) {
        auto it = std::upper_bound(
            immutable_ranges_.begin(), immutable_ranges_.end(),
            std::make_pair(cur, UINT64_MAX));
        if (it == immutable_ranges_.begin())
            return false;
        --it;
        if (cur >= it->second)
            return false;
        cur = it->second;
    }
    return true;
}

uint64_t
PointsTo::constantAt(uint64_t addr, uint8_t width) const
{
    const asmkit::Program &p = cfg_->program();
    uint64_t value = 0;
    for (unsigned b = 0; b < width; ++b) {
        const uint64_t byte_addr = addr + b;
        uint8_t byte = 0;
        if (const auto name = p.symbolCovering(byte_addr)) {
            const asmkit::DataSymbol &sym = p.symbols().at(*name);
            const uint64_t off = byte_addr - sym.addr;
            if (off < sym.init.size())
                byte = sym.init[off];
        }
        value |= static_cast<uint64_t>(byte) << (8 * b);
    }
    return value;
}

std::vector<uint32_t>
PointsTo::siteObjects(uint32_t insn) const
{
    if (insn >= site_addr_.size() || site_addr_[insn] == kInvalidNode)
        return {};
    return solver_->pointsTo(site_addr_[insn]).toVector();
}

} // namespace prorace::analysis
