#include "recorder.h"

#include <algorithm>
#include <deque>

namespace wetperf {

using namespace wet;

Recorder::Recorder(const analysis::ModuleAnalysis& ma)
    : ma_(ma), threads_(1), byStmt_(ma.module().numStmts())
{
}

void
Recorder::onEnterFunction(ir::FuncId f, const interp::DepRef& callsite)
{
    (void)callsite;
    Frame fr;
    fr.func = f;
    frames().push_back(std::move(fr));
}

void
Recorder::complete(Frame& fr)
{
    paths_.push_back(Path{fr.func, std::move(fr.blocks)});
    const uint64_t ts = paths_.size();
    for (uint32_t e : fr.pending)
        events_[e].ts = ts;
    fr.blocks.clear();
    fr.pending.clear();
}

void
Recorder::onLeaveFunction(ir::FuncId f)
{
    (void)f;
    Frame& fr = frames().back();
    if (!fr.pending.empty())
        complete(fr);
    frames().pop_back();
}

void
Recorder::onEdge(ir::FuncId f, ir::BlockId from, uint8_t succ_idx)
{
    const analysis::FunctionAnalysis& fa = ma_.fn(f);
    if (fa.bl.blockMode() || fa.cfg.isBackEdge(from, succ_idx))
        complete(frames().back());
}

void
Recorder::onBlockEnter(ir::FuncId f, ir::BlockId b,
                       const interp::DepRef& control)
{
    (void)f;
    Frame& fr = frames().back();
    fr.blocks.push_back(b);
    fr.control = control;
}

void
Recorder::onStmt(const interp::StmtEvent& ev)
{
    Frame& fr = frames().back();
    Event e;
    e.stmt = ev.stmt;
    e.instance = ev.instance;
    e.value = ev.value;
    e.addr = ev.addr;
    e.numDeps = ev.numDeps;
    e.deps[0] = ev.deps[0];
    e.deps[1] = ev.deps[1];
    e.control = fr.control;
    const auto idx = static_cast<uint32_t>(events_.size());
    events_.push_back(e);
    std::vector<uint32_t>& inst = byStmt_[ev.stmt];
    if (inst.size() <= ev.instance)
        inst.resize(ev.instance + 1, UINT32_MAX);
    inst[ev.instance] = idx;
    fr.pending.push_back(idx);
}

void
Recorder::onThreadStart(uint32_t tid, uint32_t parent,
                        const interp::DepRef& spawn_site)
{
    (void)parent;
    (void)spawn_site;
    if (threads_.size() <= tid)
        threads_.resize(tid + 1);
}

void
Recorder::onThreadSwitch(uint32_t tid)
{
    tid_ = tid;
}

void
Recorder::onSync(const interp::SyncEvent& ev)
{
    if (ev.kind == interp::SyncKind::Read ||
        ev.kind == interp::SyncKind::Write)
        accesses_.insert(Access{ev.obj, ev.stmt, tid_,
                                ev.kind == interp::SyncKind::Write});
}

std::vector<std::pair<uint64_t, uint32_t>>
Recorder::instances(ir::StmtId stmt) const
{
    std::vector<std::pair<uint64_t, uint32_t>> out;
    if (stmt >= byStmt_.size())
        return out;
    for (uint32_t e : byStmt_[stmt])
        if (e != UINT32_MAX && events_[e].ts != 0)
            out.emplace_back(events_[e].ts, e);
    // Statement instances of one path share its timestamp; a path
    // holds a statement at most once, so this order is total.
    std::sort(out.begin(), out.end());
    return out;
}

uint32_t
Recorder::lookup(const interp::DepRef& d) const
{
    if (!d.valid() || d.stmt >= byStmt_.size() ||
        d.instance >= byStmt_[d.stmt].size())
        return UINT32_MAX;
    return byStmt_[d.stmt][d.instance];
}

std::map<ir::StmtId, uint64_t>
Recorder::slice(ir::StmtId stmt, uint64_t k) const
{
    std::map<ir::StmtId, uint64_t> counts;
    std::vector<std::pair<uint64_t, uint32_t>> inst = instances(stmt);
    if (k >= inst.size())
        return counts;
    std::vector<bool> seen(events_.size(), false);
    std::deque<uint32_t> queue{inst[k].second};
    seen[inst[k].second] = true;
    while (!queue.empty()) {
        const Event& e = events_[queue.front()];
        queue.pop_front();
        ++counts[e.stmt];
        auto visit = [&](const interp::DepRef& d) {
            uint32_t idx = lookup(d);
            if (idx != UINT32_MAX && !seen[idx]) {
                seen[idx] = true;
                queue.push_back(idx);
            }
        };
        for (uint8_t i = 0; i < e.numDeps; ++i)
            visit(e.deps[i]);
        visit(e.control);
    }
    return counts;
}

} // namespace wetperf
