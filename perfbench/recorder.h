#ifndef WETPERF_RECORDER_H
#define WETPERF_RECORDER_H

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/moduleanalysis.h"
#include "interp/tracesink.h"

namespace wetperf {

/**
 * Reference trace for answer checking: an uncompressed event log of
 * one run, recorded by a second, untimed interpretation of the same
 * seeded program. It shares no code with the WET builder, codecs or
 * query engines; it only cuts the block sequence into paths where the
 * paper does (at a back edge or a function return) so that event
 * timestamps line up with the WET's path-instance timestamps.
 */
class Recorder : public wet::interp::TraceSink
{
  public:
    /** One completed path instance; its timestamp is index + 1. */
    struct Path
    {
        wet::ir::FuncId func = 0;
        std::vector<wet::ir::BlockId> blocks;
    };

    /** One executed statement. */
    struct Event
    {
        wet::ir::StmtId stmt = 0;
        uint32_t instance = 0;
        uint64_t ts = 0; //!< 0 if its path never completed
        int64_t value = 0;
        uint64_t addr = 0;
        wet::interp::DepRef deps[2];
        wet::interp::DepRef control;
        uint8_t numDeps = 0;
    };

    /** (addr, stmt, thread, isWrite) of a shared-memory access. */
    using Access = std::tuple<int64_t, wet::ir::StmtId, uint32_t, bool>;

    explicit Recorder(const wet::analysis::ModuleAnalysis& ma);

    void onEnterFunction(wet::ir::FuncId f,
                         const wet::interp::DepRef& callsite) override;
    void onLeaveFunction(wet::ir::FuncId f) override;
    void onEdge(wet::ir::FuncId f, wet::ir::BlockId from,
                uint8_t succ_idx) override;
    void onBlockEnter(wet::ir::FuncId f, wet::ir::BlockId b,
                      const wet::interp::DepRef& control) override;
    void onStmt(const wet::interp::StmtEvent& ev) override;
    void onThreadStart(uint32_t tid, uint32_t parent,
                       const wet::interp::DepRef& spawn_site) override;
    void onThreadSwitch(uint32_t tid) override;
    void onSync(const wet::interp::SyncEvent& ev) override;

    const std::vector<Path>& paths() const { return paths_; }
    uint64_t stmtsExecuted() const { return events_.size(); }
    const std::set<Access>& accesses() const { return accesses_; }

    /** Instances of @p stmt as (timestamp, event index), in the
     *  order the WET queries report them. */
    std::vector<std::pair<uint64_t, uint32_t>>
    instances(wet::ir::StmtId stmt) const;

    const Event& event(uint32_t idx) const { return events_[idx]; }

    /**
     * Naive backward slice of the @p k-th (timestamp-ordered)
     * instance of @p stmt: breadth-first search over the recorded
     * data and control dependences. Returns instances per statement;
     * empty if the statement ran fewer than k + 1 times.
     */
    std::map<wet::ir::StmtId, uint64_t> slice(wet::ir::StmtId stmt,
                                              uint64_t k) const;

  private:
    struct Frame
    {
        wet::ir::FuncId func = 0;
        wet::interp::DepRef control;
        std::vector<wet::ir::BlockId> blocks;
        std::vector<uint32_t> pending; //!< events of the open path
    };

    std::vector<Frame>& frames() { return threads_[tid_]; }
    void complete(Frame& fr);
    uint32_t lookup(const wet::interp::DepRef& d) const;

    const wet::analysis::ModuleAnalysis& ma_;
    std::vector<std::vector<Frame>> threads_;
    uint32_t tid_ = 0;
    std::vector<Path> paths_;
    std::vector<Event> events_;
    /** Per statement: event index of each instance. */
    std::vector<std::vector<uint32_t>> byStmt_;
    std::set<Access> accesses_;
};

} // namespace wetperf

#endif // WETPERF_RECORDER_H
