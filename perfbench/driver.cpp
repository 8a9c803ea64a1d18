/**
 * @file
 * Single-process benchmark driver for the WET pipeline. Three
 * workloads (build, query, slice) time every layer from outside by
 * calling its public functions, check every answer against a
 * reference the driver records itself, and print one JSON result as
 * the last line of standard output. See README.md for the metrics,
 * the estimator and the reference figures.
 *
 *   wetperf --workload build|query|slice --seed N --seconds S
 *           --trace 0|1 [--work DIR]
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/racedetect.h"
#include "analysis/staticdep.h"
#include "codec/encoder.h"
#include "core/access.h"
#include "core/builder.h"
#include "core/compressed.h"
#include "core/cursorslicer.h"
#include "core/session.h"
#include "core/sharedartifact.h"
#include "core/slicer.h"
#include "interp/interpreter.h"
#include "lang/codegen.h"
#include "serve/queryrunner.h"
#include "support/error.h"
#include "support/rng.h"
#include "wetio/manifest.h"
#include "wetio/wetio.h"
#include "workloads/workloads.h"

#include "recorder.h"
#include "spans.h"

using namespace wet;
using wetperf::Recorder;
using wetperf::Scoped;
using wetperf::Tracer;

namespace {

/** Taken during static initialization, before main() runs. */
const int64_t kProcessStartNs = Tracer::nowNs();

Tracer gTracer;

double
secondsSince(int64_t startNs)
{
    return static_cast<double>(Tracer::nowNs() - startNs) / 1e9;
}

/** Stopwatch over the same clock as the spans. */
struct Stopwatch
{
    int64_t start = Tracer::nowNs();
    double seconds() const { return secondsSince(start); }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Geometric mean of @p v (all positive): a typical value that every
 *  element moves a little, unlike a median, which jumps when it sits
 *  between two modes of a mixed workload. */
double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double logs = 0;
    for (double x : v)
        logs += std::log(x);
    return std::exp(logs / static_cast<double>(v.size()));
}

/** Nearest-rank percentile @p p (0..100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
sum(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

uint64_t
hashBytes(const std::string& s)
{
    return wetio::fnv1a64(reinterpret_cast<const uint8_t*>(s.data()),
                          s.size());
}

template <typename T>
void
shuffle(std::vector<T>& v, support::Rng& rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

// ------------------------------------------------------------------ //
// Results

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work = ".bench_work";
};

/** What one run reports, plus its correctness bookkeeping. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Per-layer values measured by the traced run (0 = the layer
     *  does no such work on this workload). */
    std::map<std::string, double> layer;

    void
    fail(const std::string& what)
    {
        if (correct)
            std::fprintf(stderr, "wetperf: check failed: %s\n",
                         what.c_str());
        correct = false;
    }

    void
    check(bool ok, const std::string& what)
    {
        if (!ok)
            fail(what);
    }

    void
    metric(const std::string& name, double v, const std::string& unit)
    {
        metrics[name] = {v, unit};
    }
};

/** Per-layer metric names and units, in print order. */
const std::vector<std::pair<std::string, std::string>>&
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            {"lang.compile_s", "s"},
            {"analysis.module_s", "s"},
            {"interp.stmts_per_s", "stmt/s"},
            {"core.tier1_s", "s"},
            {"core.tier1_bytes", "bytes"},
            {"codec.tier2_s", "s"},
            {"codec.tier2_values_per_s", "1/s"},
            {"codec.tier2_bytes", "bytes"},
            {"codec.streams", "count"},
        };
        for (const codec::CodecConfig& c : codec::candidateConfigs())
            v.push_back({"codec.wins." +
                             codec::methodName(c.method, c.context),
                         "count"});
        v.push_back({"codec.wins.raw", "count"});
        for (const char* n :
             {"wetio.serialize_s", "wetio.load_s", "wetio.manifest_load_s",
              "core.session_warmup_s"})
            v.push_back({n, "s"});
        for (const char* n :
             {"core.cache.hits", "core.cache.misses",
              "core.cache.evictions", "core.cache.rescans",
              "core.extract.restarts", "codec.decoded.cf",
              "codec.decoded.values", "codec.decoded.addr"})
            v.push_back({n, "count"});
        v.push_back({"analysis.races_s", "s"});
        v.push_back({"analysis.races_sync_values", "count"});
        v.push_back({"serve.parse_us", "us"});
        v.push_back({"core.slice.values_decoded", "count"});
        v.push_back({"core.slice.values_per_item", "ratio"});
        v.push_back({"core.slice.cursor_restarts", "count"});
        v.push_back({"core.slice.streams_opened", "count"});
        v.push_back({"core.slice.bytes_touched", "bytes"});
        v.push_back({"analysis.static_slice_us", "us"});
        v.push_back({"core.slice.tier1_ms", "ms"});
        v.push_back({"core.slice.tier2_over_tier1", "ratio"});
        v.push_back({"core.build_stmts_per_s", "stmt/s"});
        v.push_back({"serve.queries_per_s", "1/s"});
        v.push_back({"serve.cf_us", "us"});
        v.push_back({"serve.values_us", "us"});
        v.push_back({"serve.addr_us", "us"});
        v.push_back({"serve.races_ms", "ms"});
        v.push_back({"serve.query_p99_us", "us"});
        v.push_back({"serve.slice_ms", "ms"});
        v.push_back({"serve.slice_items_per_s", "1/s"});
        for (const char* mod : {"lang", "analysis", "interp", "core",
                                "codec", "wetio", "serve", "bench"})
            v.push_back({std::string("self.") + mod + "_s", "s"});
        v.push_back({"trace.overhead_pct", "%"});
        return v;
    }();
    return m;
}

// ------------------------------------------------------------------ //
// Programs: compile, trace, build, serialize

/** One workload program and everything built from it. */
struct Program
{
    const workloads::Workload* w = nullptr;
    uint64_t scale = 0;
    std::unique_ptr<ir::Module> mod;
    std::unique_ptr<analysis::ModuleAnalysis> ma;
    interp::RunResult run;
    std::unique_ptr<core::WetGraph> graph; //!< tier 1
    std::unique_ptr<core::WetCompressed> comp;
    std::vector<uint8_t> image; //!< serialized WETX
    std::string path;           //!< saved single-file artifact
    wetio::LoadedWet loaded;
    std::unique_ptr<Recorder> rec;

    const std::string& name() const { return w->name; }
};

/** Wall seconds of each stage of one build. */
struct BuildTimes
{
    double tier1 = 0; //!< interpretation with the tier-1 builder
    double tier2 = 0;
    double serialize = 0;
    double total() const { return tier1 + tier2 + serialize; }
};

void
compileProgram(Program& p, Result& r)
{
    {
        Scoped s(gTracer, "lang.compile");
        Stopwatch sw;
        p.mod = std::make_unique<ir::Module>(
            lang::compileString(p.w->source, p.w->memWords));
        r.layer["lang.compile_s"] += sw.seconds();
    }
    Scoped s(gTracer, "analysis.module");
    Stopwatch sw;
    p.ma = std::make_unique<analysis::ModuleAnalysis>(*p.mod);
    r.layer["analysis.module_s"] += sw.seconds();
}

/** Interpret with the tier-1 builder, compress, serialize. */
BuildTimes
buildProgram(Program& p)
{
    BuildTimes t;
    p.comp.reset();
    {
        Scoped s(gTracer, "core.build");
        Stopwatch sw;
        auto input = workloads::makeWorkloadInput(*p.w, p.scale);
        core::WetBuilder builder(*p.ma);
        interp::Interpreter in(*p.ma, *input, &builder);
        p.run = in.run();
        p.graph = std::make_unique<core::WetGraph>(builder.take());
        t.tier1 = sw.seconds();
    }
    {
        Scoped s(gTracer, "codec.tier2");
        Stopwatch sw;
        p.comp = std::make_unique<core::WetCompressed>(*p.graph,
                                                       codec::SelectorOptions{},
                                                       1);
        t.tier2 = sw.seconds();
    }
    {
        Scoped s(gTracer, "wetio.serialize");
        Stopwatch sw;
        p.image = wetio::serialize(*p.mod, *p.graph, *p.comp);
        t.serialize = sw.seconds();
    }
    return t;
}

/** Sink-less interpretation (the interpreter's own cost). */
double
interpretOnly(Program& p)
{
    Scoped s(gTracer, "interp.run");
    Stopwatch sw;
    auto input = workloads::makeWorkloadInput(*p.w, p.scale);
    interp::Interpreter in(*p.ma, *input, nullptr);
    in.run();
    return sw.seconds();
}

/** Second, untimed interpretation into the reference recorder. */
void
recordReference(Program& p)
{
    Scoped s(gTracer, "bench.reference");
    p.rec = std::make_unique<Recorder>(*p.ma);
    auto input = workloads::makeWorkloadInput(*p.w, p.scale);
    interp::Interpreter in(*p.ma, *input, p.rec.get());
    in.run();
}

template <typename F>
void
forEachStream(const core::WetCompressed& c, F&& f)
{
    const core::WetGraph& g = c.graph();
    for (core::NodeId n = 0; n < g.nodes.size(); ++n) {
        const core::CompressedNode& cn = c.node(n);
        f(cn.ts);
        for (const auto& s : cn.patterns)
            f(s);
        for (const auto& grp : cn.uvals)
            for (const auto& s : grp)
                f(s);
    }
    for (uint32_t i = 0; i < g.labelPool.size(); ++i) {
        f(c.pool(i).useInst);
        f(c.pool(i).defInst);
    }
    for (uint32_t t = 0; t < c.numSyncThreads(); ++t) {
        const core::CompressedSyncThread& s = c.sync(t);
        f(s.kind);
        f(s.obj);
        f(s.stmt);
        f(s.seq);
    }
}

template <typename V>
bool
decodesTo(const codec::CompressedStream& s, const V& labels)
{
    std::vector<int64_t> d = codec::decodeAll(s);
    if (d.size() != labels.size())
        return false;
    for (size_t i = 0; i < d.size(); ++i)
        if (d[i] != static_cast<int64_t>(labels[i]))
            return false;
    return true;
}

/**
 * Untimed checks of one built and loaded program: every decoded
 * tier-2 stream of the loaded artifact equals its tier-1 label
 * sequence, and the statement count rebuilt from the loaded graph
 * (node instances x path length) equals both the interpreter's count
 * and the reference recorder's.
 */
void
checkArtifact(const Program& p, Result& r)
{
    const core::WetGraph& t1 = *p.graph;
    const core::WetCompressed& c = *p.loaded.compressed;
    const core::WetGraph& lg = *p.loaded.graph;
    const std::string& n = p.name();
    r.check(lg.nodes.size() == t1.nodes.size() &&
                lg.labelPool.size() == t1.labelPool.size() &&
                c.numSyncThreads() == t1.syncThreads.size(),
            n + ": loaded graph shape differs from the built one");
    if (!r.correct)
        return;
    bool same = true;
    for (core::NodeId i = 0; i < t1.nodes.size() && same; ++i) {
        const core::WetNode& node = t1.nodes[i];
        const core::CompressedNode& cn = c.node(i);
        same = decodesTo(cn.ts, node.ts) &&
               cn.patterns.size() == node.groups.size();
        for (size_t g = 0; same && g < node.groups.size(); ++g) {
            same = decodesTo(cn.patterns[g], node.groups[g].pattern) &&
                   cn.uvals[g].size() == node.groups[g].uvals.size();
            for (size_t m = 0; same && m < node.groups[g].uvals.size();
                 ++m)
                same = decodesTo(cn.uvals[g][m], node.groups[g].uvals[m]);
        }
    }
    for (uint32_t i = 0; i < t1.labelPool.size() && same; ++i)
        same = decodesTo(c.pool(i).useInst, t1.labelPool[i].useInst) &&
               decodesTo(c.pool(i).defInst, t1.labelPool[i].defInst);
    for (uint32_t t = 0; t < t1.syncThreads.size() && same; ++t) {
        const core::SyncThread& st = t1.syncThreads[t];
        const core::CompressedSyncThread& cs = c.sync(t);
        same = decodesTo(cs.kind, st.kind) && decodesTo(cs.obj, st.obj) &&
               decodesTo(cs.stmt, st.stmt) && decodesTo(cs.seq, st.seq);
    }
    r.check(same, n + ": a decoded tier-2 stream differs from tier 1");

    uint64_t rebuilt = 0;
    for (const core::WetNode& node : lg.nodes)
        rebuilt += node.instances() * node.stmts.size();
    r.check(rebuilt == p.run.stmtsExecuted,
            n + ": statements rebuilt from the artifact (" +
                std::to_string(rebuilt) + ") != executed (" +
                std::to_string(p.run.stmtsExecuted) + ")");
    r.check(p.rec->stmtsExecuted() == p.run.stmtsExecuted,
            n + ": recorder statement count differs");
}

/** Layer totals of one build (sizes, streams, codec wins). */
void
addBuildShape(const Program& p, Result& r)
{
    r.layer["core.tier1_bytes"] +=
        static_cast<double>(p.graph->tier1Sizes().total());
    r.layer["codec.tier2_bytes"] +=
        static_cast<double>(p.comp->sizes().total());
    uint64_t streams = 0;
    uint64_t values = 0;
    forEachStream(*p.comp, [&](const codec::CompressedStream& s) {
        ++streams;
        values += s.length;
    });
    r.layer["codec.streams"] += static_cast<double>(streams);
    r.layer["bench.tier2_values"] += static_cast<double>(values);
    for (const auto& [name, wins] : p.comp->methodWins())
        r.layer["codec.wins." + name] += static_cast<double>(wins);
}

Program
makeProgram(const std::string& name, uint64_t scale, Result& r)
{
    Program p;
    p.w = &workloads::workloadByName(name);
    p.scale = scale;
    compileProgram(p, r);
    return p;
}

void
saveAndLoad(Program& p, const Options& opt, Result& r)
{
    p.path = opt.work + "/" + p.name() + ".wetx";
    {
        Scoped s(gTracer, "wetio.save");
        Stopwatch sw;
        wetio::atomicWrite(p.path, p.image.data(), p.image.size());
        r.layer["setup.save_s"] += sw.seconds();
    }
    Scoped s(gTracer, "wetio.load");
    Stopwatch sw;
    analysis::DiagEngine diag;
    p.loaded = wetio::tryLoad(p.path, *p.mod, diag);
    r.layer["wetio.load_s"] += sw.seconds();
    if (!p.loaded.compressed)
        throw WetError("cannot load " + p.path);
}

/** One build per program during set-up (query and slice). */
void
setupBuilds(std::vector<Program>& progs, const Options& opt, Result& r)
{
    for (Program& p : progs) {
        if (opt.trace) {
            double ti = interpretOnly(p);
            r.layer["bench.interp_s"] += ti;
        }
        BuildTimes t = buildProgram(p);
        r.layer["setup.build_s"] += t.total();
        r.layer["core.tier1_s"] += t.tier1;
        r.layer["codec.tier2_s"] += t.tier2;
        r.layer["wetio.serialize_s"] += t.serialize;
        r.layer["bench.stmts"] += static_cast<double>(p.run.stmtsExecuted);
        addBuildShape(p, r);
        saveAndLoad(p, opt, r);
    }
}

/** Derived per-layer build figures from the accumulated totals. */
void
finishBuildLayers(Result& r)
{
    double interp = r.layer["bench.interp_s"];
    double stmts = r.layer["bench.stmts"];
    if (interp > 0) {
        r.layer["interp.stmts_per_s"] = stmts / interp;
        // The builder is an interpreter sink, so its span covers the
        // interpretation too; tier 1 alone is the difference.
        r.layer["core.tier1_s"] -= interp;
    }
    if (r.layer["codec.tier2_s"] > 0)
        r.layer["codec.tier2_values_per_s"] =
            r.layer["bench.tier2_values"] / r.layer["codec.tier2_s"];
}

/** Where the set-up time went (cold, one pass). */
void
printSetup(Result& r)
{
    std::printf("detail setup total_s=%.4f compile_s=%.4f analysis_s=%.4f "
                "build_s=%.4f save_s=%.4f load_s=%.4f segmented_s=%.4f "
                "manifest_load_s=%.4f warmup_s=%.4f\n",
                r.metrics["setup_s"].first, r.layer["lang.compile_s"],
                r.layer["analysis.module_s"], r.layer["setup.build_s"],
                r.layer["setup.save_s"], r.layer["wetio.load_s"],
                r.layer["setup.segmented_s"], r.layer["wetio.manifest_load_s"],
                r.layer["core.session_warmup_s"]);
}

std::shared_ptr<core::SharedArtifact>
shareSingle(const Program& p)
{
    return std::make_shared<core::SharedArtifact>(
        *p.mod, *p.loaded.compressed, p.loaded.backing, 1, p.path);
}

// ------------------------------------------------------------------ //
// Timed rounds

/**
 * Runs whole rounds of the same operations until the next round would
 * end past @p seconds (at least two rounds). Each operation keeps its
 * best (minimum) time over the rounds; the metrics are geometric means
 * and sums of these bests. A slow spell of the machine then has to cover
 * one operation in every round before it moves that operation's
 * figure, and it hits all operations alike.
 */
struct RoundLoop
{
    explicit RoundLoop(double s) : seconds(s) {}

    double seconds;
    size_t rounds = 0;
    Stopwatch clock;
    double lastRound = 0;
    int64_t roundStart = 0;

    bool
    next()
    {
        if (rounds > 0)
            lastRound = static_cast<double>(Tracer::nowNs() - roundStart) / 1e9;
        if (rounds >= 2 && clock.seconds() + lastRound > seconds)
            return false;
        roundStart = Tracer::nowNs();
        ++rounds;
        return true;
    }
};

/** Best-of-rounds per operation, split by tracing state. */
struct Bests
{
    std::vector<double> best;       //!< untraced rounds
    std::vector<double> bestTraced; //!< traced rounds (traced run only)

    explicit Bests(size_t n) : best(n, 1e30), bestTraced(n, 1e30) {}

    /** Sum and log-sum of the current round's times. */
    double roundSum = 0;
    double roundLogs = 0;

    void
    add(size_t i, double t, bool traced)
    {
        double& b = traced ? bestTraced[i] : best[i];
        b = std::min(b, t);
        roundSum += t;
        roundLogs += std::log(t);
    }

    /** Prints the round that just ended and starts the next. */
    void
    endRound(const char* workload, size_t round, bool traced)
    {
        std::printf("detail round %s %zu%s sum_ms=%.3f geomean_ms=%.4f\n",
                    workload, round, traced ? " traced" : "", 1e3 * roundSum,
                    1e3 * std::exp(roundLogs / static_cast<double>(best.size())));
        roundSum = 0;
        roundLogs = 0;
    }

    /** Tracing overhead in percent from the two best-time sums. */
    double
    overheadPct() const
    {
        double u = sum(best);
        double t = sum(bestTraced);
        return u > 0 && t < 1e29 ? 100.0 * (t / u - 1.0) : 0.0;
    }
};


// ------------------------------------------------------------------ //
// Workload: build

/**
 * The six single-threaded programs whose size scales down. 164.gzip,
 * 181.mcf and 256.bzip2 are 0.6-1.8 M statements even at scale 1;
 * their 0.3-1.1 s builds moved by up to 40 % between runs, so they are
 * built in the set-up of the query and slice workloads instead.
 */
const std::vector<std::pair<const char*, uint64_t>> kBuildPrograms = {
    {"099.go", 10},    {"126.gcc", 20},   {"130.li", 15},
    {"197.parser", 25}, {"255.vortex", 1500}, {"300.twolf", 50},
};

void
runBuild(const Options& opt, Result& r)
{
    support::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 1);
    std::vector<Program> progs;
    for (const auto& [name, scale] : kBuildPrograms)
        progs.push_back(makeProgram(name, scale, r));
    // Warm-up: one full build of each program, which also fixes the
    // expected image of every later build.
    std::vector<uint64_t> imageHash;
    for (Program& p : progs) {
        r.layer["setup.build_s"] += buildProgram(p).total();
        imageHash.push_back(wetio::fnv1a64(p.image.data(), p.image.size()));
    }
    r.metric("setup_s", secondsSince(kProcessStartNs), "s");
    printSetup(r);

    const size_t n = progs.size();
    Bests total(n);
    std::vector<BuildTimes> best(n, BuildTimes{1e30, 1e30, 1e30});
    std::vector<double> interpBest(n, 1e30);
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    RoundLoop loop(opt.seconds);
    while (loop.next()) {
        // The traced run alternates untraced and traced rounds; the
        // gap between their best-time sums is the tracing overhead.
        const bool traced = opt.trace && loop.rounds % 2 == 0;
        gTracer.enable(traced);
        Scoped round(gTracer, "bench.round");
        shuffle(order, rng);
        for (size_t i : order) {
            Program& p = progs[i];
            if (opt.trace)
                interpBest[i] = std::min(interpBest[i], interpretOnly(p));
            BuildTimes t = buildProgram(p);
            ++r.attempted;
            if (wetio::fnv1a64(p.image.data(), p.image.size()) !=
                imageHash[i]) {
                ++r.failed;
                r.fail(p.name() + ": rebuilt image differs");
            }
            total.add(i, t.total(), traced);
            if (traced)
                continue;
            best[i].tier1 = std::min(best[i].tier1, t.tier1);
            best[i].tier2 = std::min(best[i].tier2, t.tier2);
            best[i].serialize = std::min(best[i].serialize, t.serialize);
        }
        total.endRound("build", loop.rounds, traced);
    }
    gTracer.enable(opt.trace);

    double stmts = 0;
    double bytes = 0;
    for (const Program& p : progs) {
        stmts += static_cast<double>(p.run.stmtsExecuted);
        bytes += static_cast<double>(p.image.size());
    }
    // Each stage keeps its own best: the stages are shorter than a
    // whole build, so a best-of-rounds finds a quiet spell of the
    // machine for each of them more often.
    std::vector<double> perProgram(n);
    for (size_t i = 0; i < n; ++i)
        perProgram[i] = best[i].total();
    r.metric("work_per_s", stmts / sum(perProgram), "1/s");
    r.metric("op_ms", 1e3 * geomean(perProgram), "ms");
    r.metric("artifact_bytes", bytes, "bytes");
    for (size_t i = 0; i < n; ++i)
        std::printf("detail build %-10s stmts=%" PRIu64
                    " best_ms=%.3f tier1_ms=%.3f tier2_ms=%.3f "
                    "serialize_ms=%.3f bytes=%zu\n",
                    progs[i].name().c_str(), progs[i].run.stmtsExecuted,
                    1e3 * perProgram[i], 1e3 * best[i].tier1,
                    1e3 * best[i].tier2, 1e3 * best[i].serialize,
                    progs[i].image.size());
    std::printf("detail build rounds=%zu\n", loop.rounds);

    r.layer["core.build_stmts_per_s"] = stmts / sum(perProgram);
    for (size_t i = 0; i < n; ++i) {
        r.layer["core.tier1_s"] += best[i].tier1;
        r.layer["codec.tier2_s"] += best[i].tier2;
        r.layer["wetio.serialize_s"] += best[i].serialize;
        if (opt.trace)
            r.layer["bench.interp_s"] += interpBest[i];
        addBuildShape(progs[i], r);
    }
    r.layer["bench.stmts"] = stmts;
    r.layer["trace.overhead_pct"] = total.overheadPct();
    finishBuildLayers(r);

    // Untimed: save, mmap-load and check every artifact against tier
    // 1 and the reference recorder.
    for (Program& p : progs) {
        saveAndLoad(p, opt, r);
        recordReference(p);
        checkArtifact(p, r);
        p.rec.reset();
    }
}

// ------------------------------------------------------------------ //
// Query and slice lines

/** One query line bound to the session that serves it. */
struct Line
{
    size_t session = 0;
    size_t program = 0;
    std::string verb;
    std::string text;
    uint64_t stmt = 0;
    uint64_t k = 0;
    /** Line this one must answer byte-identically to (segmented twin
     *  of a single-file line), or SIZE_MAX. */
    size_t twinOf = SIZE_MAX;
    std::string firstOut;
    uint64_t outHash = 0;
    int firstCode = 0;
    uint64_t attempts = 0;
    /** Attempts with an unexpected exit code or a changed answer. */
    uint64_t failures = 0;
};

struct Served
{
    std::shared_ptr<core::SharedArtifact> shared;
    std::unique_ptr<core::QuerySession> session;
    size_t program = 0;
};

/** Serve one line, timing it; records the first answer and checks
 *  that every repeat answers byte-identically. */
double
serve(Served& sv, Line& ln, bool first, Result& r)
{
    serve::LineResult lr;
    Stopwatch sw;
    {
        Scoped s(gTracer, "serve.line");
        lr = serve::serveLine(*sv.session, sv.shared->name(), ln.text, 1);
    }
    double t = sw.seconds();
    ++r.attempted;
    ++ln.attempts;
    if (first) {
        ln.firstOut = lr.out;
        ln.outHash = hashBytes(lr.out);
        ln.firstCode = lr.code;
    }
    const bool codeOk =
        (lr.code == serve::kExitOk ||
         (ln.verb == "races" && lr.code == serve::kExitRaces)) &&
        lr.code == ln.firstCode;
    if (!codeOk) {
        ++ln.failures;
        std::fprintf(stderr, "wetperf: line failed (%d): %s\n%s", lr.code,
                     ln.text.c_str(), lr.err.c_str());
    } else if (!first && hashBytes(lr.out) != ln.outHash) {
        ++ln.failures;
        r.fail("repeat of '" + ln.text + "' answered differently");
    }
    return t;
}

/**
 * Adds one checked line to the failed count: every attempt of a line
 * whose answer disagrees with the reference failed (all repeats answer
 * alike), otherwise only the attempts that failed on their own.
 */
void
countFailures(const Line& ln, bool answerOk, Result& r)
{
    r.failed += answerOk ? ln.failures : ln.attempts;
}

std::vector<std::string>
splitLines(const std::string& s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start < s.size()) {
        size_t nl = s.find('\n', start);
        if (nl == std::string::npos)
            nl = s.size();
        out.push_back(s.substr(start, nl - start));
        start = nl + 1;
    }
    return out;
}

/** Function-local "fn:stmt" spelling of a global statement id. */
std::string
localStmt(const ir::Module& mod, ir::StmtId stmt)
{
    const ir::StmtRef& ref = mod.stmtRef(stmt);
    const ir::Function& fn = mod.function(ref.func);
    return fn.name + ":" + std::to_string(stmt - fn.blocks[0].instrs[0].stmt);
}

/** Executed statements of @p g matching @p pred, ascending. */
std::vector<ir::StmtId>
executedStmts(const core::WetGraph& g, const ir::Module& mod,
              const std::function<bool(const ir::Instr&)>& pred)
{
    std::vector<ir::StmtId> out;
    for (const auto& [stmt, sites] : g.stmtIndex) {
        (void)sites;
        if (pred(mod.instr(stmt)))
            out.push_back(stmt);
    }
    std::sort(out.begin(), out.end());
    return out;
}

// ---- answer checks against the reference recorder

bool
checkCf(const Line& ln, const Program& p, uint64_t from, uint64_t count,
        Result& r)
{
    const auto& paths = p.rec->paths();
    std::vector<std::string> rows = splitLines(ln.firstOut);
    const uint64_t last = std::min<uint64_t>(paths.size(), from + count - 1);
    bool ok = rows.size() == last - from + 1;
    for (size_t i = 0; ok && i < rows.size(); ++i) {
        unsigned long long t = 0;
        unsigned fn = 0;
        unsigned long long pathId = 0;
        int used = 0;
        ok = std::sscanf(rows[i].c_str(), "t=%llu fn%u path%llu [%n", &t,
                         &fn, &pathId, &used) == 3 &&
             used > 0 && t == from + i;
        if (!ok)
            break;
        const Recorder::Path& ref = paths[t - 1];
        std::vector<ir::BlockId> blocks;
        const char* c = rows[i].c_str() + used;
        unsigned b = 0;
        int n = 0;
        while (std::sscanf(c, " b%u%n", &b, &n) == 1) {
            blocks.push_back(b);
            c += n;
        }
        ok = fn == ref.func && blocks == ref.blocks;
    }
    r.check(ok, p.name() + ": '" + ln.text +
                    "' disagrees with the recorded block sequence");
    return ok;
}

bool
checkTrace(const Line& ln, const Program& p, uint64_t limit, bool addr,
           Result& r)
{
    auto inst = p.rec->instances(static_cast<ir::StmtId>(ln.stmt));
    std::vector<std::string> rows = splitLines(ln.firstOut);
    const size_t shown = std::min<size_t>(limit, inst.size());
    bool ok = rows.size() == shown + 1;
    unsigned long long prevT = 0;
    for (size_t i = 0; ok && i < shown; ++i) {
        unsigned long long t = 0;
        long long v = 0;
        unsigned long long a = 0;
        const Recorder::Event& e = p.rec->event(inst[i].second);
        if (addr)
            ok = std::sscanf(rows[i].c_str(), "<t=%llu, 0x%llx>", &t, &a) ==
                     2 &&
                 a == e.addr;
        else
            ok = std::sscanf(rows[i].c_str(), "<t=%llu, %lld>", &t, &v) ==
                     2 &&
                 v == e.value;
        ok = ok && t == inst[i].first && t > prevT;
        prevT = t;
    }
    unsigned long long total = 0;
    ok = ok &&
         std::sscanf(rows.back().c_str(), "(%llu instances total)", &total) ==
             1 &&
         total == inst.size();
    r.check(ok, p.name() + ": '" + ln.text +
                    "' disagrees with the recorded trace");
    return ok;
}

bool
checkRaces(const Line& ln, const Program& p, Result& r)
{
    std::vector<std::string> rows = splitLines(ln.firstOut);
    unsigned long long n = 0;
    bool ok = !rows.empty() &&
              std::sscanf(rows[0].c_str(), "races: %llu", &n) == 1 &&
              rows.size() == n + 1;
    if (p.name() == "mt.counter")
        ok = ok && n >= 1 && ln.firstCode == serve::kExitRaces;
    else
        ok = ok && n == 0 && ln.firstCode == serve::kExitOk;
    for (size_t i = 1; ok && i < rows.size(); ++i) {
        long long a = 0;
        char k1[8] = {0};
        char k2[8] = {0};
        unsigned s1 = 0, s2 = 0, t1 = 0, t2 = 0;
        ok = std::sscanf(rows[i].c_str(),
                         "addr %lld: %7s stmt %u (thread %u) vs %7s stmt %u "
                         "(thread %u)",
                         &a, k1, &s1, &t1, k2, &s2, &t2) == 7;
        const bool w1 = std::strcmp(k1, "write") == 0;
        const bool w2 = std::strcmp(k2, "write") == 0;
        ok = ok && t1 != t2 && (w1 || w2) &&
             p.rec->accesses().count(Recorder::Access{a, s1, t1, w1}) &&
             p.rec->accesses().count(Recorder::Access{a, s2, t2, w2});
    }
    r.check(ok, p.name() + ": '" + ln.text +
                    "' disagrees with the recorded accesses");
    return ok;
}

/** Instances in a slice answer, or -1 if the header is malformed. */
int64_t
sliceItems(const std::string& out)
{
    size_t at = out.find(": ", out.find(" instance "));
    unsigned long long n = 0;
    if (at == std::string::npos ||
        std::sscanf(out.c_str() + at, ": %llu instances", &n) != 1)
        return -1;
    return static_cast<int64_t>(n);
}

bool
checkSlice(const Line& ln, const Program& p, Result& r)
{
    std::map<ir::StmtId, uint64_t> ref =
        p.rec->slice(static_cast<ir::StmtId>(ln.stmt), ln.k);
    uint64_t refTotal = 0;
    for (const auto& [s, c] : ref)
        refTotal += c;
    std::vector<std::string> rows = splitLines(ln.firstOut);
    bool ok = rows.size() == ref.size() + 2 &&
              sliceItems(ln.firstOut) == static_cast<int64_t>(refTotal);
    auto it = ref.begin();
    for (size_t i = 1; ok && i + 1 < rows.size(); ++i, ++it) {
        unsigned st = 0;
        char op[32] = {0};
        unsigned long long c = 0;
        ok = std::sscanf(rows[i].c_str(), " stmt %u %31s x %llu", &st, op,
                         &c) == 3 &&
             st == it->first && c == it->second;
    }
    ok = ok && rows.back().rfind("containment: ", 0) == 0 &&
         rows.back().size() >= 3 &&
         rows.back().compare(rows.back().size() - 3, 3, " OK") == 0;
    r.check(ok, p.name() + ": '" + ln.text +
                    "' disagrees with the naive slice of the recorded "
                    "dependences");
    return ok;
}

/** Sum of decode steps over every live reader of @p cache. */
uint64_t
decodeSteps(const core::StreamCache& cache)
{
    uint64_t n = 0;
    cache.forEach([&](uint64_t, const core::SeqReader& rd) {
        n += rd.decodeSteps();
    });
    return n;
}

// ------------------------------------------------------------------ //
// Workload: query

struct QueryParams
{
    /** Programs of 0.2-0.5 M statements: with the larger 164.gzip and
     *  181.mcf, the cold set-up had a quartile spread of 28 %. */
    std::vector<std::pair<const char*, uint64_t>> single = {
        {"126.gcc", 90}, {"255.vortex", 6000}, {"300.twolf", 200}, {"130.li", 60},
    };
    /** The segmented twin is a manifest build of single[0]. */
    uint64_t segmentStatements = 120000;
    std::vector<std::pair<const char*, uint64_t>> threaded = {
        {"mt.counter", 300}, {"mt.bank", 300}, {"mt.tree", 40},
    };
    size_t cacheCapacity = 16;
    /** cf + values + addr lines per program. With 1059 lines a round
     *  takes about 0.7 s; with 1344 lines and 8 races lines per
     *  threaded program it took 1.3 s, and the fewer rounds let a slow
     *  spell of the host move op_ms by 30 % between runs. */
    size_t linesPerProgram = 240;
    size_t racesPerProgram = 1;
    uint64_t cfCount = 200;
};

void
runQuery(const Options& opt, Result& r)
{
    const QueryParams qp;
    support::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 2);
    std::vector<Program> progs;
    for (const auto& [name, scale] : qp.single)
        progs.push_back(makeProgram(name, scale, r));
    for (const auto& [name, scale] : qp.threaded)
        progs.push_back(makeProgram(name, scale, r));
    setupBuilds(progs, opt, r);

    // Segmented manifest of the first program: same run, cut into
    // time windows and published segment by segment.
    const std::string manifest = opt.work + "/segmented.wetm";
    uint64_t segmentBytes = 0;
    Stopwatch segSw;
    {
        Scoped s(gTracer, "wetio.segmented_build");
        Program& p = progs[0];
        wetio::SegmentWriter writer(manifest, *p.mod, {}, 1, 0x77657470, nullptr);
        core::SegmentPolicy policy;
        policy.segmentStatements = qp.segmentStatements;
        policy.onSegment = [&writer](core::WetGraph&& g) {
            writer.onSegment(std::move(g));
        };
        core::WetBuilder builder(*p.ma, {}, policy);
        auto input = workloads::makeWorkloadInput(*p.w, p.scale);
        interp::Interpreter in(*p.ma, *input, &builder);
        in.run();
        builder.finishSegments();
        writer.finish();
        for (const wetio::SegmentMeta& m : writer.segments())
            segmentBytes += m.bytes;
    }
    r.layer["setup.segmented_s"] = segSw.seconds();
    std::shared_ptr<wetio::SegmentedArtifact> segArt;
    {
        Scoped s(gTracer, "wetio.manifest_load");
        Stopwatch sw;
        analysis::DiagEngine diag;
        segArt = std::make_shared<wetio::SegmentedArtifact>(
            wetio::tryLoadArtifact(manifest, *progs[0].mod, diag));
        r.layer["wetio.manifest_load_s"] += sw.seconds();
        if (!segArt->segmented ||
            segArt->healthy() != segArt->segments.size())
            throw WetError("segmented artifact did not load whole");
    }

    Stopwatch warm;
    std::vector<Served> sessions;
    core::SessionOptions so;
    so.cacheCapacity = qp.cacheCapacity;
    for (size_t i = 0; i < progs.size(); ++i) {
        Scoped s(gTracer, "core.session");
        Served sv;
        sv.shared = shareSingle(progs[i]);
        sv.session = std::make_unique<core::QuerySession>(sv.shared, so);
        sv.program = i;
        sessions.push_back(std::move(sv));
    }
    const size_t segSession = sessions.size();
    {
        Scoped s(gTracer, "core.session");
        std::vector<core::ArtifactSegment> segs;
        for (const wetio::LoadedSegment& ls : segArt->segments) {
            core::ArtifactSegment seg;
            seg.compressed = ls.wet.compressed.get();
            seg.tsBegin = ls.wet.graph->tsBegin;
            seg.tsEnd = ls.wet.graph->lastTimestamp;
            segs.push_back(seg);
        }
        Served sv;
        sv.shared = std::make_shared<core::SharedArtifact>(
            *progs[0].mod, std::move(segs), segArt, 1, manifest);
        sv.session = std::make_unique<core::QuerySession>(sv.shared, so);
        sv.program = 0;
        sessions.push_back(std::move(sv));
    }

    // The mix. Each single-file program gets cf, values and addr
    // lines; two in five of the first program's lines are repeated on
    // its segmented twin; the threaded programs get races lines. Every
    // verb's lines are spread over equal strata: cf starts at a seeded
    // timestamp inside its stratum of the trace, values and addr take
    // the middle statement of their stratum of the executed ones, and
    // L alternates between 1 and 20. Random statements made op_ms move
    // by 5 % between seeds, so the seed moves only the cf windows and
    // the order of the lines.
    std::vector<Line> lines;
    auto isDef = [](const ir::Instr& in) { return ir::hasDef(in.op); };
    auto isMem = [](const ir::Instr& in) {
        return in.op == ir::Opcode::Load || in.op == ir::Opcode::Store;
    };
    const size_t perVerb = qp.linesPerProgram / 3;
    auto middle = [perVerb](const std::vector<ir::StmtId>& v, size_t j) {
        return v[(j * v.size() / perVerb + (j + 1) * v.size() / perVerb) / 2];
    };
    for (size_t i = 0; i < qp.single.size(); ++i) {
        const Program& p = progs[i];
        std::vector<ir::StmtId> defs = executedStmts(*p.graph, *p.mod, isDef);
        std::vector<ir::StmtId> mems = executedStmts(*p.graph, *p.mod, isMem);
        const uint64_t starts = p.graph->lastTimestamp - qp.cfCount + 1;
        for (size_t j = 0; j < 3 * perVerb; ++j) {
            const size_t s = j / 3;
            Line ln;
            ln.session = i;
            ln.program = i;
            const uint64_t limit = s % 2 == 0 ? 1 : 20;
            switch (j % 3) {
              case 0: {
                const uint64_t lo = s * starts / perVerb;
                const uint64_t hi = (s + 1) * starts / perVerb;
                ln.verb = "cf";
                ln.k = 1 + lo + rng.below(std::max<uint64_t>(1, hi - lo));
                ln.text = "cf --from " + std::to_string(ln.k) + " --count " +
                          std::to_string(qp.cfCount);
                break;
              }
              case 1:
                ln.verb = "values";
                ln.stmt = middle(defs, s);
                ln.k = limit;
                ln.text = "values --stmt " + std::to_string(ln.stmt) +
                          " --limit " + std::to_string(limit);
                break;
              default:
                ln.verb = "addr";
                ln.stmt = middle(mems, s);
                ln.k = limit;
                ln.text = "addr --stmt " + std::to_string(ln.stmt) +
                          " --limit " + std::to_string(limit);
                break;
            }
            lines.push_back(ln);
        }
    }
    for (size_t j = 0; j < 3 * perVerb; ++j) {
        if (j % 5 != 0 && j % 5 != 2)
            continue;
        Line ln = lines[j];
        ln.session = segSession;
        ln.twinOf = j;
        lines.push_back(ln);
    }
    for (size_t i = qp.single.size(); i < progs.size(); ++i)
        for (size_t j = 0; j < qp.racesPerProgram; ++j) {
            Line ln;
            ln.session = i;
            ln.program = i;
            ln.verb = "races";
            ln.text = "races";
            lines.push_back(ln);
        }
    shuffle(lines, rng);
    // The shuffle moved the twins' sources; re-point them by text.
    {
        std::map<std::string, size_t> single;
        for (size_t i = 0; i < lines.size(); ++i)
            if (lines[i].session == 0)
                single[lines[i].text] = i;
        for (Line& ln : lines)
            if (ln.twinOf != SIZE_MAX)
                ln.twinOf = single.at(ln.text);
    }

    // Warm-up: one line of each verb on every session.
    for (Served& sv : sessions) {
        const Program& p = progs[sv.program];
        std::vector<std::string> warmLines = {"races"};
        if (sv.program < qp.single.size())
            warmLines = {
                "cf --from 1 --count 20",
                "values --stmt " +
                    std::to_string(executedStmts(*p.graph, *p.mod, isDef).front()),
                "addr --stmt " +
                    std::to_string(executedStmts(*p.graph, *p.mod, isMem).front()),
            };
        for (const std::string& l : warmLines)
            serve::serveLine(*sv.session, sv.shared->name(), l, 1);
    }
    r.layer["core.session_warmup_s"] += warm.seconds();
    r.metric("setup_s", secondsSince(kProcessStartNs), "s");
    printSetup(r);

    auto cacheTotals = [&]() {
        std::map<std::string, uint64_t> t;
        for (Served& sv : sessions)
            for (const auto& [k, v] : sv.session->metrics().counters())
                t[k] += v;
        return t;
    };
    const std::map<std::string, uint64_t> before = cacheTotals();

    Bests bests(lines.size());
    RoundLoop loop(opt.seconds);
    uint64_t executed = 0;
    while (loop.next()) {
        const bool traced = opt.trace && loop.rounds % 2 == 0;
        gTracer.enable(traced);
        Scoped round(gTracer, "bench.round");
        for (size_t i = 0; i < lines.size(); ++i) {
            Line& ln = lines[i];
            bests.add(i, serve(sessions[ln.session], ln, loop.rounds == 1, r),
                      traced);
            ++executed;
        }
        bests.endRound("query", loop.rounds, traced);
    }
    gTracer.enable(opt.trace);
    const std::map<std::string, uint64_t> after = cacheTotals();

    // Metrics over the per-line bests.
    const std::vector<double>& b = bests.best;
    std::map<std::string, std::vector<double>> byVerb;
    for (size_t i = 0; i < lines.size(); ++i)
        byVerb[lines[i].verb].push_back(b[i]);
    r.metric("work_per_s", static_cast<double>(lines.size()) / sum(b), "1/s");
    r.metric("op_ms", 1e3 * geomean(b), "ms");
    double bytes = static_cast<double>(segmentBytes);
    for (const Program& p : progs)
        bytes += static_cast<double>(p.image.size());
    r.metric("artifact_bytes", bytes, "bytes");
    r.layer["serve.queries_per_s"] = static_cast<double>(lines.size()) / sum(b);
    r.layer["serve.cf_us"] = 1e6 * median(byVerb["cf"]);
    r.layer["serve.values_us"] = 1e6 * median(byVerb["values"]);
    r.layer["serve.addr_us"] = 1e6 * median(byVerb["addr"]);
    r.layer["serve.races_ms"] = 1e3 * median(byVerb["races"]);
    r.layer["serve.query_p99_us"] =
        lines.size() >= 1000 ? 1e6 * percentile(b, 99) : 0.0;
    r.layer["trace.overhead_pct"] = bests.overheadPct();
    for (const auto& [verb, v] : byVerb)
        std::printf("detail query %-6s lines=%zu median_us=%.2f "
                    "p90_us=%.2f max_us=%.2f\n",
                    verb.c_str(), v.size(), 1e6 * median(v),
                    1e6 * percentile(v, 90), 1e6 * percentile(v, 100));
    std::printf("detail query lines=%zu rounds=%zu p50_us=%.2f p99_us=%.2f\n",
                lines.size(), loop.rounds, 1e6 * median(b),
                1e6 * percentile(b, 99));

    auto perLine = [&](const char* k) {
        auto get = [&](const std::map<std::string, uint64_t>& m) {
            auto it = m.find(k);
            return it == m.end() ? 0.0 : static_cast<double>(it->second);
        };
        return (get(after) - get(before)) / static_cast<double>(executed);
    };
    r.layer["core.cache.hits"] = perLine("cache.hits");
    r.layer["core.cache.misses"] = perLine("cache.misses");
    r.layer["core.cache.evictions"] = perLine("cache.evictions");
    r.layer["core.cache.rescans"] = perLine("cache.rescans");
    r.layer["core.extract.restarts"] = perLine("extract.restarts");
    finishBuildLayers(r);

    if (opt.trace) {
        // Values decoded per line, from a cold unbounded session per
        // line so that every reader the line drove is still live.
        std::map<std::string, std::pair<double, double>> decoded;
        for (const Line& ln : lines) {
            if (ln.verb == "races" || decoded[ln.verb].second >= 60)
                continue;
            Served& sv = sessions[ln.session];
            core::QuerySession cold(sv.shared, core::SessionOptions{});
            serve::serveLine(cold, sv.shared->name(), ln.text, 1);
            decoded[ln.verb].first += static_cast<double>(decodeSteps(cold.cache()));
            decoded[ln.verb].second += 1;
        }
        for (const char* v : {"cf", "values", "addr"})
            r.layer[std::string("codec.decoded.") + v] =
                decoded[v].second > 0 ? decoded[v].first / decoded[v].second
                                      : 0.0;
        // Race detection called directly, best of three per program.
        for (size_t i = qp.single.size(); i < progs.size(); ++i) {
            double best = 1e30;
            uint64_t values = 0;
            for (int rep = 0; rep < 3; ++rep) {
                Scoped s(gTracer, "analysis.races");
                core::StreamCache cache;
                analysis::CursorSyncAccess sa(*progs[i].loaded.compressed,
                                              &cache);
                Stopwatch sw;
                analysis::detectRaces(sa);
                best = std::min(best, sw.seconds());
                values = sa.stats().valuesDecoded;
            }
            r.layer["analysis.races_s"] += best;
            r.layer["analysis.races_sync_values"] += static_cast<double>(values);
        }
        // Line parsing, timed as batches of every line of the mix.
        double best = 1e30;
        size_t misparsed = 0;
        for (int rep = 0; rep < 5; ++rep) {
            Scoped s(gTracer, "serve.parse");
            Stopwatch sw;
            for (const Line& ln : lines)
                misparsed +=
                    serve::parseQueryLine(serve::tokenize(ln.text)).verb != ln.verb;
            best = std::min(best, sw.seconds());
        }
        r.check(misparsed == 0, "a parsed line names another verb");
        r.layer["serve.parse_us"] = 1e6 * best / static_cast<double>(lines.size());
    }

    // Untimed: reference recordings and every answer checked.
    for (Program& p : progs) {
        recordReference(p);
        checkArtifact(p, r);
    }
    for (const Line& ln : lines) {
        const Program& p = progs[ln.program];
        bool ok = true;
        if (ln.twinOf != SIZE_MAX) {
            ok = ln.firstOut == lines[ln.twinOf].firstOut;
            r.check(ok, "segmented '" + ln.text +
                            "' differs from the single-file answer");
        }
        if (ln.verb == "cf")
            ok = checkCf(ln, p, ln.k, qp.cfCount, r) && ok;
        else if (ln.verb == "values")
            ok = checkTrace(ln, p, ln.k, false, r) && ok;
        else if (ln.verb == "addr")
            ok = checkTrace(ln, p, ln.k, true, r) && ok;
        else
            ok = checkRaces(ln, p, r) && ok;
        countFailures(ln, ok, r);
    }
}

// ------------------------------------------------------------------ //
// Workload: slice

struct SliceParams
{
    std::vector<std::pair<const char*, uint64_t>> programs = {
        {"164.gzip", 1}, {"181.mcf", 1}, {"256.bzip2", 1},
        {"099.go", 40},  {"197.parser", 50},
    };
    /** Seeds: instance k < maxK of an executed def-port statement
     *  whose whole backward slice has [minItems, maxItems] instances. */
    uint64_t maxK = 8;
    uint64_t minItems = 20;
    uint64_t maxItems = 1000;
    /** 8 lines per program make a round of about 0.6 s, so that a
     *  30-s run holds about 50 rounds. With 12 lines (0.9-s rounds)
     *  op_ms spread by 8.8 % over ten runs, against 3.6 % with 8 in
     *  the same interleaved runs; 20 lines took 1.4 s a round. */
    size_t linesPerProgram = 8;
};

void
runSlice(const Options& opt, Result& r)
{
    const SliceParams sp;
    support::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 3);
    std::vector<Program> progs;
    for (const auto& [name, scale] : sp.programs)
        progs.push_back(makeProgram(name, scale, r));
    setupBuilds(progs, opt, r);

    Stopwatch warm;
    std::vector<Served> sessions;
    for (size_t i = 0; i < progs.size(); ++i) {
        Scoped s(gTracer, "core.session");
        Served sv;
        sv.shared = shareSingle(progs[i]);
        sv.session = std::make_unique<core::QuerySession>(sv.shared);
        sv.program = i;
        sessions.push_back(std::move(sv));
    }
    // Warm-up: the lazily built analyses every slice line needs.
    for (Served& sv : sessions) {
        sv.session->moduleAnalysis();
        sv.session->depGraph();
    }
    r.layer["core.session_warmup_s"] += warm.seconds();
    r.metric("setup_s", secondsSince(kProcessStartNs), "s");
    printSetup(r);

    // Untimed seed selection by the size of the whole slice, taken
    // from the tier-1 slicer: candidates sorted by size are cut into
    // equal strata and the middle one of each is sliced. Drawing a
    // random line per stratum moved op_ms by 30 % between seeds, so
    // every seed slices the same lines and decides only their order.
    std::vector<Line> lines;
    std::vector<std::unique_ptr<core::WetAccess>> tier1;
    for (size_t i = 0; i < progs.size(); ++i) {
        const Program& p = progs[i];
        tier1.push_back(std::make_unique<core::WetAccess>(*p.graph, *p.mod));
        core::WetSlicer slicer(*tier1.back());
        struct Cand
        {
            size_t items;
            ir::StmtId stmt;
            uint64_t k;
        };
        std::vector<Cand> cands;
        for (ir::StmtId st : executedStmts(*p.graph, *p.mod, [](const ir::Instr& in) {
                 return ir::hasDef(in.op) && in.op != ir::Opcode::Const;
             }))
            for (uint64_t k = 0; k < sp.maxK; ++k) {
                core::SliceItem seed = slicer.locate(st, k);
                if (!seed.valid())
                    break;
                core::SliceResult res = slicer.backward(seed, sp.maxItems + 1);
                if (!res.truncated && res.items.size() >= sp.minItems)
                    cands.push_back(Cand{res.items.size(), st, k});
            }
        std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
            return std::tie(a.items, a.stmt, a.k) < std::tie(b.items, b.stmt, b.k);
        });
        const size_t n = cands.size();
        for (size_t j = 0; j < sp.linesPerProgram && n >= sp.linesPerProgram; ++j) {
            size_t lo = j * n / sp.linesPerProgram;
            size_t hi = (j + 1) * n / sp.linesPerProgram;
            const Cand& c = cands[(lo + hi) / 2];
            Line ln;
            ln.session = i;
            ln.program = i;
            ln.verb = "slice";
            ln.stmt = c.stmt;
            ln.k = c.k;
            ln.text = "slice " + localStmt(*p.mod, c.stmt) + ":" + std::to_string(c.k);
            lines.push_back(ln);
        }
        r.check(n >= sp.linesPerProgram, p.name() + ": too few slice seeds");
    }
    shuffle(lines, rng);

    Bests bests(lines.size());
    std::vector<double> tier1Best(lines.size(), 1e30);
    std::vector<double> staticBest(lines.size(), 1e30);
    core::SliceIoStats io;
    uint64_t executed = 0;
    uint64_t itemsExecuted = 0;
    RoundLoop loop(opt.seconds);
    while (loop.next()) {
        const bool traced = opt.trace && loop.rounds % 2 == 0;
        gTracer.enable(traced);
        Scoped round(gTracer, "bench.round");
        for (size_t i = 0; i < lines.size(); ++i) {
            Line& ln = lines[i];
            Served& sv = sessions[ln.session];
            core::SliceIoStats st0;
            if (opt.trace)
                st0 = sv.session->cursorSlice().stats();
            bests.add(i, serve(sv, ln, loop.rounds == 1, r), traced);
            ++executed;
            itemsExecuted += static_cast<uint64_t>(std::max<int64_t>(0, sliceItems(ln.firstOut)));
            if (!opt.trace)
                continue;
            core::SliceIoStats st1 = sv.session->cursorSlice().stats();
            io.valuesDecoded += st1.valuesDecoded - st0.valuesDecoded;
            io.cursorRestarts += st1.cursorRestarts - st0.cursorRestarts;
            io.streamsOpened += st1.streamsOpened - st0.streamsOpened;
            io.bytesTouched += st1.bytesTouched - st0.bytesTouched;
            {
                Scoped s(gTracer, "core.slice_tier1");
                Stopwatch sw;
                core::WetSlicer slicer(*tier1[ln.program]);
                slicer.backward(slicer.locate(static_cast<ir::StmtId>(ln.stmt), ln.k));
                tier1Best[i] = std::min(tier1Best[i], sw.seconds());
            }
            {
                Scoped s(gTracer, "analysis.static_slice");
                Stopwatch sw;
                sv.shared->depGraph().backwardSlice(static_cast<ir::StmtId>(ln.stmt));
                staticBest[i] = std::min(staticBest[i], sw.seconds());
            }
        }
        bests.endRound("slice", loop.rounds, traced);
    }
    gTracer.enable(opt.trace);

    // work_per_s is the geometric mean over lines of each line's
    // instances per second of its best time. A sum over lines would be
    // ruled by the few slowest 164.gzip slices, which get the fewest
    // rounds.
    const std::vector<double>& b = bests.best;
    double items = 0;
    std::vector<double> rate(lines.size());
    std::map<std::string, std::vector<double>> byProgram;
    for (size_t i = 0; i < lines.size(); ++i) {
        const double n = static_cast<double>(std::max<int64_t>(0, sliceItems(lines[i].firstOut)));
        items += n;
        rate[i] = n / b[i];
        byProgram[progs[lines[i].program].name()].push_back(b[i]);
    }
    r.metric("work_per_s", geomean(rate), "1/s");
    r.metric("op_ms", 1e3 * geomean(b), "ms");
    double bytes = 0;
    for (const Program& p : progs)
        bytes += static_cast<double>(p.image.size());
    r.metric("artifact_bytes", bytes, "bytes");
    for (const auto& [name, v] : byProgram)
        std::printf("detail slice %-10s lines=%zu median_ms=%.3f "
                    "max_ms=%.3f\n",
                    name.c_str(), v.size(), 1e3 * median(v),
                    1e3 * percentile(v, 100));
    std::printf("detail slice lines=%zu rounds=%zu items=%.0f\n",
                lines.size(), loop.rounds, items);
    r.layer["serve.slice_ms"] = 1e3 * geomean(b);
    r.layer["serve.slice_items_per_s"] = geomean(rate);
    r.layer["trace.overhead_pct"] = bests.overheadPct();
    if (opt.trace && executed > 0) {
        const double n = static_cast<double>(executed);
        r.layer["core.slice.values_decoded"] = static_cast<double>(io.valuesDecoded) / n;
        r.layer["core.slice.values_per_item"] =
            static_cast<double>(io.valuesDecoded) / static_cast<double>(itemsExecuted);
        r.layer["core.slice.cursor_restarts"] = static_cast<double>(io.cursorRestarts) / n;
        r.layer["core.slice.streams_opened"] = static_cast<double>(io.streamsOpened) / n;
        r.layer["core.slice.bytes_touched"] = static_cast<double>(io.bytesTouched) / n;
        r.layer["core.slice.tier1_ms"] = 1e3 * median(tier1Best);
        r.layer["core.slice.tier2_over_tier1"] = sum(b) / sum(tier1Best);
        r.layer["analysis.static_slice_us"] = 1e6 * median(staticBest);
    }
    finishBuildLayers(r);

    for (Program& p : progs) {
        recordReference(p);
        checkArtifact(p, r);
    }
    for (const Line& ln : lines)
        countFailures(ln, checkSlice(ln, progs[ln.program], r), r);
}

// ------------------------------------------------------------------ //

void
usage()
{
    std::fprintf(stderr,
                 "usage: wetperf --workload build|query|slice --seed N "
                 "--seconds S --trace 0|1 [--work DIR]\n");
}

void
printResult(const Result& r, bool trace)
{
    std::string m;
    auto add = [&](const std::string& name, double v, const std::string& unit) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      m.empty() ? "" : ", ", name.c_str(), v, unit.c_str());
        m += buf;
    };
    if (trace) {
        for (const auto& [name, unit] : layerMetrics()) {
            auto it = r.layer.find(name);
            add(name, it == r.layer.end() ? 0.0 : it->second, unit);
        }
    } else {
        for (const auto& [name, vu] : r.metrics)
            add(name, vu.first, vu.second);
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {%s}}\n",
                r.correct ? "true" : "false", r.attempted, r.failed, m.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        std::string v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            opt.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            opt.trace = v == "1";
        else if (k == "--work")
            opt.work = v;
        else {
            usage();
            return 2;
        }
    }
    if (argc % 2 != 1 || opt.seconds <= 0 ||
        (opt.workload != "build" && opt.workload != "query" &&
         opt.workload != "slice")) {
        usage();
        return 2;
    }
    gTracer.enable(opt.trace);
    Result r;
    try {
        std::filesystem::create_directories(opt.work);
        Scoped top(gTracer, "bench.run");
        if (opt.workload == "build")
            runBuild(opt, r);
        else if (opt.workload == "query")
            runQuery(opt, r);
        else
            runSlice(opt, r);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "wetperf: %s\n", e.what());
        return 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(opt.work, ec);
    if (opt.trace) {
        for (const auto& [mod, secs] : gTracer.selfSeconds())
            r.layer["self." + mod + "_s"] = secs;
        std::filesystem::create_directories(".bench_trace", ec);
        const std::string path = ".bench_trace/spans-" + opt.workload + "-" +
                                 std::to_string(opt.seed) + ".jsonl";
        if (!gTracer.write(path))
            std::fprintf(stderr, "wetperf: cannot write %s\n", path.c_str());
        for (const auto& [mod, secs] : gTracer.selfSeconds())
            std::printf("detail self %-8s %.6f s\n", mod.c_str(), secs);
        std::printf("detail spans %zu written to %s\n", gTracer.spans().size(),
                    path.c_str());
    }
    printResult(r, opt.trace);
    return 0;
}
