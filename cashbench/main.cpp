/**
 * @file
 * cashbench: the end-to-end and per-layer benchmark of CASH.
 *
 *   cashbench --workload suite|wide|service --seed N --seconds S
 *             --trace 0|1
 *
 * With --trace 0 it measures whole passes over the workload for S
 * seconds with tracing off, timing a fresh set-up before each pass,
 * and prints the end-to-end metrics.  With --trace 1 it makes one pass
 * with the program's TraceRecorder on and the benchmark's timers around
 * each layer's public call, prints the per-layer metrics and writes a
 * Chrome trace to .bench_build/trace-<workload>.json.  Either way the
 * last line of standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Human-readable detail (failures, engine mismatches) goes to stderr.
 * See README.md for the workloads and the metric definitions.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "units.h"

using namespace cashbench;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kWideUnits = 3;
constexpr int kWideFunctions = 48;
constexpr int kMultiUnits = 4;
constexpr int kMultiFunctions = 12;
constexpr int kSvcClients = 2;
constexpr int kSvcWorkers = 2;
constexpr int64_t kSvcMinRequests = 1000;
constexpr size_t kSvcStreamLength = 20000;
constexpr size_t kSvcTracedRequests = 150; ///< per client, traced run
/** Request mix: repeats (cache hits), multi-function units, and the
 *  rest unique comment-only variants of kernels (cache misses).  The
 *  shares are assumptions, not taken from recorded cashd traffic.
 *  They are chosen for what they let the run measure: hits stay below
 *  one half, so the median round trip lies inside the misses; multi-
 *  function units are more than 1%, so the 99th percentile lies inside
 *  them and not on the edge between them and the misses. */
constexpr uint32_t kSvcRepeatPct = 35;
constexpr uint32_t kSvcMultiPct = 3;
/** In-process passes over the service's programs (compile metrics). */
constexpr int kSvcInProcessPasses = 4;
/** Set-ups timed back to back at each point where set-up is sampled. */
constexpr int kSetUpRepeats = 3;
const char* const kBuildDir = ".bench_build";

/** The 13 distinct passes of the Full (-O3) pipeline; BENCHMARK.json
 *  lists one per-layer time for each. */
const std::vector<std::string>&
fullPasses()
{
    static const std::vector<std::string> names = {
        "scalar_opts",       "dead_code",
        "immutable_loads",   "token_removal",
        "transitive_reduction", "monotone_pipelining",
        "interproc_token_pruning", "memory_merge",
        "store_forwarding",  "dead_store",
        "loop_invariant",    "readonly_split",
        "loop_decoupling"};
    return names;
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** One (unit, target) compile-and-run operation. */
struct Op
{
    size_t unit = 0;
    size_t target = 0;
};

struct Workload
{
    std::vector<Unit> units;
    std::vector<Op> ops;                           ///< suite, wide
    std::vector<std::vector<SvcRequest>> streams;  ///< service
    double interpMs = 0;
};

Workload
setUp(const std::string& name, uint64_t seed)
{
    const std::vector<Target>& targets = suiteTargets();
    Workload w;
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
    if (name == "suite") {
        w.units = suiteUnits();
        for (size_t u = 0; u < w.units.size(); u++)
            for (size_t t = 0; t < targets.size(); t++)
                w.ops.push_back({u, t});
        // The seed fixes the order of operations within a pass.
        for (size_t i = w.ops.size(); i > 1; i--)
            std::swap(w.ops[i - 1],
                      w.ops[rng.below(static_cast<uint32_t>(i))]);
    } else if (name == "wide") {
        for (int i = 0; i < kWideUnits; i++) {
            w.units.push_back(wideUnit(rng.next(), kWideFunctions,
                                       "wide" + std::to_string(i)));
            w.ops.push_back({static_cast<size_t>(i),
                             static_cast<size_t>(i) % targets.size()});
        }
    } else if (name == "service") {
        w.units = suiteUnits();
        const size_t kernels = w.units.size();
        for (int i = 0; i < kMultiUnits; i++)
            w.units.push_back(wideUnit(rng.next(), kMultiFunctions,
                                       "multi" + std::to_string(i)));
        // In-process reference pass: every distinct program once, on
        // the default target.
        for (size_t u = 0; u < w.units.size(); u++)
            w.ops.push_back({u, 1});
        // Every block of 100 requests holds exactly kSvcRepeatPct
        // repeats, kSvcMultiPct multi-function units and kernel misses
        // for the rest, in a seeded order.  Misses walk a seeded
        // permutation of every (program, target) pair, so every run
        // sends nearly the same mix and the seed decides the order.
        auto pairs = [&](size_t first, size_t count, Rng& r) {
            std::vector<Op> v;
            for (size_t u = first; u < first + count; u++)
                for (size_t t = 0; t < targets.size(); t++)
                    v.push_back({u, t});
            for (size_t i = v.size(); i > 1; i--)
                std::swap(v[i - 1], v[r.below(static_cast<uint32_t>(i))]);
            return v;
        };
        w.streams.resize(kSvcClients);
        for (int c = 0; c < kSvcClients; c++) {
            Rng cr(rng.next());
            const std::vector<Op> kernelPairs = pairs(0, kernels, cr);
            const std::vector<Op> multiPairs = pairs(kernels, kMultiUnits, cr);
            size_t nextKernel = 0, nextMulti = 0;
            std::vector<SvcRequest>& s = w.streams[c];
            std::vector<int64_t> fresh; // requests that filled the cache
            std::vector<uint32_t> block;
            s.reserve(kSvcStreamLength);
            for (size_t r = 0; r < kSvcStreamLength; r++) {
                if (r % 100 == 0) {
                    block.assign(100, 0);
                    for (uint32_t i = 0; i < 100; i++)
                        block[i] = i < kSvcRepeatPct ? 0
                                   : i < kSvcRepeatPct + kSvcMultiPct ? 1
                                                                      : 2;
                    for (size_t i = block.size(); i > 1; i--)
                        std::swap(block[i - 1],
                                  block[cr.below(static_cast<uint32_t>(i))]);
                    // A stream cannot open with a repeat.
                    if (r == 0)
                        std::swap(block[0],
                                  *std::find(block.begin(), block.end(), 2));
                }
                SvcRequest q;
                if (block[r % 100] == 0) {
                    int64_t of = fresh[cr.below(
                        static_cast<uint32_t>(fresh.size()))];
                    q = s[static_cast<size_t>(of)];
                    q.repeatOf = of;
                } else {
                    const Op& p =
                        block[r % 100] == 1
                            ? multiPairs[nextMulti++ % multiPairs.size()]
                            : kernelPairs[nextKernel++ % kernelPairs.size()];
                    q.unit = &w.units[p.unit];
                    q.target = &targets[p.target];
                    q.tag = "client " + std::to_string(c) + " request " +
                            std::to_string(r);
                    fresh.push_back(static_cast<int64_t>(r));
                }
                s.push_back(q);
            }
        }
    } else {
        throw cash::FatalError("unknown workload '" + name + "'");
    }
    for (Unit& u : w.units)
        w.interpMs += computeReference(u);
    return w;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = p * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Metrics in print order: name -> (value, unit). */
struct Metrics
{
    std::vector<std::string> order;
    std::map<std::string, std::pair<double, std::string>> values;

    void
    set(const std::string& name, double v, const std::string& unit)
    {
        if (!values.count(name))
            order.push_back(name);
        values[name] = {v, unit};
    }
};

/** Counters of one run: operations, failures and their kinds. */
struct Tally
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Failures of outputs or checks (anything but engine agreement). */
    int64_t wrong = 0;
    std::set<std::string> logged;

    void
    fail(const std::string& what, bool outputWrong)
    {
        failed++;
        if (outputWrong)
            wrong++;
        if (logged.insert(what).second)
            std::fprintf(stderr, "cashbench: FAILED %s\n", what.c_str());
    }
};

/** What the compile-and-run path measured over a run. */
struct RunStats
{
    std::vector<double> runMs, compileMs;
    double compileS = 0, functions = 0, simS = 0, eqEvents = 0;
    /** First-pass shape of each op: nodes, mem ops, cycles. */
    std::map<size_t, std::vector<int64_t>> firstShape;

    void
    add(const RunSample& s)
    {
        runMs.push_back(s.runMs);
        compileMs.push_back(s.compileMs);
        compileS += s.compileMs / 1000.0;
        functions += static_cast<double>(s.functions);
        simS += s.simMs / 1000.0;
        eqEvents += static_cast<double>(
            s.simStats.get("sim.events.equivalent"));
    }
};

std::string
opName(const Workload& w, const Op& op)
{
    return w.units[op.unit].name + "@" + suiteTargets()[op.target].name;
}

/**
 * One compile-and-run of operation @p index with its checks: the
 * reference comparison, the pass-to-pass identity of nodes, memory
 * operations and cycles, and (when @p engines) macro-versus-event
 * cycles.  Timings go into @p rs only when @p record.
 */
RunSample
runOp(const Workload& w, size_t index, bool engines, bool record,
      RunStats& rs, Tally& tally)
{
    const Op& op = w.ops[index];
    RunSample s = runUnit(w.units[op.unit], suiteTargets()[op.target],
                          engines);
    tally.attempted++;
    if (!s.error.empty()) {
        tally.fail(opName(w, op) + ": " + s.error, true);
    } else {
        std::vector<int64_t> shape = {s.irNodes, s.memOps,
                                      static_cast<int64_t>(s.cycles)};
        if (rs.firstShape.emplace(index, shape).first->second != shape)
            tally.fail(opName(w, op) +
                           ": nodes, memory operations or cycles "
                           "differ from the first pass",
                       true);
        else if (record)
            rs.add(s);
    }
    if (engines) {
        tally.attempted++;
        if (s.eventCycles != s.cycles)
            tally.fail(opName(w, op) + ": macro engine " +
                           std::to_string(s.cycles) +
                           " cycles, event engine " +
                           std::to_string(s.eventCycles),
                       false);
    }
    return s;
}

/** Compile metrics shared by every workload. */
void
compileMetrics(const Workload& w, const RunStats& rs, Metrics& m)
{
    double logSum = 0, nodes = 0, memOps = 0;
    std::set<size_t> seenUnits;
    for (const auto& [index, shape] : rs.firstShape) {
        logSum += std::log(static_cast<double>(std::max<int64_t>(1, shape[2])));
        if (seenUnits.insert(w.ops[index].unit).second) {
            nodes += static_cast<double>(shape[0]);
            memOps += static_cast<double>(shape[1]);
        }
    }
    double n = static_cast<double>(std::max<size_t>(1, rs.firstShape.size()));
    m.set("compile_ms_p50", percentile(rs.compileMs, 0.5), "ms");
    m.set("compile_funcs_per_s",
          rs.compileS > 0 ? rs.functions / rs.compileS : 0, "functions/s");
    m.set("sim_meps", rs.simS > 0 ? rs.eqEvents / rs.simS / 1e6 : 0,
          "Mevents/s");
    m.set("sim_cycles_geomean", std::exp(logSum / n), "cycles");
    m.set("ir_nodes", nodes, "count");
    m.set("static_mem_ops", memOps, "count");
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
socketPath(const std::string& tag)
{
    std::filesystem::create_directories(kBuildDir);
    return std::string(kBuildDir) + "/svc-" + std::to_string(::getpid()) +
           "-" + tag + ".sock";
}

// ---------------------------------------------------------------------
// End-to-end run (--trace 0)
// ---------------------------------------------------------------------

void
endToEnd(const Options& o, Metrics& m, Tally& tally)
{
    // Set-up is timed kSetUpRepeats times back to back before the run
    // and before every measured pass, so its median samples the whole
    // run rather than one moment of it.
    std::vector<double> setupS;
    auto timedSetUp = [&] {
        Workload fresh;
        for (int i = 0; i < kSetUpRepeats; i++) {
            Clock::time_point t0 = Clock::now();
            fresh = setUp(o.workload, o.seed);
            setupS.push_back(msSince(t0) / 1000.0);
        }
        return fresh;
    };
    Workload w = timedSetUp();
    RunStats rs;
    auto pass = [&](bool engines, bool record) {
        if (record)
            timedSetUp();
        for (size_t i = 0; i < w.ops.size(); i++)
            runOp(w, i, engines, record, rs, tally);
    };

    if (o.workload == "service") {
        // The in-process passes (compile metrics) sit half before and
        // half after the request window.
        for (int p = 0; p < kSvcInProcessPasses / 2; p++)
            pass(false, true);
        SvcResult sr = serveStreams(w.streams, kSvcWorkers, o.seconds,
                                    kSvcMinRequests, socketPath("e2e"),
                                    nullptr);
        tally.attempted += sr.attempted;
        for (const std::string& e : sr.errors)
            tally.fail(e, true);
        for (int p = kSvcInProcessPasses / 2; p < kSvcInProcessPasses; p++)
            pass(false, true);
        m.set("run_ms_p50", percentile(sr.roundTripMs, 0.5), "ms");
        m.set("run_ms_p99", percentile(sr.roundTripMs, 0.99), "ms");
        m.set("runs_per_s",
              static_cast<double>(sr.roundTripMs.size()) / sr.windowS,
              "1/s");
        std::fprintf(stderr,
                     "cashbench: service %zu replies in %.2f s; "
                     "server metrics: %s\n",
                     sr.roundTripMs.size(), sr.windowS,
                     sr.metrics.str().c_str());
    } else {
        const bool engines = o.workload == "suite";
        // One warm-up pass fills caches and finishes lazy set-up; its
        // outputs are checked but its times are not kept.
        pass(engines, false);
        Clock::time_point t0 = Clock::now();
        int passes = 0;
        do {
            pass(engines, true);
            passes++;
        } while (msSince(t0) / 1000.0 < o.seconds);
        double runS = 0;
        for (double ms : rs.runMs)
            runS += ms / 1000.0;
        m.set("run_ms_p50", percentile(rs.runMs, 0.5), "ms");
        m.set("run_ms_p99", percentile(rs.runMs, 0.99), "ms");
        m.set("runs_per_s",
              runS > 0 ? static_cast<double>(rs.runMs.size()) / runS : 0,
              "1/s");
        std::fprintf(stderr, "cashbench: %s %d passes of %zu operations\n",
                     o.workload.c_str(), passes, w.ops.size());
    }
    compileMetrics(w, rs, m);
    m.set("setup_s", percentile(setupS, 0.5), "s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
}

// ---------------------------------------------------------------------
// Traced run (--trace 1)
// ---------------------------------------------------------------------

void
traced(const Options& o, Metrics& m, Tally& tally)
{
    cash::TraceRecorder rec;
    rec.enable();
    Workload w = setUp(o.workload, o.seed);
    const std::vector<Target>& targets = suiteTargets();

    std::map<std::string, double> ms;
    std::map<std::string, double> n;
    double untracedMs = 0, tracedMs = 0, compileWallMs = 0;
    double eventEvents = 0, eventMs = 0;
    RunStats rs;
    for (size_t i = 0; i < w.ops.size(); i++) {
        const Op& op = w.ops[i];
        const Unit& u = w.units[op.unit];
        const Target& t = targets[op.target];
        RunSample a = runOp(w, i, true, true, rs, tally);
        untracedMs += a.runMs;
        compileWallMs += a.compileMs;
        eventEvents += static_cast<double>(a.eventEvents);
        eventMs += a.eventSimMs;
        if (a.eventCycles != a.cycles)
            n["sim.engine_cycle_mismatches"] += 1;
        ms["sim.index"] += a.indexMs;
        ms["sim.run"] += a.simMs;
        ms["fabric.place"] += a.placeMs;
        for (const auto& [key, stat] :
             std::vector<std::pair<std::string, std::string>>{
                 {"sim.events", "sim.events"},
                 {"sim.events_equivalent", "sim.events.equivalent"},
                 {"sim.region_ops_inlined", "sim.region.ops_inlined"},
                 {"sim.queue_heap_ops", "sim.queue.heap_ops"},
                 {"sim.queue_bucket_ops", "sim.queue.bucket_ops"},
                 {"sim.mem.lsq_full_stalls", "sim.mem.lsq.fullStalls"},
                 {"sim.mem.port_stalls", "sim.mem.lsq.portStalls"},
                 {"sim.mem.l1_misses", "sim.mem.l1.misses"},
                 {"sim.mem.dram_accesses", "sim.mem.dram.accesses"},
                 {"fabric.cross_deliveries", "fabric.cross_deliveries"},
                 {"fabric.hop_cycles", "fabric.hop_cycles"}})
            n[key] += static_cast<double>(a.simStats.get(stat));

        RunSample b = runUnit(u, t, false, &rec);
        tracedMs += b.runMs;

        LayerSample l = layerCompile(u, t, &rec);
        tally.attempted++;
        if (l.irNodes != a.irNodes || l.memOps != a.memOps)
            tally.fail(opName(w, op) +
                           ": the per-layer compile and compileSource "
                           "built different graphs",
                       true);
        for (const auto& [k, v] : l.ms)
            ms[k] += v;
        for (const auto& [k, v] : l.counts)
            n[k] += static_cast<double>(v);
        n["graphs"] += static_cast<double>(l.graphs);
        ms["pegasus.verify_us"] += l.verifyUs;
        ms["pegasus.clone_us"] += l.cloneUs;
    }

    // Service layer: the workload's own stream for `service`; for the
    // others every operation once, as a request.
    std::vector<std::vector<SvcRequest>> streams;
    if (o.workload == "service") {
        for (const auto& s : w.streams)
            streams.emplace_back(s.begin(), s.begin() + kSvcTracedRequests);
    } else {
        streams.resize(kSvcClients);
        for (size_t i = 0; i < w.ops.size(); i++) {
            SvcRequest q;
            q.unit = &w.units[w.ops[i].unit];
            q.target = &targets[w.ops[i].target];
            q.tag = "traced " + std::to_string(i);
            streams[i % kSvcClients].push_back(q);
        }
    }
    cash::TraceRecorder svcRec;
    svcRec.syncClockTo(rec);
    svcRec.enable();
    SvcResult sr = serveStreams(streams, kSvcWorkers, 0, 0,
                                socketPath("traced"), &svcRec);
    rec.append(svcRec);
    tally.attempted += sr.attempted;
    for (const std::string& e : sr.errors)
        tally.fail(e, true);
    // The driver's share of a request: runDriverRequest in-process on
    // every request the server had to compile (a hit runs no driver).
    std::vector<double> driverMs;
    for (const auto& s : streams)
        for (const SvcRequest& q : s) {
            if (q.repeatOf >= 0)
                continue;
            std::string err;
            driverMs.push_back(driverRequestMs(q, &err));
            tally.attempted++;
            if (!err.empty())
                tally.fail(err, true);
        }

    // --- per-layer metrics --------------------------------------------
    m.set("frontend.parse_sema_ms", ms["frontend.parse_sema"], "ms");
    m.set("frontend.layout_ms", ms["frontend.layout"], "ms");
    m.set("cfg.lower_ms", ms["cfg.lower"], "ms");
    m.set("analysis.points_to_ms", ms["analysis.points_to"], "ms");
    m.set("analysis.modref_ms", ms["analysis.modref"], "ms");
    m.set("analysis.check_ms", ms["analysis.check"], "ms");
    m.set("analysis.error_findings", n["analysis.error_findings"], "count");
    m.set("pegasus.build_ms", ms["pegasus.build"], "ms");
    double graphs = std::max(1.0, n["graphs"]);
    m.set("pegasus.verify_us_per_graph", ms["pegasus.verify_us"] / graphs,
          "us");
    m.set("pegasus.clone_us_per_graph", ms["pegasus.clone_us"] / graphs,
          "us");
    m.set("opt.optimize_ms", ms["opt.optimize"], "ms");
    m.set("opt.pass_ms", ms["opt.pass"], "ms");
    m.set("opt.overhead_ms", ms["opt.optimize"] - ms["opt.pass"],
          "ms");
    for (const std::string& p : fullPasses())
        m.set("opt.pass." + p + "_ms", ms["opt.pass." + p], "ms");
    for (const char* k : {"opt.functions", "opt.pass_runs", "opt.rounds",
                          "opt.funcs_at_round_cap",
                          "opt.funcs_unconverged_at_cap",
                          "opt.interproc_pruned_edges"})
        m.set(k, n[k], "count");
    m.set("sim.index_ms", ms["sim.index"], "ms");
    m.set("sim.run_ms", ms["sim.run"], "ms");
    for (const char* k :
         {"sim.events", "sim.events_equivalent", "sim.region_ops_inlined",
          "sim.queue_heap_ops", "sim.queue_bucket_ops",
          "sim.mem.lsq_full_stalls", "sim.mem.port_stalls",
          "sim.mem.l1_misses", "sim.mem.dram_accesses"})
        m.set(k, n[k], "count");
    m.set("sim.event_engine_meps",
          eventMs > 0 ? eventEvents / eventMs / 1000.0 : 0, "Mevents/s");
    m.set("sim.engine_cycle_mismatches", n["sim.engine_cycle_mismatches"],
          "count");
    m.set("fabric.place_ms", ms["fabric.place"], "ms");
    m.set("fabric.cross_deliveries", n["fabric.cross_deliveries"], "count");
    m.set("fabric.hop_cycles", n["fabric.hop_cycles"], "count");

    // metrics() keeps the p50 over every request, hits included; the
    // wait is taken over misses, from the server's own spans.
    std::vector<double> serverMissMs;
    for (const cash::TraceEvent* e : svcRec.byCategory("svc"))
        for (const cash::TraceArg& a : e->args)
            if (a.key == "cached" && a.i == 0)
                serverMissMs.push_back(static_cast<double>(e->dur) / 1000.0);
    double serverP50 =
        static_cast<double>(sr.metrics.get("svc.latency.p50_us")) / 1000.0;
    double serverMissP50 = percentile(serverMissMs, 0.5);
    double driverP50 = percentile(driverMs, 0.5);
    double hits = static_cast<double>(sr.metrics.get("svc.cache.hits"));
    double misses = static_cast<double>(sr.metrics.get("svc.cache.misses"));
    m.set("svc.server_ms_p50", serverP50, "ms");
    m.set("svc.server_miss_ms_p50", serverMissP50, "ms");
    m.set("svc.driver_ms_p50", driverP50, "ms");
    m.set("svc.wait_ms_p50", serverMissP50 - driverP50, "ms");
    m.set("svc.cache_hits", hits, "count");
    m.set("svc.cache_misses", misses, "count");
    m.set("svc.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
          "ratio");
    m.set("svc.batches", static_cast<double>(sr.metrics.get("svc.batches")),
          "count");
    m.set("svc.batch_max",
          static_cast<double>(sr.metrics.get("svc.batch.max")), "count");
    m.set("baseline.interp_ms", w.interpMs, "ms");

    // --- tracing overhead and reconciliation --------------------------
    double layersMs = 0;
    for (const char* k : {"frontend.parse_sema", "frontend.layout",
                          "cfg.lower", "analysis.points_to",
                          "analysis.modref", "pegasus.build",
                          "opt.optimize"})
        layersMs += ms[k];
    m.set("trace.overhead_pct", 100.0 * (tracedMs - untracedMs) / untracedMs,
          "%");
    m.set("trace.compile_residual_pct",
          100.0 * (compileWallMs - layersMs) / compileWallMs, "%");
    m.set("trace.svc_transport_ms_p50",
          percentile(sr.missRoundTripMs, 0.5) - serverMissP50, "ms");

    std::filesystem::create_directories(kBuildDir);
    std::string path =
        std::string(kBuildDir) + "/trace-" + o.workload + ".json";
    std::ofstream os(path);
    rec.writeChromeTrace(os);
    m.set("trace.events", static_cast<double>(rec.events().size()), "count");
    std::fprintf(stderr, "cashbench: wrote %s (%zu events)\n", path.c_str(),
                 rec.events().size());
}

bool
parseArgs(int argc, char** argv, Options* o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o->workload = v;
        else if (k == "--seed")
            o->seed = std::stoull(v);
        else if (k == "--seconds")
            o->seconds = std::stod(v);
        else if (k == "--trace")
            o->trace = v == "1";
        else
            return false;
    }
    return (argc % 2) == 1 && !o->workload.empty();
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    bool parsed = false;
    try {
        parsed = parseArgs(argc, argv, &o);
    } catch (const std::exception&) {
        // A non-numeric --seed or --seconds.
    }
    if (!parsed) {
        std::fprintf(stderr,
                     "usage: cashbench --workload suite|wide|service "
                     "--seed N --seconds S --trace 0|1\n");
        return 2;
    }
    Metrics m;
    Tally tally;
    try {
        if (o.trace)
            traced(o, m, tally);
        else
            endToEnd(o, m, tally);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cashbench: %s\n", e.what());
        return 1;
    }

    std::string out = "{\"correct\": ";
    out += tally.wrong == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < m.order.size(); i++) {
        const auto& [v, unit] = m.values[m.order[i]];
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", v);
        out += (i ? ", \"" : "\"") + m.order[i] + "\": {\"value\": " + num +
               ", \"unit\": \"" + unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
