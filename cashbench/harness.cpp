#include "harness.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "analysis/interproc.h"
#include "analysis/modref.h"
#include "analysis/ordering_checker.h"
#include "analysis/points_to.h"
#include "cfg/lower.h"
#include "driver/compiler.h"
#include "driver/driver_lib.h"
#include "fabric/placer.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "pegasus/builder.h"
#include "pegasus/verifier.h"
#include "service/client.h"
#include "service/server.h"
#include "sim/dataflow_sim.h"

namespace cashbench {

using namespace cash;
using Clock = std::chrono::steady_clock;

/** optimizeGraph's bound on fixed-point rounds.  It must match
 *  maxRounds in optimizeImpl (src/opt/pass.cpp), which does not export
 *  it. */
constexpr int kMaxRounds = 8;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

namespace {

/** First difference between @p sim's globals and @p u's reference. */
std::string
compareGlobals(const Unit& u, const MemoryImage& mem)
{
    const std::vector<uint8_t>& bytes = mem.bytes();
    for (const auto& [addr, want] : u.expectGlobals)
        for (size_t i = 0; i < want.size(); i++)
            if (addr + i >= bytes.size() || bytes[addr + i] != want[i])
                return "global byte at address " +
                       std::to_string(addr + i) +
                       " differs from the interpreter";
    return "";
}

/** Span of the benchmark's own timer, recorded after the fact. */
void
span(TraceRecorder* tracer, const std::string& name, uint64_t startUs)
{
    if (tracer && tracer->enabled())
        tracer->completeEvent(name, "bench.layer", startUs,
                              tracer->nowUs() - startUs);
}

} // namespace

RunSample
runUnit(const Unit& u, const Target& t, bool eventEngine,
        TraceRecorder* tracer)
{
    RunSample s;
    MemConfig mc = MemConfig::realistic(2);
    SimEngine engine = SimEngine::Macro;
    Status st = t.spec.resolve(&mc, &engine);
    if (!st) {
        s.error = st.message();
        return s;
    }

    Clock::time_point t0 = Clock::now();
    CompileOptions opts = CompileOptions()
                              .opt(t.spec.level)
                              .jobs(1)
                              .interprocOpt(t.spec.interproc)
                              .trace(tracer);
    CompileResult r;
    try {
        r = compileSource(u.source, opts);
    } catch (const FatalError& e) {
        s.error = std::string("compile: ") + e.what();
        return s;
    }
    s.compileMs = msSince(t0);

    Clock::time_point t1 = Clock::now();
    FabricSession fabric;
    const FabricSession* fabricPtr = nullptr;
    if (!t.spec.fabric.trivial()) {
        fabric = placeAll(r.graphPtrs(), t.spec.fabric);
        fabricPtr = &fabric;
    }
    s.placeMs = msSince(t1);

    Clock::time_point t2 = Clock::now();
    DataflowSimulator sim(r.graphPtrs(), *r.layout, mc, engine, fabricPtr);
    if (tracer && tracer->enabled())
        sim.setTracer(tracer);
    s.indexMs = msSince(t2);

    Clock::time_point t3 = Clock::now();
    SimResult out = sim.run(u.entry, u.args);
    s.simMs = msSince(t3);
    s.runMs = msSince(t0);

    s.functions = static_cast<int64_t>(r.graphs.size());
    s.irNodes = r.totalNodes();
    s.memOps = r.staticLoads() + r.staticStores();
    s.cycles = out.cycles;
    s.simStats = out.stats;

    if (!r.ok())
        s.error = "compile diagnostics: " + r.diagnostics[0].str();
    else if (!out.ok())
        s.error = "simulation: " + out.error;
    else if (out.returnValue != u.expectReturn)
        s.error = "returned " + std::to_string(out.returnValue) +
                  ", interpreter " + std::to_string(u.expectReturn);
    else
        s.error = compareGlobals(u, sim.memory());

    if (eventEngine) {
        DataflowSimulator ev(r.graphPtrs(), *r.layout, mc,
                             SimEngine::Event, fabricPtr);
        Clock::time_point t4 = Clock::now();
        SimResult eout = ev.run(u.entry, u.args);
        s.eventSimMs = msSince(t4);
        s.eventCycles = eout.cycles;
        s.eventEvents = eout.stats.get("sim.events.equivalent");
    }
    return s;
}

LayerSample
layerCompile(const Unit& u, const Target& t, TraceRecorder* tracer)
{
    LayerSample s;
    const OptLevel level = t.spec.level;
    const bool ipo = t.spec.interproc && level == OptLevel::Full;
    auto timed = [&](const char* layer, auto&& fn) {
        uint64_t startUs = tracer ? tracer->nowUs() : 0;
        Clock::time_point t0 = Clock::now();
        fn();
        s.ms[layer] += msSince(t0);
        span(tracer, layer, startUs);
    };

    Program prog;
    timed("frontend.parse_sema", [&] {
        prog = parseProgram(u.source);
        analyzeProgram(prog);
    });
    MemoryLayout layout;
    timed("frontend.layout", [&] { layout.build(prog); });
    std::unique_ptr<CfgProgram> cfg;
    timed("cfg.lower", [&] { cfg = lowerProgram(prog, layout); });
    timed("analysis.points_to",
          [&] { runPointsTo(*cfg, prog, layout); });
    ModRefSummaries summaries;
    timed("analysis.modref",
          [&] { summaries = computeModRef(*cfg, layout, ipo); });
    std::vector<std::unique_ptr<Graph>> graphs;
    BuildOptions bo;
    bo.usePointsTo = level != OptLevel::None;
    bo.interprocEffects = ipo;
    timed("pegasus.build",
          [&] { graphs = buildPegasus(*cfg, prog, layout, bo); });

    std::vector<std::string> names = standardPipelineNames(level);
    if (!t.spec.interproc)
        names.erase(std::remove(names.begin(), names.end(),
                                std::string("interproc_token_pruning")),
                    names.end());
    StatSet stats;
    for (auto& g : graphs) {
        // compileSource verifies each graph once before optimizing it
        // and leaves a graph that fails unoptimized.
        if (!verifyGraph(*g).empty())
            continue;
        std::vector<std::unique_ptr<Pass>> pipeline =
            PassRegistry::global().createPipeline(names);
        std::vector<PassFailure> failures;
        OptContext ctx;
        ctx.oracle = &cfg->oracle;
        ctx.layout = &layout;
        ctx.stats = &stats;
        ctx.verifyAfterEachPass = true;
        ctx.isolatePasses = true;
        ctx.failures = &failures;
        int rounds = 0;
        timed("opt.optimize",
              [&] { rounds = optimizeGraph(*g, pipeline, ctx); });
        s.counts["opt.functions"]++;
        s.counts["opt.rounds"] += rounds;
        if (rounds < kMaxRounds)
            continue;
        // A function that used every round either still changed in its
        // last round or reached its fixed point exactly there.  One
        // more round, run on a copy, tells the two apart: optimizeGraph
        // returns 1 when its first round changes nothing.
        s.counts["opt.funcs_at_round_cap"]++;
        std::unique_ptr<Graph> copy = g->clone();
        OptContext probe;
        probe.oracle = &cfg->oracle;
        probe.layout = &layout;
        probe.isolatePasses = true;
        probe.failures = &failures;
        if (optimizeGraph(*copy, PassRegistry::global().createPipeline(names),
                          probe) > 1)
            s.counts["opt.funcs_unconverged_at_cap"]++;
    }
    for (const auto& [key, v] : stats.all()) {
        const std::string pre = "opt.pass.";
        if (key.rfind(pre, 0) != 0)
            continue;
        if (key.size() > 8 &&
            key.compare(key.size() - 8, 8, ".time_us") == 0) {
            std::string pass = key.substr(pre.size(),
                                          key.size() - pre.size() - 8);
            s.ms["opt.pass." + pass] += static_cast<double>(v) / 1000.0;
            s.ms["opt.pass"] += static_cast<double>(v) / 1000.0;
        } else if (key.size() > 5 &&
                   key.compare(key.size() - 5, 5, ".runs") == 0) {
            s.counts["opt.pass_runs"] += v;
        }
    }
    s.counts["opt.interproc_pruned_edges"] +=
        stats.get("opt.interproc_token_pruning.pruned_edges");

    std::vector<const Graph*> ptrs;
    for (const auto& g : graphs) {
        ptrs.push_back(g.get());
        s.irNodes += g->numLive();
        g->forEach([&](Node* n) {
            if (n->kind == NodeKind::Load || n->kind == NodeKind::Store)
                s.memOps++;
        });
    }
    s.graphs = static_cast<int64_t>(graphs.size());

    timed("analysis.check", [&] {
        InterprocModel model(ptrs, cfg->paramLocation, layout);
        for (const Graph* g : ptrs) {
            OrderingChecker checker(*g, &cfg->oracle, &layout, &model);
            std::vector<LintFinding> findings;
            checker.check(findings);
            for (const LintFinding& f : findings)
                if (f.severity == LintSeverity::Error)
                    s.counts["analysis.error_findings"]++;
        }
    });
    Clock::time_point tv = Clock::now();
    for (const Graph* g : ptrs)
        verifyGraph(*g);
    s.verifyUs = msSince(tv) * 1000.0;
    Clock::time_point tc = Clock::now();
    for (const Graph* g : ptrs)
        g->clone();
    s.cloneUs = msSince(tc) * 1000.0;
    return s;
}

std::string
SvcRequest::source() const
{
    return "/* " + tag + " */\n" + unit->source;
}

namespace {

Json
requestJson(const SvcRequest& r)
{
    Json opts = Json::object();
    opts.set("run", Json::string(r.unit->runSpec()));
    opts.set("target", Json::string(r.target->spec.str()));
    return makeCompileRequest("compile", r.source(), opts, r.unit->name);
}

/** Error text when @p resp does not carry @p r's reference result. */
std::string
checkReply(const SvcRequest& r, const Json& resp)
{
    if (!resp.getBool("ok"))
        return "request refused: " + resp.dump();
    const Json* body = resp.get("body");
    const Json* sim = body ? body->get("sim") : nullptr;
    if (!body || body->getInt("exit", -1) != 0 || !sim)
        return "compile failed: " + (body ? body->dump() : resp.dump());
    if (sim->getString("outcome") != "ok")
        return "simulation " + sim->getString("outcome");
    uint32_t got = static_cast<uint32_t>(sim->getInt("return"));
    if (got != r.unit->expectReturn)
        return r.unit->name + " returned " + std::to_string(got) +
               ", interpreter " + std::to_string(r.unit->expectReturn);
    return "";
}

} // namespace

SvcResult
serveStreams(const std::vector<std::vector<SvcRequest>>& streams,
             int workers, double seconds, int64_t minRequests,
             const std::string& socketPath, TraceRecorder* tracer)
{
    SvcResult res;
    ServiceConfig cfg;
    cfg.socketPath = socketPath;
    cfg.jobs = workers;
    cfg.tracer = tracer;
    ServiceServer server(cfg);
    Status st = server.start();
    if (!st)
        throw FatalError("service start: " + st.message());

    std::mutex mu; // guards res
    std::atomic<int64_t> replies{0};
    const double hardCapS = std::max(120.0, 3 * seconds);
    Clock::time_point t0 = Clock::now();
    auto client = [&](const std::vector<SvcRequest>& stream) {
        ServiceClient c;
        Status cs = c.connectWithRetry(socketPath);
        std::vector<double> lat, missLat;
        std::vector<std::string> bodies(stream.size());
        std::vector<std::string> errors;
        int64_t attempted = 0;
        for (size_t i = 0; i < stream.size() && cs; i++) {
            double el = msSince(t0) / 1000.0;
            if (seconds > 0 && ((el >= seconds &&
                                 replies.load() >= minRequests) ||
                                el >= hardCapS))
                break;
            const SvcRequest& r = stream[i];
            attempted++;
            Json resp;
            Clock::time_point s0 = Clock::now();
            Status callSt = c.call(requestJson(r), &resp);
            double ms = msSince(s0);
            replies++;
            std::string err = callSt ? checkReply(r, resp)
                                     : "call: " + callSt.message();
            if (err.empty()) {
                const Json* body = resp.get("body");
                bodies[i] = body->dump();
                if (r.repeatOf >= 0) {
                    if (!resp.getBool("cached"))
                        err = "repeat of a served request missed the cache";
                    else if (bodies[i] != bodies[r.repeatOf])
                        err = "cached body differs from the reply that "
                              "filled the cache";
                }
            }
            if (err.empty()) {
                lat.push_back(ms);
                if (!resp.getBool("cached"))
                    missLat.push_back(ms);
            } else
                errors.push_back(r.unit->name + "@" + r.target->name +
                                 ": " + err);
        }
        if (!cs)
            errors.push_back("connect: " + cs.message());
        std::lock_guard<std::mutex> lock(mu);
        res.roundTripMs.insert(res.roundTripMs.end(), lat.begin(),
                               lat.end());
        res.missRoundTripMs.insert(res.missRoundTripMs.end(),
                                   missLat.begin(), missLat.end());
        res.attempted += attempted;
        res.failed += static_cast<int64_t>(errors.size());
        res.errors.insert(res.errors.end(), errors.begin(), errors.end());
    };
    std::vector<std::thread> threads;
    for (const auto& stream : streams)
        threads.emplace_back(client, std::cref(stream));
    for (std::thread& th : threads)
        th.join();
    res.windowS = msSince(t0) / 1000.0;
    res.metrics = server.metrics();
    server.stop();
    return res;
}

double
driverRequestMs(const SvcRequest& r, std::string* error)
{
    DriverRequest d;
    d.source = r.source();
    d.target = r.target->spec;
    d.runSpec = r.unit->runSpec();
    d.jobs = 1;
    Clock::time_point t0 = Clock::now();
    DriverReply rep = runDriverRequest(d);
    double ms = msSince(t0);
    if (rep.exitCode != 0 || rep.returnValue != r.unit->expectReturn)
        *error = "in-process driver on " + r.unit->name + "@" +
                 r.target->name + " disagrees with the interpreter";
    return ms;
}

} // namespace cashbench
