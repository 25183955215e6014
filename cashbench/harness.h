/**
 * @file
 * The measured operations: one unit compiled and run the way
 * `cashc --target=T file.c --run` does it, the same compile taken
 * apart into the library's public per-layer calls, and `cashd`
 * driven by closed-loop clients.
 */
#ifndef CASHBENCH_HARNESS_H
#define CASHBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/stats.h"
#include "support/trace.h"
#include "units.h"

namespace cashbench {

/** Milliseconds on the steady clock since @p t0. */
double msSince(std::chrono::steady_clock::time_point t0);

/** One compile-place-index-simulate of a unit on a target. */
struct RunSample
{
    double runMs = 0;     ///< compile + place + index + simulate
    double compileMs = 0;
    double placeMs = 0;
    double indexMs = 0;
    double simMs = 0;     ///< DataflowSimulator::run only
    int64_t functions = 0;
    int64_t irNodes = 0;
    int64_t memOps = 0;   ///< static loads + stores
    uint64_t cycles = 0;
    cash::StatSet simStats;
    /** Event-engine run on the same graphs (when requested). */
    uint64_t eventCycles = 0;
    double eventSimMs = 0;
    int64_t eventEvents = 0;
    /** Empty when every output matched the reference. */
    std::string error;
};

/**
 * Compile @p u with one job at @p t's level (-O3 on every benchmark
 * target), place it on @p t's fabric, index
 * and simulate it with the macro engine, and check the return value
 * and every global object against the unit's reference.  With
 * @p eventEngine, also simulate the same graphs on the event engine.
 * A non-null enabled @p tracer is handed to compileSource and the
 * simulator.
 */
RunSample runUnit(const Unit& u, const Target& t, bool eventEngine,
                  cash::TraceRecorder* tracer = nullptr);

/** The same compile as runUnit, through the per-layer public calls. */
struct LayerSample
{
    std::map<std::string, double> ms; ///< layer name -> milliseconds
    std::map<std::string, int64_t> counts;
    int64_t graphs = 0;
    double verifyUs = 0; ///< one verifyGraph over every final graph
    double cloneUs = 0;  ///< one Graph::clone of every final graph
    int64_t irNodes = 0;
    int64_t memOps = 0;
};

/**
 * parseProgram + analyzeProgram, MemoryLayout::build, lowerProgram,
 * runPointsTo, computeModRef, buildPegasus, then optimizeGraph per
 * function with the context compileSource uses by default, each timed
 * on its own; then OrderingChecker, verifyGraph and Graph::clone over
 * the final graphs.  Spans of the benchmark's timers go to @p tracer.
 */
LayerSample layerCompile(const Unit& u, const Target& t,
                         cash::TraceRecorder* tracer);

/** One request of a service client's stream. */
struct SvcRequest
{
    const Unit* unit = nullptr; ///< reference and base source
    const Target* target = nullptr;
    /** Comment prepended to the unit's source; a distinct tag makes a
     *  distinct cache key for the same program. */
    std::string tag;
    /** Index in the same stream of the request this one repeats
     *  (same tag, unit and target), or -1. */
    int64_t repeatOf = -1;

    std::string source() const;
};

/** Results of one service measurement. */
struct SvcResult
{
    std::vector<double> roundTripMs;     ///< every correct reply
    std::vector<double> missRoundTripMs; ///< replies not from the cache
    double windowS = 0;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors;
    cash::StatSet metrics; ///< ServiceServer::metrics() at the end
};

/**
 * Closed-loop load: an in-process ServiceServer with @p workers pool
 * workers, one ServiceClient thread per stream.  A client sends its
 * next request once the previous reply arrived, until @p seconds have
 * passed (and at least @p minRequests replies came back in all) or
 * its stream ends; with @p seconds <= 0, until its stream ends.  Every reply's return value is checked against the
 * unit's reference, and a repeat's body must be byte-identical to the
 * reply that filled the cache.
 */
SvcResult serveStreams(const std::vector<std::vector<SvcRequest>>& streams,
                       int workers, double seconds, int64_t minRequests,
                       const std::string& socketPath,
                       cash::TraceRecorder* tracer);

/**
 * runDriverRequest wall time for @p r in milliseconds; sets @p error
 * when the reply does not carry the unit's reference result.
 */
double driverRequestMs(const SvcRequest& r, std::string* error);

} // namespace cashbench

#endif // CASHBENCH_HARNESS_H
