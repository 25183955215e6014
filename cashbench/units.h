/**
 * @file
 * The benchmark's inputs: compilation units, the targets they run on,
 * and each unit's reference result from the sequential interpreter.
 *
 * Every unit is a Mini-C translation unit with an entry call.  Its
 * reference result (return value plus every word of every global
 * object after the call) is computed by src/baseline's Interpreter,
 * which executes the AST directly and shares no code with the
 * optimizer, Pegasus construction or the simulator.
 */
#ifndef CASHBENCH_UNITS_H
#define CASHBENCH_UNITS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver/target_spec.h"

namespace cashbench {

/** One compile-and-run input with its reference result. */
struct Unit
{
    std::string name;
    std::string source;
    std::string entry;
    std::vector<uint32_t> args;

    // Reference, from the interpreter.
    uint32_t expectReturn = 0;
    /** Every global object after the call: (address, its bytes). */
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> expectGlobals;

    /** "entry(a,b)" as cashc --run and the service take it. */
    std::string runSpec() const;
};

/** A named simulation target. */
struct Target
{
    std::string name; ///< "perfect", "real2", "fabric"
    cash::TargetSpec spec;
};

/**
 * The three targets of the paper-evaluation workload: perfect memory,
 * the default realistic memory (real2), and real2 on a 4x4 fabric with
 * 2-cycle hops and 4 credits per link.
 */
const std::vector<Target>& suiteTargets();

/** The 23 Table-2 kernels, as units (reference not yet filled). */
std::vector<Unit> suiteUnits();

/**
 * One generated translation unit of @p functions loop-nest functions
 * in the shape of bench_compile_throughput's `wide` unit, with one
 * call edge from every non-leaf function to a leaf, and an entry
 * `run(64)` calling every function.  Arithmetic is +, -, *, &, ^, <<
 * and compares only, and every index is masked into its array, so the
 * interpreter never traps.  Function f uses template (f + seed) mod 4,
 * so the mix of shapes is the same for every seed; the seed chooses
 * the constants and the call targets.
 */
Unit wideUnit(uint64_t seed, int functions, const std::string& name);

/**
 * Fill @p u's reference by interpreting it; returns the interpreter's
 * wall time in milliseconds.  Throws cash::FatalError on a trap.
 */
double computeReference(Unit& u);

/** Small deterministic generator (splitmix64). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t next();
    /** Uniform in [0, n). */
    uint32_t below(uint32_t n) { return static_cast<uint32_t>(next() % n); }

  private:
    uint64_t s_;
};

} // namespace cashbench

#endif // CASHBENCH_UNITS_H
