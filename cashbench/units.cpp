#include "units.h"

#include <chrono>

#include "baseline/interpreter.h"
#include "benchsuite/kernels.h"
#include "frontend/layout.h"
#include "frontend/parser.h"
#include "frontend/sema.h"

namespace cashbench {

using namespace cash;

std::string
Unit::runSpec() const
{
    std::string s = entry + "(";
    for (size_t i = 0; i < args.size(); i++)
        s += (i ? "," : "") + std::to_string(args[i]);
    return s + ")";
}

uint64_t
Rng::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const std::vector<Target>&
suiteTargets()
{
    static const std::vector<Target> targets = [] {
        std::vector<Target> out;
        for (const char* spec :
             {"mem=perfect", "mem=real2",
              "mem=real2,fabric=4x4:hop2:credit4"}) {
            Target t;
            Status st = TargetSpec::parse(spec, &t.spec);
            if (!st)
                throw FatalError(st.message());
            out.push_back(t);
        }
        out[0].name = "perfect";
        out[1].name = "real2";
        out[2].name = "fabric";
        return out;
    }();
    return targets;
}

std::vector<Unit>
suiteUnits()
{
    std::vector<Unit> out;
    for (const Kernel& k : kernelSuite()) {
        Unit u;
        u.name = k.name;
        u.source = k.source;
        u.entry = k.entry;
        u.args = k.args;
        out.push_back(std::move(u));
    }
    return out;
}

namespace {

/** Body of function @p f using loop-nest template @p shape. */
std::string
wideFunction(int f, int shape, Rng& rng, int callee)
{
    const std::string fn = std::to_string(f);
    // Odd multipliers >= 3 keep scalar_opts from strength-reducing some
    // functions and not others, so node counts do not depend on seed.
    const std::string c0 = std::to_string(1 + rng.below(997));
    const std::string c1 = std::to_string(3 + 2 * rng.below(400));
    const std::string c2 = std::to_string(rng.below(512));
    const std::string call =
        callee >= 0 ? " + w" + std::to_string(callee) + "(4)" : "";
    std::string s = "int w" + fn + "(int n) {\n";
    switch (shape) {
      case 0:
        s += "    int i; int s = " + c0 + ";\n"
             "    for (i = 0; i < n; i++) {\n"
             "        data[i] = i * " + c1 + ";\n"
             "        acc[i] = acc[i] + data[i] + tab[i & 63];\n"
             "        s = s + acc[i];\n"
             "    }\n"
             "    for (i = 1; i < n; i++)\n"
             "        acc[i] = acc[i] + acc[i - 1];\n"
             "    return s + acc[n - 1]" + call + ";\n";
        break;
      case 1:
        s += "    int i; int j; int s = " + c0 + ";\n"
             "    for (i = 0; i < n; i++)\n"
             "        for (j = 0; j < 8; j++)\n"
             "            s = s + data[(i * 8 + j) & 511] * " + c1 +
             " + tab[j];\n"
             "    acc[n & 511] = s;\n"
             "    return (s ^ acc[" + c2 + "])" + call + ";\n";
        break;
      case 2:
        s += "    int i; int m = " + c0 + ";\n"
             "    for (i = 0; i < n; i++) {\n"
             "        int v = data[i] + " + c1 + ";\n"
             "        if (v > m) m = v;\n"
             "        acc[(i + " + c2 + ") & 511] = v - tab[(i * 3) & 63];\n"
             "    }\n"
             "    return m" + call + ";\n";
        break;
      default:
        s += "    int i; int s = " + c0 + ";\n"
             "    for (i = 3; i < n; i++) {\n"
             "        data[i] = data[i - 3] + (i << 1) + " + c1 + ";\n"
             "        s = s ^ data[i];\n"
             "    }\n"
             "    return s" + call + ";\n";
        break;
    }
    return s + "}\n";
}

} // namespace

Unit
wideUnit(uint64_t seed, int functions, const std::string& name)
{
    constexpr int kShapes = 4;
    Rng rng(seed);
    Unit u;
    u.name = name;
    u.entry = "run";
    u.args = {64};
    u.source = "int data[512];\nint acc[512];\nint tab[64] = {";
    for (int i = 0; i < 64; i++)
        u.source += (i ? ", " : "") + std::to_string(rng.below(1000));
    u.source += "};\n";
    const int offset = static_cast<int>(rng.below(kShapes));
    // The first kShapes functions are leaves; every later one calls a
    // leaf, so call depth stays 2 and simulation stays small.
    for (int f = 0; f < functions; f++) {
        int callee = f < kShapes ? -1 : static_cast<int>(rng.below(kShapes));
        u.source += wideFunction(f, (f + offset) % kShapes, rng, callee);
    }
    u.source += "int run(int n) {\n    int t = 0;\n";
    for (int f = 0; f < functions; f++)
        u.source += "    t = t + w" + std::to_string(f) + "(n);\n";
    u.source += "    return t;\n}\n";
    return u;
}

double
computeReference(Unit& u)
{
    auto t0 = std::chrono::steady_clock::now();
    Program prog = parseProgram(u.source);
    analyzeProgram(prog);
    MemoryLayout layout;
    layout.build(prog);
    Interpreter interp(prog, layout);
    u.expectReturn = interp.call(u.entry, u.args).returnValue;
    u.expectGlobals.clear();
    for (const MemObject& obj : layout.objects()) {
        if (!obj.isGlobal)
            continue;
        const uint8_t* p = interp.memory().data() + obj.address;
        u.expectGlobals.emplace_back(
            obj.address, std::vector<uint8_t>(p, p + obj.size));
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace cashbench
