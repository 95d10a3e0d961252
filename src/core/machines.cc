#include "core/machines.hh"

#include "wir/interp.hh"

namespace trips::core {

// ---------------------------------------------------------------------
// Module-level entry points (batch/fuzz friendly, never abort).
// ---------------------------------------------------------------------

GoldenRun
runGolden(const wir::Module &mod, MemImage *final_mem)
{
    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    auto res = wir::Interp{}.run(mod, mem);
    GoldenRun run;
    run.retVal = res.retVal;
    run.dynOps = res.dynOps;
    run.loads = res.loads;
    run.stores = res.stores;
    run.fuelExhausted = res.fuelExhausted;
    if (final_mem)
        *final_mem = std::move(mem);
    return run;
}

TripsRun
runTrips(const wir::Module &mod, const compiler::Options &opts,
         bool cycle_level, const uarch::UarchConfig &ucfg,
         MemImage *func_mem, MemImage *cycle_mem)
{
    TripsRun run;
    auto prog = compiler::compileToTrips(mod, opts, &run.compile);
    run.codeBytes = prog.codeBytes();

    MemImage fmem;
    wir::Interp::loadGlobals(mod, fmem);
    sim::FuncSim fsim(prog, fmem);
    auto fres = fsim.run();
    run.funcFuelExhausted = fres.fuelExhausted;
    run.retVal = fres.retVal;
    run.isa = fres.stats;
    if (func_mem)
        *func_mem = std::move(fmem);

    // Fail fast: a program the functional model couldn't finish would
    // spin the cycle-level model to its maxCycles bound (hundreds of
    // millions of cycles) for nothing. Callers see cycleLevel == false
    // alongside funcFuelExhausted and report the fuel problem instead.
    if (cycle_level && !run.funcFuelExhausted) {
        MemImage cmem;
        wir::Interp::loadGlobals(mod, cmem);
        uarch::CycleSim csim(prog, cmem, ucfg);
        run.uarch = csim.run();
        run.cycleLevel = true;
        if (cycle_mem)
            *cycle_mem = std::move(cmem);
    }
    return run;
}

RiscRun
runRisc(const wir::Module &mod, const risc::RiscOptions &opts,
        MemImage *final_mem)
{
    auto prog = risc::compileToRisc(mod, opts);
    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    risc::Core core(prog, mem);
    RiscRun run;
    run.retVal = core.run();
    run.fuelExhausted = core.fuelExhausted();
    run.counters = core.counters();
    run.codeBytes = prog.codeBytes();
    if (final_mem)
        *final_mem = std::move(mem);
    return run;
}

// ---------------------------------------------------------------------
// Workload-level entry points (fuel exhaustion is fatal).
// ---------------------------------------------------------------------

TripsRun
runTrips(const workloads::Workload &w, const compiler::Options &opts,
         bool cycle_level, const uarch::UarchConfig &ucfg)
{
    wir::Module mod;
    w.build(mod);
    TripsRun run = runTrips(mod, opts, cycle_level, ucfg, nullptr, nullptr);
    TRIPS_ASSERT(!run.funcFuelExhausted, "functional fuel exhausted on ",
                 w.name);
    if (cycle_level) {
        TRIPS_ASSERT(!run.uarch.fuelExhausted, "cycle fuel exhausted on ",
                     w.name);
        TRIPS_ASSERT(run.uarch.retVal == run.retVal,
                     "cycle/functional mismatch on ", w.name);
    }
    return run;
}

TripsRun
runTripsObserved(const workloads::Workload &w,
                 const compiler::Options &opts,
                 const std::vector<sim::BlockObserver *> &obs)
{
    wir::Module mod;
    w.build(mod);
    TripsRun run;
    auto prog = compiler::compileToTrips(mod, opts, &run.compile);
    run.codeBytes = prog.codeBytes();

    MemImage fmem;
    wir::Interp::loadGlobals(mod, fmem);
    sim::FuncSim fsim(prog, fmem);
    for (auto *o : obs)
        fsim.addObserver(o);
    auto fres = fsim.run();
    TRIPS_ASSERT(!fres.fuelExhausted, "functional fuel exhausted on ",
                 w.name);
    run.retVal = fres.retVal;
    run.isa = fres.stats;
    return run;
}

RiscRun
runRisc(const workloads::Workload &w, const risc::RiscOptions &opts)
{
    wir::Module mod;
    w.build(mod);
    RiscRun run = runRisc(mod, opts, nullptr);
    TRIPS_ASSERT(!run.fuelExhausted, "RISC fuel exhausted on ", w.name);
    return run;
}

ooo::OooResult
runPlatform(const workloads::Workload &w, const ooo::OooConfig &platform,
            const risc::RiscOptions &compiler_opts)
{
    wir::Module mod;
    w.build(mod);
    auto prog = risc::compileToRisc(mod, compiler_opts);
    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    return ooo::runOoo(prog, mem, platform);
}

i64
runGolden(const workloads::Workload &w)
{
    wir::Module mod;
    w.build(mod);
    GoldenRun run = runGolden(mod, nullptr);
    TRIPS_ASSERT(!run.fuelExhausted, "interp fuel exhausted on ", w.name);
    return run.retVal;
}

ideal::IdealResult
runIdeal(const workloads::Workload &w, const compiler::Options &opts,
         const ideal::IdealConfig &icfg)
{
    wir::Module mod;
    w.build(mod);
    auto prog = compiler::compileToTrips(mod, opts);
    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    sim::FuncSim fsim(prog, mem);
    ideal::IdealSim ideal_sim(icfg);
    fsim.addObserver(&ideal_sim);
    auto fres = fsim.run();
    TRIPS_ASSERT(!fres.fuelExhausted, "fuel exhausted on ", w.name);
    return ideal_sim.result();
}

} // namespace trips::core
