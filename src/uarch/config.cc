#include "uarch/config.hh"

#include <sstream>

namespace trips::uarch {

namespace {

bool
validCache(const mem::CacheConfig &c, const char *name, std::ostream &os)
{
    std::string err = c.validate(name);
    os << err;
    return err.empty();
}

} // namespace

std::string
UarchConfig::validate() const
{
    std::ostringstream os;
    if (numFrames < 1 || numFrames > 8) {
        os << "numFrames must be in [1, 8] (the frame queue is 8 deep)";
    } else if (dispatchPerCycle < 1) {
        os << "dispatchPerCycle must be >= 1";
    } else if (dtServicePeriod < 1) {
        os << "dtServicePeriod must be >= 1";
    } else if (lsqEntriesPerFrame < 1 || lsqEntriesPerFrame > 32) {
        os << "lsqEntriesPerFrame must be in [1, 32] (LSID space)";
    } else if (l1iHitLatency < 1 || l1dHitLatency < 1) {
        os << "cache hit latencies must be >= 1";
    } else if (maxCycles == 0) {
        os << "maxCycles must be > 0";
    } else if (depPredEntries == 0 ||
               (depPredEntries & (depPredEntries - 1))) {
        os << "depPredEntries must be a power of two";
    } else {
        validCache(l1dBank, "l1dBank", os) &&
            validCache(l1i, "l1i", os) && validCache(l2Bank, "l2Bank", os);
    }
    return os.str();
}

UarchConfig
UarchConfig::smallWindow()
{
    UarchConfig c;
    c.numFrames = 2;
    return c;
}

UarchConfig
UarchConfig::narrowIssue()
{
    UarchConfig c;
    c.dispatchPerCycle = 4;
    c.dtServicePeriod = 2;
    return c;
}

UarchConfig
UarchConfig::tinyMemory()
{
    UarchConfig c;
    c.l1dBank = mem::CacheConfig{1 * 1024, 2, 64};
    c.l2Bank = mem::CacheConfig{8 * 1024, 4, 64};
    c.depPredEntries = 16;
    return c;
}

mem::MemorySystemConfig
uncoreConfig(const UarchConfig &c, unsigned num_cores)
{
    mem::MemorySystemConfig m;
    m.numCores = num_cores;
    m.l2Bank = c.l2Bank;
    m.dram = c.dram;
    m.l2BaseLatency = c.l2BaseLatency;
    m.ocn.hopLatency = c.l2NucaStep;
    return m;
}

const char *
chipEngineName(ChipEngine e)
{
    switch (e) {
      case ChipEngine::Serial: return "serial";
      case ChipEngine::Parallel: return "parallel";
    }
    TRIPS_PANIC("bad ChipEngine");
}

std::string
ChipConfig::validate() const
{
    std::string cerr_ = core.validate();
    if (!cerr_.empty())
        return "core: " + cerr_;
    std::ostringstream os;
    if (numCores < 1 || numCores > 16) {
        os << "numCores must be in [1, 16] (the OCN attach table and "
              "the per-bank arbitration arrays hold 16 core ports)";
    } else if (bankServicePeriod < 1) {
        os << "bankServicePeriod must be >= 1";
    } else if (quantum < 1) {
        os << "quantum must be >= 1 cycle";
    } else {
        return uncore().validate();
    }
    return os.str();
}

mem::MemorySystemConfig
ChipConfig::uncore() const
{
    mem::MemorySystemConfig m = uncoreConfig(core, numCores);
    m.bankServicePeriod = bankServicePeriod;
    m.physStride = physStride;
    m.physAddrBits = physAddrBits;
    return m;
}

} // namespace trips::uarch
