#include "tracer.hh"

#include "obs/trace.hh"

namespace perfbench {

u32
Tracer::open(const char *name)
{
    u32 idx = static_cast<u32>(all.size());
    all.push_back({name, curOp, stack.empty() ? NO_PARENT : stack.back(),
                   nsBetween(t0, Clock::now()), 0});
    stack.push_back(idx);
    return idx;
}

void
Tracer::close(u32 idx)
{
    all[idx].endNs = nsBetween(t0, Clock::now());
    stack.pop_back();
}

std::map<std::string, double>
Tracer::selfNs() const
{
    std::vector<double> childNs(all.size(), 0);
    for (const auto &s : all)
        if (s.parent != NO_PARENT)
            childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, double> out;
    for (size_t i = 0; i < all.size(); ++i)
        out[all[i].name] += all[i].endNs - all[i].startNs - childNs[i];
    return out;
}

std::map<std::string, double>
Tracer::totalNs() const
{
    std::map<std::string, double> out;
    for (const auto &s : all)
        out[s.name] += s.endNs - s.startNs;
    return out;
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &process) const
{
    trips::obs::TraceSink sink;
    sink.setProcessName(0, process);
    sink.setThreadName(0, 0, "benchmark client");
    for (const auto &s : all) {
        // Flooring both ends keeps children inside their parents.
        u64 ts = static_cast<u64>(s.startNs / 1000);
        u64 end = static_cast<u64>(s.endNs / 1000);
        sink.complete(0, 0, ts, end - ts, s.name, "layer", "op",
                      static_cast<double>(s.op));
    }
    return sink.writeFile(path);
}

} // namespace perfbench
