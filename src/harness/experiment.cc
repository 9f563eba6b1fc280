#include "harness/experiment.hh"

#include <algorithm>

namespace fsim
{

double
ExperimentResult::maxUtil() const
{
    double m = 0.0;
    for (double u : coreUtil)
        m = std::max(m, u);
    return m;
}

double
ExperimentResult::minUtil() const
{
    if (coreUtil.empty())
        return 0.0;
    double m = coreUtil.front();
    for (double u : coreUtil)
        m = std::min(m, u);
    return m;
}

double
ExperimentResult::avgUtil() const
{
    if (coreUtil.empty())
        return 0.0;
    double s = 0.0;
    for (double u : coreUtil)
        s += u;
    return s / static_cast<double>(coreUtil.size());
}

std::map<std::string, LockClassStats>
lockDelta(const std::map<std::string, LockClassStats> &before,
          const std::map<std::string, LockClassStats> &after)
{
    auto sat = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : 0;
    };
    std::map<std::string, LockClassStats> out;
    for (const auto &kv : after) {
        LockClassStats d = kv.second;
        auto it = before.find(kv.first);
        if (it != before.end()) {
            d.acquisitions = sat(d.acquisitions, it->second.acquisitions);
            d.contentions = sat(d.contentions, it->second.contentions);
            d.waitTicks = sat(d.waitTicks, it->second.waitTicks);
            d.holdTicks = sat(d.holdTicks, it->second.holdTicks);
        }
        out[kv.first] = d;
    }
    return out;
}

} // namespace fsim
