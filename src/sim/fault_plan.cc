#include "sim/fault_plan.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"

namespace snoc {

namespace {

constexpr std::pair<FaultEvent::Kind, const char *> kEventKinds[] = {
    {FaultEvent::Kind::LinkDown, "link-down"},
    {FaultEvent::Kind::LinkUp, "link-up"},
    {FaultEvent::Kind::RouterDown, "router-down"},
    {FaultEvent::Kind::RouterUp, "router-up"},
};

} // namespace

std::string
to_string(FaultEvent::Kind kind)
{
    for (const auto &[k, name] : kEventKinds)
        if (k == kind)
            return name;
    SNOC_PANIC("unregistered fault-event kind");
}

FaultEvent::Kind
faultEventKindFromName(const std::string &name)
{
    for (const auto &[k, n] : kEventKinds)
        if (name == n)
            return k;
    fatal("unknown fault-event kind '", name,
          "' (expected one of: link-down, link-up, router-down, "
          "router-up)");
}

std::vector<FaultEvent>
FaultPlan::resolve(const Graph &g) const
{
    std::vector<FaultEvent> out = events;

    if (randomLinkFraction > 0.0) {
        // Distinct adjacent router pairs (a LinkDown kills every
        // parallel channel between the pair, so parallel edges count
        // once here, mirroring the event's semantics).
        std::vector<std::pair<int, int>> pairs;
        for (int u = 0; u < g.numVertices(); ++u)
            for (int v : g.neighbors(u))
                if (u < v)
                    pairs.push_back({u, v});
        std::sort(pairs.begin(), pairs.end());
        pairs.erase(std::unique(pairs.begin(), pairs.end()),
                    pairs.end());

        Rng rng(faultSeed);
        rng.shuffle(pairs);
        std::size_t kill = static_cast<std::size_t>(
            randomLinkFraction * static_cast<double>(pairs.size()) +
            0.5);
        kill = std::min(kill, pairs.size());
        for (std::size_t i = 0; i < kill; ++i)
            out.push_back({randomFailAt, FaultEvent::Kind::LinkDown,
                           pairs[i].first, pairs[i].second});
    }

    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent &x, const FaultEvent &y) {
                         return x.at < y.at;
                     });
    return out;
}

} // namespace snoc
