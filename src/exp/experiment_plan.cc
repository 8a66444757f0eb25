#include "exp/experiment_plan.hh"

#include "common/log.hh"

namespace snoc {

namespace {

constexpr std::pair<Job::Kind, const char *> kJobKinds[] = {
    {Job::Kind::Single, "single"},
    {Job::Kind::Sweep, "sweep"},
    {Job::Kind::Saturation, "saturation"},
};

} // namespace

std::string
to_string(Job::Kind kind)
{
    for (const auto &[k, name] : kJobKinds)
        if (k == kind)
            return name;
    SNOC_PANIC("unregistered job kind");
}

Job::Kind
jobKindFromName(const std::string &name)
{
    for (const auto &[k, n] : kJobKinds)
        if (name == n)
            return k;
    fatal("unknown job kind '", name,
          "' (expected single, sweep or saturation)");
}

std::string
to_string(JobStatus status)
{
    return status == JobStatus::Ok ? "ok" : "failed";
}

JobStatus
jobStatusFromName(const std::string &name)
{
    if (name == "ok")
        return JobStatus::Ok;
    if (name == "failed")
        return JobStatus::Failed;
    fatal("unknown status '", name, "'");
}

} // namespace snoc
