#include "exp/serialize.hh"

#include <algorithm>
#include <type_traits>

#include "exp/schema.hh"

namespace snoc {

namespace {

template <class V>
constexpr bool kIsVector = false;
template <class E>
constexpr bool kIsVector<std::vector<E>> = true;

/** Re-raise a FatalError with the JSON path prepended. */
template <typename Fn>
auto
atPath(const std::string &path, Fn &&fn)
{
    try {
        return fn();
    } catch (const FatalError &e) {
        fatal(path, ": ", e.what());
    }
}

/** The writer and the reader visit gated members only while active. */
struct GatedIo
{
    template <class S, class Fn>
    void
    when(const S &selector, std::initializer_list<S> values, Fn fn)
    {
        if (std::find(values.begin(), values.end(), selector) !=
            values.end())
            fn();
    }
};

template <class V>
JsonValue toValue(const V &v, bool keepDefaults);

/**
 * Writer: one T in schema order. The canonical minimal form omits
 * optional members at their default; with `keepDefaults` every member
 * whose gate holds is written (the full form).
 */
template <class T>
class Writer : public GatedIo
{
  public:
    static constexpr bool kReads = false;
    JsonValue out = JsonValue::object();

    Writer(const T &x, bool keepDefaults)
        : x_(x), keepDefaults_(keepDefaults)
    {
    }

    template <class M, class Rule = AnyValue>
    void
    field(const char *key, M T::*m, Rule = {}, Presence p = kOptional)
    {
        if (keep(p) || !(x_.*m == defaults().*m))
            out.set(key, toValue(x_.*m, keepDefaults_));
    }

    template <class E, class FromName>
    void
    name(const char *key, E T::*m, FromName, Presence p = kOptional)
    {
        if (keep(p) || x_.*m != defaults().*m)
            out.set(key, JsonValue::string(to_string(x_.*m)));
    }

    template <class Fn>
    void
    object(const char *key, Fn fn)
    {
        Writer group(x_, keepDefaults_);
        fn(group);
        out.set(key, std::move(group.out));
    }

    void check(bool, const char *, const char *) const {}

  private:
    const T &x_;
    bool keepDefaults_;

    bool keep(Presence p) const { return keepDefaults_ || p != kOptional; }

    static const T &
    defaults()
    {
        static const T d{};
        return d;
    }
};

template <class V>
JsonValue
toValue(const V &v, bool keepDefaults)
{
    if constexpr (std::is_same_v<V, bool>) {
        return JsonValue::boolean(v);
    } else if constexpr (std::is_arithmetic_v<V>) {
        return JsonValue::number(v);
    } else if constexpr (std::is_same_v<V, std::string>) {
        return JsonValue::string(v);
    } else if constexpr (kIsVector<V>) {
        JsonValue items = JsonValue::array();
        for (const auto &item : v)
            items.push(toValue(item, keepDefaults));
        return items;
    } else {
        // schema() takes T& for the reader's sake; the writer only
        // reads through it.
        Writer<V> w(v, keepDefaults);
        schema(w, const_cast<V &>(v));
        return std::move(w.out);
    }
}

template <class V, class Rule>
void fromValue(const JsonValue &v, const std::string &path, V &out,
               const Rule &rule);

/**
 * Strict reader for one T: members are taken by key, converted and
 * checked; finish() rejects whatever was never taken. Member paths
 * are built only for members that are present.
 */
template <class T>
class Reader : public GatedIo
{
  public:
    static constexpr bool kReads = true;

    Reader(const JsonValue &v, std::string path, T &x)
        : x_(x), path_(std::move(path)), members_(v.members(path_)),
          taken_(members_.size(), false)
    {
    }

    bool
    has(const char *key) const
    {
        return std::any_of(members_.begin(), members_.end(),
                           [&](const auto &m) { return m.first == key; });
    }

    template <class M, class Rule = AnyValue>
    void
    field(const char *key, M T::*m, Rule rule = {}, Presence p = kOptional)
    {
        if (const JsonValue *v = take(key, p))
            fromValue(*v, path_ + "." + key, x_.*m, rule);
    }

    template <class E, class FromName>
    void
    name(const char *key, E T::*m, FromName fromName, Presence p = kOptional)
    {
        if (const JsonValue *v = take(key, p)) {
            std::string path = path_ + "." + key;
            const std::string &text = v->asString(path);
            x_.*m = atPath(path, [&] { return fromName(text); });
        }
    }

    template <class Fn>
    void
    object(const char *key, Fn fn)
    {
        Reader group(*take(key, kRequired), path_ + "." + key, x_);
        fn(group);
        group.finish();
    }

    void
    check(bool ok, const char *key, const char *message) const
    {
        if (!ok)
            fatal(key ? path_ + "." + key : path_, ": ", message);
    }

    void
    finish() const
    {
        for (std::size_t i = 0; i < members_.size(); ++i)
            if (!taken_[i])
                fatal(path_, ": unknown member '", members_[i].first,
                      "'");
    }

  private:
    T &x_;
    std::string path_;
    const std::vector<std::pair<std::string, JsonValue>> &members_;
    std::vector<bool> taken_;

    const JsonValue *
    take(const char *key, Presence p)
    {
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (members_[i].first == key) {
                taken_[i] = true;
                return &members_[i].second;
            }
        }
        if (p == kRequired)
            fatal(path_, ": missing '", key, "'");
        return nullptr;
    }
};

template <class V, class Rule>
void
fromValue(const JsonValue &v, const std::string &path, V &out,
          const Rule &rule)
{
    if constexpr (kIsVector<V>) {
        std::size_t i = 0;
        for (const JsonValue &item : v.items(path)) {
            out.emplace_back();
            fromValue(item, path + "[" + std::to_string(i++) + "]",
                      out.back(), rule);
        }
    } else if constexpr (std::is_class_v<V> &&
                         !std::is_same_v<V, std::string>) {
        Reader<V> r(v, path, out);
        schema(r, out);
        r.finish();
    } else {
        if constexpr (std::is_same_v<V, bool>)
            out = v.asBool(path);
        else if constexpr (std::is_same_v<V, int>)
            out = v.asInt(path);
        else if constexpr (std::is_same_v<V, std::uint64_t>)
            out = v.asU64(path);
        else if constexpr (std::is_same_v<V, double>)
            out = v.asDouble(path);
        else
            out = v.asString(path);
        atPath(path, [&] { rule(out); });
    }
}

template <class T>
T
read(const JsonValue &v, const std::string &path)
{
    T x;
    fromValue(v, path, x, kAny);
    return x;
}

} // namespace

// One toJson / fromJson pair per struct, both driven by its schema.
#define SNOC_JSON_PAIR(Type, fromJson)                                  \
    JsonValue toJson(const Type &x) { return toValue(x, false); }      \
    Type fromJson(const JsonValue &v, const std::string &path)         \
    {                                                                  \
        return read<Type>(v, path);                                    \
    }

SNOC_JSON_PAIR(TrafficSpec, trafficSpecFromJson)
SNOC_JSON_PAIR(FaultPlan, faultPlanFromJson)
SNOC_JSON_PAIR(SimConfig, simConfigFromJson)
SNOC_JSON_PAIR(LinkConfig, linkConfigFromJson)
SNOC_JSON_PAIR(Scenario, scenarioFromJson)
SNOC_JSON_PAIR(Job, jobFromJson)
SNOC_JSON_PAIR(ExperimentPlan, planFromJson)
SNOC_JSON_PAIR(SimCounters, simCountersFromJson)
SNOC_JSON_PAIR(SimResult, simResultFromJson)
SNOC_JSON_PAIR(ScenarioResult, scenarioResultFromJson)
SNOC_JSON_PAIR(JobResult, jobResultFromJson)

#undef SNOC_JSON_PAIR

JsonValue
toJson(const EnergySpec &energy)
{
    return toValue(energy, false);
}

EnergySpec
energySpecFromJson(const JsonValue &v, const std::string &path)
{
    EnergySpec energy = read<EnergySpec>(v, path);
    energy.enabled = true; // presence of the member enables it
    return energy;
}

JsonValue
toFullJson(const Scenario &scenario)
{
    return toValue(scenario, true);
}

JsonValue
toFullJson(const Job &job)
{
    return toValue(job, true);
}

// --- text round trip --------------------------------------------------------

std::string
serializeScenario(const Scenario &scenario)
{
    return toJson(scenario).dump(2) + "\n";
}

std::string
serializePlan(const ExperimentPlan &plan)
{
    return toJson(plan).dump(2) + "\n";
}

Scenario
parseScenario(const std::string &text, const std::string &origin)
{
    return scenarioFromJson(JsonValue::parse(text, origin));
}

ExperimentPlan
parsePlan(const std::string &text, const std::string &origin)
{
    return planFromJson(JsonValue::parse(text, origin));
}

} // namespace snoc
