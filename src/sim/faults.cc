#include "sim/faults.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

#include "support/record.h"

namespace astra {

namespace {

bool
kind_from_name(std::string_view name, FaultKind* out)
{
    if (name == "kernel")
        *out = FaultKind::Kernel;
    else if (name == "straggler")
        *out = FaultKind::Straggler;
    else if (name == "alloc")
        *out = FaultKind::Alloc;
    else if (name == "comm")
        *out = FaultKind::Comm;
    else
        return false;
    return true;
}

}  // namespace

const char*
fault_kind_name(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Kernel:
        return "kernel";
      case FaultKind::Straggler:
        return "straggler";
      case FaultKind::Alloc:
        return "alloc";
      case FaultKind::Comm:
        return "comm";
    }
    return "?";
}

bool
FaultPlan::has(FaultKind kind) const
{
    for (const FaultSpec& s : specs)
        if (s.kind == kind)
            return true;
    return false;
}

namespace {

/**
 * Split "key=value" and record the key in `seen`; false (with a
 * diagnosis) when '=' is missing or the key was already given, so a
 * duplicate is a named error, not a silent last-one-wins.
 */
bool
split_kv(const record::Diag& diag, std::set<std::string>& seen,
         std::string_view field, std::string* key, std::string* val)
{
    const size_t eq = field.find('=');
    if (eq == std::string_view::npos)
        return diag.fail("malformed field '", field,
                         "' (expected key=value)");
    *key = field.substr(0, eq);
    *val = field.substr(eq + 1);
    if (!seen.insert(*key).second)
        return diag.fail("duplicate key '", *key, "'");
    return true;
}

}  // namespace

bool
FaultPlan::parse(const std::string& spec, FaultPlan* out,
                 std::string* error)
{
    FaultPlan plan;
    // Diagnostics name the 1-based ';'-separated clause.
    record::Diag diag(error, "token");
    std::set<std::string> globals;  // duplicates across global clauses
    for (const std::string_view clause : record::split(spec, ';')) {
        ++diag.at;
        if (clause.empty())
            continue;
        std::set<std::string> seen;
        std::string key, val;
        const size_t colon = clause.find(':');
        if (colon == std::string_view::npos) {
            // Global clause: key=value.
            if (!split_kv(diag, globals, clause, &key, &val))
                return false;
            int64_t v = 0;
            if (key == "seed") {
                if (!record::parse_int(val, &v, 0))
                    return diag.fail("seed must be a non-negative "
                                     "integer, got '", val, "'");
                plan.seed = static_cast<uint64_t>(v);
            } else if (key == "retries") {
                if (!record::parse_int(val, &v, 0, 1000))
                    return diag.fail("retries out of range [0, 1000], "
                                     "got '", val, "'");
                plan.max_retries = static_cast<int>(v);
            } else if (key == "backoff_us") {
                if (!record::parse_finite(val, &plan.backoff_us, 0.0))
                    return diag.fail("backoff_us must be a non-negative "
                                     "number, got '", val, "'");
            } else {
                return diag.fail("unknown key '", key, "'");
            }
            continue;
        }
        const std::string kind_name(clause.substr(0, colon));
        const std::vector<std::string_view> fields =
            record::split(clause.substr(colon + 1), ',');
        if (kind_name == "replica_death" || kind_name == "replica_flap") {
            ReplicaFaultSpec rs;
            rs.flap = kind_name == "replica_flap";
            bool have_r = false, have_at = false, have_down = false;
            for (const std::string_view field : fields) {
                if (!split_kv(diag, seen, field, &key, &val))
                    return false;
                if (key == "r") {
                    if (!record::parse_int(val, &rs.replica, 0, 4096))
                        return diag.fail("r out of range [0, 4096], "
                                         "got '", val, "'");
                    have_r = true;
                } else if (key == "at_ns") {
                    if (!record::parse_finite(val, &rs.at_ns, 0.0))
                        return diag.fail("at_ns must be a non-negative "
                                         "number, got '", val, "'");
                    have_at = true;
                } else if (key == "down_ns" && rs.flap) {
                    if (!record::parse_finite(val, &rs.down_ns, 0.0) ||
                        rs.down_ns <= 0.0)
                        return diag.fail("down_ns must be > 0, got '", val,
                                         "'");
                    have_down = true;
                } else if (key == "up_ns" && rs.flap) {
                    if (!record::parse_finite(val, &rs.up_ns, 0.0))
                        return diag.fail("up_ns must be a non-negative "
                                         "number, got '", val, "'");
                } else if (key == "count" && rs.flap) {
                    if (!record::parse_int(val, &rs.count, 1))
                        return diag.fail("count must be >= 1, got '", val,
                                         "'");
                } else {
                    return diag.fail("unknown key '", key, "' for ",
                                     kind_name);
                }
            }
            if (!have_r || !have_at)
                return diag.fail(kind_name, " needs r= and at_ns=");
            if (rs.flap && !have_down)
                return diag.fail("replica_flap needs down_ns=");
            if (rs.flap && rs.up_ns <= 0.0 &&
                (rs.count < 0 || rs.count > 1))
                return diag.fail("replica_flap with up_ns=0 never "
                                 "revives; use replica_death");
            plan.replica_faults.push_back(rs);
            continue;
        }
        FaultSpec fs;
        if (!kind_from_name(kind_name, &fs.kind))
            return diag.fail("unknown fault kind '", kind_name, "'");
        bool fires_ever = false;
        for (const std::string_view field : fields) {
            if (!split_kv(diag, seen, field, &key, &val))
                return false;
            if (key == "p") {
                if (!record::parse_finite(val, &fs.p, 0.0, 1.0))
                    return diag.fail("p out of range [0, 1], got '", val,
                                     "'");
                fires_ever = true;
            } else if (key == "x") {
                if (!record::parse_finite(val, &fs.factor, 1.0))
                    return diag.fail("x must be >= 1, got '", val, "'");
            } else if (key == "at") {
                if (!record::parse_int(val, &fs.at, 0))
                    return diag.fail("at must be a non-negative "
                                     "integer, got '", val, "'");
                fires_ever = true;
            } else if (key == "name") {
                if (val.empty())
                    return diag.fail("name must be non-empty");
                fs.name = val;
            } else {
                return diag.fail("unknown key '", key, "'");
            }
        }
        if (!fires_ever)
            return diag.fail("spec never fires (needs p= or at=)");
        plan.specs.push_back(std::move(fs));
    }
    *out = std::move(plan);
    return true;
}

const FaultPlan&
FaultPlan::from_env()
{
    static const FaultPlan plan = [] {
        FaultPlan p;
        const char* v = std::getenv("ASTRA_FAULTS");
        if (v != nullptr && *v != '\0') {
            // Malformed -> stay fault-free: a bad env spec must never
            // crash every binary, but it should not fail silently
            // either.
            std::string error;
            if (!FaultPlan::parse(v, &p, &error))
                std::fprintf(stderr,
                             "ASTRA_FAULTS ignored (malformed): %s\n",
                             error.c_str());
        }
        return p;
    }();
    return plan;
}

std::string
FaultPlan::to_string() const
{
    std::ostringstream os;
    // Pinned like every record writer, so the spec reparses on any
    // host; decimal because people read it too.
    const record::WriteGuard pin(os);
    os << std::defaultfloat;
    os << "seed=" << seed << ";retries=" << max_retries
       << ";backoff_us=" << backoff_us;
    for (const FaultSpec& s : specs) {
        os << ";" << fault_kind_name(s.kind) << ":p=" << s.p;
        if (s.factor != 1.0)
            os << ",x=" << s.factor;
        if (s.at >= 0)
            os << ",at=" << s.at;
        if (!s.name.empty())
            os << ",name=" << s.name;
    }
    for (const ReplicaFaultSpec& r : replica_faults) {
        if (!r.flap) {
            os << ";replica_death:r=" << r.replica << ",at_ns="
               << r.at_ns;
            continue;
        }
        os << ";replica_flap:r=" << r.replica << ",at_ns=" << r.at_ns
           << ",down_ns=" << r.down_ns;
        if (r.up_ns > 0.0)
            os << ",up_ns=" << r.up_ns;
        if (r.count >= 1)
            os << ",count=" << r.count;
    }
    return os.str();
}

namespace {

/** Is `t_ns` inside one of this spec's down intervals? */
bool
spec_down(const ReplicaFaultSpec& s, double t_ns)
{
    if (t_ns < s.at_ns)
        return false;
    if (!s.flap)
        return true;  // death: down forever from the edge
    const double period = s.down_ns + s.up_ns;
    if (period <= 0.0)
        return true;
    const double since = t_ns - s.at_ns;
    const double cycle = std::floor(since / period);
    if (s.count >= 1 && cycle >= static_cast<double>(s.count))
        return false;  // past the last down interval
    return since - cycle * period < s.down_ns;
}

}  // namespace

bool
replica_alive(const FaultPlan& plan, int replica, double t_ns)
{
    for (const ReplicaFaultSpec& s : plan.replica_faults)
        if (s.replica == replica && spec_down(s, t_ns))
            return false;
    return true;
}

std::vector<double>
replica_transitions(const FaultPlan& plan, int replica,
                    double horizon_ns)
{
    std::vector<double> edges;
    for (const ReplicaFaultSpec& s : plan.replica_faults) {
        if (s.replica != replica)
            continue;
        if (!s.flap) {
            if (s.at_ns < horizon_ns)
                edges.push_back(s.at_ns);
            continue;
        }
        const double period = s.down_ns + s.up_ns;
        const int64_t cycles =
            s.count >= 1 ? s.count
                         : static_cast<int64_t>(
                               std::ceil((horizon_ns - s.at_ns) /
                                         std::max(period, 1.0)) +
                               1);
        for (int64_t k = 0; k < cycles; ++k) {
            const double down = s.at_ns + static_cast<double>(k) * period;
            if (down >= horizon_ns)
                break;
            edges.push_back(down);
            const double up = down + s.down_ns;
            if (up < horizon_ns)
                edges.push_back(up);
        }
    }
    std::sort(edges.begin(), edges.end());
    // Candidate edges from overlapping specs may not all change net
    // liveness; keep only those where alive() actually flips.
    std::vector<double> out;
    bool alive = replica_alive(plan, replica, 0.0);
    for (double e : edges) {
        // Probe just after the edge (half an epsilon of the smallest
        // interval is overkill; specs are coarse-grained ns schedules).
        const bool after = replica_alive(plan, replica, e + 1e-3);
        if (after != alive) {
            out.push_back(e);
            alive = after;
        }
    }
    return out;
}

uint64_t
fault_mix(uint64_t seed, uint64_t value)
{
    // splitmix64 finalizer over the combined pair.
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (value + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
FaultInjector::draw(FaultKind kind, uint64_t seq) const
{
    const uint64_t h = fault_mix(
        fault_mix(fault_mix(plan_->seed, salt_),
                  static_cast<uint64_t>(kind) + 1),
        seq);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool
FaultInjector::fires(const FaultSpec& spec, uint64_t seq) const
{
    if (spec.at >= 0)
        return seq == static_cast<uint64_t>(spec.at);
    return spec.p > 0.0 && draw(spec.kind, seq) < spec.p;
}

KernelFault
FaultInjector::on_kernel(const std::string& name)
{
    KernelFault out;
    if (!armed())
        return out;
    // Kernel and straggler specs share the launch sequence but draw on
    // independent hash dimensions (the kind term), so a kernel-fail
    // draw never correlates with a straggler draw at the same launch.
    const uint64_t seq = seq_[static_cast<int>(FaultKind::Kernel)]++;
    for (const FaultSpec& s : plan_->specs) {
        if (!s.name.empty() && name.find(s.name) == std::string::npos)
            continue;
        if (s.kind == FaultKind::Kernel && fires(s, seq))
            out.fail = true;
        else if (s.kind == FaultKind::Straggler && fires(s, seq))
            out.slowdown *= s.factor;
    }
    return out;
}

bool
FaultInjector::on_alloc()
{
    if (!armed())
        return false;
    const uint64_t seq = seq_[static_cast<int>(FaultKind::Alloc)]++;
    for (const FaultSpec& s : plan_->specs)
        if (s.kind == FaultKind::Alloc && fires(s, seq))
            return true;
    return false;
}

double
FaultInjector::on_comm()
{
    if (!armed())
        return 1.0;
    const uint64_t seq = seq_[static_cast<int>(FaultKind::Comm)]++;
    double factor = 1.0;
    for (const FaultSpec& s : plan_->specs)
        if (s.kind == FaultKind::Comm && fires(s, seq))
            factor *= s.factor;
    return factor;
}

double
FaultInjector::alloc_headroom() const
{
    double headroom = 1.0;
    if (armed())
        for (const FaultSpec& s : plan_->specs)
            if (s.kind == FaultKind::Alloc && s.factor > headroom)
                headroom = s.factor;
    return headroom;
}

}  // namespace astra
