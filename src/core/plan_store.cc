#include "core/plan_store.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "kernels/cost.h"
#include "support/record.h"

namespace astra {

namespace fs = std::filesystem;

uint64_t
fnv1a64(const void* data, size_t len, uint64_t seed)
{
    const auto* p = static_cast<const unsigned char*>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
fnv1a64(std::string_view bytes)
{
    return fnv1a64(bytes.data(), bytes.size(), kFnvOffset);
}

std::string
hash_hex(uint64_t h)
{
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

namespace {

/**
 * Incremental word mixer: each fact of the graph walk feeds in as a
 * fixed-width integer, so the signature depends only on the facts, not
 * on any textual rendering of them. A fact costs one multiply and one
 * shift (a string, one per 8 bytes after its length), where FNV-1a's
 * byte loop paid eight dependent multiplies. Each step is a bijection
 * of the state, so two walks that differ in one fact never collide.
 */
class Hasher
{
  public:
    void
    mix(uint64_t v)
    {
        h_ = (h_ ^ v) * 0x9e3779b97f4a7c15ull;
        h_ ^= h_ >> 32;
    }

    void
    mix(const std::string& s)
    {
        mix(static_cast<uint64_t>(s.size()));
        for (size_t i = 0; i < s.size(); i += 8) {
            uint64_t word = 0;
            __builtin_memcpy(&word, s.data() + i,
                             std::min<size_t>(8, s.size() - i));
            mix(word);
        }
    }

    void
    mix_f64(double v)
    {
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = kFnvOffset;
};

/**
 * One canonical walk over everything a plan depends on, feeding two
 * hashers: `full` sees it all, and `masked` skips dimension values
 * (their rank stays), slice offsets and lengths — the shape-class view
 * under which batch/hidden-width neighbors collide.
 * @return {full, masked} signatures.
 */
std::pair<uint64_t, uint64_t>
graph_signatures(const Graph& graph)
{
    Hasher full, masked;
    const auto both = [&](const auto& v) {
        full.mix(v);
        masked.mix(v);
    };
    both(static_cast<uint64_t>(graph.size()));
    for (const Node& n : graph.nodes()) {
        both(static_cast<uint64_t>(n.kind));
        both(static_cast<uint64_t>(n.inputs.size()));
        for (NodeId in : n.inputs)
            both(static_cast<uint64_t>(in));
        both(static_cast<uint64_t>(n.desc.dtype));
        const auto& dims = n.desc.shape.dims();
        both(static_cast<uint64_t>(dims.size()));
        for (int64_t d : dims)
            full.mix(static_cast<uint64_t>(d));
        both(static_cast<uint64_t>(n.trans_a) |
             static_cast<uint64_t>(n.trans_b) << 1 |
             static_cast<uint64_t>(n.pass) << 2);
        full.mix_f64(static_cast<double>(n.scalar));
        masked.mix_f64(static_cast<double>(n.scalar));
        full.mix(static_cast<uint64_t>(n.offset));
        full.mix(static_cast<uint64_t>(n.length));
        // Scope is enumerator provenance (adjacency runs follow it),
        // so it shapes the search space and belongs in the identity.
        // The debug name does not.
        both(n.scope);
    }
    both(static_cast<uint64_t>(graph.outputs().size()));
    for (NodeId out : graph.outputs())
        both(static_cast<uint64_t>(out));
    return {full.value(), masked.value()};
}

uint64_t
gpu_signature(const GpuConfig& gpu)
{
    // Only the timing model: knobs that perturb measurement (autoboost,
    // faults, tracing, kernel execution) change the exploration's
    // journey, never its converged answer, so they must not fragment
    // the knowledge base.
    Hasher h;
    h.mix(static_cast<uint64_t>(gpu.num_sms));
    h.mix_f64(gpu.flops_per_sm_ns);
    h.mix_f64(gpu.hbm_gbps);
    h.mix_f64(gpu.launch_overhead_ns);
    h.mix_f64(gpu.event_record_ns);
    h.mix_f64(gpu.event_enqueue_ns);
    return h.value();
}

uint64_t
lib_signature()
{
    Hasher h;
    h.mix(static_cast<uint64_t>(kNumGemmLibs));
    for (int lib = 0; lib < kNumGemmLibs; ++lib)
        h.mix(gemm_lib_name(static_cast<GemmLib>(lib)));
    return h.value();
}

constexpr const char* kEntryMagic = "astra-plan-store";
constexpr const char* kEntryVersion = "v2";

/**
 * The first format, still read. It also stored the exploration's
 * mini-batch count, termination reason and profile statistics, which
 * nothing reads.
 */
constexpr const char* kEntryVersionV1 = "v1";

}  // namespace

PlanStoreKey
make_plan_store_key(const Graph& graph, const GpuConfig& gpu)
{
    PlanStoreKey key;
    std::tie(key.graph_sig, key.shape_class) = graph_signatures(graph);
    key.gpu_sig = gpu_signature(gpu);
    key.lib_sig = lib_signature();
    key.total_flops = graph.total_matmul_flops();
    return key;
}

const char*
store_tier_name(StoreTier t)
{
    switch (t) {
      case StoreTier::Miss:
        return "miss";
      case StoreTier::L2:
        return "l2";
      case StoreTier::L1:
        return "l1";
    }
    return "miss";
}

PlanStore::PlanStore(fs::path dir)
    : dir_(std::move(dir))
{
}

std::string
PlanStore::entry_filename(const PlanStoreKey& key)
{
    // shape/gpu/lib lead so the L2 neighbor scan is a prefix match.
    return hash_hex(key.shape_class) + "." + hash_hex(key.gpu_sig) +
           "." + hash_hex(key.lib_sig) + "." + hash_hex(key.graph_sig) +
           ".plan";
}

std::string
PlanStore::entry_to_string(const PlanStoreEntry& entry)
{
    std::ostringstream payload;
    const record::WriteGuard pin_payload(payload);
    payload << "key " << hash_hex(entry.key.graph_sig) << " "
            << hash_hex(entry.key.shape_class) << " "
            << hash_hex(entry.key.gpu_sig) << " "
            << hash_hex(entry.key.lib_sig) << "\n";
    payload << "flops " << entry.key.total_flops << "\n";
    payload << "best_ns " << entry.best_ns << "\n";
    payload << config_to_string(entry.config);
    const std::string body = payload.str();

    std::ostringstream out;
    const record::WriteGuard pin_out(out);
    out << kEntryMagic << " " << kEntryVersion << " " << body.size()
        << " " << hash_hex(fnv1a64(body)) << "\n"
        << body;
    return out.str();
}

namespace {

bool
parse_hash(std::string_view s, uint64_t* out)
{
    if (s.size() != 16)
        return false;
    uint64_t h = 0;
    for (char c : s) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return false;
        h = h << 4 | static_cast<uint64_t>(d);
    }
    *out = h;
    return true;
}

}  // namespace

bool
PlanStore::entry_from_string(std::string_view text, PlanStoreEntry* entry,
                             std::string* error)
{
    // Line 1 is the frame; payload lines follow it in the numbering.
    record::LineReader in(text, error);
    const std::vector<std::string_view>& t = in.tokens();
    if (!in.next() || text.find('\n') == std::string_view::npos)
        return in.fail("missing frame header");
    int64_t declared_len = 0;
    if (t.size() != 4 || t[0] != kEntryMagic ||
        !record::parse_int(t[2], &declared_len, 0))
        return in.fail("bad frame header (expected '", kEntryMagic, " ",
                       kEntryVersion, " <len> <fnv64>')");
    if (t[1] != kEntryVersion && t[1] != kEntryVersionV1)
        return in.fail("unsupported version '", t[1], "'");
    const bool v1 = t[1] == kEntryVersionV1;
    const std::string_view checksum = t[3];
    const std::string_view body = in.rest();
    if (body.size() < static_cast<uint64_t>(declared_len))
        return in.fail("truncated payload (declared ", declared_len,
                       " bytes, got ", body.size(), ")");
    if (body.size() > static_cast<uint64_t>(declared_len))
        return in.fail("trailing bytes after declared payload");
    if (hash_hex(fnv1a64(body)) != checksum)
        return in.fail("checksum mismatch (entry is corrupt)");

    PlanStoreEntry out;
    if (!in.next() || t.size() != 5 || t[0] != "key")
        return in.fail("malformed key line");
    if (!parse_hash(t[1], &out.key.graph_sig) ||
        !parse_hash(t[2], &out.key.shape_class) ||
        !parse_hash(t[3], &out.key.gpu_sig) ||
        !parse_hash(t[4], &out.key.lib_sig))
        return in.fail("malformed key hash");

    for (const auto& [tag, v] : {std::pair{"flops", &out.key.total_flops},
                                 std::pair{"best_ns", &out.best_ns}}) {
        if (!in.next())
            return in.fail("missing ", tag, " line");
        if (t.size() != 2 || t[0] != tag)
            return in.fail("malformed ", tag, " line");
        if (!record::parse_finite(t[1], v))
            return in.fail("malformed ", tag, " value '", t[1], "'");
    }
    // The rest of the payload is the config section. A v1 payload has
    // two lines before it and a profile section after it: check their
    // tags, split at the profile header line and drop the profile
    // bytes unparsed (the checksum already covered them).
    std::string_view config_text = in.rest();
    if (v1) {
        for (const char* tag : {"minibatches", "termination"})
            if (!in.next() || t.size() != 2 || t[0] != tag)
                return in.fail("malformed ", tag, " line");
        config_text = in.rest();
        size_t split = std::string_view::npos;
        if (config_text.starts_with("astra-profile v1\n"))
            split = 0;
        else if (const size_t at =
                     config_text.find("\nastra-profile v1\n");
                 at != std::string_view::npos)
            split = at + 1;
        if (split == std::string_view::npos) {
            in.next();  // the section was due on the next line
            return in.fail("missing profile section");
        }
        config_text = config_text.substr(0, split);
    }
    std::string sub_error;
    if (!config_from_string(config_text, &out.config, &sub_error))
        return in.fail("config section: ", sub_error);

    *entry = std::move(out);
    return true;
}

bool
PlanStore::write_file(const fs::path& path, const std::string& text,
                      std::string* error) const
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    // Temp + atomic rename: readers never observe a partial entry, and
    // the last concurrent writer wins whole. The temp name must be
    // unique per writer — a path-derived name would let two concurrent
    // writers (threads or processes) open the SAME temp file, so after
    // one renames it live the other keeps appending into the now-live
    // inode, tearing the entry for every peer that loads it.
    static std::atomic<uint64_t> write_seq{0};
    const uint64_t nonce =
        fnv1a64(path.string()) ^
        (static_cast<uint64_t>(::getpid()) << 32) ^
        write_seq.fetch_add(1, std::memory_order_relaxed);
    const fs::path tmp = path.string() + ".tmp." + hash_hex(nonce);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os || !(os << text) || !os.flush()) {
            if (error != nullptr)
                *error = "cannot write " + tmp.string();
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        if (error != nullptr)
            *error = "cannot rename " + tmp.string() + ": " +
                     ec.message();
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

bool
PlanStore::read_entry_file(const fs::path& path, PlanStoreEntry* entry,
                           std::string* error) const
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error != nullptr)
            *error = path.filename().string() + ": cannot open";
        return false;
    }
    std::ostringstream os;
    os << is.rdbuf();
    std::string sub_error;
    if (!entry_from_string(os.str(), entry, &sub_error)) {
        if (error != nullptr)
            *error = path.filename().string() + ": " + sub_error;
        return false;
    }
    return true;
}

bool
PlanStore::put(const PlanStoreEntry& entry, std::string* error)
{
    return write_file(dir_ / entry_filename(entry.key),
                      entry_to_string(entry), error);
}

StoreLookup
PlanStore::lookup(const PlanStoreKey& key) const
{
    StoreLookup out;

    // L1: exact entry.
    const fs::path exact = dir_ / entry_filename(key);
    std::error_code ec;
    if (fs::exists(exact, ec)) {
        std::string error;
        if (read_entry_file(exact, &out.entry, &error) &&
            out.entry.key == key) {
            out.tier = StoreTier::L1;
            return out;
        }
        if (!error.empty())
            out.errors.push_back(error);
        else
            out.errors.push_back(exact.filename().string() +
                                 ": key mismatch (hash collision?)");
    }

    // L2: same shape class / device / libraries, different graph.
    // Deterministic choice: nearest |log flops ratio|, ties to the
    // lexicographically first filename (directory order is not stable
    // across filesystems, so sort explicitly).
    const std::string prefix = hash_hex(key.shape_class) + "." +
                               hash_hex(key.gpu_sig) + "." +
                               hash_hex(key.lib_sig) + ".";
    std::vector<std::string> names;
    if (fs::is_directory(dir_, ec))
        for (const auto& de : fs::directory_iterator(dir_, ec)) {
            const std::string name = de.path().filename().string();
            if (name.size() == prefix.size() + 16 + 5 &&
                name.rfind(prefix, 0) == 0 &&
                name.compare(name.size() - 5, 5, ".plan") == 0 &&
                name != entry_filename(key))
                names.push_back(name);
        }
    std::sort(names.begin(), names.end());
    PlanStoreEntry best_entry;
    double best_dist = 0.0;
    bool have = false;
    for (const std::string& name : names) {
        PlanStoreEntry candidate;
        std::string error;
        if (!read_entry_file(dir_ / name, &candidate, &error)) {
            out.errors.push_back(error);
            continue;
        }
        const double dist =
            (candidate.key.total_flops > 0.0 && key.total_flops > 0.0)
                ? std::abs(std::log(candidate.key.total_flops /
                                    key.total_flops))
                : 0.0;
        if (!have || dist < best_dist) {
            have = true;
            best_dist = dist;
            best_entry = std::move(candidate);
        }
    }
    if (have) {
        out.entry = std::move(best_entry);
        out.tier = StoreTier::L2;
    }
    return out;
}

std::string
plan_store_dir_from_env()
{
    const char* dir = std::getenv("ASTRA_PLAN_STORE");
    return dir != nullptr ? dir : "";
}

}  // namespace astra
