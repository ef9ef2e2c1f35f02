/**
 * @file
 * Tests for the persistent plan knowledge base: key
 * canonicalization, bit-exact entry round-trips, rejection of corrupt
 * or truncated entries (never a silent accept), the L1/L2 lookup
 * ladder, the checked-in v1 and v2 compatibility fixtures, and the
 * end-to-end warm-start story — a second process reuses a stored plan
 * for the price of one measured mini-batch, bit-identical to the cold
 * winner, a shape neighbor explores only its residual space, and a
 * store that knows only other shape classes changes nothing. Only
 * clean measurements enter the store or verify an entry.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/astra.h"
#include "core/config_io.h"
#include "core/plan_store.h"
#include "graph/builder.h"
#include "models/models.h"
#include "tests/util.h"

namespace astra {
namespace {

namespace fs = std::filesystem;

/** Fresh per-test store directory under the test temp dir. */
fs::path
fresh_store_dir(const std::string& name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

BuiltModel
small_scrnn(int64_t hidden, int64_t seq = 4)
{
    return build_model(ModelKind::Scrnn,
                       {.batch = 8, .seq_len = seq, .hidden = hidden,
                        .embed_dim = hidden, .vocab = 50});
}

/** A representative entry exercising every serialized field. */
PlanStoreEntry
sample_entry()
{
    PlanStoreEntry e;
    e.key = {0x1111, 0x2222, 0x3333, 0x4444, 1.5e9};
    e.config.strategy = 1;
    e.config.elementwise_fusion = false;
    e.config.use_streams = true;
    e.config.num_streams = 3;
    e.config.group_chunk = {1, 4, 2};
    e.config.group_lib = {GemmLib::Oai2, GemmLib::Oai2, GemmLib::Cublas};
    e.config.single_lib[17] = GemmLib::Oai1;
    e.config.epoch_choice[{0, 2}] = 3;
    e.best_ns = 1.0 / 3.0;  // not representable in decimal
    return e;
}

void
expect_entries_equal(const PlanStoreEntry& a, const PlanStoreEntry& b)
{
    EXPECT_TRUE(a.key == b.key);
    EXPECT_EQ(a.key.total_flops, b.key.total_flops);  // bit-exact
    EXPECT_EQ(config_to_string(a.config), config_to_string(b.config));
    EXPECT_EQ(a.best_ns, b.best_ns);
}

#ifdef ASTRA_TEST_DATA_DIR
/** A checked-in fixture file, read whole. */
std::string
read_fixture(const std::string& set, const std::string& name)
{
    const fs::path path = fs::path(ASTRA_TEST_DATA_DIR) / set / name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing fixture " << path;
    return std::string(std::istreambuf_iterator<char>(in), {});
}
#endif

TEST(PlanStoreKey, SameGraphSameKey)
{
    const BuiltModel a = small_scrnn(32);
    const BuiltModel b = small_scrnn(32);
    GpuConfig gpu;
    EXPECT_TRUE(make_plan_store_key(a.graph(), gpu) ==
                make_plan_store_key(b.graph(), gpu));
}

TEST(PlanStoreKey, WidthNeighborSharesShapeClassNotGraphSig)
{
    GpuConfig gpu;
    const PlanStoreKey k32 =
        make_plan_store_key(small_scrnn(32).graph(), gpu);
    const PlanStoreKey k48 =
        make_plan_store_key(small_scrnn(48).graph(), gpu);
    EXPECT_NE(k32.graph_sig, k48.graph_sig);
    EXPECT_EQ(k32.shape_class, k48.shape_class);
    EXPECT_EQ(k32.gpu_sig, k48.gpu_sig);
    EXPECT_EQ(k32.lib_sig, k48.lib_sig);
    EXPECT_LT(k32.total_flops, k48.total_flops);
}

TEST(PlanStoreKey, SeqLenChangesShapeClass)
{
    // A longer sequence unrolls to more nodes: a structurally
    // different graph, not a shape neighbor (documented limit).
    GpuConfig gpu;
    EXPECT_NE(make_plan_store_key(small_scrnn(32, 4).graph(), gpu)
                  .shape_class,
              make_plan_store_key(small_scrnn(32, 6).graph(), gpu)
                  .shape_class);
}

TEST(PlanStoreKey, TimingModelChangesGpuSigNoiseKnobsDoNot)
{
    const BuiltModel m = small_scrnn(32);
    GpuConfig gpu;
    const PlanStoreKey base = make_plan_store_key(m.graph(), gpu);

    GpuConfig faster = gpu;
    faster.hbm_gbps = gpu.hbm_gbps * 2;
    EXPECT_NE(base.gpu_sig,
              make_plan_store_key(m.graph(), faster).gpu_sig);

    // Noise/observability knobs perturb the exploration journey, not
    // the converged plan: same device class, same knowledge.
    GpuConfig noisy = gpu;
    noisy.autoboost = !gpu.autoboost;
    noisy.execute_kernels = !gpu.execute_kernels;
    noisy.collect_trace = !gpu.collect_trace;
    EXPECT_EQ(base.gpu_sig,
              make_plan_store_key(m.graph(), noisy).gpu_sig);
}

TEST(PlanStoreEntry, RoundTripBitExact)
{
    const PlanStoreEntry e = sample_entry();
    const std::string text = PlanStore::entry_to_string(e);
    PlanStoreEntry back;
    std::string error;
    ASSERT_TRUE(PlanStore::entry_from_string(text, &back, &error))
        << error;
    expect_entries_equal(e, back);
}

TEST(PlanStoreEntry, EntryHoldsOnlyWhatLookupReads)
{
    // L1 and L2 read the key, the flops distance, best_ns (L1's drift
    // check) and the config. An entry holds exactly those: no
    // exploration statistics, mini-batch count or termination reason.
    const PlanStoreEntry e = sample_entry();
    const std::string text = PlanStore::entry_to_string(e);
    ASSERT_TRUE(text.starts_with("astra-plan-store v2 ")) << text;
    const std::string payload = text.substr(text.find('\n') + 1);
    const size_t config_at = payload.find("astra-config v1\n");
    ASSERT_NE(config_at, std::string::npos) << payload;
    EXPECT_EQ(payload.substr(config_at), config_to_string(e.config));
    std::vector<std::string> tags;
    std::istringstream head(payload.substr(0, config_at));
    for (std::string line; std::getline(head, line);)
        tags.push_back(line.substr(0, line.find(' ')));
    EXPECT_EQ(tags,
              (std::vector<std::string>{"key", "flops", "best_ns"}));
    for (const char* gone : {"minibatches", "termination", "astra-profile"})
        EXPECT_EQ(payload.find(gone), std::string::npos) << gone;
}

TEST(PlanStoreEntry, RejectsCorruptionTruncationAndVersionSkew)
{
    const PlanStoreEntry e = sample_entry();
    const std::string good = PlanStore::entry_to_string(e);

    // Every single-byte flip in the payload must fail the checksum
    // (sample a spread of offsets to keep the test fast).
    const size_t header_end = good.find('\n') + 1;
    for (size_t off = header_end; off < good.size();
         off += 1 + good.size() / 23) {
        std::string bad = good;
        bad[off] ^= 0x20;
        PlanStoreEntry probe;
        std::string error;
        EXPECT_FALSE(PlanStore::entry_from_string(bad, &probe, &error))
            << "flip at offset " << off << " accepted";
        EXPECT_NE(error.find("line"), std::string::npos) << error;
    }

    // Truncation at any point must fail (declared length unsatisfied).
    for (const size_t len :
         {size_t{0}, header_end / 2, header_end, good.size() / 2,
          good.size() - 1}) {
        PlanStoreEntry probe;
        probe.best_ns = 77.0;  // canary
        EXPECT_FALSE(PlanStore::entry_from_string(good.substr(0, len),
                                                  &probe));
        EXPECT_EQ(probe.best_ns, 77.0);  // untouched on failure
    }

    // Trailing garbage is not "close enough".
    PlanStoreEntry probe;
    EXPECT_FALSE(PlanStore::entry_from_string(good + "x", &probe));

    // A future version must be rejected, not misparsed.
    std::string v3 = good;
    v3.replace(v3.find("v2"), 2, "v3");
    EXPECT_FALSE(PlanStore::entry_from_string(v3, &probe));
}

TEST(PlanStore, LadderMissThenL2ThenL1)
{
    const fs::path dir = fresh_store_dir("plan_store_ladder");
    PlanStore store(dir);

    const PlanStoreKey key = sample_entry().key;
    EXPECT_EQ(store.lookup(key).tier, StoreTier::Miss);

    ASSERT_TRUE(store.put(sample_entry()));

    // Exact key: L1, entry returned bit-exact — and via a *fresh*
    // instance, as a second process would see it.
    PlanStore fresh(dir);
    StoreLookup l1 = fresh.lookup(key);
    EXPECT_EQ(l1.tier, StoreTier::L1);
    EXPECT_TRUE(l1.errors.empty());
    expect_entries_equal(sample_entry(), l1.entry);

    // Same shape class / device / libraries, different graph: L2,
    // with the neighbor's entry.
    PlanStoreKey neighbor = key;
    neighbor.graph_sig = 0x9999;
    neighbor.total_flops = 2.5e9;
    StoreLookup l2 = fresh.lookup(neighbor);
    EXPECT_EQ(l2.tier, StoreTier::L2);
    EXPECT_TRUE(sample_entry().key == l2.entry.key);

    // A different shape class on the same device/libraries shares
    // nothing.
    PlanStoreKey other = key;
    other.graph_sig = 0xaaaa;
    other.shape_class = 0xbbbb;
    EXPECT_EQ(fresh.lookup(other).tier, StoreTier::Miss);

    // Nor does a different device class.
    PlanStoreKey elsewhere = other;
    elsewhere.gpu_sig = 0xcccc;
    EXPECT_EQ(fresh.lookup(elsewhere).tier, StoreTier::Miss);
}

TEST(PlanStore, L2PicksNearestNeighborByFlops)
{
    const fs::path dir = fresh_store_dir("plan_store_nearest");
    PlanStore store(dir);
    PlanStoreEntry near = sample_entry();
    near.best_ns = 1.0;  // marker
    near.key.total_flops = 1.0e9;
    PlanStoreEntry far = sample_entry();
    far.best_ns = 2.0;  // marker
    far.key.graph_sig = 0x5555;
    far.key.total_flops = 64.0e9;
    ASSERT_TRUE(store.put(near));
    ASSERT_TRUE(store.put(far));

    PlanStoreKey probe = sample_entry().key;
    probe.graph_sig = 0x7777;
    probe.total_flops = 2.0e9;
    const StoreLookup hit = store.lookup(probe);
    EXPECT_EQ(hit.tier, StoreTier::L2);
    EXPECT_EQ(hit.entry.best_ns, 1.0);
}

TEST(PlanStore, CorruptEntryIsSurfacedNotSilentlyUsed)
{
    const fs::path dir = fresh_store_dir("plan_store_corrupt");
    PlanStore store(dir);
    const PlanStoreEntry e = sample_entry();
    ASSERT_TRUE(store.put(e));

    // Corrupt the entry on disk (flip one payload byte).
    const fs::path path = dir / PlanStore::entry_filename(e.key);
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(in), {});
    }
    text[text.size() - 2] ^= 0x01;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }

    const StoreLookup hit = store.lookup(e.key);
    EXPECT_NE(hit.tier, StoreTier::L1);
    ASSERT_FALSE(hit.errors.empty());
    EXPECT_NE(hit.errors[0].find(".plan"), std::string::npos)
        << hit.errors[0];
}

#ifdef ASTRA_TEST_DATA_DIR
TEST(PlanStoreCompat, GoldenV1FixtureLoads)
{
    // The checked-in fixture was written by the v1 writer when the
    // format was introduced; every future reader must keep loading it.
    // Its mini-batch count, termination and profile section are read
    // past; every field an entry still has must equal the original.
    PlanStoreEntry entry;
    std::string error;
    ASSERT_TRUE(PlanStore::entry_from_string(
        read_fixture("plan_store_v1", "entry.plan"), &entry, &error))
        << error;
    expect_entries_equal(sample_entry(), entry);
}

TEST(PlanStoreCompat, GoldenV2FixtureLoads)
{
    PlanStoreEntry entry;
    std::string error;
    ASSERT_TRUE(PlanStore::entry_from_string(
        read_fixture("plan_store_v2", "entry.plan"), &entry, &error))
        << error;
    expect_entries_equal(sample_entry(), entry);
}

TEST(PlanStoreCompat, GoldenCorruptAndTruncatedFixturesRejected)
{
    for (const char* set : {"plan_store_v1", "plan_store_v2"})
        for (const char* name : {"entry.corrupt", "entry.truncated"}) {
            PlanStoreEntry probe;
            std::string error;
            EXPECT_FALSE(PlanStore::entry_from_string(
                read_fixture(set, name), &probe, &error))
                << set << "/" << name << " accepted";
            EXPECT_FALSE(error.empty()) << set << "/" << name;
        }
}

TEST(PlanStoreCompat, WriterIsByteIdenticalUnderCommaDecimalLocale)
{
    // The writer pins the classic locale: a host whose global locale
    // writes "1,5" and groups "1.234" must write the fixture's bytes,
    // or the entry fails to load there and everywhere else.
    const std::string golden = read_fixture("plan_store_v2", "entry.plan");
    EXPECT_EQ(PlanStore::entry_to_string(sample_entry()), golden);
    const testutil::ScopedGlobalLocale guard(
        std::locale(std::locale::classic(), new testutil::CommaDecimal));
    EXPECT_EQ(PlanStore::entry_to_string(sample_entry()), golden);
}

TEST(PlanStoreCompat, MutatedV1PayloadsLoadOrFailWithLineDiagnostic)
{
    // A v1 entry is outside input the reader still takes. Whatever its
    // payload holds, re-framed so the checksum passes, the reader loads
    // it or names the line; it never aborts. What it loads, the v2
    // writer writes back readably.
    const std::string fixture =
        read_fixture("plan_store_v1", "entry.plan");
    const std::string payload = fixture.substr(fixture.find('\n') + 1);
    const auto frame_v1 = [](const std::string& p) {
        return "astra-plan-store v1 " + std::to_string(p.size()) + " " +
               hash_hex(fnv1a64(p)) + "\n" + p;
    };

    // The reader skips the mini-batch count, the termination reason
    // and the profile section, but still requires each of them.
    PlanStoreEntry probe;
    std::string error;
    for (const std::string tag : {"minibatches", "termination"}) {
        std::string retagged = payload;
        retagged.replace(retagged.find("\n" + tag + " ") + 1, tag.size(),
                         "x");
        EXPECT_FALSE(PlanStore::entry_from_string(frame_v1(retagged),
                                                  &probe, &error));
        EXPECT_NE(error.find("malformed " + tag + " line"),
                  std::string::npos)
            << error;
    }
    EXPECT_FALSE(PlanStore::entry_from_string(
        frame_v1(payload.substr(0, payload.find("astra-profile v1\n"))),
        &probe, &error));
    EXPECT_NE(error.find("missing profile section"), std::string::npos)
        << error;

    std::vector<std::string> mutants;
    for (size_t i = 0; i < payload.size(); ++i)
        if (payload[i] == '\n') {
            mutants.push_back(payload.substr(0, i));
            mutants.push_back(payload.substr(0, i + 1));
        }
    for (const std::string tag : {"\nminibatches ", "\ntermination "}) {
        const size_t at = payload.find(tag) + tag.size();
        const size_t end = payload.find('\n', at);
        for (const char* hostile : {"999999999999999", "-1", "nan", "inf",
                                    "1x", "+1", "0x", "", "a b"})
            mutants.push_back(payload.substr(0, at) + hostile +
                              payload.substr(end));
    }
    Rng rng(17);
    for (int flip = 0; flip < 300; ++flip) {
        std::string m = payload;
        m[rng.next_below(m.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
        mutants.push_back(std::move(m));
    }

    const std::regex diagnostic("line [0-9]+: [\\s\\S]+");
    int accepted = 0;
    int rejected = 0;
    for (const std::string& m : mutants) {
        PlanStoreEntry entry;
        error.clear();
        if (!PlanStore::entry_from_string(frame_v1(m), &entry, &error)) {
            ++rejected;
            EXPECT_TRUE(std::regex_match(error, diagnostic))
                << "rejected without a diagnostic ('" << error
                << "'):\n"
                << m;
            continue;
        }
        ++accepted;
        PlanStoreEntry again;
        ASSERT_TRUE(PlanStore::entry_from_string(
            PlanStore::entry_to_string(entry), &again, &error))
            << error << "\n" << m;
        expect_entries_equal(entry, again);
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}
#endif

TEST(PlanStore, EntryWrittenUnderCommaDecimalLocaleLoads)
{
    // A node id of 1234 written as "1.234", or best_ns with a ','
    // decimal point, would be rejected by a classic-locale reader,
    // losing the entry.
    const fs::path dir = fresh_store_dir("plan_store_comma_locale");
    PlanStoreEntry e = sample_entry();
    e.config.single_lib[1234] = GemmLib::Oai2;  // grouping bait
    {
        const testutil::ScopedGlobalLocale guard(std::locale(
            std::locale::classic(), new testutil::CommaDecimal));
        std::string error;
        ASSERT_TRUE(PlanStore(dir).put(e, &error)) << error;
    }
    const StoreLookup hit = PlanStore(dir).lookup(e.key);
    EXPECT_EQ(hit.tier, StoreTier::L1);
    EXPECT_TRUE(hit.errors.empty());
}

TEST(PlanStoreWarmStart, SecondSessionHitsL1BitIdentical)
{
    const fs::path dir = fresh_store_dir("plan_store_warm");
    const BuiltModel m = small_scrnn(32);
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = false;  // bit-exact reuse needs base clock
    opts.plan_store = dir.string();

    AstraSession cold(m.graph(), opts);
    const WirerResult first = cold.optimize();
    EXPECT_GT(first.minibatches, 10);
    EXPECT_EQ(first.convergence.store_tier, "miss");

    AstraSession warm(m.graph(), opts);
    const WirerResult second = warm.optimize();
    EXPECT_EQ(second.convergence.store_tier, "l1");
    EXPECT_EQ(second.minibatches, 1);
    EXPECT_EQ(config_to_string(second.best_config),
              config_to_string(first.best_config));
    EXPECT_DOUBLE_EQ(second.best_ns, first.best_ns);
}

TEST(PlanStoreWarmStart, L1VerificationDriftDemotesToWarmStart)
{
    const fs::path dir = fresh_store_dir("plan_store_drift");
    const BuiltModel m = small_scrnn(32);
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = false;
    opts.plan_store = dir.string();

    AstraSession cold(m.graph(), opts);
    const WirerResult first = cold.optimize();
    EXPECT_GT(first.minibatches, 1);

    // Poison the stored timing: as if the entry was recorded on a
    // device whose clocks no longer match this one. The entry itself
    // stays structurally valid, so only the verification mini-batch
    // can notice.
    PlanStore store(dir.string());
    const PlanStoreKey key = make_plan_store_key(m.graph(), opts.gpu);
    StoreLookup hit = store.lookup(key);
    ASSERT_EQ(hit.tier, StoreTier::L1);
    hit.entry.best_ns *= 10.0;
    std::string err;
    ASSERT_TRUE(store.put(hit.entry, &err)) << err;

    AstraSession warm(m.graph(), opts);
    const WirerResult second = warm.optimize();
    // Drift beyond kStoreDriftRel must demote the exact hit to a warm
    // start instead of pinning the stale plan.
    EXPECT_EQ(second.convergence.store_tier, "l2");
    EXPECT_GT(second.minibatches, 1);
    EXPECT_EQ(second.convergence.store_drift_demotions, 1);
    bool mentioned = false;
    for (const std::string& e : second.convergence.store_errors)
        mentioned |= e.find("drift") != std::string::npos;
    EXPECT_TRUE(mentioned) << "store_errors must diagnose the drift";

    // The re-wiring writes the refreshed winner back: a third session
    // gets a clean L1 hit again.
    AstraSession third(m.graph(), opts);
    const WirerResult again = third.optimize();
    EXPECT_EQ(again.convergence.store_tier, "l1");
    EXPECT_EQ(again.convergence.store_drift_demotions, 0);
    EXPECT_EQ(again.minibatches, 1);
}

// ---- only clean measurements enter the store -------------------------

/** One matmul, so features_fk explores a single library variable. */
Graph
one_matmul()
{
    GraphBuilder b;
    const NodeId x = b.input({64, 4096});
    const NodeId w = b.param({4096, 1024});
    b.graph().mark_output(b.matmul(x, w));
    return std::move(b.graph());
}

/**
 * Timing-only features_fk at base clock under its own fault plan
 * (empty when `spec` is), never ASTRA_FAULTS, with a store at `dir`.
 */
AstraOptions
store_opts(const fs::path& dir, const char* spec)
{
    AstraOptions o;
    o.features = features_fk();
    o.gpu.execute_kernels = false;
    o.gpu.autoboost = false;
    o.gpu.faults = FaultPlan{};
    if (spec != nullptr) {
        EXPECT_TRUE(FaultPlan::parse(spec, &o.gpu.faults)) << spec;
    }
    o.sched.super_epoch_ns = 150000.0;
    o.plan_store = dir.string();
    return o;
}

/** The fault-free winner's time on one_matmul(). */
constexpr double kOneMatmulBestNs = 100614.11216591937;

bool
mentions(const std::vector<std::string>& errors, const std::string& what)
{
    for (const std::string& e : errors)
        if (e.find(what) != std::string::npos)
            return true;
    return false;
}

TEST(PlanStoreCleanOnly, AllFaultedColdRunWritesNoEntry)
{
    // Every dispatch faults, so no final run measures clean and the
    // winner carries kUnmeasuredNs: nothing is worth storing.
    const fs::path dir = fresh_store_dir("plan_store_all_faulted");
    const Graph g = one_matmul();
    const AstraOptions o = store_opts(dir, "seed=3;retries=2;kernel:p=1");
    AstraSession session(g, o);
    const WirerResult r = session.optimize();
    EXPECT_EQ(r.convergence.store_tier, "miss");
    EXPECT_EQ(r.termination, WirerTermination::FaultQuarantine);
    EXPECT_EQ(r.best_ns, kUnmeasuredNs);
    EXPECT_TRUE(mentions(r.convergence.store_errors, "measured clean"));
    for (const fs::directory_entry& f : fs::directory_iterator(dir))
        EXPECT_NE(f.path().extension(), ".plan") << f.path();
    EXPECT_EQ(PlanStore(dir).lookup(make_plan_store_key(g, o.gpu)).tier,
              StoreTier::Miss);
}

TEST(PlanStoreCleanOnly, QuarantinedLoserStillStoresCleanWinner)
{
    // Only oai_1 faults. The run ends fault_quarantine, but its winner
    // measured clean, so the entry is written and answers at L1.
    const fs::path dir = fresh_store_dir("plan_store_clean_winner");
    const Graph g = one_matmul();
    const AstraOptions o =
        store_opts(dir, "seed=3;retries=2;kernel:name=oai_1,p=1");
    AstraSession cold(g, o);
    const WirerResult first = cold.optimize();
    EXPECT_EQ(first.termination, WirerTermination::FaultQuarantine);
    EXPECT_EQ(first.best_ns, kOneMatmulBestNs);
    EXPECT_EQ(PlanStore(dir).lookup(make_plan_store_key(g, o.gpu))
                  .entry.best_ns,
              kOneMatmulBestNs);

    AstraSession warm(g, o);
    const WirerResult second = warm.optimize();
    EXPECT_EQ(second.convergence.store_tier, "l1");
    EXPECT_EQ(second.minibatches, 1);
    EXPECT_EQ(config_to_string(second.best_config),
              config_to_string(first.best_config));
}

TEST(PlanStoreCleanOnly, FaultedVerificationDemotesAndKeepsStoredTime)
{
    // A verification mini-batch that faults verifies nothing: the hit
    // is demoted like a drifted one, and the all-faulted re-wiring
    // leaves the clean entry in place.
    const fs::path dir = fresh_store_dir("plan_store_faulted_verify");
    const Graph g = one_matmul();
    const AstraOptions clean = store_opts(dir, nullptr);
    AstraSession cold(g, clean);
    EXPECT_EQ(cold.optimize().best_ns, kOneMatmulBestNs);

    AstraSession faulty(g, store_opts(dir, "seed=3;retries=2;kernel:p=1"));
    const WirerResult r = faulty.optimize();
    EXPECT_EQ(r.convergence.store_tier, "l2");
    EXPECT_EQ(r.convergence.store_drift_demotions, 1);
    EXPECT_TRUE(mentions(r.convergence.store_errors, "faulted"));
    // Every mini-batch faulted, the verification included.
    EXPECT_EQ(r.convergence.faults.faulted_minibatches, r.minibatches);
    EXPECT_EQ(r.best_ns, kUnmeasuredNs);

    const StoreLookup hit =
        PlanStore(dir).lookup(make_plan_store_key(g, clean.gpu));
    ASSERT_EQ(hit.tier, StoreTier::L1);
    EXPECT_EQ(hit.entry.best_ns, kOneMatmulBestNs);
}

TEST(PlanStoreWarmStart, WidthNeighborTransfersAtL2)
{
    const fs::path dir = fresh_store_dir("plan_store_l2");
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = false;
    opts.plan_store = dir.string();

    const BuiltModel seen = small_scrnn(32);
    AstraSession first(seen.graph(), opts);
    const WirerResult cold = first.optimize();

    const BuiltModel neighbor = small_scrnn(48);
    AstraSession second(neighbor.graph(), opts);
    const WirerResult warm = second.optimize();
    EXPECT_EQ(warm.convergence.store_tier, "l2");
    EXPECT_GT(warm.convergence.store_transferred_bindings, 0);
    // Transfer must beat cold wiring by a wide margin.
    EXPECT_LT(warm.minibatches * 10, cold.minibatches);

    // Transfer freezes the neighbor's bindings and explores only the
    // residual space, so the config need not be bit-identical to a
    // cold wiring of the neighbor (that is L1's contract, not L2's) —
    // but the transferred plan must be competitive with it.
    AstraOptions no_store = opts;
    no_store.plan_store.clear();
    AstraSession ref(neighbor.graph(), no_store);
    const WirerResult gold = ref.optimize();
    EXPECT_LE(warm.best_ns, gold.best_ns * 1.05);
}

TEST(PlanStoreWarmStart, OtherShapeClassWiresAsIfNoStore)
{
    // An entry for another shape class says nothing about this graph:
    // wiring with the store must match wiring without one.
    const fs::path dir = fresh_store_dir("plan_store_other_class");
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = false;
    opts.plan_store.clear();

    const BuiltModel other = small_scrnn(32, 3);
    PlanStoreEntry stored = sample_entry();  // favours oai_2
    stored.key = make_plan_store_key(other.graph(), opts.gpu);
    ASSERT_TRUE(PlanStore(dir).put(stored));

    const BuiltModel m = small_scrnn(32, 6);
    AstraSession bare(m.graph(), opts);
    const WirerResult gold = bare.optimize();
    opts.plan_store = dir.string();
    AstraSession stocked(m.graph(), opts);
    const WirerResult r = stocked.optimize();

    EXPECT_EQ(r.convergence.store_tier, "miss");
    EXPECT_EQ(config_to_string(r.best_config),
              config_to_string(gold.best_config));
    EXPECT_EQ(r.best_ns, gold.best_ns);
    EXPECT_EQ(r.minibatches, gold.minibatches);
}

// ---- warm starts that explore a residual space -----------------------

/**
 * Wire `kind` at embed 32 into a fresh store, then its embed-48
 * neighbor (hidden 32 both times). The two graphs share a shape class
 * but not their batch groups, so the L2 transfer leaves a residual
 * space for the warm wirer to explore. Fault-free and timing-only, so
 * the pins hold under any ASTRA_FAULTS / ASTRA_SIM_AUTOBOOST. Every
 * strategy's streamed final run reuses stage C's last trial, which
 * measured the same configuration.
 */
std::pair<WirerResult, WirerResult>
cold_then_embed_neighbor(const std::string& name, ModelKind kind,
                         bool normalize_clock, bool autoboost)
{
    AstraOptions opts;
    opts.features = features_all();
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = autoboost;
    opts.gpu.faults = FaultPlan{};
    opts.normalize_clock = normalize_clock;
    opts.wirer_threads = 1;
    opts.plan_store = fresh_store_dir(name).string();
    const auto wire = [&](int64_t embed) {
        const BuiltModel m = build_model(
            kind, {.batch = 8, .seq_len = 4, .hidden = 32,
                   .embed_dim = embed, .vocab = 50});
        AstraSession session(m.graph(), opts);
        return session.optimize();
    };
    WirerResult cold = wire(32);
    return {std::move(cold), wire(48)};
}

std::string
config_fnv(const ScheduleConfig& config)
{
    return hash_hex(fnv1a64(config_to_string(config)));
}

TEST(PlanStoreWarmStart, ScrnnEmbedNeighborExploresResidualSpace)
{
    const auto [cold, warm] = cold_then_embed_neighbor(
        "plan_store_residual_scrnn", ModelKind::Scrnn,
        /*normalize_clock=*/false, /*autoboost=*/false);
    EXPECT_EQ(cold.convergence.store_tier, "miss");
    EXPECT_EQ(cold.minibatches, 385);
    EXPECT_EQ(config_fnv(cold.best_config), "774b10130aee0087");
    EXPECT_EQ(warm.convergence.store_tier, "l2");
    EXPECT_EQ(warm.minibatches, 148);
    EXPECT_EQ(warm.best_ns, 531189.52955196623);
    EXPECT_EQ(config_fnv(warm.best_config), "80b7cb664174d2ce");
}

TEST(PlanStoreWarmStart, SublstmNoiseRobustEmbedNeighborExploresResidualSpace)
{
    const auto [cold, warm] = cold_then_embed_neighbor(
        "plan_store_residual_sublstm", ModelKind::SubLstm,
        /*normalize_clock=*/true, /*autoboost=*/true);
    EXPECT_EQ(cold.convergence.store_tier, "miss");
    EXPECT_EQ(cold.minibatches, 591);
    EXPECT_EQ(config_fnv(cold.best_config), "c2aa5aa4599c38b6");
    EXPECT_EQ(warm.convergence.store_tier, "l2");
    EXPECT_EQ(warm.minibatches, 109);
    // The streamed winner's time is stage C's last trial, reused: its
    // own clock draw, normalized.
    EXPECT_EQ(warm.best_ns, 1140258.6584615265);
    EXPECT_EQ(config_fnv(warm.best_config), "d2ad9179f25bafd2");
}

// ---- crash-safe / multi-writer atomicity -----------------------------

TEST(PlanStoreAtomicity, ConcurrentPutsNeverTearAnEntry)
{
    // Regression for the shared-temp-file hazard: with a path-derived
    // temp name, two concurrent writers of the same key open the SAME
    // temp file; after one renames it live, the other keeps appending
    // into the now-live inode, and every peer loads a torn entry.
    // Unique per-writer temp names make the last whole write win.
    const fs::path dir = fresh_store_dir("plan_store_concurrent");

    constexpr int kWriters = 4;
    constexpr int kRounds = 25;
    std::vector<std::thread> writers;
    std::atomic<int> put_failures{0};
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            PlanStore store(dir);  // one instance per "process"
            for (int i = 0; i < kRounds; ++i) {
                PlanStoreEntry e = sample_entry();
                e.best_ns = w * 1000 + i;  // writer-tagged payload
                std::string err;
                if (!store.put(e, &err))
                    put_failures.fetch_add(1);
            }
        });
    }
    // A concurrent reader must only ever observe Miss (before the
    // first rename lands) or a whole, checksum-valid entry.
    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    std::thread reader([&] {
        PlanStore store(dir);
        const PlanStoreKey key = sample_entry().key;
        while (!stop.load(std::memory_order_relaxed)) {
            const StoreLookup l = store.lookup(key);
            if (!l.errors.empty())
                torn.fetch_add(1);
        }
    });
    for (auto& t : writers)
        t.join();
    stop.store(true);
    reader.join();

    EXPECT_EQ(put_failures.load(), 0);
    EXPECT_EQ(torn.load(), 0);

    // The surviving entry is whole and carries one writer's tag.
    PlanStore fresh(dir);
    const StoreLookup final_hit = fresh.lookup(sample_entry().key);
    ASSERT_EQ(final_hit.tier, StoreTier::L1);
    EXPECT_TRUE(final_hit.errors.empty());
    const int tag = static_cast<int>(final_hit.entry.best_ns);
    EXPECT_GE(tag % 1000, 0);
    EXPECT_LT(tag % 1000, kRounds);
    EXPECT_LT(tag / 1000, kWriters);

    // No temp residue: every writer either renamed or cleaned up.
    for (const auto& f : fs::directory_iterator(dir))
        EXPECT_EQ(f.path().string().find(".tmp."), std::string::npos)
            << f.path();
}

TEST(PlanStoreAtomicity, CrashedWriterLeavesStoreReadableAndWritable)
{
    // A writer that dies between temp-write and rename leaves a
    // *.tmp.* orphan (possibly a partial prefix of a valid entry).
    // The ladder must not read it, and later writers are unaffected.
    const fs::path dir = fresh_store_dir("plan_store_crashed");
    PlanStore store(dir);

    const std::string name =
        PlanStore::entry_filename(sample_entry().key);
    const std::string whole =
        PlanStore::entry_to_string(sample_entry());
    {
        std::ofstream os(dir / (name + ".tmp.deadbeefdeadbeef"),
                         std::ios::binary);
        os << whole.substr(0, whole.size() / 2);  // died mid-write
    }

    // The orphan is invisible at every tier (its name is not an entry
    // filename, so even the L2 directory scan skips it).
    StoreLookup l = store.lookup(sample_entry().key);
    EXPECT_EQ(l.tier, StoreTier::Miss);
    EXPECT_TRUE(l.errors.empty());

    // And a healthy writer simply supersedes the wreckage.
    ASSERT_TRUE(store.put(sample_entry()));
    l = store.lookup(sample_entry().key);
    ASSERT_EQ(l.tier, StoreTier::L1);
    expect_entries_equal(sample_entry(), l.entry);
}

}  // namespace
}  // namespace astra
