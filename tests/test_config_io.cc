/**
 * @file
 * Tests for configuration persistence: round-trip fidelity, rejection
 * of malformed input, and the end-to-end restart story — a reloaded
 * configuration reproduces the tuned mini-batch time exactly.
 */
#include <gtest/gtest.h>

#include <string>

#include "core/astra.h"
#include "core/config_io.h"
#include "models/models.h"
#include "tests/util.h"

namespace astra {
namespace {

using testutil::CommaDecimal;
using testutil::ScopedGlobalLocale;

TEST(ConfigIo, RoundTripAllFields)
{
    ScheduleConfig cfg;
    cfg.strategy = 2;
    cfg.elementwise_fusion = false;
    cfg.use_streams = true;
    cfg.num_streams = 3;
    cfg.group_chunk = {1, 4, 2};
    cfg.group_lib = {GemmLib::Oai1, GemmLib::Cublas, GemmLib::Oai2};
    cfg.single_lib[17] = GemmLib::Oai2;
    cfg.single_lib[99] = GemmLib::Cublas;
    cfg.epoch_choice[{0, 2}] = 3;
    cfg.epoch_choice[{4, 0}] = 1;

    ScheduleConfig back;
    ASSERT_TRUE(config_from_string(config_to_string(cfg), &back));
    EXPECT_EQ(back.strategy, 2);
    EXPECT_FALSE(back.elementwise_fusion);
    EXPECT_TRUE(back.use_streams);
    EXPECT_EQ(back.num_streams, 3);
    EXPECT_EQ(back.group_chunk, cfg.group_chunk);
    EXPECT_EQ(back.group_lib, cfg.group_lib);
    EXPECT_EQ(back.single_lib, cfg.single_lib);
    EXPECT_EQ(back.epoch_choice, cfg.epoch_choice);
}

TEST(ConfigIo, RoundTripEmptyConfig)
{
    ScheduleConfig cfg;
    ScheduleConfig back;
    ASSERT_TRUE(config_from_string(config_to_string(cfg), &back));
    EXPECT_EQ(back.strategy, 0);
    EXPECT_TRUE(back.group_chunk.empty());
    EXPECT_TRUE(back.epoch_choice.empty());
}

TEST(ConfigIo, RejectsMalformedInput)
{
    ScheduleConfig cfg;
    cfg.strategy = 7;
    ScheduleConfig probe = cfg;
    EXPECT_FALSE(config_from_string("", &probe));
    EXPECT_FALSE(config_from_string("not-a-config\n", &probe));
    EXPECT_FALSE(config_from_string(
        "astra-config v1\nbogus_key 3\n", &probe));
    EXPECT_FALSE(config_from_string(
        "astra-config v1\ngroup_lib 99\n", &probe));
    EXPECT_FALSE(config_from_string(
        "astra-config v1\nsingle_lib nocolon\n", &probe));
    // Failed parses leave the destination untouched.
    EXPECT_EQ(probe.strategy, 7);
}

TEST(ConfigIo, MalformedNumbersReturnFalseNeverThrow)
{
    // Config files are untrusted input: a corrupted token must fail
    // the load, never escape as std::invalid_argument/out_of_range.
    const char* cases[] = {
        "astra-config v1\nsingle_lib x:y\n",
        "astra-config v1\nsingle_lib :\n",
        "astra-config v1\nsingle_lib 5:\n",
        "astra-config v1\nsingle_lib :2\n",
        "astra-config v1\nsingle_lib 5:two\n",
        "astra-config v1\nsingle_lib -1:0\n",
        "astra-config v1\nsingle_lib 5:3\n",  // lib out of range
        "astra-config v1\nsingle_lib 99999999999999999999:0\n",
        "astra-config v1\nsingle_lib 5:99999999999999999999\n",
        "astra-config v1\nepoch_choice 1,:2\n",
        "astra-config v1\nepoch_choice ,1:2\n",
        "astra-config v1\nepoch_choice 1,2\n",   // no colon
        "astra-config v1\nepoch_choice 1:2,3\n", // colon before comma
        "astra-config v1\nepoch_choice a,b:c\n",
        "astra-config v1\nepoch_choice 1,99999999999999999999:2\n",
        // Trailing junk and extra values are corrupt, not ignored.
        "astra-config v1\nstrategy 1x\n",
        "astra-config v1\ngroup_chunk 4 x 8\n",
        "astra-config v1\ngroup_lib 1 junk 2\n",
        "astra-config v1\nnum_streams 2 3\n",
        "astra-config v1\nuse_streams 7abc\n",
    };
    for (const char* text : cases) {
        ScheduleConfig probe;
        EXPECT_NO_THROW(
            EXPECT_FALSE(config_from_string(text, &probe)) << text);
    }
}

TEST(ConfigIo, FailureDiagnosisNamesTheLine)
{
    // Loaders are fed untrusted files; the CLI surfaces the returned
    // error verbatim, so it must carry the line and the reason.
    ScheduleConfig probe;
    std::string error;
    EXPECT_FALSE(config_from_string(
        "astra-config v1\nstrategy 1\nbogus_key 3\n", &probe, &error));
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
    EXPECT_NE(error.find("bogus_key"), std::string::npos) << error;

    error.clear();
    EXPECT_FALSE(config_from_string("not-a-config\n", &probe, &error));
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(ConfigIo, RejectsStreamCountBelowOne)
{
    // A zero stream count used to load and then abort the scheduler's
    // stream-space build. Config files, plan-store entries and what-if
    // traces all parse through here.
    for (const char* count : {"0", "-3"}) {
        ScheduleConfig probe;
        std::string error;
        EXPECT_FALSE(config_from_string(
            std::string("astra-config v1\nstrategy 0\nuse_streams 1\n"
                        "num_streams ") +
                count + "\n",
            &probe, &error))
            << count;
        EXPECT_NE(error.find("line 4"), std::string::npos) << error;
        EXPECT_NE(error.find("num_streams"), std::string::npos) << error;
    }
    ScheduleConfig one;
    EXPECT_TRUE(config_from_string("astra-config v1\nnum_streams 1\n", &one));
    EXPECT_EQ(one.num_streams, 1);
}

TEST(CheckpointIo, RoundTripIsBitExact)
{
    WirerCheckpoint cp;
    cp.strategies.resize(2);
    DispatchRecord r0;
    r0.total_ns = 1.0 / 3.0;  // not representable in decimal
    r0.clock_multiplier = 1.0 + 0.12 * (1.0 / 7.0);
    r0.profile = {{"g0", 12345.678901234567}, {"fmm.x2.%5.oai_1", 0.1}};
    DispatchRecord r1;
    r1.total_ns = 9.87654e12;
    r1.faulted = true;
    r1.fault_attempts = 3;
    r1.faults_seen = 5;
    r1.straggler_events = 2;
    r1.backoff_ns = 50.0 * 1e3 * 7.0;
    cp.strategies[0] = {r0, r1};
    // Strategy 1 left empty: shards may not have dispatched yet.

    WirerCheckpoint back;
    ASSERT_TRUE(checkpoint_from_string(checkpoint_to_string(cp), &back));
    ASSERT_EQ(back.strategies.size(), 2u);
    ASSERT_EQ(back.strategies[0].size(), 2u);
    EXPECT_TRUE(back.strategies[1].empty());
    const DispatchRecord& b0 = back.strategies[0][0];
    EXPECT_EQ(b0.total_ns, r0.total_ns);  // bit-exact, not NEAR
    EXPECT_EQ(b0.clock_multiplier, r0.clock_multiplier);
    EXPECT_FALSE(b0.faulted);
    ASSERT_EQ(b0.profile.size(), 2u);
    EXPECT_EQ(b0.profile[0].first, "g0");
    EXPECT_EQ(b0.profile[0].second, r0.profile[0].second);
    EXPECT_EQ(b0.profile[1].first, "fmm.x2.%5.oai_1");
    EXPECT_EQ(b0.profile[1].second, 0.1);
    const DispatchRecord& b1 = back.strategies[0][1];
    EXPECT_EQ(b1.total_ns, r1.total_ns);
    EXPECT_TRUE(b1.faulted);
    EXPECT_EQ(b1.fault_attempts, 3);
    EXPECT_EQ(b1.faults_seen, 5);
    EXPECT_EQ(b1.straggler_events, 2);
    EXPECT_EQ(b1.backoff_ns, r1.backoff_ns);
}

TEST(CheckpointIo, RoundTripEmpty)
{
    WirerCheckpoint cp;
    EXPECT_TRUE(cp.empty());
    WirerCheckpoint back;
    ASSERT_TRUE(checkpoint_from_string(checkpoint_to_string(cp), &back));
    EXPECT_TRUE(back.empty());
}

TEST(CheckpointIo, RejectsMalformedInput)
{
    WirerCheckpoint probe;
    probe.strategies.resize(3);  // canary
    const char* cases[] = {
        "",
        "not-a-checkpoint\n",
        "astra-checkpoint v2\nstrategies 0\n",
        "astra-checkpoint v1\nstrategies x\n",
        "astra-checkpoint v1\nstrategies 1\n",  // missing strategy line
        "astra-checkpoint v1\nstrategies 1\nstrategy 1 0\n",  // sid wrong
        "astra-checkpoint v1\nstrategies 1\nstrategy 0 1\n",  // no record
        "astra-checkpoint v1\nstrategies 1\nstrategy 0 1\n"
        "record zzz 0x1p+0 0 0 0 0 0x0p+0 0\n",
        "astra-checkpoint v1\nstrategies 1\nstrategy 0 1\n"
        "record 0x1p+0 0x1p+0 0 0 0 0 0x0p+0 1\n",  // missing prof
        "astra-checkpoint v1\nstrategies 1\nstrategy 0 1\n"
        "record 0x1p+0 0x1p+0 0 0 0 0 0x0p+0 1\nprof nope key\n",
        // Declared counts must not size an allocation.
        "astra-checkpoint v1\nstrategies 999999999999999\n",
        "astra-checkpoint v1\nstrategies 1\nstrategy 0 999999999999999\n",
        "astra-checkpoint v1\nstrategies 1\nstrategy 0 1\n"
        "record 0x1p+0 0x1p+0 0 0 0 0 0x0p+0 999999999999999\n",
    };
    for (const char* text : cases) {
        WirerCheckpoint copy = probe;
        EXPECT_FALSE(checkpoint_from_string(text, &copy)) << text;
        EXPECT_EQ(copy.strategies.size(), 3u) << text;  // untouched
    }
}

TEST(ConfigIo, RestartReproducesTunedTime)
{
    const BuiltModel m =
        build_model(ModelKind::Scrnn,
                    {.batch = 8, .seq_len = 4, .hidden = 32,
                     .embed_dim = 32, .vocab = 50});
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    // Exact reproduction requires base clock (§4.1) — pin it so the
    // CI noise job doesn't inject jitter between the two sessions.
    opts.gpu.autoboost = false;
    AstraSession session(m.graph(), opts);
    const WirerResult r = session.optimize();

    // "Restart": a fresh session + the persisted configuration.
    const std::string saved = config_to_string(r.best_config);
    AstraSession restarted(m.graph(), opts);
    ScheduleConfig loaded;
    ASSERT_TRUE(config_from_string(saved, &loaded));
    EXPECT_DOUBLE_EQ(restarted.run(loaded).total_ns, r.best_ns);
}

TEST(ConfigIo, RoundTripsUnderCommaDecimalGlobalLocale)
{
    // A checkpoint written on one host must load on a host whose
    // global locale writes "1,5" for 1.5 and groups thousands as
    // "1.234": the persistence layer pins the classic locale on its
    // own streams and parses numbers with std::from_chars, so the
    // ambient locale must not matter in either direction.
    const ScopedGlobalLocale guard(
        std::locale(std::locale::classic(), new CommaDecimal));

    ScheduleConfig cfg;
    cfg.strategy = 1;
    cfg.num_streams = 2;
    cfg.group_chunk = {1234, 4};  // > 3 digits: grouping bait
    cfg.group_lib = {GemmLib::Cublas, GemmLib::Oai1};
    cfg.single_lib[1001] = GemmLib::Oai2;
    cfg.epoch_choice[{0, 1}] = 2;
    ScheduleConfig cback;
    std::string error;
    ASSERT_TRUE(config_from_string(config_to_string(cfg), &cback, &error))
        << error;
    EXPECT_EQ(cback.group_chunk, cfg.group_chunk);
    EXPECT_EQ(cback.single_lib, cfg.single_lib);
    EXPECT_EQ(config_to_string(cback), config_to_string(cfg));

    WirerCheckpoint cp;
    cp.strategies.resize(1);
    DispatchRecord r;
    r.total_ns = 1234567.25;
    r.clock_multiplier = 1.0 + 1.0 / 7.0;
    r.profile = {{"g0", 1.0 / 3.0}};
    cp.strategies[0] = {r};
    WirerCheckpoint wback;
    ASSERT_TRUE(checkpoint_from_string(checkpoint_to_string(cp), &wback,
                                       &error))
        << error;
    EXPECT_EQ(wback.strategies[0][0].total_ns, r.total_ns);
    EXPECT_EQ(wback.strategies[0][0].clock_multiplier,
              r.clock_multiplier);
    EXPECT_EQ(wback.strategies[0][0].profile[0].second, 1.0 / 3.0);
}

}  // namespace
}  // namespace astra
