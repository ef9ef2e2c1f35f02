#include "serve/server.h"

#include <string>
#include <utility>

#include "core/config_io.h"
#include "core/plan_store.h"
#include "obs/obs.h"
#include "support/logging.h"

namespace astra::serve {

namespace {

/** Owns the graph + session a re-wired blob was lowered against. */
struct RewireState
{
    std::unique_ptr<GraphBuilder> builder;
    std::unique_ptr<AstraSession> session;
};

/**
 * Lower a session's winner into a plan revision through the
 * scheduler's wired cache: verify_wired runs inside, so an illegal
 * lowering fails here, not mid-serve.
 */
BucketedServer::BucketPlan
lowered_plan(const AstraSession& s, const WirerResult& r,
             const GpuConfig& gpu)
{
    BucketedServer::BucketPlan p;
    p.binary = s.scheduler().wire_cached(
        r.best_config, s.tensor_map(r.best_config.strategy), gpu);
    p.config = r.best_config;
    p.config_fnv = fnv1a64(config_to_string(r.best_config));
    p.baseline_ns = r.best_ns;
    return p;
}

}  // namespace

BucketedServer::BucketedServer(ServeOptions opts)
    : opts_(std::move(opts))
{
    ASTRA_ASSERT(!opts_.bucket_lengths.empty());
    ASTRA_ASSERT(opts_.max_batch > 0);
    router_ = std::make_unique<BucketedAstra>(opts_.bucket_lengths,
                                              opts_.build, opts_.astra);
}

BucketedServer::~BucketedServer() = default;

int64_t
BucketedServer::optimize(std::vector<BucketPlan>* plans)
{
    obs::ScopedSpan span(obs::Category::Serve, "serve.optimize");
    plans->clear();
    // The router owns the sessions; no extra retention needed. Each
    // bucket is lowered as soon as it has explored: a one-strategy
    // exploration keeps its winner's plan skeleton until the lowering
    // (Scheduler::wire_cached), so one bucket's is alive at a time.
    return router_->optimize([&](int i) {
        plans->push_back(lowered_plan(router_->session(i),
                                      router_->bucket_result(i),
                                      opts_.astra.gpu));
    });
}

BucketedServer::BucketPlan
BucketedServer::rewire(int bucket, const GpuConfig& gpu) const
{
    obs::ScopedSpan span(obs::Category::Serve, "serve.rewire");
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(opts_.bucket_lengths.size()));
    const int len =
        opts_.bucket_lengths[static_cast<size_t>(bucket)];

    auto state = std::make_shared<RewireState>();
    state->builder = std::make_unique<GraphBuilder>();
    opts_.build(*state->builder, len);

    AstraOptions o = opts_.astra;
    o.gpu = gpu;
    // The plan store keys the bucket's entry by its graph and device,
    // so the stale entry L1-hits (gpu_sig ignores the forced
    // multiplier), its verification mini-batch — measured on the
    // *throttled* device — drifts past kStoreDriftRel, and optimize()
    // demotes into a warm start that reuses that measurement and
    // writes the re-explored winner back.
    state->session =
        std::make_unique<AstraSession>(state->builder->graph(), o);
    const WirerResult r = state->session->optimize();

    BucketPlan p = lowered_plan(*state->session, r, gpu);
    p.retain = std::move(state);
    return p;
}

}  // namespace astra::serve
