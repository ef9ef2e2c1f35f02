/**
 * @file
 * Dynamic-shape demo (paper §5.5): variable-length inputs break the
 * mini-batch-predictability assumption, so Astra buckets the lengths,
 * explores each bucket independently (profile keys prefixed with the
 * bucket id), and serves every mini-batch from the smallest covering
 * bucket.
 *
 * Usage: dynamic_buckets [minibatches]
 */
#include <iostream>

#include "core/bucketed.h"
#include "models/data.h"
#include "models/models.h"
#include "support/record.h"
#include "support/stats.h"
#include "support/table.h"

using namespace astra;

int
main(int argc, char** argv)
{
    const int minibatches =
        argc > 1 ? static_cast<int>(
                       record::int_arg("minibatches", argv[1], 1, 1000000))
                 : 50;

    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.features = features_fk();

    const std::vector<int> buckets = {4, 6, 8, 12, 20};
    BucketedAstra bucketed(
        buckets,
        [](GraphBuilder& b, int length) {
            ModelConfig cfg;
            cfg.batch = 16;
            cfg.seq_len = length;
            cfg.hidden = 128;
            cfg.embed_dim = 128;
            cfg.vocab = 500;
            BuiltModel m = build_model(ModelKind::Scrnn, cfg);
            b = std::move(*m.builder);
        },
        opts);

    std::cout << "exploring " << buckets.size() << " buckets...\n";
    const int64_t explored = bucketed.optimize();
    std::cout << "total exploration mini-batches: " << explored << "\n";

    TextTable per_bucket("Per-bucket tuned mini-batch time");
    per_bucket.set_header({"bucket length", "tuned ms"});
    for (size_t i = 0; i < buckets.size(); ++i)
        per_bucket.add_row(std::to_string(buckets[i]),
                           {bucketed.bucket_best_ns(static_cast<int>(i)) /
                            1e6});
    per_bucket.print();

    // Steady state over a PTB-like length stream.
    Rng rng(11);
    RunningStats stats;
    std::map<int, int> hits;
    for (int i = 0; i < minibatches; ++i) {
        const int len = std::max(2, sample_ptb_length(rng) / 4);
        ++hits[bucketed.bucket_for(len)];
        stats.add(bucketed.step_ns(len));
    }
    TextTable table("Steady state over " + std::to_string(minibatches) +
                    " variable-length mini-batches");
    table.set_header({"metric", "value"});
    table.add_row({"mean mini-batch ms",
                   TextTable::fmt(stats.mean() / 1e6, 3)});
    table.add_row({"min / max ms",
                   TextTable::fmt(stats.min() / 1e6, 3) + " / " +
                       TextTable::fmt(stats.max() / 1e6, 3)});
    std::string dist;
    for (const auto& [bucket, count] : hits)
        dist += "b" + std::to_string(buckets[static_cast<size_t>(
                    bucket)]) + ":" + std::to_string(count) + " ";
    table.add_row({"bucket hit counts", dist});
    table.print();
    return 0;
}
