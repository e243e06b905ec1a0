// eco-100k: incremental timing on a seeded synth100k-shaped circuit with
// 4 threads and no selector. One operation is a seeded batch of random
// resizes committed with Context::apply_resizes, then refresh_ssta; a
// warm full run_ssta every few operations is both a latency sample and
// the bitwise check of the incremental arrivals.
#include <memory>
#include <string>
#include <vector>

#include "api/detail.hpp"
#include "api/statim.hpp"
#include "bench.hpp"
#include "core/context.hpp"
#include "util/rng.hpp"

namespace e2e {
namespace {

using namespace statim;

constexpr std::size_t kThreads = 4;
constexpr double kDeltaW = 0.25;

struct Sink {
    std::int64_t first_bin{0};
    std::vector<double> mass;
    bool operator==(const Sink&) const = default;
};

Sink sink_of(const core::Context& ctx) {
    const prob::PdfView v = ctx.engine().sink_arrival();
    return {v.first_bin(), {v.mass().begin(), v.mass().end()}};
}

class Eco {
  public:
    Eco(const EcoConfig& cfg, std::uint64_t seed)
        : cfg_(cfg), spec_(seeded_shape(cfg.shape, seed)),
          rng_(derive_seed(seed, "eco-ops")) {}

    /// Builds the design and context and runs the cold full SSTA; returns
    /// the wall-clock. Replaces any earlier set-up.
    double setup(Tracer& tr) {
        ctx_.reset();
        design_.reset();
        const Timer t;
        {
            Span s(tr, "netlist.generate");
            design_ = std::make_unique<api::Design>(api::Design::from_generator(spec_));
        }
        {
            Span s(tr, "core.context");
            ctx_ = std::make_unique<core::Context>(
                design_->netlist(), design_->library(),
                api::detail::to_grid_policy(api::Scenario{}));
        }
        ctx_->set_ssta_threads(kThreads);
        {
            Span s(tr, "ssta.full.cold");
            ctx_->run_ssta();
        }
        return t.seconds();
    }

    /// A fresh seeded batch of upsizes (gates below the width cap).
    std::vector<core::ResizeOp> next_batch() {
        std::vector<core::ResizeOp> ops;
        const auto gates = static_cast<std::int64_t>(design_->gate_count());
        while (static_cast<int>(ops.size()) < cfg_.resizes_per_op) {
            const GateId g{static_cast<std::uint32_t>(rng_.uniform_int(0, gates - 1))};
            if (design_->netlist().gate(g).width + kDeltaW <= api::Scenario{}.max_width)
                ops.push_back({g, kDeltaW});
        }
        return ops;
    }

    /// Commits `ops` and refreshes; returns the wall-clock of both.
    double apply(const std::vector<core::ResizeOp>& ops, Tracer& tr) {
        const Timer t;
        {
            Span s(tr, "core.commit");
            (void)ctx_->apply_resizes(ops);
        }
        {
            Span s(tr, "ssta.refresh");
            ctx_->refresh_ssta();
        }
        const double dt = t.seconds();
        const auto& us = ctx_->engine().last_update_stats();
        tr.add("ssta.refresh.nodes_recomputed", static_cast<double>(us.nodes_recomputed));
        tr.add("ssta.refresh.nodes_unchanged", static_cast<double>(us.nodes_unchanged));
        return dt;
    }

    /// Warm full SSTA; checks that it reproduces the incremental sink
    /// arrival bit for bit. Returns the wall-clock of the full run.
    double full_check(Tracer& tr, Checks& checks) {
        const Sink incremental = sink_of(*ctx_);
        const Timer t;
        {
            Span s(tr, "ssta.full.warm");
            ctx_->run_ssta();
        }
        const double dt = t.seconds();
        checks.expect(sink_of(*ctx_) == incremental,
                      "incremental sink arrival differs from a full run_ssta");
        return dt;
    }

    core::Context& ctx() { return *ctx_; }

  private:
    EcoConfig cfg_;
    netlist::GeneratorSpec spec_;
    Rng rng_;
    std::unique_ptr<api::Design> design_;
    std::unique_ptr<core::Context> ctx_;
};

}  // namespace

Outcome run_eco(const EcoConfig& cfg, const RunOptions& opt) {
    Tracer tr(opt.trace);
    Tracer untraced(false);
    Eco eco(cfg, opt.seed);
    Outcome out;

    std::vector<double> setup_s;
    for (int i = 0; i < cfg.setups; ++i) setup_s.push_back(eco.setup(tr));

    // The traced run leaves every other operation untraced, as the
    // overhead baseline under the same host conditions.
    const WorkPlan plan(opt.trace ? 0.0 : opt.seconds, cfg.seconds_per_op, cfg.min_ops);
    std::vector<double> refresh_s, full_s, untraced_s;
    int ops = 0;
    while (plan.more(ops)) {
        ++ops;
        const bool baseline = opt.trace && ops % 2 == 1;
        Tracer& t = baseline ? untraced : tr;
        const double dt = eco.apply(eco.next_batch(), t);
        (baseline ? untraced_s : refresh_s).push_back(dt);
        if (ops % cfg.full_every == 0) full_s.push_back(eco.full_check(t, out.checks));
    }
    if (ops % cfg.full_every != 0) full_s.push_back(eco.full_check(tr, out.checks));

    if (opt.trace) {
        // Thread scaling on identical cones: each batch is refreshed at 1
        // and at 4 threads, undoing it in between (widths return exactly,
        // so both refreshes start from the same arrivals).
        std::vector<double> t1, t4;
        for (int i = 0; i < cfg.scaling_ops; ++i) {
            std::vector<core::ResizeOp> forward = eco.next_batch();
            std::vector<core::ResizeOp> back = forward;
            for (core::ResizeOp& op : back) op.delta_w = -op.delta_w;
            for (const std::size_t threads : {std::size_t{1}, kThreads}) {
                eco.ctx().set_ssta_threads(threads);
                (threads == 1 ? t1 : t4).push_back(eco.apply(forward, untraced));
                (void)eco.apply(back, untraced);
            }
        }
        eco.ctx().set_ssta_threads(kThreads);
        (void)eco.full_check(untraced, out.checks);
        out.trace_overhead = median(refresh_s) / median(untraced_s) - 1.0;
        const double busy = tr.self_seconds("ssta.refresh");
        const double nodes = tr.counter("ssta.refresh.nodes_recomputed");
        out.metrics = {
            {"ssta.refresh.busy_s", busy, "s"},
            {"ssta.refresh.nodes_recomputed",
             ratio(nodes, static_cast<double>(tr.durations("ssta.refresh").size())), "count"},
            {"ssta.refresh.unchanged_ratio",
             ratio(tr.counter("ssta.refresh.nodes_unchanged"), nodes), "ratio"},
            {"ssta.refresh.nodes_per_s", ratio(nodes, busy), "1/s"},
            {"ssta.refresh.speedup_4v1", sum(t1) / sum(t4), "ratio"},
            {"ssta.full.cold_s", median(tr.durations("ssta.full.cold")), "s"},
            {"ssta.arena.high_water_mb", arena_high_water_mb(eco.ctx().engine()), "MB"},
            {"netlist.generate_s", median(tr.durations("netlist.generate")), "s"},
        };
        if (!opt.trace_path.empty()) tr.write(opt.trace_path);
    } else {
        out.metrics = {
            {"setup_s", median(setup_s), "s"},
            {"op_s_p50", median(refresh_s), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
        };
    }
    out.notes = {
        {"refresh_s_p50", median(refresh_s), "s"},
        {"refresh_s_p90", quantile(refresh_s, 0.9), "s"},
        {"refresh_ops", static_cast<double>(refresh_s.size()), "count"},
        {"full_ssta_s_p50", median(full_s), "s"},
        {"full_ssta_runs", static_cast<double>(full_s.size()), "count"},
    };
    return out;
}

}  // namespace e2e
