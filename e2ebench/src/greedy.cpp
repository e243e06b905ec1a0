// c7552-greedy: the paper's flow. k = 1 pruned sizing at p99 on a seeded
// c7552-shaped circuit with 4 threads, stepped through api::SizingRun for
// a fixed pass budget that crosses the pruning wall.
#include <memory>
#include <string>

#include "api/detail.hpp"
#include "api/statim.hpp"
#include "bench.hpp"
#include "core/context.hpp"
#include "core/selector.hpp"

namespace e2e {
namespace {

using namespace statim;

constexpr std::size_t kThreads = 4;

api::Scenario greedy_scenario(const GreedyConfig& cfg, std::uint64_t seed) {
    api::Scenario s;
    s.name = "greedy";
    s.threads = kThreads;
    s.gates_per_iteration = 1;
    s.max_iterations = cfg.passes;
    s.seed = derive_seed(seed, "greedy-scenario");
    return s;
}

/// Replays the sizing loop through the core:: entry points, mirroring
/// core::StatisticalSizerLoop::step for k = 1, with a span around every
/// call into a layer. Its picks must equal SizingRun's bit for bit.
class CoreReplay {
  public:
    CoreReplay(const netlist::GeneratorSpec& spec, const api::Scenario& scenario,
               std::size_t threads, Tracer& tr)
        : cfg_(api::detail::to_sizer_config(scenario)) {
        {
            Span s(tr, "netlist.generate");
            design_ = std::make_unique<api::Design>(api::Design::from_generator(spec));
        }
        api::detail::apply_simd(scenario);
        ctx_ = std::make_unique<core::Context>(design_->netlist(), design_->library(),
                                               api::detail::to_grid_policy(scenario));
        ctx_->set_incremental_ssta(cfg_.incremental_ssta);
        ctx_->set_ssta_threads(threads);
        {
            Span s(tr, "ssta.full.cold");
            ctx_->run_ssta();
        }
        selector_ = {cfg_.objective, cfg_.delta_w,   cfg_.max_width,
                     threads,        cfg_.crit_floor, cfg_.selector_cache};
    }

    /// Runs one pass; false once the pass budget is spent or no gate helps.
    bool step(Tracer& tr) {
        if (done_) return false;
        const Timer wall;
        Span root(tr, "pass");
        core::TopKSelection top;
        {
            Span s(tr, "core.select");
            const Timer t;
            top = core::select_top_k(*ctx_, selector_, 1, cfg_.selector);
            select_s.push_back(t.seconds());
        }
        const core::SelectorStats& st = top.stats;
        tr.add("core.select.candidates", static_cast<double>(st.candidates));
        tr.add("core.select.pruned", static_cast<double>(st.pruned));
        tr.add("core.select.completed", static_cast<double>(st.completed));
        tr.add("core.select.nodes_computed", static_cast<double>(st.nodes_computed));
        tr.add("core.select.cache_hits", static_cast<double>(st.cache_hits));
        tr.add("core.select.floor_deferred", static_cast<double>(st.floor_deferred));
        if (top.picks.empty()) {
            done_ = true;
            return false;
        }
        ops_.assign(1, {top.picks.front().gate, cfg_.delta_w});
        {
            Span s(tr, "core.commit");
            (void)ctx_->apply_resizes(ops_);
        }
        {
            Span s(tr, "ssta.refresh");
            ctx_->refresh_ssta();
        }
        const auto& us = ctx_->engine().last_update_stats();
        tr.add("ssta.refresh.nodes_recomputed", static_cast<double>(us.nodes_recomputed));
        tr.add("ssta.refresh.nodes_unchanged", static_cast<double>(us.nodes_unchanged));
        picks.push_back(top.picks.front());
        wall_s += wall.seconds();
        done_ = static_cast<int>(picks.size()) == cfg_.max_iterations;
        return true;
    }

    [[nodiscard]] double final_objective_ns() const {
        return cfg_.objective.eval_ns(ctx_->grid(), ctx_->engine().sink_arrival());
    }
    [[nodiscard]] const core::Context& ctx() const { return *ctx_; }

    std::vector<core::RankedPick> picks;
    /// Per-pass select_top_k wall-clock.
    std::vector<double> select_s;
    /// Summed wall-clock of the passes.
    double wall_s{0.0};

  private:
    core::StatisticalSizerConfig cfg_;
    std::unique_ptr<api::Design> design_;
    std::unique_ptr<core::Context> ctx_;
    core::SelectorConfig selector_;
    std::vector<core::ResizeOp> ops_;
    bool done_{false};
};

/// One check per pass (pick and sensitivity) plus one on the final
/// objective, all bitwise against the SizingRun reference.
void check_replay(const CoreReplay& run, const core::SizingResult& ref, const char* label,
                  Checks& checks) {
    checks.expect(run.picks.size() == ref.history.size(),
                  std::string(label) + ": pass count differs from SizingRun");
    for (std::size_t p = 0; p < run.picks.size() && p < ref.history.size(); ++p)
        checks.expect(run.picks[p].gate == ref.history[p].gate &&
                          run.picks[p].sensitivity == ref.history[p].sensitivity,
                      std::string(label) + ": pass " + std::to_string(p) +
                          " pick differs from SizingRun");
    checks.expect(run.final_objective_ns() == ref.final_objective_ns,
                  std::string(label) + ": final objective differs from SizingRun");
}

}  // namespace

Outcome run_greedy(const GreedyConfig& cfg, const RunOptions& opt) {
    Tracer tr(opt.trace);
    Tracer untraced(false);
    const api::Scenario scenario = greedy_scenario(cfg, opt.seed);

    // One round per circuit, each seeded on its own: set up `cfg.setups`
    // times, then step the whole pass budget. Where the pruning wall falls
    // differs between circuits, so a run sizes several. The traced run
    // sizes one.
    const WorkPlan plan(opt.trace ? 0.0 : opt.seconds, cfg.seconds_per_circuit, 1);
    Outcome out;
    std::vector<double> setup_s, pass_s, size_s, gain_pct;
    core::SizingResult ref;
    double rss_growth_mb_per_pass = 0.0;
    for (int round = 0; plan.more(round); ++round) {
        const netlist::GeneratorSpec spec =
            seeded_shape(cfg.shape, derive_seed(opt.seed, "greedy-" + std::to_string(round)));
        std::unique_ptr<api::SizingRun> run;
        std::unique_ptr<api::Design> design;
        for (int i = 0; i < cfg.setups; ++i) {
            run.reset();
            const Timer t;
            {
                Span s(tr, "netlist.generate");
                design = std::make_unique<api::Design>(api::Design::from_generator(spec));
            }
            {
                Span s(tr, "api.run_setup");
                run = std::make_unique<api::SizingRun>(*design, scenario);
            }
            setup_s.push_back(t.seconds());
        }
        const double rss0 = current_rss_mb();
        const Timer size;
        while (!run->finished()) {
            Span s(tr, "api.step");
            const Timer t;
            run->step();
            pass_s.push_back(t.seconds());
        }
        size_s.push_back(size.seconds());
        const core::SizingResult& result = run->result();
        gain_pct.push_back(100.0 * (result.initial_objective_ns - result.final_objective_ns) /
                           result.initial_objective_ns);
        out.checks.expect(gain_pct.back() > 0.0,
                          "round " + std::to_string(round) + ": objective did not improve");
        if (round == 0) {
            rss_growth_mb_per_pass = (current_rss_mb() - rss0) / cfg.passes;
            ref = result;
        }
    }

    // The check path: round 0's circuit again through core:: directly,
    // compared bitwise with SizingRun. The traced run also replays it
    // traced and at 1 thread, one pass of each replay in turn, so that host
    // speed drifts hit all three alike.
    const netlist::GeneratorSpec spec0 =
        seeded_shape(cfg.shape, derive_seed(opt.seed, "greedy-0"));
    CoreReplay plain(spec0, scenario, kThreads, untraced);
    if (!opt.trace) {
        while (plain.step(untraced)) {
        }
        check_replay(plain, ref, "core replay", out.checks);
        out.metrics = {
            {"setup_s", median(setup_s), "s"},
            {"op_s_p50", median(pass_s), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
        };
    } else {
        CoreReplay traced(spec0, scenario, kThreads, tr);
        CoreReplay single(spec0, scenario, 1, untraced);
        for (bool more = true; more;) {
            more = plain.step(untraced);
            more = traced.step(tr) || more;
            more = single.step(untraced) || more;
        }
        check_replay(plain, ref, "core replay", out.checks);
        check_replay(traced, ref, "traced core replay", out.checks);
        check_replay(single, ref, "1-thread core replay", out.checks);
        out.trace_overhead = traced.wall_s / plain.wall_s - 1.0;
        const double select_busy = tr.self_seconds("core.select");
        const double passes = static_cast<double>(tr.durations("core.select").size());
        const double candidates = tr.counter("core.select.candidates");
        const double nodes = tr.counter("core.select.nodes_computed");
        out.metrics = {
            {"core.select.busy_s", select_busy, "s"},
            {"core.select.pass_s_p50", median(tr.durations("core.select")), "s"},
            {"core.select.nodes_computed", ratio(nodes, passes), "count"},
            {"core.select.nodes_per_s", ratio(nodes, select_busy), "1/s"},
            {"core.select.prune_ratio", ratio(tr.counter("core.select.pruned"), candidates),
             "ratio"},
            {"core.select.completed_ratio",
             ratio(tr.counter("core.select.completed"), candidates), "ratio"},
            {"core.select.cache_hit_ratio",
             ratio(tr.counter("core.select.cache_hits"), candidates), "ratio"},
            {"core.select.floor_deferred",
             ratio(tr.counter("core.select.floor_deferred"), passes), "count"},
            {"core.select.speedup_4v1", sum(single.select_s) / sum(traced.select_s), "ratio"},
            {"core.select.rss_growth_mb_per_pass", rss_growth_mb_per_pass, "MB"},
            {"core.commit.busy_s", tr.self_seconds("core.commit"), "s"},
            {"api.run_setup_s", median(tr.durations("api.run_setup")), "s"},
            {"trace.span_coverage", tr.coverage("pass"), "ratio"},
        };
        out.notes.push_back({"select_share_of_size",
                             sum(tr.durations("core.select")) / sum(tr.durations("pass")),
                             "ratio"});
        if (!opt.trace_path.empty()) tr.write(opt.trace_path);
    }
    out.notes.insert(out.notes.end(),
                     {
                         {"pass_s_p50", median(pass_s), "s"},
                         {"size_s", median(size_s), "s"},
                         {"circuits", static_cast<double>(size_s.size()), "count"},
                         {"passes", static_cast<double>(pass_s.size()), "count"},
                         {"delay_gain_pct", median(gain_pct), "%"},
                     });
    return out;
}

}  // namespace e2e
