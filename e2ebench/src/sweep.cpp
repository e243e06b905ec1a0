// sweep-dispatch: a mix of short scenarios on a seeded c432-shaped circuit
// sent through api::dispatch_scenarios to 2 worker processes with 2
// threads each, checkpointing every iteration. Many short runs in the
// early, pruning-effective regime make set-up, the checkpoint stream, Monte
// Carlo validation and the process/frame costs of dispatch significant.
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/statim.hpp"
#include "bench.hpp"

namespace e2e {
namespace {

using namespace statim;

constexpr int kWorkers = 2;
constexpr std::size_t kWorkerThreads = 2;

/// objective {p99, p95, mean} x batch {1, 4}; the seed axis is the
/// circuit, which changes every round.
std::vector<api::Scenario> sweep_scenarios(const SweepConfig& cfg, std::uint64_t seed) {
    struct Objective {
        const char* name;
        api::Scenario::Objective kind;
        double percentile;
    };
    const Objective objectives[] = {
        {"p99", api::Scenario::Objective::Percentile, 0.99},
        {"p95", api::Scenario::Objective::Percentile, 0.95},
        {"mean", api::Scenario::Objective::Mean, 0.99},
    };
    std::vector<api::Scenario> out;
    for (const Objective& o : objectives)
        for (const int batch : {1, 4}) {
            api::Scenario sc;
            sc.name = std::string(o.name) + "-b" + std::to_string(batch);
            sc.objective = o.kind;
            sc.percentile = o.percentile;
            sc.gates_per_iteration = batch;
            sc.max_iterations = cfg.iterations;
            sc.threads = kWorkerThreads;
            sc.mc_samples = cfg.mc_samples;
            sc.seed = derive_seed(seed, sc.name);
            out.push_back(sc);
        }
    return out;
}

std::string json_of(const api::DispatchReport& report) {
    std::ostringstream out;
    api::write_dispatch_json(out, report);
    return out.str();
}

/// Mean over scenarios of (initial - final objective) / initial, in %.
double delay_gain_pct(const api::DispatchReport& report) {
    double total = 0.0;
    for (const api::DispatchOutcome& o : report.outcomes)
        total += (o.sizing.initial_objective_ns - o.sizing.final_objective_ns) /
                 o.sizing.initial_objective_ns;
    return 100.0 * total / static_cast<double>(report.outcomes.size());
}

/// Runs every scenario in this process the way a worker does (sizing
/// steps, a checkpoint after each, MC validation), traced, and checks the
/// results against the reference report. Returns the summed wall-clock.
double run_in_process(const api::Design& loaded, const std::vector<api::Scenario>& scenarios,
                      const api::DispatchReport& ref, Tracer& tr, Checks& checks) {
    const Timer busy;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        Span root(tr, "scenario");
        api::Design design = loaded;
        std::unique_ptr<api::SizingRun> run;
        {
            Span s(tr, "api.run_setup");
            run = std::make_unique<api::SizingRun>(design, scenarios[i]);
        }
        while (!run->finished()) {
            {
                Span s(tr, "api.step");
                run->step();
            }
            std::ostringstream ckpt;
            {
                Span s(tr, "api.checkpoint.save");
                run->save(ckpt);
            }
            tr.add("api.checkpoint.bytes", static_cast<double>(ckpt.tellp()));
        }
        api::McSummary mc;
        {
            Span s(tr, "mc.validate");
            mc = run->validate_mc(scenarios[i].mc_samples);
        }
        tr.add("mc.samples", static_cast<double>(mc.samples));
        const api::DispatchOutcome& want = ref.outcomes[i];
        checks.expect(run->result().final_objective_ns == want.sizing.final_objective_ns &&
                          api::McDigest::of(mc).p99_ns == want.mc.p99_ns,
                      "in-process scenario " + scenarios[i].name +
                          " differs from the reference report");
    }
    return busy.seconds();
}

}  // namespace

Outcome run_sweep(const SweepConfig& cfg, const RunOptions& opt, int kill_scenario) {
    Tracer tr(opt.trace);
    Tracer untraced(false);
    const std::string path = opt.work_dir + "/sweep-" + std::to_string(opt.seed) + ".bench";
    api::DesignSource source;
    source.kind = api::DesignSource::Kind::BenchFile;
    source.name = path;

    api::DispatchOptions options;
    options.workers = kWorkers;
    options.checkpoint_every = 1;
    options.heartbeat_timeout_ms = 60000;
    options.retries = 2;
    options.serve_command = opt.serve_command;
    if (kill_scenario >= 0) {
        options.fault.kind = api::FaultInjection::Kind::Kill;
        options.fault.scenario = kill_scenario;
        options.fault.after_iteration = 1;
        options.fault.persistent = true;
    }

    // Each round sizes its own seeded circuit (the seed axis of the mix),
    // so the median dispatch does not hang on one circuit.
    const WorkPlan plan(opt.trace ? 0.0 : opt.seconds, cfg.seconds_per_dispatch,
                        cfg.min_dispatches);
    Outcome out;
    std::vector<double> setup_s, dispatch_s, untraced_dispatch_s, gain_pct;
    std::size_t scenarios_done = 0;
    double in_process_s = 0.0;
    for (int round = 0; plan.more(round); ++round) {
        const std::uint64_t seed = derive_seed(opt.seed, "sweep-" + std::to_string(round));
        const netlist::GeneratorSpec spec = seeded_shape(cfg.shape, seed);
        const std::vector<api::Scenario> scenarios = sweep_scenarios(cfg, seed);

        // Set-up: generate the circuit, write it for the workers, and load
        // it back with a SizingRun (context build + initial SSTA) as a
        // worker does.
        std::unique_ptr<api::Design> loaded;
        for (int i = 0; i < cfg.setups; ++i) {
            const Timer t;
            {
                Span s(tr, "netlist.generate");
                const api::Design generated = api::Design::from_generator(spec);
                std::ofstream file(path);
                generated.write_bench(file);
                if (!file.flush()) throw std::runtime_error("cannot write " + path);
            }
            loaded = std::make_unique<api::Design>(api::Design::from_bench_file(path));
            api::Design scratch = *loaded;
            {
                Span s(tr, "api.run_setup");
                const api::SizingRun run(scratch, scenarios.front());
            }
            setup_s.push_back(t.seconds());
        }

        // The reference is built outside the timed interval.
        const api::DispatchReport ref = api::run_scenarios_report(source, scenarios);
        const std::string ref_json = json_of(ref);
        gain_pct.push_back(delay_gain_pct(ref));
        out.checks.expect(gain_pct.back() > 0.0, "sizing did not improve the objectives");

        // The traced run dispatches each circuit twice, untraced first, as
        // its overhead baseline.
        for (const bool traced : {false, true}) {
            if (traced && !opt.trace) continue;
            Tracer& t = traced ? tr : untraced;
            const Timer wall;
            api::DispatchReport report;
            {
                Span s(t, "dist.dispatch");
                report = api::dispatch_scenarios(source, scenarios, options);
            }
            (opt.trace && !traced ? untraced_dispatch_s : dispatch_s).push_back(wall.seconds());
            if (traced == opt.trace) scenarios_done += report.outcomes.size();
            for (const api::DispatchOutcome& o : report.outcomes) {
                out.checks.expect(o.ok && o.attempts == 0,
                                  "scenario " + o.scenario.name + " failed: " + o.error);
                t.add("dist.attempts_failed", static_cast<double>(o.attempts));
                t.add("dist.migrations", static_cast<double>(o.migrations));
            }
            out.checks.expect(json_of(report) == ref_json,
                              "dispatch report differs from run_scenarios_report");
        }
        if (opt.trace && round == 0)
            in_process_s = run_in_process(*loaded, scenarios, ref, tr, out.checks);
    }

    if (opt.trace) {
        out.trace_overhead = sum(dispatch_s) / sum(untraced_dispatch_s) - 1.0;
        const double mc_busy = tr.self_seconds("mc.validate");
        out.metrics = {
            {"api.step_s_p50", median(tr.durations("api.step")), "s"},
            {"api.checkpoint.save_s_p50", median(tr.durations("api.checkpoint.save")), "s"},
            {"api.checkpoint.bytes",
             ratio(tr.counter("api.checkpoint.bytes"),
                   static_cast<double>(tr.durations("api.checkpoint.save").size())),
             "B"},
            {"mc.validate_s",
             ratio(mc_busy, static_cast<double>(tr.durations("mc.validate").size())), "s"},
            {"mc.samples_per_s", ratio(tr.counter("mc.samples"), mc_busy), "1/s"},
            {"dist.dispatch_s", median(tr.durations("dist.dispatch")), "s"},
            {"dist.overhead_ratio", dispatch_s.front() * kWorkers / in_process_s, "ratio"},
            {"dist.attempts_failed", tr.counter("dist.attempts_failed"), "count"},
            {"dist.migrations", tr.counter("dist.migrations"), "count"},
        };
        out.notes.push_back({"in_process_span_coverage", tr.coverage("scenario"), "ratio"});
        if (!opt.trace_path.empty()) tr.write(opt.trace_path);
    } else {
        out.metrics = {
            {"setup_s", median(setup_s), "s"},
            {"op_s_p50", median(dispatch_s), "s"},
            {"peak_rss_mb", peak_child_rss_mb(), "MB"},
        };
    }
    out.notes.insert(out.notes.end(), {
        {"scenarios_per_s", static_cast<double>(scenarios_done) / sum(dispatch_s), "1/s"},
        {"dispatches", static_cast<double>(dispatch_s.size()), "count"},
        {"delay_gain_pct", median(gain_pct), "%"},
    });
    return out;
}

}  // namespace e2e
