// statim_e2e — the repository's end-to-end benchmark.
//
//   statim_e2e --workload c7552-greedy|eco-100k|sweep-dispatch
//              [--seed N] [--seconds S] [--trace 0|1]
//              [--trace-dir DIR] [--work-dir DIR]
//   statim_e2e --selftest [--work-dir DIR]
//   statim_e2e serve        (dispatch worker; spawned by sweep-dispatch)
//
// Prints one human-readable line per metric, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the workload's end-to-end metrics. With
// --trace 1 every workload name runs the same traced run: all three
// workloads, traced and shortened, each reporting the layers it is the
// home of (each workload bypasses some layers by design). run.py builds
// this binary and runs it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "api/statim.hpp"
#include "bench.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace e2e;

constexpr std::size_t kProcessThreads = 4;

void print_metric(const char* label, const Metric& m) {
    std::printf("%-16s %-40s %.6g %s\n", label, m.name.c_str(), m.value, m.unit.c_str());
}

void print_lines(const std::string& workload, const Outcome& out) {
    for (const Metric& m : out.metrics) print_metric(workload.c_str(), m);
    for (const Metric& m : out.notes) print_metric(workload.c_str(), m);
    print_metric(workload.c_str(), {"error_rate", out.checks.error_rate(), "ratio"});
}

void print_json(const Outcome& out) {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                out.checks.failed() == 0 ? "true" : "false", out.checks.attempted(),
                out.checks.failed());
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                    m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/// Runs every workload's check path at a tiny size, then the sweep once
/// more with a persistent worker kill injected into one scenario, which
/// the error rate must count. Returns the process exit code.
int selftest(RunOptions opt) {
    opt.seconds = 0.0;
    bool ok = true;
    const auto report = [&](const std::string& name, const Outcome& out, bool want_errors) {
        const bool pass = want_errors ? out.checks.failed() > 0 : out.checks.failed() == 0;
        std::printf("selftest %-28s attempted %zu failed %zu error_rate %.4f  %s\n",
                    name.c_str(), out.checks.attempted(), out.checks.failed(),
                    out.checks.error_rate(), pass ? "ok" : "FAIL");
        ok = ok && pass && out.checks.attempted() > 0;
    };
    for (const bool trace : {false, true}) {
        opt.trace = trace;
        const std::string suffix = trace ? " (traced)" : "";
        report("c7552-greedy" + suffix, run_greedy(GreedyConfig::tiny(), opt), false);
        report("eco-100k" + suffix, run_eco(EcoConfig::tiny(), opt), false);
        report("sweep-dispatch" + suffix, run_sweep(SweepConfig::tiny(), opt), false);
    }
    opt.trace = false;
    std::cerr << "selftest: the next check failures are injected\n";
    report("sweep-dispatch (worker killed)", run_sweep(SweepConfig::tiny(), opt, 0), true);
    std::printf("selftest %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc >= 2 && std::string(argv[1]) == "serve") return statim::api::serve(0, 1);
    try {
        const statim::CliArgs args(argc, argv);
        args.validate({"workload", "seed", "seconds", "trace", "trace-dir", "work-dir",
                       "selftest"});
        statim::set_default_thread_count(kProcessThreads);

        RunOptions opt;
        opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
        opt.seconds = args.get_double("seconds", 30.0);
        opt.trace = args.get_int("trace", 0) != 0;
        opt.work_dir = args.get("work-dir", ".");
        opt.serve_command = statim::api::self_serve_command(argv[0]);
        if (args.has("selftest")) return selftest(opt);

        const std::string workload = args.get("workload");
        const std::pair<const char*, Outcome (*)(const RunOptions&)> workloads[] = {
            {"c7552-greedy", [](const RunOptions& o) { return run_greedy(GreedyConfig::full(), o); }},
            {"eco-100k", [](const RunOptions& o) { return run_eco(EcoConfig::full(), o); }},
            {"sweep-dispatch", [](const RunOptions& o) { return run_sweep(SweepConfig::full(), o); }},
        };
        bool known = false;
        for (const auto& [name, run] : workloads) known = known || workload == name;
        if (!known) {
            std::cerr << "error: unknown --workload '" << workload
                      << "' (c7552-greedy, eco-100k, sweep-dispatch)\n";
            return 2;
        }
        Outcome total;
        std::vector<double> overheads;
        for (const auto& [name, run] : workloads) {
            if (!opt.trace && workload != name) continue;
            if (opt.trace && args.has("trace-dir"))
                opt.trace_path = args.get("trace-dir") + "/" + name + "-" +
                                 std::to_string(opt.seed) + ".trace.json";
            const Outcome out = run(opt);
            print_lines(name, out);
            total.checks.merge(out.checks);
            total.metrics.insert(total.metrics.end(), out.metrics.begin(), out.metrics.end());
            overheads.push_back(out.trace_overhead);
        }
        if (opt.trace) {
            const std::vector<Metric> run_wide = {
                {"netlist.generate_rejects", static_cast<double>(generator_rejects()), "count"},
                // The worst of the three workloads' traced-vs-untraced ratios.
                {"trace.overhead_ratio", *std::max_element(overheads.begin(), overheads.end()),
                 "ratio"},
            };
            for (const Metric& m : run_wide) print_metric("traced run", m);
            total.metrics.insert(total.metrics.end(), run_wide.begin(), run_wide.end());
        }
        print_json(total);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
