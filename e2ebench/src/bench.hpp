// statim end-to-end benchmark: shared pieces of the three workloads.
//
// The benchmark is an outside consumer of libstatim. It builds seeded
// circuits from registry shapes, drives them through the api:: and
// core::/ssta:: entry points, checks every output, and reports end-to-end
// metrics (untraced) or per-layer metrics (traced). See NOTES.md for why
// each workload exists.
#pragma once
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netlist/generator.hpp"
#include "util/timer.hpp"

namespace statim::ssta {
class SstaEngine;
}

namespace e2e {

/// One reported number.
struct Metric {
    std::string name;
    double value{0.0};
    std::string unit;
};

/// Counts checked operations and the ones whose output was wrong.
class Checks {
  public:
    /// Records one checked operation; logs `what` to stderr when !ok.
    void expect(bool ok, const std::string& what);
    /// Adds another tally to this one.
    void merge(const Checks& other) {
        attempted_ += other.attempted_;
        failed_ += other.failed_;
    }
    [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
    [[nodiscard]] double error_rate() const noexcept {
        return attempted_ == 0 ? 0.0
                               : static_cast<double>(failed_) /
                                     static_cast<double>(attempted_);
    }

  private:
    std::size_t attempted_{0};
    std::size_t failed_{0};
};

/// What one workload run produces.
struct Outcome {
    Checks checks;
    /// The BENCHMARK.json metrics: the end-to-end ones (untraced), or the
    /// per-layer ones of the layers this workload is the home of (traced).
    std::vector<Metric> metrics;
    /// Further figures printed on the human-readable lines only (the
    /// workload's own names for its latencies, delay gain, error rate).
    std::vector<Metric> notes;
    /// Traced run: traced over untraced wall-clock of the same work, - 1.
    double trace_overhead{0.0};
};

// ---- span tracer --------------------------------------------------------

/// In-memory span recorder for the traced run. Spans wrap calls the
/// benchmark makes into a library layer; nothing inside libstatim is
/// instrumented. A disabled tracer records nothing.
class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Opens a span under the innermost open one; returns its id (-1 when
    /// disabled). `name` must be a string literal.
    int open(const char* name);
    void close(int id);
    /// Adds `v` to counter `name` (no-op when disabled).
    void add(std::string_view name, double v);
    /// Sets counter `name` (no-op when disabled).
    void set(std::string_view name, double v);
    [[nodiscard]] double counter(std::string_view name) const;

    /// Durations (s) of every closed span called `name`, in record order.
    [[nodiscard]] std::vector<double> durations(std::string_view name) const;
    /// Summed self time (duration minus time covered by child spans).
    [[nodiscard]] double self_seconds(std::string_view name) const;
    /// Share of the summed duration of spans called `root` that their
    /// direct child spans cover (0 when there is no such span).
    [[nodiscard]] double coverage(std::string_view root) const;

    /// Writes every span and counter as Chrome trace-event JSON.
    void write(const std::string& path) const;

  private:
    double& slot(std::string_view name);

    struct Span {
        const char* name;
        double start_s;
        double end_s;
        int parent;
    };
    bool enabled_;
    statim::Timer clock_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::vector<std::pair<std::string, double>> counters_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
  public:
    Span(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.open(name)) {}
    ~Span() { tracer_.close(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer& tracer_;
    int id_;
};

// ---- helpers ------------------------------------------------------------

/// Quantile q in [0, 1] by linear interpolation (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
    return quantile(std::move(v), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& v);
/// num / den, or 0 when den is 0.
[[nodiscard]] double ratio(double num, double den);
/// Peak resident set of this process (MB).
[[nodiscard]] double peak_rss_mb();
/// Peak resident set of the largest waited-for child process (MB).
[[nodiscard]] double peak_child_rss_mb();
/// Current resident set of this process (MB).
[[nodiscard]] double current_rss_mb();
/// Arrival-store high water plus the largest wave arena of `engine` (MB).
[[nodiscard]] double arena_high_water_mb(const statim::ssta::SstaEngine& engine);
/// A seed for input `tag` of the run seeded with `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag);
/// The generator spec of registry circuit `shape` (a paper circuit or a
/// synthetic scale-up) with its seed replaced by one derived from `seed`
/// that the generator accepts.
[[nodiscard]] statim::netlist::GeneratorSpec seeded_shape(const std::string& shape,
                                                          std::uint64_t seed);

/// Seeds seeded_shape replaced because the generator rejected them.
[[nodiscard]] int generator_rejects();

// ---- workloads ----------------------------------------------------------

struct RunOptions {
    std::uint64_t seed{1};
    double seconds{30.0};
    bool trace{false};
    /// Where the traced run writes its spans ("" = nowhere).
    std::string trace_path;
    /// Directory for generated input files (the sweep's .bench).
    std::string work_dir{"."};
    /// Worker command for dispatch (this binary in serve mode).
    std::vector<std::string> serve_command;
};

/// Sizes of the three workloads; full() is the benchmark, tiny() the
/// self-test that runs every check path in seconds. A run's work follows
/// from --seconds through a fixed per-unit estimate for a 4-core machine,
/// never from measured speed, so every run of one seed does the same work.
struct GreedyConfig {
    std::string shape;
    int passes;
    int setups;
    /// Seconds of one circuit's pass budget.
    double seconds_per_circuit;
    [[nodiscard]] static GreedyConfig full() { return {"c7552", 10, 3, 4.0}; }
    [[nodiscard]] static GreedyConfig tiny() { return {"c432", 3, 2, 1.0}; }
};
struct EcoConfig {
    std::string shape;
    int setups;
    int resizes_per_op;
    int full_every;
    /// At least 10 samples beyond the p90, and min_ops / full_every full runs.
    int min_ops;
    /// Seconds of one operation plus its share of the full runs.
    double seconds_per_op;
    int scaling_ops;
    [[nodiscard]] static EcoConfig full() { return {"synth100k", 3, 8, 5, 100, 0.09, 12}; }
    [[nodiscard]] static EcoConfig tiny() { return {"c7552", 2, 8, 2, 6, 1.0, 4}; }
};
struct SweepConfig {
    std::string shape;
    int iterations;
    std::size_t mc_samples;
    int setups;
    /// Seconds of one round: set-up, the reference and the dispatch.
    double seconds_per_dispatch;
    int min_dispatches;
    [[nodiscard]] static SweepConfig full() { return {"c432", 6, 1000, 2, 1.4, 3}; }
    [[nodiscard]] static SweepConfig tiny() { return {"c432", 2, 200, 2, 1.0, 1}; }
};

/// How many units of work a run does: seconds / per_unit, at least `min`
/// -- a fixed amount for a given --seconds. Only on a host so slow that the
/// run outlasts 1.5 x seconds does it stop early (never below `min`), which
/// bounds the run's wall-clock.
class WorkPlan {
  public:
    WorkPlan(double seconds, double per_unit, int min)
        : units_(std::max(min, static_cast<int>(seconds / per_unit))),
          min_(min),
          limit_s_(1.5 * seconds) {}
    /// Whether another unit should run after `done` units.
    [[nodiscard]] bool more(int done) const {
        return done < min_ || (done < units_ && clock_.seconds() < limit_s_);
    }

  private:
    int units_;
    int min_;
    double limit_s_;
    statim::Timer clock_;
};

[[nodiscard]] Outcome run_greedy(const GreedyConfig& cfg, const RunOptions& opt);
[[nodiscard]] Outcome run_eco(const EcoConfig& cfg, const RunOptions& opt);
/// `kill_scenario` >= 0 injects a persistent worker kill into that
/// scenario (self-test only).
[[nodiscard]] Outcome run_sweep(const SweepConfig& cfg, const RunOptions& opt,
                                int kill_scenario = -1);

}  // namespace e2e
