// Shared pieces of the benchmark: run options, the ledger of checked
// operations and reported metrics, sample statistics, seeded input
// generation and result checksums.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "abstraction/signal_flow_model.hpp"
#include "netlist/circuit.hpp"
#include "runtime/simulate.hpp"

namespace amsvp::perfbench {

/// The three workloads, one per surface (surfaces.hpp). Every run drives
/// all three surfaces, so that every workload reports every metric; the
/// workload's own surface gets half of the run and the set-up timing.
enum class Workload { kVp, kSweep, kService };

struct RunOptions {
    Workload workload = Workload::kVp;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Seconds-long run of every surface, for the benchmark's own test.
    bool smoke = false;
    /// Deliberately wrong reference checksum, to prove that the checks
    /// count failed operations.
    bool corrupt_reference = false;
    std::string out_dir = ".";
    unsigned nproc = 1;
};

/// A sample of timings (or rates) and its summary statistics.
class Samples {
public:
    void add(double v) { values_.push_back(v); }
    [[nodiscard]] std::size_t size() const { return values_.size(); }
    [[nodiscard]] double sum() const;
    [[nodiscard]] double median() const { return quantile(0.5); }
    [[nodiscard]] double min() const { return quantile(0.0); }
    /// Linear-interpolated quantile, q in [0, 1].
    [[nodiscard]] double quantile(double q) const;
    /// Nearest-rank percentile p in (0, 100).
    [[nodiscard]] double percentile(double p) const;
    /// The highest percentile with at least ten samples beyond it
    /// (0 when fewer than eleven samples).
    [[nodiscard]] double tail_percentile() const;

private:
    std::vector<double> values_;
};

/// Checked operations plus every reported metric.
class Ledger {
public:
    /// Count one operation; a failed check is logged to stderr with `what`.
    void op(bool ok, const std::string& what);
    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }

    void end_to_end(const std::string& name, double value, const std::string& unit);
    void layer(const std::string& name, double value, const std::string& unit);
    /// Distribution detail beside a metric: sample count, median and the
    /// highest percentile with ten samples beyond it.
    void distribution(const std::string& name, const Samples& samples);

    struct Metric {
        double value = 0.0;
        std::string unit;
    };
    [[nodiscard]] const std::map<std::string, Metric>& end_to_end() const { return e2e_; }
    [[nodiscard]] const std::map<std::string, Metric>& layers() const { return layers_; }
    [[nodiscard]] const std::map<std::string, std::string>& distributions() const {
        return distributions_;
    }

    /// Traced run: durations (s) of the primary surface's operations with
    /// and without spans, alternating; their median ratio is the tracing
    /// overhead.
    Samples traced_op_seconds;
    Samples untraced_op_seconds;

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, Metric> e2e_;
    std::map<std::string, Metric> layers_;
    std::map<std::string, std::string> distributions_;
};

/// Seeded generator for benchmark inputs; one stream per purpose so that
/// adding draws to one surface never shifts another's inputs.
class Rng {
public:
    Rng(std::uint64_t seed, std::uint64_t stream);
    [[nodiscard]] double uniform(double lo, double hi);
    [[nodiscard]] int integer(int lo, int hi);  ///< inclusive

private:
    std::mt19937_64 engine_;
};

/// Abstract `circuit` observing out/gnd at the paper's 50 ns timestep,
/// inside an `abstraction.abstract_circuit` span. Aborts on failure.
[[nodiscard]] abstraction::SignalFlowModel abstract(const netlist::Circuit& circuit,
                                                    const std::string& name);

/// FNV-1a over every bit of a sweep result: step count, every frame of
/// every output, settled_at and lane health.
[[nodiscard]] std::uint64_t checksum(const runtime::SweepResult& result);

/// True when the result is clean: no diagnostics, every lane healthy.
[[nodiscard]] bool clean(const runtime::SweepResult& result);

[[nodiscard]] double seconds_since(std::int64_t start_ns);

}  // namespace amsvp::perfbench
