// The wide-sweep surface: Monte-Carlo sweeps of RC20 at 1024 lanes, each
// lane with its own seeded stimulus and initial state, back to back
// through the model-compiling simulate_sweep on every hardware thread.
// Sweeps alternate between the preferred native backend and the
// interpreter over the same job, so each pair must agree bit for bit.
// A 256-lane shard's slot file is ~216 KB, well past a 48 KB L1d: the
// kernel's working set, not per-job fixed costs, decides the rate here.
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "runtime/sweep_service.hpp"
#include "surfaces.hpp"
#include "trace.hpp"

namespace amsvp::perfbench {
namespace {

const char* backend_tag(runtime::SweepBackend backend) {
    switch (backend) {
        case runtime::SweepBackend::kInterpreter:
            return "interp";
        case runtime::SweepBackend::kNativeOrc:
            return "orc";
        default:
            return "native";
    }
}

std::vector<runtime::SweepLane> make_lanes(const abstraction::SignalFlowModel& model,
                                           int lanes, Rng& rng) {
    const std::vector<expr::Symbol> states = model.state_symbols();
    std::vector<runtime::SweepLane> out(static_cast<std::size_t>(lanes));
    for (runtime::SweepLane& lane : out) {
        lane.stimuli["u0"] = numeric::square_wave(rng.uniform(2e-6, 20e-6),
                                                  rng.uniform(-1.0, 0.0), rng.uniform(0.0, 1.0));
        for (const expr::Symbol& s : states) {
            lane.overrides[s] = rng.uniform(-0.5, 0.5);
        }
    }
    return out;
}

/// BatchExecutor::step timed alone on a standalone executor: nanoseconds
/// per lane-step at `width` lanes (median of five passes).
double kernel_ns_per_lane_step(runtime::BatchExecutor& executor, double timestep,
                               const std::string& span_name) {
    const int width = executor.batch();
    constexpr int kSteps = 200;
    Samples ns;
    for (int pass = 0; pass < 5; ++pass) {
        executor.reset();
        for (int l = 0; l < width; ++l) {
            executor.set_input(l, 0, 0.25 + 0.001 * l);
        }
        const std::int64_t start = now_ns();
        {
            Tracer::Scope span(span_name);
            for (int k = 1; k <= kSteps; ++k) {
                executor.step(k * timestep);
            }
        }
        ns.add(static_cast<double>(now_ns() - start) / (double{kSteps} * width));
    }
    return ns.median();
}

class SweepSurface final : public Surface {
public:
    SweepSurface(const RunOptions& options, bool primary, Ledger& ledger, Samples& setup)
        : options_(options),
          primary_(primary),
          ledger_(ledger),
          lanes_(options.smoke ? 64 : 1024),
          steps_(options.smoke ? 40 : 400),
          threads_(static_cast<int>(options.nproc)),
          native_(runtime::preferred_native_backend()) {
        // Set-up: abstraction plus the cold layout and kernel compiles the
        // first sweep pays, repeated from an empty global cache.
        // A hundred cheap repetitions (~4 s): a single one takes tens of
        // milliseconds, and host noise moves it by half for seconds at a
        // time.
        const netlist::Circuit circuit = netlist::make_rc_ladder(20);
        const int reps = primary && !options.smoke ? 100 : 1;
        for (int rep = 0; rep < reps; ++rep) {
            const std::int64_t start = now_ns();
            model_ = abstract(circuit, "RC20");
            runtime::ModelCache& cache = runtime::ModelCache::global();
            cache.clear();
            {
                Tracer::Scope span("runtime.ModelCache::layout_for");
                (void)cache.layout_for(model_);
            }
            if (native_ == runtime::SweepBackend::kNativeOrc) {
                Tracer::Scope span("runtime.ModelCache::orc_program_for");
                (void)cache.orc_program_for(model_);
            }
            if (primary) {
                setup.add(seconds_since(start));
            }
        }
        // The ORC rows must time ORC, not a fallback.
        ledger.op(native_ == runtime::SweepBackend::kNativeOrc,
                  std::string("sweep: preferred native backend is ") + backend_tag(native_) +
                      ", not orc");
        for (int j = 0; j < kJobs; ++j) {
            Rng rng(options.seed, 100 + static_cast<std::uint64_t>(j));
            jobs_.push_back(make_lanes(model_, lanes_, rng));
        }
    }

    /// Runs whole pairs: one job on the native backend, then the same job
    /// on the interpreter.
    void run_until(std::int64_t deadline_ns) override {
        do {
            const int pair = pairs_++;
            const bool muted = options_.trace && primary_ && pair % 2 == 1;
            Tracer::Mute mute(muted);
            sweep(pair, native_, muted);
            sweep(pair, runtime::SweepBackend::kInterpreter, muted);
        } while (now_ns() < deadline_ns);
    }

    void report() override {
        for (const char* tag : {"orc", "interp"}) {
            const std::string name = std::string("lane_steps_per_s.") + tag;
            ledger_.end_to_end(name, rate_[tag].median(), "1/s");
            ledger_.distribution(name, rate_[tag]);
        }
        if (options_.trace) {
            report_layers();
        }
    }

private:
    static constexpr int kJobs = 4;

    void sweep(int pair, runtime::SweepBackend backend, bool muted) {
        const int job = pair % kJobs;
        runtime::SweepOptions sweep_options;
        sweep_options.threads = threads_;
        sweep_options.backend = backend;
        const char* tag = backend_tag(backend);
        const std::int64_t start = now_ns();
        runtime::SweepResult result;
        {
            Tracer::Scope span(std::string("runtime.simulate_sweep.") + tag, pair);
            result = runtime::simulate_sweep(model_, {}, jobs_[static_cast<std::size_t>(job)],
                                             static_cast<double>(steps_) * model_.timestep,
                                             sweep_options);
        }
        const double seconds = seconds_since(start);
        rate_[tag].add(static_cast<double>(lanes_) * static_cast<double>(steps_) / seconds);
        wall_[tag].add(seconds);
        if (primary_) {
            (muted ? ledger_.untraced_op_seconds : ledger_.traced_op_seconds).add(seconds);
        }

        // Both backends of one job, and every repeat of it, must agree bit
        // for bit.
        std::uint64_t sum = checksum(result);
        if (options_.corrupt_reference && pair == 0 &&
            backend == runtime::SweepBackend::kInterpreter) {
            sum ^= 1;
        }
        const auto [it, inserted] = checksums_.emplace(job, sum);
        ledger_.op(clean(result) && result.steps == steps_ && (inserted || it->second == sum),
                   "sweep pair " + std::to_string(pair) + " (" + tag + ", job " +
                       std::to_string(job) +
                       "): checksum mismatch, diagnostics or unhealthy lane");
    }

    /// Kernel alone at the sweep's shard width and at 64 lanes; the rest
    /// of each sweep's wall time is overhead outside the kernel.
    void report_layers() {
        const auto shards = static_cast<int>(
            runtime::BatchCompiledModel::shard_lanes(lanes_, threads_).size());
        const int shard_width = (lanes_ + shards - 1) / shards;
        runtime::ModelCache& cache = runtime::ModelCache::global();
        const auto layout = cache.layout_for(model_);
        const auto program = cache.orc_program_for(model_);
        for (const auto& [width, suffix] :
             {std::pair{shard_width, ""}, std::pair{64, ".w64"}}) {
            const std::string w = ".w" + std::to_string(width);
            runtime::BatchCompiledModel interp(layout, width);
            const double interp_ns = kernel_ns_per_lane_step(
                interp, model_.timestep, "runtime.BatchExecutor::step.interp" + w);
            std::map<std::string, double> kernel_ns = {{"interp", interp_ns}};
            // Without ORC the set-up check has failed the run; no ORC
            // figure is reported.
            if (program != nullptr) {
                codegen::OrcBatchModel orc(program, width);
                kernel_ns["orc"] = kernel_ns_per_lane_step(
                    orc, model_.timestep, "runtime.BatchExecutor::step.orc" + w);
            }
            for (const auto& [tag, ns] : kernel_ns) {
                ledger_.layer("runtime.kernel_ns_per_lane_step." + tag + suffix, ns, "ns");
            }
            if (*suffix != '\0') {
                continue;
            }
            for (const auto& [tag, ns] : kernel_ns) {
                const double kernel_s = static_cast<double>(lanes_) *
                                        static_cast<double>(steps_) * ns * 1e-9;
                ledger_.layer(std::string("runtime.sweep_overhead_frac.") + tag,
                              1.0 - kernel_s / (wall_[tag].median() * shards), "fraction");
            }
        }
    }

    const RunOptions& options_;
    const bool primary_;
    Ledger& ledger_;
    const int lanes_;
    const std::size_t steps_;
    const int threads_;
    const runtime::SweepBackend native_;
    abstraction::SignalFlowModel model_;
    std::vector<std::vector<runtime::SweepLane>> jobs_;
    int pairs_ = 0;
    std::map<std::string, Samples> rate_;
    std::map<std::string, Samples> wall_;
    std::map<int, std::uint64_t> checksums_;
};

}  // namespace

std::unique_ptr<Surface> make_sweep(const RunOptions& options, bool primary, Ledger& ledger,
                                    Samples& setup) {
    return std::make_unique<SweepSurface>(options, primary, ledger, setup);
}

}  // namespace amsvp::perfbench
