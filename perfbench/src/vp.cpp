// The virtual-platform surface: RC20 integrated into the full platform,
// Table III's C++ / SC-DE / SC-AMS-TDF rows over the native scalar model,
// plus the ELN row over a shorter simulated span (its conservative solve
// is ~30x slower). Single-threaded, closed-loop: one row after another.
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "backends/runner.hpp"
#include "codegen/native_model.hpp"
#include "netlist/builder.hpp"
#include "surfaces.hpp"
#include "trace.hpp"
#include "vp/platform.hpp"

namespace amsvp::perfbench {
namespace {

struct Row {
    vp::AnalogIntegration integration;
    const char* tag;
    bool long_span;  ///< the C++/DE/TDF span; the ELN row runs the short one
};

constexpr Row kRows[] = {
    {vp::AnalogIntegration::kCpp, "cpp", true},
    {vp::AnalogIntegration::kDe, "de", true},
    {vp::AnalogIntegration::kTdf, "tdf", true},
    {vp::AnalogIntegration::kEln, "eln", false},
};

/// The simulated counts a simulator-only change must leave identical.
struct Counts {
    std::string uart;
    std::uint64_t instructions = 0;
    std::uint64_t bus_reads = 0;
    std::uint64_t bus_writes = 0;
    std::uint64_t apb_transfers = 0;
    std::uint64_t adc_conversions = 0;

    explicit Counts(const vp::PlatformResult& r)
        : uart(r.uart_output),
          instructions(r.instructions),
          bus_reads(r.bus_reads),
          bus_writes(r.bus_writes),
          apb_transfers(r.apb_transfers),
          adc_conversions(r.adc_conversions) {}
    bool operator==(const Counts&) const = default;
};

bool same_kernel_stats(const de::KernelStats& a, const de::KernelStats& b) {
    return a.process_activations == b.process_activations &&
           a.delta_cycles == b.delta_cycles && a.timed_events == b.timed_events &&
           a.channel_updates == b.channel_updates;
}

/// Table III's native scalar model, with the compile inside a span.
runtime::ExecutorFactory traced_native_factory() {
    runtime::ExecutorFactory inner = codegen::native_executor_factory();
    return [inner](const abstraction::SignalFlowModel& model) {
        Tracer::Scope span("codegen.NativeModel::compile");
        return inner(model);
    };
}

/// Forwards every call to the row's native executor: the row compiles its
/// native model once at set-up instead of once per run_platform call. It
/// costs one virtual call per executor call, reported as
/// vp.forward_overhead_ns.
class Forward final : public runtime::ModelExecutor {
public:
    explicit Forward(runtime::ModelExecutor& target) : target_(target) {}
    void reset() override { target_.reset(); }
    void set_input(std::size_t index, double value) override { target_.set_input(index, value); }
    void step(double time_seconds) override { target_.step(time_seconds); }
    [[nodiscard]] double output(std::size_t index) const override {
        return target_.output(index);
    }
    [[nodiscard]] std::size_t input_count() const override { return target_.input_count(); }
    [[nodiscard]] std::size_t output_count() const override { return target_.output_count(); }
    [[nodiscard]] double timestep() const override { return target_.timestep(); }

private:
    runtime::ModelExecutor& target_;
};

/// Hands `executor`, reset, to every run_platform call of a row.
runtime::ExecutorFactory reuse_factory(runtime::ModelExecutor& executor) {
    return [&executor](const abstraction::SignalFlowModel&) {
        executor.reset();
        return std::make_unique<Forward>(executor);
    };
}

/// One pass of ModelExecutor::step over `steps` steps of a row's native
/// RC20 executor, timed alone: nanoseconds per step.
double step_pass_ns(runtime::ModelExecutor& executor, const numeric::SourceFunction& stimulus,
                    std::size_t steps, const std::string& span_name) {
    executor.reset();
    const std::int64_t start = now_ns();
    {
        Tracer::Scope span(span_name);
        for (std::size_t k = 1; k <= steps; ++k) {
            const double t = static_cast<double>(k) * executor.timestep();
            executor.set_input(0, stimulus(t));
            executor.step(t);
        }
    }
    return static_cast<double>(now_ns() - start) / static_cast<double>(steps);
}

class VpSurface final : public Surface {
public:
    VpSurface(const RunOptions& options, bool primary, Ledger& ledger, Samples& setup)
        : options_(options),
          primary_(primary),
          ledger_(ledger),
          long_span_(options.smoke ? 0.5e-3 : 5e-3),
          short_span_(long_span_ / 5.0),
          circuit_(netlist::make_rc_ladder(20)) {
        // Seeded bipolar square wave, so the firmware sees threshold
        // crossings.
        Rng rng(options.seed, 1);
        const double period = rng.uniform(0.5e-3, 1.5e-3);
        const double low = -rng.uniform(0.5, 1.5);
        stimulus_ = numeric::square_wave(period, low, rng.uniform(0.5, 1.5));

        // References from the in-process fused interpreter, untimed.
        {
            const abstraction::SignalFlowModel model = abstract(circuit_, "RC20");
            vp::PlatformConfig config;
            config.model = &model;
            config.stimuli = {{"u0", stimulus_}};
            for (const bool long_run : {true, false}) {
                reference_.emplace(long_run, Counts(vp::run_platform(
                                                 config, long_run ? long_span_ : short_span_)));
            }
        }

        // Set-up: abstraction, Table III's native compile of the scalar
        // model for each generated-model row, and one round's platform
        // elaboration.
        const int reps = primary && !options.smoke ? 5 : 1;
        for (int rep = 0; rep < reps; ++rep) {
            const std::int64_t start = now_ns();
            model_ = abstract(circuit_, "RC20");
            native_.clear();
            for (const Row& row : kRows) {
                if (row.integration != vp::AnalogIntegration::kEln) {
                    native_[row.tag] = traced_native_factory()(model_);
                    // native_executor_factory() falls back to the
                    // interpreter when the compile fails: that row would
                    // no longer be Table III's native one.
                    ledger.op(dynamic_cast<codegen::NativeModel*>(native_[row.tag].get()) !=
                                  nullptr,
                              std::string("vp row ") + row.tag +
                                  ": no native model, the executor factory fell back");
                }
            }
            const double compiled = seconds_since(start);
            const double outside = round(true);
            if (primary) {
                setup.add(compiled + outside);
            }
        }
    }

    void run_until(std::int64_t deadline_ns) override {
        do {
            (void)round(false);
        } while (now_ns() < deadline_ns);
    }

    void report() override {
        // Each row reports its fastest call. Host interference only ever
        // adds time, and on a shared host it comes in spells: a row's calls
        // hold near a floor, then run up to ~2x slower for seconds at a
        // time while neighbours load the host, in every run and on any CPU,
        // and for minutes the floor itself rises. The median follows how
        // much of a run fell in such spells (2.0 to 4.0 s/s for the C++ row
        // in 50 s runs); the fastest call stays nearest to the platform's
        // own cost.
        for (const Row& row : kRows) {
            const std::string name = std::string("vp_slowdown.") + row.tag;
            ledger_.end_to_end(name, slowdown_[row.tag].min(), "s/s");
            ledger_.distribution(name, slowdown_[row.tag]);
        }
        if (options_.trace) {
            report_layers();
        }
    }

private:
    /// One round runs every row once, the ELN row (as long as the other
    /// three together, and the steadiest of them) only in set-up and every
    /// third round; returns the rows' time outside
    /// PlatformResult::wall_seconds.
    double round(bool setting_up) {
        const int index = rounds_++;
        // The traced run alternates traced and untraced rounds.
        const bool muted = options_.trace && primary_ && index % 2 == 1;
        Tracer::Mute mute(muted);
        double outside = 0.0;
        double calls = 0.0;
        for (const Row& row : kRows) {
            if (row.integration == vp::AnalogIntegration::kEln && !setting_up &&
                index % 3 != 0) {
                continue;
            }
            vp::PlatformConfig config;
            config.integration = row.integration;
            config.circuit = &circuit_;
            config.model = &model_;
            config.stimuli = {{"u0", stimulus_}};
            if (const auto it = native_.find(row.tag); it != native_.end()) {
                config.executor_factory = reuse_factory(*it->second);
            }
            const double span = row.long_span ? long_span_ : short_span_;
            const std::int64_t call_start = now_ns();
            vp::PlatformResult result;
            {
                Tracer::Scope trace_span(std::string("vp.run_platform.") + row.tag, index);
                result = vp::run_platform(config, span);
            }
            const double call = seconds_since(call_start);
            calls += call;
            outside += call - result.wall_seconds;
            slowdown_[row.tag].add(result.wall_seconds / span);
            elaborate_s_[row.tag].add(call - result.wall_seconds);
            wall_s_[row.tag].add(result.wall_seconds);

            bool ok = Counts(result) == reference_.at(row.long_span);
            const auto [it, inserted] = first_.emplace(row.tag, result);
            ok = ok && (inserted || same_kernel_stats(it->second.kernel, result.kernel));
            ledger_.op(ok, std::string("vp row ") + row.tag + " round " + std::to_string(index) +
                               ": UART or simulated counts differ from the reference");
        }
        if (primary_) {
            (muted ? ledger_.untraced_op_seconds : ledger_.traced_op_seconds).add(calls);
        }
        return outside;
    }

    void report_layers() {
        const vp::PlatformResult& cpp = first_.at("cpp");
        ledger_.layer("vp.instructions", static_cast<double>(cpp.instructions), "count");
        ledger_.layer("vp.bus_reads", static_cast<double>(cpp.bus_reads), "count");
        ledger_.layer("vp.bus_writes", static_cast<double>(cpp.bus_writes), "count");
        ledger_.layer("vp.apb_transfers", static_cast<double>(cpp.apb_transfers), "count");
        ledger_.layer("vp.adc_conversions", static_cast<double>(cpp.adc_conversions), "count");

        const double cpp_wall = wall_s_["cpp"].min();
        for (const Row& row : kRows) {
            const std::string tag = row.tag;
            const vp::PlatformResult& r = first_.at(tag);
            ledger_.layer("vp.elaborate_ms." + tag, elaborate_s_[tag].median() * 1e3, "ms");
            ledger_.layer("vp.host_ns_per_instr." + tag,
                          wall_s_[tag].min() * 1e9 / static_cast<double>(r.instructions),
                          "ns");
            if (row.integration == vp::AnalogIntegration::kCpp) {
                continue;
            }
            const auto activations = static_cast<double>(r.kernel.process_activations);
            ledger_.layer("de.process_activations." + tag, activations, "count");
            ledger_.layer("de.delta_cycles." + tag, static_cast<double>(r.kernel.delta_cycles),
                          "count");
            ledger_.layer("de.timed_events." + tag, static_cast<double>(r.kernel.timed_events),
                          "count");
            // The C++ row at the same span is the platform without a kernel.
            const double span = row.long_span ? long_span_ : short_span_;
            const double kernel_s = wall_s_[tag].min() - cpp_wall * span / long_span_;
            ledger_.layer("de.ns_per_activation." + tag, kernel_s * 1e9 / activations, "ns");
        }

        const auto steps = static_cast<std::size_t>(long_span_ / model_.timestep + 0.5);
        runtime::ModelExecutor& executor = *native_.at("cpp");
        // The fastest of a hundred passes, as for the platform rows it is
        // set against: a pass takes milliseconds, a host slow spell
        // seconds. Bare and forwarded passes alternate, so that both see
        // the same host.
        Forward forward(executor);
        Samples bare;
        Samples forwarded;
        for (int pass = 0; pass < 100; ++pass) {
            bare.add(step_pass_ns(executor, stimulus_, steps, "runtime.ModelExecutor::step"));
            forwarded.add(
                step_pass_ns(forward, stimulus_, steps, "runtime.ModelExecutor::step.forwarded"));
        }
        const double step_ns = bare.min();
        const double forwarded_ns = forwarded.min();
        ledger_.layer("runtime.scalar_step_ns", step_ns, "ns");
        ledger_.layer("vp.forward_overhead_ns", forwarded_ns - step_ns, "ns");
        // The platform runs the forwarded executor: its steps are the
        // analog share, the rest is the ISS, bus and ADC.
        ledger_.layer("vp.digital_ms",
                      (cpp_wall * 1e9 - static_cast<double>(steps) * forwarded_ns) * 1e-6, "ms");

        backends::IsolationSetup isolated;
        isolated.circuit = &circuit_;
        isolated.model = &model_;
        isolated.stimuli = {{"u0", stimulus_}};
        isolated.executor_factory = traced_native_factory();
        for (const auto& [kind, name, span] :
             {std::tuple{backends::BackendKind::kElnSystemC, "eln", short_span_},
              std::tuple{backends::BackendKind::kTdfSystemC, "tdf", long_span_}}) {
            Samples ms;
            for (int rep = 0; rep < 3; ++rep) {
                Tracer::Scope trace_span(std::string("backends.run_isolated.") + name);
                ms.add(backends::run_isolated(kind, isolated, span).wall_seconds * 1e3);
            }
            ledger_.layer(std::string(name) + ".isolated_ms", ms.median(), "ms");
        }
    }

    const RunOptions& options_;
    const bool primary_;
    Ledger& ledger_;
    const double long_span_;
    const double short_span_;
    const netlist::Circuit circuit_;
    numeric::SourceFunction stimulus_;
    std::map<bool, Counts> reference_;
    abstraction::SignalFlowModel model_;
    std::map<std::string, std::unique_ptr<runtime::ModelExecutor>> native_;
    int rounds_ = 0;
    std::map<std::string, Samples> slowdown_;
    std::map<std::string, Samples> elaborate_s_;
    std::map<std::string, Samples> wall_s_;
    std::map<std::string, vp::PlatformResult> first_;
};

}  // namespace

std::unique_ptr<Surface> make_vp(const RunOptions& options, bool primary, Ledger& ledger,
                                 Samples& setup) {
    return std::make_unique<VpSurface>(options, primary, ledger, setup);
}

}  // namespace amsvp::perfbench
