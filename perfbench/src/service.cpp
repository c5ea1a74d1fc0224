// The served-job surface: one SweepService, two closed-loop clients (each
// submits a job and waits for its future before the next), short ORC jobs
// of 64 lanes and tens to a few hundred steps, their models drawn
// uniformly by seed over 2IN/RC1/RC20/OA. One job per 40 ms of service
// time (about one in twenty) runs a fresh RC ladder, abstracted during
// set-up but never submitted before, so the cache misses and that job pays
// layout compile, verification and ORC compile. Per-job fixed costs
// (fingerprint, cache lookup, executor reuse) dominate the kernel.
#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "netlist/builder.hpp"
#include "runtime/sweep_service.hpp"
#include "surfaces.hpp"
#include "trace.hpp"

namespace amsvp::perfbench {
namespace {

constexpr int kLanes = 64;
constexpr int kClients = 2;
constexpr int kSpecsPerModel = 64;
/// Service time per fresh-ladder job. The service keeps every model's
/// executors, ~0.26 MB a model, so fresh ladders are paced by time rather
/// than by job count: a run serves the same number of them, and peaks at
/// the same memory, however fast the service runs.
constexpr std::int64_t kFreshPeriodNs = 40'000'000;

struct Spec {
    std::vector<runtime::SweepLane> lanes;
    std::size_t steps = 0;
};

/// Spec `k` of a model's `count` draws its step count from the k-th of
/// `count` equal strata of 20..300, so that every seed's specs cover the
/// range evenly and the mean work per job does not move with the seed.
Spec make_spec(const abstraction::SignalFlowModel& model, Rng& rng, int k, int count) {
    Spec spec;
    spec.steps = 20 + static_cast<std::size_t>(280.0 * (k + rng.uniform(0.0, 1.0)) / count);
    spec.lanes.resize(kLanes);
    for (runtime::SweepLane& lane : spec.lanes) {
        for (const expr::Symbol& input : model.inputs) {
            lane.stimuli[input.name] = numeric::square_wave(
                rng.uniform(0.5e-6, 5e-6), rng.uniform(-1.0, 0.0), rng.uniform(0.0, 1.0));
        }
        lane.overrides[model.outputs.front()] = rng.uniform(-0.5, 0.5);
    }
    return spec;
}

/// One planned job: a model (base models first, then the fresh ladders)
/// and one of its specs.
struct Planned {
    std::size_t model = 0;
    std::size_t spec = 0;
};

class ServiceSurface final : public Surface {
public:
    ServiceSurface(const RunOptions& options, bool primary, Ledger& ledger, Samples& setup)
        : options_(options),
          primary_(primary),
          ledger_(ledger),
          workers_(std::max(1, static_cast<int>(options.nproc) - kClients)),
          // More jobs than a run can submit: the plan never runs out.
          plan_size_(static_cast<std::size_t>(options.seconds * 1000.0) + 100),
          fresh_count_(static_cast<std::size_t>(options.seconds * 1e9) / kFreshPeriodNs + 1) {
        const std::pair<const char*, netlist::Circuit> base[] = {
            {"2IN", netlist::make_two_inputs()},
            {"RC1", netlist::make_rc_ladder(1)},
            {"RC20", netlist::make_rc_ladder(20)},
            {"OA", netlist::make_opamp()},
        };
        Rng ladder_rng(options.seed, 200);
        std::vector<netlist::Circuit> fresh;
        for (std::size_t f = 0; f < fresh_count_; ++f) {
            fresh.push_back(netlist::make_rc_ladder(ladder_rng.integer(2, 6),
                                                    ladder_rng.uniform(1e3, 1e4),
                                                    ladder_rng.uniform(5e-9, 50e-9)));
        }
        job_options_.backend = runtime::preferred_native_backend();
        job_options_.threads = workers_;

        // Set-up: the service, every model's abstraction, and one warm-up
        // job per base model (cold compiles, executor pools).
        const int reps = primary && !options.smoke ? 5 : 1;
        for (int rep = 0; rep < reps; ++rep) {
            service_.reset();
            models_.clear();
            const std::int64_t start = now_ns();
            runtime::ServiceOptions service_options;
            service_options.sweep_threads = workers_;
            service_ = std::make_unique<runtime::SweepService>(service_options);
            for (const auto& [name, circuit] : base) {
                models_.push_back(abstract(circuit, name));
            }
            for (const netlist::Circuit& circuit : fresh) {
                models_.push_back(abstract(circuit, "fresh_ladder"));
            }
            if (specs_.empty()) {
                for (std::size_t m = 0; m < models_.size(); ++m) {
                    Rng rng(options.seed, 300 + m);
                    specs_.emplace_back();
                    const int count = m < kBaseModels ? kSpecsPerModel : 1;
                    for (int k = 0; k < count; ++k) {
                        specs_.back().push_back(make_spec(models_[m], rng, k, count));
                    }
                }
            }
            for (std::size_t m = 0; m < kBaseModels; ++m) {
                (void)service_->run(job(m, 0));
            }
            if (primary) {
                setup.add(seconds_since(start));
            }
        }

        plan_.resize(plan_size_);
        Rng rng(options.seed, 201);
        const auto draw = [&rng](std::size_t count) {
            return static_cast<std::size_t>(rng.integer(0, static_cast<int>(count) - 1));
        };
        for (Planned& p : plan_) {
            p = Planned{draw(kBaseModels), draw(kSpecsPerModel)};
        }
        latency_.assign(plan_size_, 0.0);
        sums_.assign(plan_size_, 0);
        executed_.assign(plan_size_, 0);
        ok_.assign(plan_size_, 0);
        before_ = service_->stats();
    }

    void run_until(std::int64_t deadline_ns) override {
        slice_start_ns_ = now_ns();
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([this, deadline_ns] { client(deadline_ns); });
        }
        for (std::thread& t : clients) {
            t.join();
        }
        served_ns_ += now_ns() - slice_start_ns_;
    }

    void report() override {
        // Every executed job against an interpreter reference of the same
        // spec, computed after the timed slices.
        std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> reference;
        Samples latency_ms;
        std::size_t hits_planned = 0;
        std::size_t executed = 0;
        runtime::SweepOptions reference_options;
        reference_options.backend = runtime::SweepBackend::kInterpreter;
        for (std::size_t i = 0; i < plan_size_; ++i) {
            if (executed_[i] == 0) {
                continue;
            }
            ++executed;
            hits_planned += plan_[i].model < kBaseModels ? 1 : 0;
            latency_ms.add(latency_[i] * 1e3);
            const Planned& p = plan_[i];
            auto [it, inserted] = reference.emplace(std::pair{p.model, p.spec}, 0);
            if (inserted) {
                const runtime::SweepJob j = job(p.model, p.spec);
                it->second = checksum(runtime::simulate_sweep(
                    j.model, {}, j.lanes, j.duration_seconds, reference_options));
                if (options_.corrupt_reference && executed == 1) {
                    it->second ^= 1;
                }
            }
            ledger_.op(ok_[i] != 0 && sums_[i] == it->second,
                       "service job " + std::to_string(i) +
                           ": result differs from the interpreter reference");
        }

        const runtime::ServiceStats after = service_->stats();
        const std::uint64_t hits = after.cache.orc_hits - before_.cache.orc_hits;
        const std::uint64_t misses = after.cache.orc_misses - before_.cache.orc_misses;
        ledger_.op(job_options_.backend == runtime::SweepBackend::kNativeOrc &&
                       after.jobs_failed == 0 && after.native_fallbacks == 0 &&
                       hits == hits_planned && misses == executed - hits_planned,
                   "service stats: not on ORC, failed jobs, native fallbacks or cache hits "
                   "off the plan");

        // No job_p50_ms end-to-end metric: the latencies are bimodal (small
        // models around 1 ms; RC20, whose fingerprint alone costs ~4 ms, and
        // jobs queued behind it or a miss's compile above 3 ms) with about
        // half of the jobs on each side, so the median falls in the sparse
        // gap and moves by more than half between seeds. It is the median
        // of job_ms on the distributions line.
        ledger_.end_to_end("job_p99_ms", latency_ms.percentile(99.0), "ms");
        ledger_.end_to_end("jobs_per_s",
                           static_cast<double>(executed) / (static_cast<double>(served_ns_) * 1e-9),
                           "1/s");
        ledger_.distribution("job_ms", latency_ms);
        if (!options_.trace) {
            return;
        }
        const auto ratio = [](std::uint64_t a, std::uint64_t b) {
            return a + b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(a + b);
        };
        ledger_.layer("runtime.cache_hit_ratio", ratio(hits, misses), "fraction");
        ledger_.layer("runtime.executor_reuse_ratio",
                      ratio(after.executors_reused - before_.executors_reused,
                            after.executors_built - before_.executors_built),
                      "fraction");
        ledger_.layer("runtime.slot_doubles_built",
                      static_cast<double>(after.slot_doubles_built - before_.slot_doubles_built),
                      "count");
        ledger_.layer("runtime.peak_queue_depth", static_cast<double>(after.peak_queue_depth),
                      "count");
    }

private:
    static constexpr std::size_t kBaseModels = 4;

    [[nodiscard]] runtime::SweepJob job(std::size_t model, std::size_t spec) const {
        const abstraction::SignalFlowModel& m = models_[model];
        const Spec& s = specs_[model][spec];
        return runtime::SweepJob{m, {}, s.lanes, static_cast<double>(s.steps) * m.timestep,
                                 job_options_};
    }

    /// The index of the next fresh ladder when one is due: one per
    /// kFreshPeriodNs of service time.
    std::optional<std::size_t> claim_fresh() {
        const auto due = static_cast<std::size_t>(
            (served_ns_ + now_ns() - slice_start_ns_) / kFreshPeriodNs);
        std::size_t issued = fresh_issued_.load();
        while (issued < std::min(due, fresh_count_)) {
            if (fresh_issued_.compare_exchange_weak(issued, issued + 1)) {
                return issued;
            }
        }
        return std::nullopt;
    }

    /// One closed-loop client: submit, wait for the future, repeat.
    void client(std::int64_t deadline_ns) {
        for (;;) {
            if (now_ns() >= deadline_ns) {
                return;
            }
            const std::size_t i = next_.fetch_add(1);
            if (i >= plan_size_) {
                return;
            }
            if (const std::optional<std::size_t> f = claim_fresh()) {
                plan_[i] = Planned{kBaseModels + *f, 0};
            }
            runtime::SweepJob j = job(plan_[i].model, plan_[i].spec);
            const std::size_t steps = specs_[plan_[i].model][plan_[i].spec].steps;
            const bool muted = options_.trace && primary_ && i % 2 == 1;
            Tracer::Mute mute(muted);
            const std::int64_t start = now_ns();
            runtime::SweepResult result;
            {
                Tracer::Scope span("runtime.SweepService::submit", static_cast<std::int64_t>(i));
                result = service_->submit(std::move(j)).get();
            }
            latency_[i] = seconds_since(start);
            if (primary_) {
                std::lock_guard<std::mutex> lock(op_mutex_);
                (muted ? ledger_.untraced_op_seconds : ledger_.traced_op_seconds)
                    .add(latency_[i]);
            }
            sums_[i] = checksum(result);
            ok_[i] = clean(result) && result.steps == steps;
            executed_[i] = 1;
        }
    }

    const RunOptions& options_;
    const bool primary_;
    Ledger& ledger_;
    const int workers_;
    const std::size_t plan_size_;
    const std::size_t fresh_count_;  ///< fresh ladders a run can reach
    runtime::SweepOptions job_options_;
    std::unique_ptr<runtime::SweepService> service_;
    std::vector<abstraction::SignalFlowModel> models_;  ///< base models, then fresh ladders
    std::vector<std::vector<Spec>> specs_;
    std::vector<Planned> plan_;
    runtime::ServiceStats before_;
    std::atomic<std::size_t> next_{0};
    // Per planned job, each written by the one client that claimed it.
    std::vector<double> latency_;
    std::vector<std::uint64_t> sums_;
    std::vector<char> executed_;
    std::vector<char> ok_;
    std::mutex op_mutex_;  ///< guards the ledger's traced/untraced samples
    // Service time: the slices before the current one, and its start;
    // written between slices only.
    std::int64_t served_ns_ = 0;
    std::int64_t slice_start_ns_ = 0;
    std::atomic<std::size_t> fresh_issued_{0};
};

}  // namespace

std::unique_ptr<Surface> make_service(const RunOptions& options, bool primary, Ledger& ledger,
                                      Samples& setup) {
    return std::make_unique<ServiceSurface>(options, primary, ledger, setup);
}

}  // namespace amsvp::perfbench
