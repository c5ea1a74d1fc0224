// The three measured surfaces of the system, as a user drives them:
//
//  * vp      — RC20 inside the full virtual platform (MIPS ISS, APB, UART,
//              ADC, threshold-monitor firmware), the paper's Table III rows;
//  * sweep   — 1024-lane Monte-Carlo sweeps of RC20 through the
//              model-compiling simulate_sweep, ORC and interpreter in turn;
//  * service — two closed-loop clients submitting short ORC jobs over
//              2IN/RC1/RC20/OA to one SweepService, one job per 40 ms of
//              service time (about one in twenty) on a never-seen RC ladder.
//
// A surface does its set-up on construction (repeated, and timed into the
// set-up samples, when it is the workload's primary surface), then runs in
// time slices interleaved with the other surfaces, checking every
// operation's output into the ledger. report() adds its end-to-end
// metrics, plus its per-layer metrics in a traced run.
#pragma once

#include <cstdint>
#include <memory>

#include "common.hpp"

namespace amsvp::perfbench {

class Surface {
public:
    virtual ~Surface() = default;
    /// Run whole operations until `deadline_ns` (now_ns() clock); at least one.
    virtual void run_until(std::int64_t deadline_ns) = 0;
    virtual void report() = 0;
};

[[nodiscard]] std::unique_ptr<Surface> make_vp(const RunOptions& options, bool primary,
                                               Ledger& ledger, Samples& setup);
[[nodiscard]] std::unique_ptr<Surface> make_sweep(const RunOptions& options, bool primary,
                                                  Ledger& ledger, Samples& setup);
[[nodiscard]] std::unique_ptr<Surface> make_service(const RunOptions& options, bool primary,
                                                    Ledger& ledger, Samples& setup);

/// NRMSE of the abstracted RC20 and OA models (C++ row, isolated) against
/// the conservative ELN reference; an operation fails above the bound.
void run_accuracy(const RunOptions& options, Ledger& ledger);

/// Traced run only: standalone timings of the per-model compile path on
/// RC20 — fingerprint, layout compile, verifier, ORC compile.
void run_compile_layers(const RunOptions& options, Ledger& ledger);

}  // namespace amsvp::perfbench
