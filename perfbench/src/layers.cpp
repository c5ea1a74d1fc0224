// Accuracy beside speed, and the standalone compile-path timings of the
// traced run.
#include <cstdio>

#include "analysis/verifier.hpp"
#include "backends/runner.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "numeric/metrics.hpp"
#include "runtime/model_layout.hpp"
#include "runtime/sweep_service.hpp"
#include "support/diagnostics.hpp"
#include "surfaces.hpp"
#include "trace.hpp"

namespace amsvp::perfbench {

void run_accuracy(const RunOptions& options, Ledger& ledger) {
    // Table I measures the abstracted models within ~5e-4 NRMSE of the
    // conservative reference on the paper's circuits.
    constexpr double kNrmseBound = 5e-4;
    const double span = options.smoke ? 0.2e-3 : 1e-3;
    Rng rng(options.seed, 400);
    const double period = rng.uniform(0.25e-3, 1e-3);
    const numeric::SourceFunction stimulus =
        numeric::square_wave(period, -rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5));

    for (const auto& [name, tag, circuit] :
         {std::tuple{"RC20", "rc20", netlist::make_rc_ladder(20)},
          std::tuple{"OA", "oa", netlist::make_opamp()}}) {
        const abstraction::SignalFlowModel model = abstract(circuit, name);
        backends::IsolationSetup setup;
        setup.circuit = &circuit;
        setup.model = &model;
        setup.stimuli = {{"u0", stimulus}};
        setup.executor_factory = runtime::fused_executor_factory();
        const backends::BackendRun reference =
            backends::run_isolated(backends::BackendKind::kElnSystemC, setup, span);
        const backends::BackendRun abstracted =
            backends::run_isolated(backends::BackendKind::kCpp, setup, span);
        const double error = numeric::nrmse(reference.trace, abstracted.trace);
        char what[128];
        std::snprintf(what, sizeof what, "accuracy %s: NRMSE %.3g above %.1g", name, error,
                      kNrmseBound);
        ledger.op(error <= kNrmseBound, what);
        ledger.layer(std::string("accuracy.nrmse.") + tag, error, "ratio");
    }
}

void run_compile_layers(const RunOptions& options, Ledger& ledger) {
    const abstraction::SignalFlowModel model = abstract(netlist::make_rc_ladder(20), "RC20");
    const int reps = options.smoke ? 1 : 5;
    for (int rep = 0; rep < reps; ++rep) {
        {
            Tracer::Scope span("runtime.model_fingerprint");
            (void)runtime::model_fingerprint(model);
        }
        std::shared_ptr<const runtime::ModelLayout> layout;
        {
            Tracer::Scope span("runtime.ModelLayout::compile");
            layout = runtime::ModelLayout::compile(model);
        }
        support::DiagnosticEngine diags;
        bool verified = false;
        {
            Tracer::Scope span("analysis.verify_layout");
            verified = analysis::verify_layout(*layout, diags);
        }
        ledger.op(verified, "verify_layout rejected the RC20 layout");
        if (codegen::orc_available()) {
            Tracer::Scope span("codegen.OrcJitProgram::compile");
            std::string error;
            ledger.op(codegen::OrcJitProgram::compile(layout, &error) != nullptr,
                      "ORC compile of RC20 failed: " + error);
        }
    }
}

}  // namespace amsvp::perfbench
