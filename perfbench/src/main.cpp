// amsvp_perfbench: the repository benchmark.
//
//   amsvp_perfbench --workload <vp_rc20|sweep_wide|service_mix> --seed <n>
//                   --seconds <s> --trace <0|1> [--smoke] [--corrupt-reference]
//                   [--out-dir <dir>]
//
// Runs all three surfaces (surfaces.hpp) in interleaved time slices for
// --seconds, half of them on the named workload's own surface, then the
// accuracy check, checking every operation's output. The last stdout line
// is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics are the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Preceding lines carry the host fingerprint and the distributions behind
// the timing metrics. A traced run also writes <out-dir>/perfbench-
// <workload>-seed<n>.layers.json and a Chrome Trace Event Format file
// .trace.json beside it.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codegen/native_model.hpp"
#include "codegen/orc_jit.hpp"
#include "common.hpp"
#include "surfaces.hpp"
#include "trace.hpp"

namespace amsvp::perfbench {
namespace {

[[noreturn]] void usage(const char* problem) {
    std::fprintf(stderr,
                 "amsvp_perfbench: %s\nusage: amsvp_perfbench --workload "
                 "<vp_rc20|sweep_wide|service_mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke] [--corrupt-reference] [--out-dir <dir>]\n",
                 problem);
    std::exit(2);
}

const char* workload_name(Workload w) {
    switch (w) {
        case Workload::kVp:
            return "vp_rc20";
        case Workload::kSweep:
            return "sweep_wide";
        case Workload::kService:
            return "service_mix";
    }
    return "";
}

RunOptions parse(int argc, char** argv) {
    RunOptions o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + arg).c_str());
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            const std::string w = value();
            have_workload = true;
            if (w == "vp_rc20") {
                o.workload = Workload::kVp;
            } else if (w == "sweep_wide") {
                o.workload = Workload::kSweep;
            } else if (w == "service_mix") {
                o.workload = Workload::kService;
            } else {
                usage(("unknown workload " + w).c_str());
            }
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::atof(value().c_str());
            if (!(o.seconds > 0.0)) {
                usage("--seconds must be positive");
            }
        } else if (arg == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1") {
                usage("--trace takes 0 or 1");
            }
            o.trace = t == "1";
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--corrupt-reference") {
            o.corrupt_reference = true;
        } else if (arg == "--out-dir") {
            o.out_dir = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload) {
        usage("--workload is required");
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    o.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                  ? static_cast<unsigned>(CPU_COUNT(&set))
                  : std::max(1u, std::thread::hardware_concurrency());
    return o;
}

std::string first_line_with(const char* path, const char* key) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            return line;
        }
    }
    return {};
}

/// The value after the ':' of a "key : value" line, trimmed.
std::string after_colon(const std::string& line) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
        return {};
    }
    const std::size_t begin = line.find_first_not_of(" \t", colon + 1);
    return begin == std::string::npos ? std::string{} : line.substr(begin);
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
        }
        if (static_cast<unsigned char>(c) >= 0x20) {
            out.push_back(c);
        }
    }
    return out;
}

/// Host fingerprint: numbers from different hosts are never compared
/// silently.
std::string host_fingerprint(const RunOptions& o) {
    std::string cpu = after_colon(first_line_with("/proc/cpuinfo", "model name"));
    long l1d = sysconf(_SC_LEVEL1_DCACHE_SIZE);
    if (l1d <= 0) {
        std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index0/size");
        std::string size;
        in >> size;
        l1d = std::atol(size.c_str()) * (size.find('K') != std::string::npos ? 1024 : 1);
    }
    std::ostringstream out;
    out << "{\"cpu_model\": \"" << json_escape(cpu) << "\", \"nproc\": " << o.nproc
        << ", \"l1d_bytes\": " << l1d << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"llvm_version\": \"" << PERFBENCH_LLVM_VERSION
        << "\", \"orc_jit\": " << (codegen::orc_available() ? "true" : "false")
        << ", \"external_compiler\": "
        << (codegen::native_compilation_available() ? "true" : "false") << "}";
    return out.str();
}

double peak_rss_mb() {
    const std::string line = first_line_with("/proc/self/status", "VmHWM:");
    return std::atof(after_colon(line).c_str()) / 1024.0;
}

std::string metrics_json(const std::map<std::string, Ledger::Metric>& metrics) {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
            << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    out << "}";
    return out.str();
}

/// Per-layer metrics read off the spans of the traced run.
void span_layers(Ledger& ledger) {
    const std::map<std::string, SpanStats> stats = Tracer::stats();
    const auto median_ms = [&](const char* metric, const char* span) {
        const auto it = stats.find(span);
        if (it != stats.end()) {
            ledger.layer(metric, it->second.median_self_ms, "ms");
        }
    };
    median_ms("abstraction.abstract_ms", "abstraction.abstract_circuit.RC20");
    median_ms("runtime.fingerprint_ms", "runtime.model_fingerprint");
    median_ms("runtime.layout_compile_ms", "runtime.ModelLayout::compile");
    median_ms("analysis.verify_ms", "analysis.verify_layout");
    median_ms("codegen.orc_compile_ms", "codegen.OrcJitProgram::compile");
    median_ms("codegen.native_model_compile_ms", "codegen.NativeModel::compile");
    ledger.layer("trace.overhead_ratio",
                 ledger.traced_op_seconds.median() / ledger.untraced_op_seconds.median(),
                 "ratio");
    ledger.layer("trace.spans", static_cast<double>(Tracer::span_count()), "count");
}

bool write_layers_file(const std::string& path, const std::string& host, const Ledger& ledger) {
    std::ofstream out(path);
    out << "{\"host\": " << host << ",\n \"metrics\": " << metrics_json(ledger.layers())
        << ",\n \"spans\": {";
    bool first = true;
    for (const auto& [name, s] : Tracer::stats()) {
        out << (first ? "\n  " : ",\n  ") << "\"" << name << "\": {\"count\": " << s.count
            << ", \"total_ms\": " << s.total_ms << ", \"self_ms\": " << s.self_ms
            << ", \"median_ms\": " << s.median_ms << ", \"median_self_ms\": " << s.median_self_ms
            << "}";
        first = false;
    }
    out << "\n }}\n";
    return static_cast<bool>(out);
}

int run(int argc, char** argv) {
    const RunOptions options = parse(argc, argv);
    if (options.trace) {
        Tracer::enable();
    }
    const std::string host = host_fingerprint(options);
    Ledger ledger;
    Samples setup;
    // Set-up, the workload's own surface first.
    const Workload own = options.workload;
    const std::array<Workload, 3> order = {
        own, own == Workload::kVp ? Workload::kSweep : Workload::kVp,
        own == Workload::kService ? Workload::kSweep : Workload::kService};
    std::map<Workload, std::unique_ptr<Surface>> surfaces;
    for (const Workload w : order) {
        const bool primary = w == own;
        switch (w) {
            case Workload::kVp:
                surfaces[w] = make_vp(options, primary, ledger, setup);
                break;
            case Workload::kSweep:
                surfaces[w] = make_sweep(options, primary, ledger, setup);
                break;
            case Workload::kService:
                surfaces[w] = make_service(options, primary, ledger, setup);
                break;
        }
    }
    // Interleaved time slices, so that every metric spans the whole run and
    // host speed drifts reach all of them alike. On vp_rc20 the platform
    // gets half of the slices and the others a quarter each. The platform
    // rows are the noisiest metrics (a single-threaded, load-heavy loop
    // that host contention slows by up to ~2x for seconds at a time; they
    // report their fastest call, vp.cpp), so elsewhere vp gets as many
    // slices as the workload's own surface: 40 % each, 20 % for the third.
    const std::vector<Workload> cycle =
        own == Workload::kVp
            ? std::vector<Workload>{order[0], order[1], order[0], order[2]}
            : std::vector<Workload>{order[0], order[1], order[0], order[1], order[2]};
    const auto slice_ns = static_cast<std::int64_t>((options.smoke ? 0.1 : 0.5) * 1e9);
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    for (std::size_t i = 0; i < cycle.size() || now_ns() < end; ++i) {
        surfaces.at(cycle[i % cycle.size()])->run_until(std::min(now_ns() + slice_ns, end));
    }
    for (const Workload w : order) {
        surfaces.at(w)->report();
    }
    run_accuracy(options, ledger);

    ledger.end_to_end("setup_s", setup.median(), "s");
    ledger.distribution("setup_s", setup);
    ledger.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");

    std::printf("{\"host\": %s}\n", host.c_str());
    if (options.trace) {
        run_compile_layers(options, ledger);
        span_layers(ledger);
        const std::string stem = options.out_dir + "/perfbench-" +
                                 workload_name(options.workload) + "-seed" +
                                 std::to_string(options.seed);
        const bool written = write_layers_file(stem + ".layers.json", host, ledger) &&
                             Tracer::write_chrome_trace(stem + ".trace.json");
        if (!written) {
            std::fprintf(stderr, "amsvp_perfbench: cannot write %s.*\n", stem.c_str());
            return 1;
        }
        std::printf("{\"trace_files\": [\"%s.layers.json\", \"%s.trace.json\"]}\n",
                    stem.c_str(), stem.c_str());
    } else {
        std::printf("{\"distributions\": {");
        bool first = true;
        for (const auto& [name, detail] : ledger.distributions()) {
            std::printf("%s\"%s\": %s", first ? "" : ", ", name.c_str(), detail.c_str());
            first = false;
        }
        std::printf("}}\n");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                ledger.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()),
                metrics_json(options.trace ? ledger.layers() : ledger.end_to_end()).c_str());
    return 0;
}

}  // namespace
}  // namespace amsvp::perfbench

int main(int argc, char** argv) { return amsvp::perfbench::run(argc, argv); }
