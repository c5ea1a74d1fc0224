#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "abstraction/abstraction.hpp"
#include "trace.hpp"

namespace amsvp::perfbench {

double Samples::sum() const {
    double total = 0.0;
    for (const double v : values_) {
        total += v;
    }
    return total;
}

double Samples::quantile(double q) const {
    if (values_.empty()) {
        return 0.0;
    }
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Samples::percentile(double p) const {
    if (values_.empty()) {
        return 0.0;
    }
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Samples::tail_percentile() const {
    const std::size_t n = values_.size();
    if (n < 11) {
        return 0.0;
    }
    // Nearest rank n - 10 leaves exactly ten samples above it.
    return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

void Ledger::op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: FAILED operation: %s\n", what.c_str());
    }
}

void Ledger::end_to_end(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = Metric{value, unit};
}

void Ledger::layer(const std::string& name, double value, const std::string& unit) {
    layers_[name] = Metric{value, unit};
}

void Ledger::distribution(const std::string& name, const Samples& samples) {
    char buf[256];
    const double tail = samples.tail_percentile();
    std::snprintf(buf, sizeof buf,
                  "{\"samples\": %zu, \"median\": %.6g, \"tail_percentile\": %.4g, "
                  "\"tail_value\": %.6g}",
                  samples.size(), samples.median(), tail,
                  tail > 0.0 ? samples.percentile(tail) : 0.0);
    distributions_[name] = buf;
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
    std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                      static_cast<std::uint32_t>(stream)};
    engine_.seed(seq);
}

double Rng::uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int Rng::integer(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

abstraction::SignalFlowModel abstract(const netlist::Circuit& circuit,
                                      const std::string& name) {
    Tracer::Scope span("abstraction.abstract_circuit." + name);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    if (!model) {
        std::fprintf(stderr, "perfbench: abstraction of %s failed: %s\n", name.c_str(),
                     error.c_str());
        std::exit(3);
    }
    return std::move(*model);
}

namespace {

struct Fnv {
    std::uint64_t h = 1469598103934665603ULL;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h = (h ^ b[i]) * 1099511628211ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

}  // namespace

std::uint64_t checksum(const runtime::SweepResult& result) {
    Fnv f;
    f.u64(result.steps);
    for (const numeric::WaveformBatch& out : result.outputs) {
        f.u64(out.lanes());
        f.u64(out.size());
        for (std::size_t k = 0; k < out.size(); ++k) {
            f.bytes(out.frame_data(k), out.lanes() * sizeof(double));
        }
    }
    for (const std::size_t s : result.settled_at) {
        f.u64(s);
    }
    for (const runtime::LaneHealth& h : result.lane_health) {
        f.u64(static_cast<std::uint64_t>(h.status));
        f.u64(h.failed_at);
    }
    return f.h;
}

bool clean(const runtime::SweepResult& result) {
    if (!result.diagnostics.empty()) {
        return false;
    }
    return std::all_of(result.lane_health.begin(), result.lane_health.end(),
                       [](const runtime::LaneHealth& h) {
                           return h.status == runtime::LaneStatus::kOk;
                       });
}

double seconds_since(std::int64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

}  // namespace amsvp::perfbench
