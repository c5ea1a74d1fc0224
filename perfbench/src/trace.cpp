#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "common.hpp"

namespace amsvp::perfbench {
namespace {

struct State {
    std::atomic<bool> enabled{false};
    std::mutex mutex;  ///< guards spans
    std::vector<Span> spans;
    std::atomic<std::uint32_t> next_tid{0};
};

State& state() {
    static State s;
    return s;
}

/// Open spans of this thread, innermost last.
thread_local std::vector<int> open_stack;
thread_local bool muted = false;

std::uint32_t thread_index() {
    thread_local const std::uint32_t tid = state().next_tid.fetch_add(1);
    return tid;
}

}  // namespace

std::int64_t now_ns() {
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

Tracer::Scope::Scope(const std::string& name, std::int64_t op) {
    if (!muted && state().enabled.load(std::memory_order_relaxed)) {
        id_ = open(name, op);
    }
}

Tracer::Scope::~Scope() {
    if (id_ >= 0) {
        close(id_);
    }
}

Tracer::Mute::Mute(bool active) : previous_(muted) { muted = muted || active; }

Tracer::Mute::~Mute() { muted = previous_; }

void Tracer::enable() { state().enabled.store(true); }

int Tracer::open(const std::string& name, std::int64_t op) {
    State& s = state();
    Span span;
    span.name = name;
    span.tid = thread_index();
    span.parent = open_stack.empty() ? -1 : open_stack.back();
    std::lock_guard<std::mutex> lock(s.mutex);
    span.id = static_cast<int>(s.spans.size());
    span.op = (op < 0 && span.parent >= 0) ? s.spans[static_cast<std::size_t>(span.parent)].op
                                           : op;
    span.start_ns = now_ns();
    s.spans.push_back(std::move(span));
    open_stack.push_back(s.spans.back().id);
    return s.spans.back().id;
}

void Tracer::close(int id) {
    const std::int64_t end = now_ns();
    open_stack.pop_back();
    State& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.spans[static_cast<std::size_t>(id)].end_ns = end;
}

std::size_t Tracer::span_count() {
    State& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.spans.size();
}

std::map<std::string, SpanStats> Tracer::stats() {
    State& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    // Children of one span run on its thread, nested and one after another,
    // so the time they cover is the plain sum of their durations.
    std::vector<std::int64_t> child_ns(s.spans.size(), 0);
    for (const Span& span : s.spans) {
        if (span.parent >= 0) {
            child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
        }
    }
    std::map<std::string, Samples> durations;
    std::map<std::string, Samples> self_durations;
    for (const Span& span : s.spans) {
        const double ms = static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
        const double self_ms =
            ms - static_cast<double>(child_ns[static_cast<std::size_t>(span.id)]) * 1e-6;
        durations[span.name].add(ms);
        self_durations[span.name].add(self_ms);
    }
    std::map<std::string, SpanStats> out;
    for (const auto& [name, values] : durations) {
        const Samples& self = self_durations[name];
        out[name] = SpanStats{values.size(), values.sum(), self.sum(), values.median(),
                              self.median()};
    }
    return out;
}

bool Tracer::write_chrome_trace(const std::string& path) {
    State& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < s.spans.size(); ++i) {
        const Span& span = s.spans[i];
        // Span names are benchmark-chosen identifiers: no characters that
        // need JSON escaping.
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %d, \"parent\": %d, \"op\": %lld}}%s\n",
                     span.name.c_str(), span.name.substr(0, span.name.find('.')).c_str(),
                     span.tid, static_cast<double>(span.start_ns) * 1e-3,
                     static_cast<double>(span.end_ns - span.start_ns) * 1e-3, span.id,
                     span.parent, static_cast<long long>(span.op),
                     i + 1 < s.spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

}  // namespace amsvp::perfbench
