// In-memory span recorder for the traced benchmark run.
//
// Spans are opened by the benchmark around its calls into the library's
// public functions (the library itself is not instrumented). Each span has
// a name, start, end, parent span and operation id; spans are kept in
// memory and written only when the run ends, as per-layer JSON and as a
// Chrome Trace Event Format file (loads in Perfetto / chrome://tracing).
// When tracing is off a Scope costs one branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace amsvp::perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
[[nodiscard]] std::int64_t now_ns();

struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = -1;         ///< id of the enclosing span on the same thread, -1 at top
    std::int64_t op = -1;    ///< benchmark operation the span belongs to, -1 for none
    std::uint32_t tid = 0;   ///< small per-thread index (Chrome trace track)
};

/// Duration statistics of all spans sharing one name.
struct SpanStats {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus the time covered by child spans
    double median_ms = 0.0;
    double median_self_ms = 0.0;
};

class Tracer {
public:
    /// RAII span: opened at construction, closed at destruction. Does
    /// nothing while tracing is disabled.
    class Scope {
    public:
        Scope(const std::string& name, std::int64_t op = -1);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        int id_ = -1;
    };

    /// While alive, spans opened on this thread are not recorded: the
    /// traced run alternates traced and untraced operations to measure the
    /// tracing overhead.
    class Mute {
    public:
        explicit Mute(bool active);
        ~Mute();
        Mute(const Mute&) = delete;
        Mute& operator=(const Mute&) = delete;

    private:
        bool previous_ = false;
    };

    static void enable();

    /// Per-name statistics over every closed span.
    [[nodiscard]] static std::map<std::string, SpanStats> stats();

    /// Chrome Trace Event Format ("X" complete events); false on I/O error.
    static bool write_chrome_trace(const std::string& path);

    [[nodiscard]] static std::size_t span_count();

private:
    static int open(const std::string& name, std::int64_t op);
    static void close(int id);
};

}  // namespace amsvp::perfbench
