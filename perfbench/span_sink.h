/**
 * @file
 * Per-clock-domain host-time attribution for the traced benchmark run.
 *
 * The kernel reports every event it fires (hddtherm::engine::TraceSink) just
 * before running the event's callback.  DomainSpanSink turns that stream
 * into spans of host time: the span opened by one Fired event lasts
 * until the next Fired event (or a cut()), and belongs to the first
 * event's clock domain.  Summing spans per domain gives each domain's
 * self time, and the heap allocations counted inside a span
 * (alloc_count.h) are charged to the same domain.  Host time outside
 * every span — request submission before the first event, result
 * collection after the last — is the window's unattributed remainder.
 *
 * Spans stay in memory and are written out once, after the run.
 */
#ifndef PERFBENCH_SPAN_SINK_H
#define PERFBENCH_SPAN_SINK_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/trace.h"

namespace perfbench {

/// Host clock of every benchmark measurement.
using Clock = std::chrono::steady_clock;

/// Seconds between two host time points.
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// The wall clock and the process's CPU clock, read together.
struct Stamp
{
    Clock::time_point wall{};
    double cpu = 0.0; ///< CPU seconds used so far by all threads.

    static Stamp now();
};

/// CPU seconds used by the whole process between two stamps.
inline double
cpuBetween(const Stamp& a, const Stamp& b)
{
    return b.cpu - a.cpu;
}

/// One span of host time charged to a clock domain.
struct Span
{
    std::int64_t startNs = 0; ///< Host time from the window's start.
    std::int64_t endNs = 0;
    double when = 0.0;        ///< Simulated fire time of the opening event.
    std::uint64_t id = 0;     ///< Kernel sequence number of that event.
    int domain = 0;           ///< Index into DomainSpanSink::domains().
};

/// Self time, events and allocations of one clock domain.
struct DomainTotals
{
    std::string name;
    double selfSec = 0.0;
    std::uint64_t fired = 0;
    std::uint64_t allocations = 0;
};

/// Attributes host time and allocations to clock domains (see file doc).
class DomainSpanSink : public hddtherm::engine::TraceSink
{
  public:
    /// Open the measurement window and forget everything recorded.
    void begin();

    /// Close the open span, if any; host time until the next Fired
    /// event is left unattributed.  Call it when the run ends, too.
    void cut();

    void onEvent(const hddtherm::engine::TraceEvent& event) override;

    const std::vector<DomainTotals>& domains() const { return domains_; }

    /// Totals of the domain called @p name (zeros if it never fired).
    DomainTotals domain(const std::string& name) const;

    const std::vector<Span>& spans() const { return spans_; }

    /// Events fired inside the window, all domains.
    std::uint64_t fired() const { return fired_; }

    /// When the first Fired event arrived (zero if none did).
    const Stamp& firstFire() const { return first_fire_; }

    /// Write "domain,when_s,start_ns,end_ns" rows, one per span.
    /// @throws util::ModelError if the file cannot be written.
    void writeSpans(const std::string& path) const;

  private:
    int domainIndex(const hddtherm::engine::TraceEvent& event);
    void closeOpenSpan(Clock::time_point now, std::uint64_t allocs);

    Clock::time_point start_{};
    Stamp first_fire_;
    std::vector<DomainTotals> domains_;
    std::vector<Span> spans_;
    bool open_ = false;            ///< spans_.back() is still running.
    std::uint64_t open_allocs_ = 0; ///< Count when the open span began.
    std::uint64_t fired_ = 0;
};

/**
 * Untraced companion: records only when the first event fired and how
 * many fired.  The fleet workload needs it to split set-up (shard
 * construction and per-bay trace generation, inside
 * FleetSimulation::run) from the run proper; it sees one event per
 * epoch, so its cost does not show.
 */
class FirstFireProbe : public hddtherm::engine::TraceSink
{
  public:
    void onEvent(const hddtherm::engine::TraceEvent& event) override;

    /// When the first Fired event arrived (zero if none did).
    const Stamp& firstFire() const { return first_; }

    std::uint64_t fired() const { return fired_; }

  private:
    Stamp first_;
    std::uint64_t fired_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_SINK_H
