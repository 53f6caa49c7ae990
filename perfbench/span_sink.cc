#include "span_sink.h"

#include <time.h>

#include <cstdio>
#include <memory>

#include "alloc_count.h"
#include "util/error.h"

namespace perfbench {

namespace {

std::int64_t
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

} // namespace

Stamp
Stamp::now()
{
    timespec cpu{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    return Stamp{Clock::now(), double(cpu.tv_sec) + double(cpu.tv_nsec) * 1e-9};
}

void
DomainSpanSink::begin()
{
    domains_.clear();
    spans_.clear();
    first_fire_ = Stamp();
    open_ = false;
    fired_ = 0;
    start_ = Clock::now();
}

void
DomainSpanSink::closeOpenSpan(Clock::time_point now, std::uint64_t allocs)
{
    if (!open_)
        return;
    Span& span = spans_.back();
    span.endNs = nanosBetween(start_, now);
    DomainTotals& totals = domains_[std::size_t(span.domain)];
    totals.selfSec += double(span.endNs - span.startNs) * 1e-9;
    totals.allocations += allocs - open_allocs_;
    open_ = false;
}

void
DomainSpanSink::cut()
{
    closeOpenSpan(Clock::now(), allocationCount());
}

int
DomainSpanSink::domainIndex(const hddtherm::engine::TraceEvent& event)
{
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        if (domains_[i].name == event.domainName)
            return int(i);
    }
    domains_.push_back(DomainTotals{event.domainName});
    return int(domains_.size() - 1);
}

void
DomainSpanSink::onEvent(const hddtherm::engine::TraceEvent& event)
{
    if (event.kind != hddtherm::engine::TraceKind::Fired)
        return;
    const auto now = Clock::now();
    closeOpenSpan(now, allocationCount());
    if (fired_ == 0)
        first_fire_ = Stamp::now();

    const int domain = domainIndex(event);
    ++domains_[std::size_t(domain)].fired;
    ++fired_;
    const std::int64_t at = nanosBetween(start_, now);
    spans_.push_back(Span{at, at, event.when, event.id, domain});
    open_ = true;
    // Read after the push so the sink's own growth is charged to no one.
    open_allocs_ = allocationCount();
}

DomainTotals
DomainSpanSink::domain(const std::string& name) const
{
    for (const auto& totals : domains_) {
        if (totals.name == name)
            return totals;
    }
    return DomainTotals{name};
}

void
DomainSpanSink::writeSpans(const std::string& path) const
{
    const std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
        std::fopen(path.c_str(), "w"), &std::fclose);
    HDDTHERM_REQUIRE(out != nullptr, "cannot write spans to " + path);
    std::fputs("domain,when_s,start_ns,end_ns\n", out.get());
    for (const Span& span : spans_) {
        std::fprintf(out.get(), "%s,%.17g,%lld,%lld\n",
                     domains_[std::size_t(span.domain)].name.c_str(),
                     span.when, static_cast<long long>(span.startNs),
                     static_cast<long long>(span.endNs));
    }
    HDDTHERM_REQUIRE(std::ferror(out.get()) == 0,
                     "error writing spans to " + path);
}

void
FirstFireProbe::onEvent(const hddtherm::engine::TraceEvent& event)
{
    if (event.kind != hddtherm::engine::TraceKind::Fired)
        return;
    if (fired_++ == 0)
        first_ = Stamp::now();
}

} // namespace perfbench
