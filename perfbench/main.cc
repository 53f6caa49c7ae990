/**
 * @file
 * The HDDTherm benchmark (README.md documents metrics and workloads).
 *
 *   perfbench --workload fig4_replay|dtm_day|fleet64_ckpt --seed N
 *             --seconds S --trace 0|1 [--out DIR] [--write-reference]
 *
 * One process: a warm-up repetition (its output digest is the one every
 * later repetition must reproduce, and for the default seed the one
 * reference/<workload>.digest pins), then repetitions back to back until
 * --seconds of them have been measured.  With --trace 0 the last stdout
 * line is a JSON object of the end-to-end metrics; with --trace 1 every
 * repetition is followed by a traced twin and the JSON carries the
 * per-layer metrics.  Exit status 1 means an output check failed.
 *
 * End-to-end timings are host CPU seconds of the whole process, divided
 * by the host-speed swing a calibration loop measures between
 * repetitions (see calibrationSec()); raw CPU and wall-clock timings are
 * printed beside them in the summary.
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "harness/flags.h"
#include "span_sink.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// Default-seed digests, relative to the source root (the working
/// directory run.py starts the binary in).
constexpr const char* kReferenceDir = "perfbench/reference";

/// Fewest measured repetitions, however long each takes.
constexpr int kMinReps = 3;

/// Written by calibrationSec() so its work stays observable.
volatile double g_calibration_result = 0.0;

/// Events of one calibration pass, and its host time at the reference
/// host speed (about its time on the 4-vCPU Xeon host the README's
/// baseline comes from).
constexpr int kCalibrationEvents = 100000;
constexpr double kCalibrationRefSec = 0.03;

/**
 * Host CPU seconds of one pass of a fixed calibration loop.  The benchmark
 * shares its host, whose speed swings by up to 2x over tens of seconds;
 * timing this loop between repetitions measures the swing so it can be
 * divided out.  The loop mimics the simulator's hot path (a heap of
 * std::function events, each doing a small dense elimination on
 * heap-allocated rows and scheduling a capturing closure), so it slows
 * down with the simulator when the host does, but it is the benchmark's
 * own code: no change to the library can move it.
 */
double
calibrationSec()
{
    struct Event
    {
        double when;
        std::uint64_t seq;
        std::function<void()> cb;
    };
    struct Later
    {
        bool operator()(const Event& a, const Event& b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };
    const Stamp t0 = Stamp::now();
    std::priority_queue<Event, std::vector<Event>, Later> heap;
    std::uint64_t x = 7, seq = 0;
    double acc = 0.0;
    for (int i = 0; i < 64; ++i)
        heap.push({double(i), seq++, [] {}});
    for (int n = 0; n < kCalibrationEvents; ++n) {
        const double when = heap.top().when;
        heap.top().cb();
        heap.pop();
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::vector<std::vector<double>> m(4, std::vector<double>(5));
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 5; ++c)
                m[r][c] = double((x >> (r * 8 + c)) & 255) +
                          (r == c ? 1000.0 : 1.0);
        }
        for (int k = 0; k < 4; ++k) {
            for (int r = k + 1; r < 4; ++r) {
                const double f = m[r][k] / m[k][k];
                for (int c = k; c < 5; ++c)
                    m[r][c] -= f * m[k][c];
            }
        }
        acc += m[3][4] / m[3][3];
        const std::array<std::uint64_t, 3> capture{x, seq, std::uint64_t(n)};
        heap.push({when + double((x >> 50) & 1023) * 1e-3, seq++,
                   [capture, &acc] { acc += double(capture[0] & 1); }});
    }
    const double sec = cpuBetween(t0, Stamp::now());
    g_calibration_result = acc; // observable, so the loop is not elided
    return sec;
}

/// A reported metric: name, unit, value.
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

double
median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}

/// Per-repetition values of one quantity.
template <typename F>
std::vector<double>
collect(const std::vector<Rep>& reps, F&& f)
{
    std::vector<double> out;
    for (const Rep& rep : reps)
        out.push_back(f(rep));
    return out;
}

/// "median (q1..q3, n=N)" line for the human-readable summary.
void
printSpread(const char* name, const char* unit,
            const std::vector<double>& values)
{
    std::printf("# %-22s median %.6g %s  (q1 %.6g, q3 %.6g, min %.6g, "
                "max %.6g, n=%zu)\n",
                name, median(values), unit, quantile(values, 0.25),
                quantile(values, 0.75),
                *std::min_element(values.begin(), values.end()),
                *std::max_element(values.begin(), values.end()),
                values.size());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// Engine and thermal statistics of one traced repetition.
void
addTraceStats(const DomainSpanSink& sink, Rep& rep)
{
    double self_total = 0.0;
    std::uint64_t allocations = 0;
    for (const DomainTotals& domain : sink.domains()) {
        self_total += domain.selfSec;
        allocations += domain.allocations;
    }
    const double events = double(sink.fired());
    rep.stats["engine.events"] = events;
    rep.stats["engine.events_per_req"] =
        ratio(events, double(rep.completed));
    rep.stats["engine.allocs_per_event"] =
        ratio(double(allocations), events);
    for (const char* name : {"storage", "thermal", "fleet-epoch"})
        rep.stats[std::string("engine.self_s.") + name] =
            sink.domain(name).selfSec;
    rep.stats["engine.span_coverage"] = ratio(self_total, rep.runWallSec);

    const DomainTotals thermal = sink.domain("thermal");
    rep.stats["thermal.ticks"] = double(thermal.fired);
    rep.stats["thermal.self_us_per_tick"] =
        ratio(thermal.selfSec * 1e6, double(thermal.fired));
    rep.stats["thermal.allocs_per_tick"] =
        ratio(double(thermal.allocations), double(thermal.fired));
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Print a digest as "#"-prefixed summary lines under @p title.
void
printDigest(const std::string& title, const std::string& digest)
{
    std::printf("# %s:\n", title.c_str());
    std::istringstream lines(digest);
    for (std::string line; std::getline(lines, line);)
        std::printf("#   %s\n", line.c_str());
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
benchMain(int argc, char** argv)
{
    std::string workload_name;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string out_dir = ".bench_build/perfbench-out";
    bool write_reference = false;
    hddtherm::harness::FlagParser flags(
        "perfbench", "HDDTherm end-to-end and per-layer benchmark.");
    flags.addChoice("--workload", &workload_name, workloadNames(),
                    "workload to run");
    flags.addUint64("--seed", &seed, "N", "workload seed");
    flags.addDouble("--seconds", &seconds, "S",
                    "host seconds of measured repetitions");
    flags.addInt("--trace", &trace, "0|1",
                 "1: traced twins and per-layer metrics");
    flags.addString("--out", &out_dir, "DIR",
                    "output directory (checkpoints, span files)");
    flags.addSwitch("--write-reference", &write_reference,
                    "store this run's default-seed digest");
    flags.parseOrExit(argc, argv);
    if (workload_name.empty() || (trace != 0 && trace != 1) ||
        !(seconds > 0.0)) {
        std::fprintf(stderr, "perfbench: need --workload, --seconds > 0 "
                             "and --trace 0|1 (try --help)\n");
        return 2;
    }
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type != "Release") {
        std::fprintf(stderr, "perfbench: refusing to report from a '%s' "
                             "build; configure with "
                             "-DCMAKE_BUILD_TYPE=Release\n",
                     build_type.c_str());
        return 2;
    }
    std::filesystem::create_directories(out_dir);
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u build=%s\n",
                workload_name.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace, std::thread::hardware_concurrency(),
                build_type.c_str());
    std::fflush(stdout);

    const auto workload = makeWorkload(workload_name, seed, out_dir);

    // Warm-up: fills lazy caches (thermal calibration) and fixes the
    // digest every measured repetition must reproduce.
    const Rep warmup = workload->run(nullptr);
    std::vector<std::string> problems = warmup.errors;
    if (seed == kDefaultSeed) {
        const std::string path =
            std::string(kReferenceDir) + "/" + workload_name + ".digest";
        if (write_reference) {
            std::ofstream(path) << warmup.digest;
        } else if (readFile(path) != warmup.digest) {
            problems.push_back("digest differs from " + path);
            printDigest("expected digest (" + path + ")", readFile(path));
        }
    }
    const bool warmup_ok = problems.empty();

    // Each repetition's host-speed scale: reference calibration time
    // over the mean of the calibrations just before and just after it.
    std::vector<Rep> plain, traced;
    std::vector<double> scale;
    double peak_rss_mb = 0.0;
    DomainSpanSink sink;
    const auto start = Clock::now();
    double calibration = calibrationSec();
    while (int(plain.size()) < kMinReps ||
           secondsBetween(start, Clock::now()) < seconds) {
        plain.push_back(workload->run(nullptr));
        // Read after a fixed amount of work: the allocator's footprint
        // keeps creeping up over repetitions, so a later reading would
        // grow with the number of repetitions a faster build fits in.
        if (plain.size() == std::size_t(kMinReps))
            peak_rss_mb = peakRssMb();
        if (trace) {
            setAllocCounting(true);
            Rep rep = workload->run(&sink);
            setAllocCounting(false);
            addTraceStats(sink, rep);
            traced.push_back(std::move(rep));
        }
        const double next = calibrationSec();
        scale.push_back(2.0 * kCalibrationRefSec / (calibration + next));
        calibration = next;
    }
    if (trace)
        sink.writeSpans(out_dir + "/" + workload_name + ".spans.csv");

    std::uint64_t attempted = 0, failed = 0;
    for (const auto* reps : {&plain, &traced}) {
        for (const Rep& rep : *reps) {
            attempted += rep.attempted;
            const bool ok = warmup_ok && rep.errors.empty() &&
                            rep.digest == warmup.digest;
            failed += ok ? rep.attempted - rep.completed : rep.attempted;
            for (const auto& error : rep.errors)
                problems.push_back(error);
            if (rep.digest != warmup.digest)
                problems.push_back("a repetition's digest differs from "
                                   "the warm-up's");
        }
    }
    const bool correct = problems.empty() && failed == 0;

    // End-to-end timings are in host CPU seconds at the reference speed.
    std::vector<double> wall_run_s, raw_run_s, setup_s, run_s, req_per_s,
        sim_rate;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        const Rep& r = plain[i];
        wall_run_s.push_back(r.runWallSec);
        raw_run_s.push_back(r.runSec);
        setup_s.push_back(r.setup.total() * scale[i]);
        run_s.push_back(r.runSec * scale[i]);
        req_per_s.push_back(double(r.completed) / run_s.back());
        sim_rate.push_back(r.simulatedSec / run_s.back());
    }
    std::printf("# repetitions=%zu traced=%zu requests/rep=%llu\n",
                plain.size(), traced.size(),
                static_cast<unsigned long long>(warmup.attempted));
    printSpread("host_speed_scale", "", scale);
    printSpread("wall_run_s", "s", wall_run_s);
    printSpread("raw_run_s", "s", raw_run_s);
    printSpread("setup_s", "s", setup_s);
    printSpread("run_s", "s", run_s);
    printSpread("req_per_s", "1/s", req_per_s);
    printSpread("sim_s_per_host_s", "s/s", sim_rate);
    std::printf("# failed_frac            %.6g (%llu of %llu requests)\n",
                ratio(double(failed), double(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    printDigest("digest", warmup.digest);
    for (const auto& problem : problems)
        std::printf("# FAILED: %s\n", problem.c_str());

    std::vector<Metric> metrics;
    if (!trace) {
        metrics = {{"setup_s", "s", median(setup_s)},
                   {"req_per_s", "1/s", median(req_per_s)},
                   {"sim_s_per_host_s", "s/s", median(sim_rate)},
                   {"peak_rss_mb", "MB", peak_rss_mb}};
    } else {
        auto stat = [&](const std::string& name) {
            return median(collect(traced, [&](const Rep& r) {
                const auto it = r.stats.find(name);
                return it == r.stats.end() ? 0.0 : it->second;
            }));
        };
        const double events = stat("engine.events");
        auto setup = [&](double SetupTimes::*step) {
            return median(collect(plain, [step](const Rep& r) {
                return r.setup.*step;
            }));
        };
        metrics = {
            {"engine.events", "count", events},
            {"engine.events_per_req", "count", stat("engine.events_per_req")},
            {"engine.host_ns_per_event", "ns",
             ratio(median(raw_run_s) * 1e9, events)},
            {"engine.allocs_per_event", "count",
             stat("engine.allocs_per_event")},
            {"engine.self_s.storage", "s", stat("engine.self_s.storage")},
            {"engine.self_s.thermal", "s", stat("engine.self_s.thermal")},
            {"engine.self_s.fleet-epoch", "s",
             stat("engine.self_s.fleet-epoch")},
            {"engine.span_coverage", "ratio", stat("engine.span_coverage")},
            {"engine.trace_overhead", "ratio",
             ratio(median(collect(traced,
                                  [](const Rep& r) { return r.runSec; })),
                   median(raw_run_s))},
            {"sim.cache_hit_ratio", "ratio", stat("sim.cache_hit_ratio")},
            {"sim.seeks_per_req", "count", stat("sim.seeks_per_req")},
            {"sim.media_per_completion", "ratio",
             stat("sim.media_per_completion")},
            {"sim.busy_frac", "ratio", stat("sim.busy_frac")},
            {"sim.avg_queue_depth", "count", stat("sim.avg_queue_depth")},
            {"sim.overflow_frac", "ratio", stat("sim.overflow_frac")},
            {"sim.paper_err_pct", "%", stat("sim.paper_err_pct")},
            {"trace.gen_s", "s", setup(&SetupTimes::gen)},
            {"harness.build_s", "s", setup(&SetupTimes::build)},
            {"thermal.ticks", "count", stat("thermal.ticks")},
            {"thermal.self_us_per_tick", "us",
             stat("thermal.self_us_per_tick")},
            {"thermal.allocs_per_tick", "count",
             stat("thermal.allocs_per_tick")},
            {"dtm.start_s", "s", setup(&SetupTimes::start)},
            {"dtm.speed_changes", "count", stat("dtm.speed_changes")},
            {"dtm.gate_events", "count", stat("dtm.gate_events")},
            {"dtm.gated_s", "s", stat("dtm.gated_s")},
            {"fleet.epochs", "count", stat("fleet.epochs")},
            {"fleet.epoch_host_ms.p50", "ms",
             stat("fleet.epoch_host_ms.p50")},
            {"fleet.epoch_host_ms.p90", "ms",
             stat("fleet.epoch_host_ms.p90")},
            {"fleet.executor.tasks", "count", stat("fleet.executor.tasks")},
            {"fleet.executor.steals", "count",
             stat("fleet.executor.steals")},
            {"fleet.executor.batches", "count",
             stat("fleet.executor.batches")},
            {"snap.checkpoints", "count", stat("snap.checkpoints")},
            {"snap.bytes", "bytes", stat("snap.bytes")},
            {"snap.delta_ratio", "ratio", stat("snap.delta_ratio")},
            {"snap.host_ms_per_checkpoint", "ms",
             stat("snap.host_ms_per_checkpoint")},
        };
    }
    printJson(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
