/**
 * @file
 * The benchmark's three workloads (README.md says why each was chosen).
 *
 *   fig4_replay   the five Figure 4 scenarios at base RPM, storage only
 *   dtm_day       one simulated day of a governed Search-Engine co-sim
 *   fleet64_ckpt  the 64-drive fleet with delta+compressed checkpoints
 *
 * A workload runs one repetition at a time: set-up (timed per step),
 * the run proper, and the output checks.  Inputs are pure functions of
 * the seed, so every repetition of a process replays identical traces.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "span_sink.h"

namespace perfbench {

/// @p num / @p den, or 0 when @p den is not positive.
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/// Linear-interpolation quantile @p p of @p values (0 if empty).
double quantile(std::vector<double> values, double p);

/// The seed whose output digests reference/<workload>.digest pins.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// Host CPU seconds (all threads) of each set-up step of one repetition.
struct SetupTimes
{
    double build = 0.0; ///< Configuration wiring and system construction.
    double gen = 0.0;   ///< Trace generation.
    double start = 0.0; ///< CoSimEngine construction and start().

    double total() const { return build + gen + start; }
};

/// Outcome of one repetition.
struct Rep
{
    SetupTimes setup;
    double runSec = 0.0;          ///< Host CPU seconds of the run phase.
    double runWallSec = 0.0;      ///< Wall-clock seconds of the run phase.
    std::uint64_t attempted = 0;  ///< Requests in the repetition's traces.
    std::uint64_t completed = 0;  ///< Requests that completed.
    double simulatedSec = 0.0;    ///< Simulated seconds covered.
    std::string digest;           ///< Output digest, one fact per line.
    std::vector<std::string> errors; ///< Output checks that failed.
    /// Per-layer statistics by metric name.  Simulated-system figures
    /// are exact; trace-derived ones appear only on traced repetitions.
    std::map<std::string, double> stats;
};

/// One benchmark workload.
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Set up, run and check one repetition.  @p sink, when non-null,
     * observes the run phase: the workload calls begin() before it,
     * cut() after it, and attaches the sink to every kernel it drives.
     */
    virtual Rep run(DomainSpanSink* sink) = 0;
};

/// Names makeWorkload() accepts.
const std::vector<std::string>& workloadNames();

/**
 * Build workload @p name for inputs derived from @p seed.  @p work_dir
 * is a directory the workload may fill (fleet64_ckpt's checkpoints).
 * @throws util::ModelError on an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& work_dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
