/**
 * @file
 * Checkpoint/restore vocabulary shared by every snapshottable module.
 *
 * The event record is the checkpoint record.  A kernel event is plain
 * data — {when, key, kind, aux, payload} — and SimKernel::saveState()
 * writes the pending ones exactly as they sit in the heap.  `kind`
 * selects the handler, `aux` addresses the component that owns the
 * event (a disk id, a periodic-task index), and `payload` is one word
 * of kind-specific data (an arrival's slot in the storage controller's
 * request table).  Any further state an event needs lives with its
 * owner and is saved in the owner's own section: the disk saves the
 * request it is serving, the controller its pending arrivals.
 *
 * Modules register one handler per (kind, aux) with their kernel at
 * construction, so a rebuilt object graph dispatches restored records
 * with no resolver: loadState() only checks each record against the
 * handler table and throws util::ModelError on one it cannot place.
 * Periodic tasks are identified the same way, by a task kind.
 *
 * The kind ids below are stable on-disk constants.  Closures
 * (kEvtClosure) and closure periodic tasks (kTaskClosure) have no
 * record: while one is pending or alive the kernel refuses to save.
 * The closed-loop driver, the hybrid SSD/HDD system and the mirror
 * controller schedule closures and so cannot be checkpointed (see
 * docs/checkpoint.md).
 */
#ifndef HDDTHERM_SNAP_SNAPSHOT_H
#define HDDTHERM_SNAP_SNAPSHOT_H

#include <cstdint>

namespace hddtherm::snap {

class StateWriter;
class StateReader;

/// @name Event kinds (stable on-disk identifiers).
/// @{
inline constexpr std::uint32_t kEvtClosure = 0;    ///< Closure (never saved).
inline constexpr std::uint32_t kEvtPeriodic = 1;   ///< Periodic-task tick.
inline constexpr std::uint32_t kEvtArrival = 2;    ///< Logical I/O arrival.
inline constexpr std::uint32_t kEvtDiskFinish = 3; ///< Disk service finish.
inline constexpr std::uint32_t kEvtDiskRetry = 4;  ///< Disk dispatch retry.
/// @}

/// @name Periodic-task kinds (stable on-disk identifiers).
/// @{
inline constexpr std::uint32_t kTaskClosure = 0;   ///< Never saved alive.
inline constexpr std::uint32_t kTaskDtmTick = 16;  ///< Co-sim control tick.
inline constexpr std::uint32_t kTaskDtmCheckpoint = 17;   ///< Co-sim ckpt.
inline constexpr std::uint32_t kTaskFleetBarrier = 18;    ///< Epoch barrier.
inline constexpr std::uint32_t kTaskFleetCheckpoint = 19; ///< Fleet ckpt.
/// @}

} // namespace hddtherm::snap

#endif // HDDTHERM_SNAP_SNAPSHOT_H
