/**
 * @file
 * Map from a pending event's sequence number to its snap::EventTag.
 *
 * Snapshot bookkeeping inserts and erases one entry per scheduled event,
 * so this map sits on the kernel's hot path whenever snapshots are
 * enabled.  It is the flat Robin Hood table of util/flat_map.h, which
 * stays allocation-free once grown to the pending-event set;
 * bench_snap_overhead gates the resulting overhead.
 */
#ifndef HDDTHERM_ENGINE_TAG_MAP_H
#define HDDTHERM_ENGINE_TAG_MAP_H

#include "snap/snapshot.h"
#include "util/flat_map.h"

namespace hddtherm::engine {

/// seq -> EventTag map for the kernel's snapshot path.  Keys must be
/// unique (the kernel's sequence counter guarantees it).
using EventTagMap = util::FlatU64Map<snap::EventTag>;

} // namespace hddtherm::engine

#endif // HDDTHERM_ENGINE_TAG_MAP_H
