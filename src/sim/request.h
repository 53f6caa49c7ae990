/**
 * @file
 * I/O request types shared by the storage simulator.
 */
#ifndef HDDTHERM_SIM_REQUEST_H
#define HDDTHERM_SIM_REQUEST_H

#include <array>
#include <bit>
#include <cstdint>

#include "engine/trace.h"

namespace hddtherm::sim {

/// Request direction.
enum class IoType
{
    Read,
    Write,
};

/// One block-level I/O request (sectors are 512 bytes).
struct IoRequest
{
    std::uint64_t id = 0;     ///< Unique request id.
    engine::SimTime arrival = 0.0;    ///< Issue time, seconds.
    int device = 0;           ///< Target logical device.
    std::int64_t lba = 0;     ///< Starting sector.
    int sectors = 1;          ///< Length in sectors.
    IoType type = IoType::Read;

    /// True for writes.
    bool isWrite() const { return type == IoType::Write; }
};

/// @name Checkpoint packing.
/// An IoRequest packs losslessly into five 64-bit words — the encoding of
/// requests in checkpoint blobs (queues, in-flight and arrival tables)
/// and of workload fingerprints.
/// @{
inline void
packIoRequest(const IoRequest& r, std::uint64_t* w)
{
    w[0] = r.id;
    w[1] = std::bit_cast<std::uint64_t>(r.arrival);
    w[2] = std::uint64_t(r.lba);
    w[3] = std::uint64_t(std::uint32_t(r.device)) << 32 |
           std::uint32_t(r.sectors);
    w[4] = r.isWrite() ? 1 : 0;
}

inline IoRequest
unpackIoRequest(const std::uint64_t* w)
{
    IoRequest r;
    r.id = w[0];
    r.arrival = std::bit_cast<double>(w[1]);
    r.lba = std::int64_t(w[2]);
    r.device = int(std::int32_t(w[3] >> 32));
    r.sectors = int(std::int32_t(std::uint32_t(w[3])));
    r.type = w[4] ? IoType::Write : IoType::Read;
    return r;
}
/// @}

/// Completion record for one logical request.
struct IoCompletion
{
    std::uint64_t id = 0;
    engine::SimTime arrival = 0.0;
    engine::SimTime finish = 0.0;

    /// End-to-end response time in milliseconds.
    double responseTimeMs() const { return (finish - arrival) * 1e3; }
};

} // namespace hddtherm::sim

#endif // HDDTHERM_SIM_REQUEST_H
