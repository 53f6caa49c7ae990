/**
 * @file
 * RAID striping arithmetic (paper §5.1: RAID-5, stripe of 16 sectors).
 *
 * Pure address-mapping functions, separated from the event-driven
 * controller so they can be property-tested in isolation.  RAID-5 uses
 * left-symmetric rotated parity: in row r the parity unit lives on disk
 * (disks - 1 - r % disks) and data units fill the remaining disks in
 * increasing order.
 */
#ifndef HDDTHERM_SIM_RAID_H
#define HDDTHERM_SIM_RAID_H

#include <cstdint>
#include <vector>

namespace hddtherm::sim {

/// RAID organizations supported by the storage system.
enum class RaidLevel
{
    None,  ///< Independent disks addressed by device id.
    Raid0, ///< Striping, no redundancy.
    Raid1, ///< Mirroring: writes to all members, reads steered to one.
    Raid5, ///< Striping with rotated parity.
};

/// Human-readable level name.
const char* raidLevelName(RaidLevel level);

/// One physical extent produced by striping a logical request.
struct StripeTarget
{
    int disk = 0;           ///< Member disk index.
    std::int64_t lba = 0;   ///< Sector address on that disk.
    int sectors = 0;        ///< Extent length.

    bool operator==(const StripeTarget&) const = default;
};

/**
 * Split a logical extent across a RAID-0 array.
 *
 * @param lba logical start sector.
 * @param sectors extent length.
 * @param disks array width (>= 1).
 * @param stripe_sectors stripe-unit size in sectors.
 */
std::vector<StripeTarget> stripeRaid0(std::int64_t lba, int sectors,
                                      int disks, int stripe_sectors);

/// As stripeRaid0(), writing the targets into @p out (cleared first) so
/// a caller can reuse its storage.
void stripeRaid0(std::int64_t lba, int sectors, int disks,
                 int stripe_sectors, std::vector<StripeTarget>& out);

/**
 * Split a logical extent across the data units of a RAID-5 array
 * (parity units are not included; see raid5ParityTarget()).
 *
 * @param disks array width (>= 3 for a meaningful RAID-5).
 */
std::vector<StripeTarget> stripeRaid5Data(std::int64_t lba, int sectors,
                                          int disks, int stripe_sectors);

/// As stripeRaid5Data(), writing the targets into @p out (cleared
/// first).  Targets come in ascending LBA order, so each row's targets
/// are one contiguous run, rows ascending.
void stripeRaid5Data(std::int64_t lba, int sectors, int disks,
                     int stripe_sectors, std::vector<StripeTarget>& out);

/// Disk holding the parity unit of RAID-5 row @p row.
int raid5ParityDisk(std::int64_t row, int disks);

/// Parity-unit extent of RAID-5 row @p row.
StripeTarget raid5ParityTarget(std::int64_t row, int disks,
                               int stripe_sectors);

/// RAID-5 row containing the given data target.
std::int64_t raid5RowOfTarget(const StripeTarget& target,
                              int stripe_sectors);

/**
 * Logical capacity of an array built from @p disks members of
 * @p disk_sectors sectors each.
 */
std::int64_t arrayLogicalSectors(RaidLevel level, int disks,
                                 std::int64_t disk_sectors);

} // namespace hddtherm::sim

#endif // HDDTHERM_SIM_RAID_H
