#include "sim/raid.h"

#include <algorithm>

#include "util/error.h"

namespace hddtherm::sim {

const char*
raidLevelName(RaidLevel level)
{
    switch (level) {
      case RaidLevel::None:
        return "JBOD";
      case RaidLevel::Raid0:
        return "RAID-0";
      case RaidLevel::Raid1:
        return "RAID-1";
      case RaidLevel::Raid5:
        return "RAID-5";
    }
    return "UNKNOWN";
}

namespace {

void
validateStripeArgs(std::int64_t lba, int sectors, int disks,
                   int stripe_sectors, int min_disks)
{
    HDDTHERM_REQUIRE(lba >= 0, "negative LBA");
    HDDTHERM_REQUIRE(sectors >= 1, "empty extent");
    HDDTHERM_REQUIRE(disks >= min_disks, "too few disks for this level");
    HDDTHERM_REQUIRE(stripe_sectors >= 1, "stripe unit must be positive");
}

} // namespace

std::vector<StripeTarget>
stripeRaid0(std::int64_t lba, int sectors, int disks, int stripe_sectors)
{
    std::vector<StripeTarget> out;
    stripeRaid0(lba, sectors, disks, stripe_sectors, out);
    return out;
}

void
stripeRaid0(std::int64_t lba, int sectors, int disks, int stripe_sectors,
            std::vector<StripeTarget>& out)
{
    validateStripeArgs(lba, sectors, disks, stripe_sectors, 1);
    out.clear();
    std::int64_t cur = lba;
    int remaining = sectors;
    while (remaining > 0) {
        const std::int64_t unit = cur / stripe_sectors;
        const int offset = int(cur % stripe_sectors);
        const int len = std::min(remaining, stripe_sectors - offset);
        StripeTarget t;
        t.disk = int(unit % disks);
        t.lba = (unit / disks) * stripe_sectors + offset;
        t.sectors = len;
        out.push_back(t);
        cur += len;
        remaining -= len;
    }
}

int
raid5ParityDisk(std::int64_t row, int disks)
{
    HDDTHERM_REQUIRE(disks >= 2, "RAID-5 needs at least two disks");
    HDDTHERM_REQUIRE(row >= 0, "negative row");
    // Left-symmetric rotation: parity starts on the last disk and moves
    // one disk left each row.
    return int((disks - 1) - (row % disks));
}

StripeTarget
raid5ParityTarget(std::int64_t row, int disks, int stripe_sectors)
{
    StripeTarget t;
    t.disk = raid5ParityDisk(row, disks);
    t.lba = row * stripe_sectors;
    t.sectors = stripe_sectors;
    return t;
}

std::vector<StripeTarget>
stripeRaid5Data(std::int64_t lba, int sectors, int disks, int stripe_sectors)
{
    std::vector<StripeTarget> out;
    stripeRaid5Data(lba, sectors, disks, stripe_sectors, out);
    return out;
}

void
stripeRaid5Data(std::int64_t lba, int sectors, int disks,
                int stripe_sectors, std::vector<StripeTarget>& out)
{
    validateStripeArgs(lba, sectors, disks, stripe_sectors, 2);
    const int data_disks = disks - 1;
    out.clear();
    std::int64_t cur = lba;
    int remaining = sectors;
    while (remaining > 0) {
        const std::int64_t unit = cur / stripe_sectors;
        const int offset = int(cur % stripe_sectors);
        const int len = std::min(remaining, stripe_sectors - offset);
        const std::int64_t row = unit / data_disks;
        const int position = int(unit % data_disks);
        const int parity = raid5ParityDisk(row, disks);
        StripeTarget t;
        t.disk = position < parity ? position : position + 1;
        t.lba = row * stripe_sectors + offset;
        t.sectors = len;
        out.push_back(t);
        cur += len;
        remaining -= len;
    }
}

std::int64_t
raid5RowOfTarget(const StripeTarget& target, int stripe_sectors)
{
    HDDTHERM_REQUIRE(stripe_sectors >= 1, "stripe unit must be positive");
    return target.lba / stripe_sectors;
}

std::int64_t
arrayLogicalSectors(RaidLevel level, int disks, std::int64_t disk_sectors)
{
    HDDTHERM_REQUIRE(disks >= 1 && disk_sectors >= 0,
                     "invalid array shape");
    switch (level) {
      case RaidLevel::None:
        return disk_sectors; // addressed per device
      case RaidLevel::Raid0:
        return disk_sectors * disks;
      case RaidLevel::Raid1:
        HDDTHERM_REQUIRE(disks >= 2, "RAID-1 needs at least two disks");
        return disk_sectors;
      case RaidLevel::Raid5:
        HDDTHERM_REQUIRE(disks >= 3, "RAID-5 needs at least three disks");
        return disk_sectors * (disks - 1);
    }
    return 0;
}

} // namespace hddtherm::sim
