/**
 * @file
 * Tests of the snap container format and its filesystem lifecycle: field
 * stream round-trips, strict decode failures, corruption detection
 * (bit-flips, truncation, bad magic, unsupported versions), forward
 * compatibility with unknown sections, CheckpointManager retention and
 * flush semantics, and the flat map behind the storage tables.
 */
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/manifest.h"
#include "snap/checkpoint.h"
#include "snap/format.h"
#include "snap/state.h"
#include "util/error.h"
#include "util/flat_map.h"

namespace fs = std::filesystem;
namespace ho = hddtherm::obs;
namespace hsnap = hddtherm::snap;
namespace hu = hddtherm::util;

namespace {

/// Fresh scratch directory under the system temp root.
fs::path
scratchDir(const char* name)
{
    const fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::vector<std::uint8_t>
readFileBytes(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // namespace

TEST(StateStream, RoundTripsEveryFieldType)
{
    hsnap::StateWriter w("types");
    w.u64("a", 0xdeadbeefcafeull);
    w.i64("b", -42);
    w.f64("c", 3.25);
    w.boolean("d", true);
    w.str("e", "hello snap");
    w.bytes("f", {1, 2, 3, 0xff});
    w.u64vec("g", {7, 8, 9});
    w.f64vec("h", {0.5, -1.5});

    const auto buf = w.buffer();
    hsnap::StateReader r("types", buf.data(), buf.size());
    EXPECT_EQ(r.u64("a"), 0xdeadbeefcafeull);
    EXPECT_EQ(r.i64("b"), -42);
    EXPECT_EQ(r.f64("c"), 3.25);
    EXPECT_TRUE(r.boolean("d"));
    EXPECT_EQ(r.str("e"), "hello snap");
    EXPECT_EQ(r.bytes("f"), (std::vector<std::uint8_t>{1, 2, 3, 0xff}));
    EXPECT_EQ(r.u64vec("g"), (std::vector<std::uint64_t>{7, 8, 9}));
    EXPECT_EQ(r.f64vec("h"), (std::vector<double>{0.5, -1.5}));
    EXPECT_TRUE(r.atEnd());
}

TEST(StateStream, PrefixesQualifyNamesAndNest)
{
    hsnap::StateWriter w("scoped");
    w.u64("plain", 1);
    {
        hsnap::ScopedPrefix scope(w, "disk0");
        w.u64("rpm", 10000);
        {
            hsnap::ScopedPrefix inner(w, "mech");
            w.f64("pos", 0.5);
        }
        w.u64("rpm2", 12000);
    }
    w.u64("tail", 2);

    const auto buf = w.buffer();
    // The generic cursor sees the full on-disk names.
    hsnap::StateReader cursor("scoped", buf.data(), buf.size());
    hsnap::StateReader::Field f;
    std::vector<std::string> names;
    while (cursor.next(f))
        names.push_back(f.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "plain", "disk0.rpm", "disk0.mech.pos",
                         "disk0.rpm2", "tail"}));

    // The typed reader mirrors the scopes.
    hsnap::StateReader r("scoped", buf.data(), buf.size());
    EXPECT_EQ(r.u64("plain"), 1u);
    {
        hsnap::ScopedPrefix scope(r, "disk0");
        EXPECT_EQ(r.u64("rpm"), 10000u);
        {
            hsnap::ScopedPrefix inner(r, "mech");
            EXPECT_EQ(r.f64("pos"), 0.5);
        }
        EXPECT_EQ(r.u64("rpm2"), 12000u);
    }
    EXPECT_EQ(r.u64("tail"), 2u);
}

TEST(StateStream, RejectsWrongNameTypeAndTruncation)
{
    hsnap::StateWriter w("strict");
    w.u64("count", 5);
    const auto buf = w.buffer();

    {
        hsnap::StateReader r("strict", buf.data(), buf.size());
        EXPECT_THROW(r.u64("wrong_name"), hu::ModelError);
    }
    {
        hsnap::StateReader r("strict", buf.data(), buf.size());
        EXPECT_THROW(r.f64("count"), hu::ModelError);
    }
    // Every truncation point fails loudly, never reads past the end.
    for (std::size_t n = 0; n < buf.size(); ++n) {
        hsnap::StateReader r("strict", buf.data(), n);
        EXPECT_THROW(r.u64("count"), hu::ModelError) << "length " << n;
    }
}

TEST(StateStream, BlobRoundTripAndBoundsCheck)
{
    hsnap::BlobWriter w;
    w.u8(7);
    w.u32(0x01020304u);
    w.u64(0x1122334455667788ull);
    w.i64(-9);
    w.f64(2.75);
    const std::uint64_t words[2] = {10, 11};
    w.words(words, 2);
    const auto bytes = w.take();

    hsnap::BlobReader r("test blob", bytes);
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u32(), 0x01020304u);
    EXPECT_EQ(r.u64(), 0x1122334455667788ull);
    EXPECT_EQ(r.i64(), -9);
    EXPECT_EQ(r.f64(), 2.75);
    EXPECT_EQ(r.u64(), 10u);
    EXPECT_EQ(r.u64(), 11u);
    EXPECT_TRUE(r.atEnd());
    EXPECT_THROW(r.u8(), hu::ModelError);
}

namespace {

/// A two-section container with recognizable payload bytes.
hsnap::CheckpointWriter
sampleCheckpoint()
{
    hsnap::CheckpointWriter out(0xabcdef12345678ull);
    hsnap::StateWriter alpha("alpha");
    alpha.u64("alpha_marker_field", 0x1111111111111111ull);
    out.addSection(std::move(alpha));
    hsnap::StateWriter beta("beta");
    beta.str("beta_marker_field", "beta beta beta");
    out.addSection(std::move(beta));
    return out;
}

/// Offset of @p needle in @p haystack (must be present exactly once).
std::size_t
findOnce(const std::vector<std::uint8_t>& haystack,
         const std::string& needle)
{
    const auto begin = haystack.begin();
    const auto it = std::search(begin, haystack.end(), needle.begin(),
                                needle.end());
    EXPECT_NE(it, haystack.end());
    const auto again = std::search(it + 1, haystack.end(), needle.begin(),
                                   needle.end());
    EXPECT_EQ(again, haystack.end());
    return std::size_t(it - begin);
}

} // namespace

TEST(CheckpointContainer, RoundTripsSectionsAndHeader)
{
    const auto out = sampleCheckpoint();
    hsnap::CheckpointReader in("mem", out.serialize());
    EXPECT_EQ(in.configHash(), 0xabcdef12345678ull);
    EXPECT_EQ(in.formatVersion(), hsnap::kFormatVersion);
    EXPECT_EQ(in.sectionNames(),
              (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_TRUE(in.has("alpha"));
    EXPECT_FALSE(in.has("gamma"));
    auto r = in.section("alpha");
    EXPECT_EQ(r.u64("alpha_marker_field"), 0x1111111111111111ull);
    EXPECT_THROW(in.section("gamma"), hu::ModelError);
}

TEST(CheckpointContainer, BitFlipsFailTheOffendingSectionsChecksum)
{
    const auto pristine = sampleCheckpoint().serialize();
    // Field names only occur inside section payloads (the table holds
    // section names), so a marker locates each payload region.
    struct Region
    {
        const char* section;
        std::size_t begin;
        std::size_t size;
    };
    const std::size_t alpha_at = findOnce(pristine, "alpha_marker_field");
    const std::size_t beta_at = findOnce(pristine, "beta_marker_field");
    const std::vector<Region> regions = {
        {"alpha", alpha_at, std::string("alpha_marker_field").size() + 8},
        {"beta", beta_at, std::string("beta_marker_field").size() + 8},
    };
    for (const auto& region : regions) {
        for (std::size_t i = 0; i < region.size; ++i) {
            auto corrupt = pristine;
            corrupt[region.begin + i] ^= 0x40;
            try {
                hsnap::CheckpointReader in("mem", std::move(corrupt));
                FAIL() << "flip at payload byte " << i << " undetected";
            } catch (const hu::ModelError& e) {
                EXPECT_NE(std::string(e.what()).find(region.section),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(CheckpointContainer, EveryTruncationPointIsDetected)
{
    const auto pristine = sampleCheckpoint().serialize();
    for (std::size_t n = 0; n < pristine.size(); ++n) {
        std::vector<std::uint8_t> cut(pristine.begin(),
                                      pristine.begin() + std::ptrdiff_t(n));
        EXPECT_THROW(hsnap::CheckpointReader("mem", std::move(cut)),
                     hu::ModelError)
            << "length " << n;
    }
}

TEST(CheckpointContainer, RejectsBadMagicAndUnsupportedVersion)
{
    auto bad_magic = sampleCheckpoint().serialize();
    bad_magic[0] = 'X';
    EXPECT_THROW(hsnap::CheckpointReader("mem", std::move(bad_magic)),
                 hu::ModelError);

    auto future = sampleCheckpoint().serialize();
    future[8] = std::uint8_t(hsnap::kFormatVersion + 1); // version u32 LE
    try {
        hsnap::CheckpointReader in("mem", std::move(future));
        FAIL() << "future format version accepted";
    } catch (const hu::ModelError& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
            << e.what();
    }
}

TEST(CheckpointContainer, UnknownSectionsAreCarriedNotRejected)
{
    // Forward compatibility: a newer writer may append sections this
    // build has never heard of; the reader exposes them without
    // complaint and known sections stay readable.
    auto out = sampleCheckpoint();
    hsnap::StateWriter future("future.unknown");
    future.u64("novel", 9);
    out.addSection(std::move(future));
    hsnap::CheckpointReader in("mem", out.serialize());
    EXPECT_TRUE(in.has("future.unknown"));
    auto r = in.section("alpha");
    EXPECT_EQ(r.u64("alpha_marker_field"), 0x1111111111111111ull);
}

TEST(CheckpointContainer, RejectsDuplicateSections)
{
    hsnap::CheckpointWriter out(1);
    out.addSection("dup", {1});
    EXPECT_THROW(out.addSection("dup", {2}), hu::ModelError);
}

TEST(CheckpointManager, WritesAtomicallyRetainsAndFindsLatest)
{
    const auto dir = scratchDir("hddtherm-snap-format-mgr");
    hsnap::CheckpointPolicy policy;
    policy.directory = dir.string();
    policy.retain = 2;
    {
        hsnap::CheckpointManager mgr(policy);
        std::string last_path;
        for (std::uint64_t i = 1; i <= 5; ++i) {
            hsnap::CheckpointWriter out(7);
            hsnap::StateWriter s("s");
            s.u64("index", i);
            out.addSection(std::move(s));
            last_path = mgr.write(out, i);
            EXPECT_EQ(last_path, mgr.pathFor(i));
        }
        mgr.flush();
        // After flush the newest file is durable and valid.
        hsnap::CheckpointReader in(last_path);
        auto r = in.section("s");
        EXPECT_EQ(r.u64("index"), 5u);
    }
    // Retention keeps exactly the newest two; no temp files linger.
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir))
        files.push_back(entry.path().filename().string());
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, (std::vector<std::string>{
                         "checkpoint-000000000004.hdtsnap",
                         "checkpoint-000000000005.hdtsnap"}));
    EXPECT_EQ(hsnap::latestCheckpoint(dir.string()),
              (dir / "checkpoint-000000000005.hdtsnap").string());
    fs::remove_all(dir);
}

TEST(CheckpointManager, LatestIgnoresForeignFiles)
{
    const auto dir = scratchDir("hddtherm-snap-format-latest");
    std::ofstream(dir / "checkpoint-notanumber.hdtsnap") << "x";
    std::ofstream(dir / "other-000000000009.hdtsnap") << "x";
    std::ofstream(dir / "checkpoint-000000000002.hdtsnap.tmp") << "x";
    EXPECT_EQ(hsnap::latestCheckpoint(dir.string()), "");
    std::ofstream(dir / "checkpoint-000000000001.hdtsnap") << "x";
    EXPECT_EQ(hsnap::latestCheckpoint(dir.string()),
              (dir / "checkpoint-000000000001.hdtsnap").string());
    fs::remove_all(dir);
}

TEST(CheckpointManager, FlushRethrowsWriterThreadFailures)
{
    const auto dir = scratchDir("hddtherm-snap-format-fail");
    hsnap::CheckpointPolicy policy;
    policy.directory = dir.string();
    hsnap::CheckpointManager mgr(policy);
    // Yank the directory out from under the writer thread: the queued
    // write fails on the writer, and the error surfaces at flush().
    fs::remove_all(dir);
    std::ofstream(dir) << "not a directory";
    hsnap::CheckpointWriter out(1);
    out.addSection("s", {1, 2, 3});
    mgr.write(out, 1);
    EXPECT_THROW(mgr.flush(), hu::ModelError);
    // The error is sticky: later flushes (and writes) keep failing
    // rather than silently losing checkpoints — in delta mode the next
    // delta would otherwise pin a base that never became durable.
    EXPECT_THROW(mgr.flush(), hu::ModelError);
    hsnap::CheckpointWriter out2(1);
    out2.addSection("s", {1, 2, 3});
    EXPECT_THROW(mgr.write(out2, 2), hu::ModelError);
    fs::remove_all(dir);
}

TEST(CheckpointManager, ValidatesPolicy)
{
    hsnap::CheckpointPolicy no_dir;
    EXPECT_THROW(hsnap::CheckpointManager{no_dir}, hu::ModelError);
    hsnap::CheckpointPolicy bad_retain;
    bad_retain.directory =
        scratchDir("hddtherm-snap-format-policy").string();
    bad_retain.retain = 0;
    EXPECT_THROW(hsnap::CheckpointManager{bad_retain}, hu::ModelError);
    fs::remove_all(bad_retain.directory);
}

TEST(WriteCheckpointBytes, LeavesNoTempFileOnSuccess)
{
    const auto dir = scratchDir("hddtherm-snap-format-bytes");
    const auto path = (dir / "out.hdtsnap").string();
    hsnap::writeCheckpointBytes(path, {9, 8, 7});
    EXPECT_EQ(readFileBytes(path), (std::vector<std::uint8_t>{9, 8, 7}));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    fs::remove_all(dir);
}

/// A multi-word value, as the storage controller's tables hold.
struct MapEntry
{
    std::uint32_t kind = 0;
    std::uint64_t word = 0;
};

TEST(FlatU64Map, InsertFindEraseUnderChurn)
{
    hu::FlatU64Map<MapEntry> map;
    EXPECT_EQ(map.find(1), nullptr);
    EXPECT_FALSE(map.erase(1));

    // The storage path's pattern: a bounded live set, endless churn.
    std::uint64_t next_seq = 0;
    std::vector<std::uint64_t> live;
    std::mt19937_64 rng(0x5eedull);
    for (int round = 0; round < 20000; ++round) {
        if (live.size() < 200 || (rng() & 1)) {
            const std::uint64_t seq = next_seq++;
            map.insert(seq, {std::uint32_t(seq % 7 + 1), seq * 3});
            live.push_back(seq);
        } else {
            const std::size_t pick = std::size_t(rng() % live.size());
            const std::uint64_t seq = live[pick];
            EXPECT_TRUE(map.erase(seq));
            EXPECT_EQ(map.find(seq), nullptr);
            live[pick] = live.back();
            live.pop_back();
        }
    }
    EXPECT_EQ(map.size(), live.size());
    for (const auto seq : live) {
        const auto* entry = map.find(seq);
        ASSERT_NE(entry, nullptr) << "seq " << seq;
        EXPECT_EQ(entry->kind, std::uint32_t(seq % 7 + 1));
        EXPECT_EQ(entry->word, seq * 3);
    }
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    for (const auto seq : live)
        EXPECT_EQ(map.find(seq), nullptr);
}

TEST(FlatU64Map, BackwardShiftKeepsClustersProbeable)
{
    // Dense monotone keys land in long probe clusters under any hash;
    // deleting from the middle must keep every survivor findable.
    hu::FlatU64Map<MapEntry> map;
    for (std::uint64_t seq = 0; seq < 512; ++seq)
        map.insert(seq, {std::uint32_t(seq), 0});
    for (std::uint64_t seq = 0; seq < 512; seq += 3)
        EXPECT_TRUE(map.erase(seq));
    for (std::uint64_t seq = 0; seq < 512; ++seq) {
        const auto* entry = map.find(seq);
        if (seq % 3 == 0) {
            EXPECT_EQ(entry, nullptr) << "seq " << seq;
        } else {
            ASSERT_NE(entry, nullptr) << "seq " << seq;
            EXPECT_EQ(entry->kind, std::uint32_t(seq));
        }
    }
}

TEST(RunManifest, CarriesResumeLineageIntoJson)
{
    const char* argv[] = {"bench_fake", "--requests", "10"};
    ho::BenchRun run("bench_fake", 3, const_cast<char**>(argv));
    run.setResume("/tmp/ck/checkpoint-000000000003.hdtsnap",
                  0x12345678abcdull, 42);
    const auto manifest = run.manifest();
    EXPECT_EQ(manifest.resumeFrom,
              "/tmp/ck/checkpoint-000000000003.hdtsnap");
    EXPECT_EQ(manifest.resumeConfigHash, 0x12345678abcdull);
    EXPECT_EQ(manifest.resumeEpoch, 42u);
    const auto json = ho::toJson(manifest);
    EXPECT_NE(json.find("\"resume_from\": "
                        "\"/tmp/ck/checkpoint-000000000003.hdtsnap\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"resume_config_hash\": \"12345678abcd\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"resume_epoch\": 42"), std::string::npos)
        << json;
}
