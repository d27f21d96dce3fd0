/**
 * @file
 * Format-v3 portability and self-validation coverage:
 *
 *  - sim/serial.h emits fixed little-endian bytes with golden
 *    byte-level expectations, and the byte-swapped-writer simulation
 *    (a big-endian host modelled end to end) produces identical
 *    streams — the wire order is defined by value, not by host;
 *  - a sweep journal and a session checkpoint written under the
 *    byte-swapped simulation are byte-identical to native ones and
 *    read back / resume identically;
 *  - peekCheckpointInfo survives ~1k seeded truncations and bit
 *    flips without ever reading out of bounds (the ASan job turns
 *    "never" into a hard guarantee) and rejects torn headers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/io.h"
#include "sim/crc32c.h"
#include "sim/serial.h"
#include "sim/session.h"
#include "sim/shape_sweep.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::ByteReader;
using sim::ByteWriter;
using sim::CheckpointInfo;
using sim::RunRequest;
using sim::RunResult;
using sim::RunStatus;
using sim::ShapeSpec;
using sim::ShapeSweep;
using sim::ShapeSweepOptions;
using sim::ShapeSweepResult;
using sim::SimSession;

/** splitmix64 — the tests' deterministic fuzz source. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** RAII guard so a failing test cannot leak the global flag. */
struct SwappedWriter
{
    SwappedWriter() { sim::setByteSwappedWriterSimulation(true); }
    ~SwappedWriter() { sim::setByteSwappedWriterSimulation(false); }
};

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + name;
}

Program
longRunProgram()
{
    Program p(4);
    MessageId id = p.declareMessage("S", 0, 3);
    for (int w = 0; w < 30; ++w) {
        for (int g = 0; g < 6; ++g)
            p.compute(0,
                      [](CellContext& ctx) { ctx.local(0) += 1.0; });
        p.write(0, id);
    }
    for (int w = 0; w < 30; ++w)
        p.read(3, id);
    return p;
}

// ---------------------------------------------------------------------
// Scalar wire format
// ---------------------------------------------------------------------

TEST(PortableFormat, ScalarsEncodeLittleEndianByteForByte)
{
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    w.put(std::uint32_t{0x11223344});
    w.put(std::int64_t{-2});
    w.put(std::uint8_t{0xab});
    w.put(true);
    w.put(1.0); // IEEE-754: 0x3ff0000000000000

    const std::uint8_t want[] = {
        0x44, 0x33, 0x22, 0x11,                         // u32 LE
        0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // -2 LE
        0xab,                                           // u8
        0x01,                                           // bool
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // 1.0 LE
    };
    ASSERT_EQ(out.size(), sizeof(want));
    for (std::size_t i = 0; i < sizeof(want); ++i)
        EXPECT_EQ(out[i], want[i]) << "byte " << i;
}

TEST(PortableFormat, ByteSwappedWriterProducesIdenticalBytes)
{
    const auto encodeAll = [] {
        std::vector<std::uint8_t> out;
        ByteWriter w(out);
        w.put(std::uint64_t{0x0102030405060708ull});
        w.put(std::int32_t{-123456});
        w.put(std::int16_t{-2});
        w.put(std::uint8_t{7});
        w.put(false);
        w.put(3.14159265358979);
        w.put(sim::RunStatus::kDeadlocked); // enums travel as values
        w.putVector(std::vector<double>{1.5, -2.5, 0.0});
        w.putVector(std::vector<std::uint8_t>{1, 2, 3});
        w.putString("portable");
        return out;
    };
    const std::vector<std::uint8_t> native = encodeAll();
    std::vector<std::uint8_t> swapped;
    {
        SwappedWriter guard;
        swapped = encodeAll();
    }
    EXPECT_EQ(native, swapped);

    // And the stream decodes back to the same values either way.
    ByteReader r(native.data(), native.size());
    EXPECT_EQ(r.get<std::uint64_t>(), 0x0102030405060708ull);
    EXPECT_EQ(r.get<std::int32_t>(), -123456);
    EXPECT_EQ(r.get<std::int16_t>(), -2);
    EXPECT_EQ(r.get<std::uint8_t>(), 7);
    EXPECT_EQ(r.get<bool>(), false);
    EXPECT_EQ(r.get<double>(), 3.14159265358979);
    EXPECT_EQ(r.get<sim::RunStatus>(), sim::RunStatus::kDeadlocked);
    std::vector<double> doubles;
    EXPECT_TRUE(r.getVector(doubles));
    EXPECT_EQ(doubles, (std::vector<double>{1.5, -2.5, 0.0}));
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(r.getVector(bytes));
    EXPECT_EQ(bytes, (std::vector<std::uint8_t>{1, 2, 3}));
    std::string s;
    EXPECT_TRUE(r.getString(s));
    EXPECT_EQ(s, "portable");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(PortableFormat, Crc32cMatchesKnownVectors)
{
    // RFC 3720 test vector: 32 zero bytes.
    std::uint8_t zeros[32] = {};
    EXPECT_EQ(sim::crc32c(zeros, sizeof(zeros)), 0x8a9136aau);
    // "123456789" — the classic check value for CRC-32C.
    const char* digits = "123456789";
    EXPECT_EQ(sim::crc32c(digits, 9), 0xe3069283u);
    // Chaining across a split equals one shot.
    const std::uint32_t head = sim::crc32c(digits, 4);
    EXPECT_EQ(sim::crc32c(digits + 4, 5, head), 0xe3069283u);
}

/** Bit-at-a-time CRC32C: the definition slice-by-8 must reproduce. */
std::uint32_t
crc32cBitwise(const std::uint8_t* p, std::size_t len, std::uint32_t seed)
{
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < len; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

TEST(PortableFormat, Crc32cMatchesBitwiseReferenceAtAnyOffset)
{
    std::vector<std::uint8_t> buffer(4096 + 16);
    for (std::size_t i = 0; i < buffer.size(); ++i)
        buffer[i] = static_cast<std::uint8_t>(mix64(0xc3c + i));
    // Every start alignment, lengths around the 8-byte step and up to
    // a page, arbitrary chaining seeds, and a split at any point.
    for (std::uint64_t trial = 0; trial < 2000; ++trial) {
        const std::uint64_t h = mix64(0x511ce + trial);
        const std::size_t offset = static_cast<std::size_t>(h % 16);
        const std::size_t len =
            static_cast<std::size_t>(mix64(h) % (trial % 2 ? 4097 : 40));
        const auto seed = static_cast<std::uint32_t>(mix64(h ^ 0x5eed));
        const std::uint8_t* p = buffer.data() + offset;
        const std::uint32_t want = crc32cBitwise(p, len, seed);
        const std::string ctx = "offset " + std::to_string(offset) +
                                " len " + std::to_string(len);
        EXPECT_EQ(sim::crc32c(p, len, seed), want) << ctx;
        const std::size_t split =
            static_cast<std::size_t>(mix64(h ^ 0x591e7) % (len + 1));
        EXPECT_EQ(sim::crc32c(p + split, len - split,
                              sim::crc32c(p, split, seed)),
                  want)
            << ctx << " split " << split;
    }
}

// ---------------------------------------------------------------------
// Whole-artifact identity under the byte-swapped writer
// ---------------------------------------------------------------------

TEST(PortableFormat, CheckpointBytesIdenticalUnderByteSwappedWriter)
{
    Program p = longRunProgram();
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 2;
    RunRequest paused;
    paused.pauseAt = 60;

    SimSession native(p, spec);
    ASSERT_EQ(native.run(paused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> nativeBytes;
    ASSERT_TRUE(native.saveCheckpoint(nativeBytes));

    std::vector<std::uint8_t> swappedBytes;
    {
        SwappedWriter guard;
        SimSession swapped(p, spec);
        ASSERT_EQ(swapped.run(paused).status, RunStatus::kPaused);
        ASSERT_TRUE(swapped.saveCheckpoint(swappedBytes));
    }
    EXPECT_EQ(nativeBytes, swappedBytes);

    // The "foreign" checkpoint restores and finishes identically.
    SimSession heir(p, spec);
    ASSERT_TRUE(heir.restoreCheckpoint({}, swappedBytes));
    SimSession oracle(p, spec);
    expectSameRunResult(heir.resume(), oracle.run({}),
                        "byte-swapped checkpoint restore");
    EXPECT_EQ(heir.machineDigest(), oracle.machineDigest());
}

TEST(PortableFormat, SweepJournalIdenticalUnderByteSwappedWriter)
{
    Program p = longRunProgram();
    Topology topo = Topology::linearArray(4);
    std::vector<ShapeSpec> shapes;
    for (int queues : {1, 2}) {
        ShapeSpec shape;
        shape.name = "q" + std::to_string(queues);
        shape.queuesPerLink = queues;
        shapes.push_back(std::move(shape));
    }
    std::vector<RunRequest> requests(1);

    ShapeSweepOptions options;
    options.numWorkers = 1;
    options.checkpointEvery = 40; // several checkpoint records
    options.journalPath = tempPath("portable_native.journal");
    ShapeSweep nativeSweep(p, topo, shapes, options);
    const ShapeSweepResult nativeResult = nativeSweep.run(requests);
    ASSERT_TRUE(nativeResult.complete);
    ASSERT_FALSE(nativeResult.journalError)
        << nativeResult.journalErrorText;

    options.journalPath = tempPath("portable_swapped.journal");
    ShapeSweepResult swappedResult;
    {
        SwappedWriter guard;
        ShapeSweep swappedSweep(p, topo, shapes, options);
        swappedResult = swappedSweep.run(requests);
    }
    ASSERT_TRUE(swappedResult.complete);

    std::string nativeBytes;
    std::string swappedBytes;
    std::string error;
    ASSERT_TRUE(serve::Io::system().readFile(
        tempPath("portable_native.journal"), nativeBytes, error));
    ASSERT_TRUE(serve::Io::system().readFile(
        tempPath("portable_swapped.journal"), swappedBytes, error));
    ASSERT_FALSE(nativeBytes.empty());
    EXPECT_EQ(nativeBytes, swappedBytes);

    // The "foreign-written" journal replays on this host: a second
    // run over it serves every row from the journal, bit-identically.
    ShapeSweep reader(p, topo, shapes, options);
    const ShapeSweepResult replayed = reader.run(requests);
    ASSERT_TRUE(replayed.complete);
    EXPECT_EQ(replayed.rowsFromJournal, replayed.rows.size());
    ASSERT_EQ(replayed.rows.size(), nativeResult.rows.size());
    for (std::size_t i = 0; i < replayed.rows.size(); ++i) {
        EXPECT_EQ(replayed.rows[i].machineDigest,
                  nativeResult.rows[i].machineDigest)
            << "row " << i;
    }
}

// ---------------------------------------------------------------------
// peekCheckpointInfo bounds fuzz
// ---------------------------------------------------------------------

TEST(PortableFormat, PeekCheckpointInfoParsesAndRejectsTornHeaders)
{
    Program p = longRunProgram();
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 2;
    SimSession session(p, spec);
    RunRequest paused;
    paused.pauseAt = 60;
    ASSERT_EQ(session.run(paused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(session.saveCheckpoint(bytes));

    CheckpointInfo info;
    ASSERT_TRUE(
        sim::peekCheckpointInfo(bytes.data(), bytes.size(), info));
    EXPECT_EQ(info.machineDigest, session.machineDigest());
    EXPECT_EQ(info.cycles, 60);
    EXPECT_EQ(info.writeSeq.size(), info.readSeq.size());

    // Degenerate inputs.
    EXPECT_FALSE(sim::peekCheckpointInfo(nullptr, 0, info));
    EXPECT_FALSE(sim::peekCheckpointInfo(bytes.data(), 0, info));
    EXPECT_FALSE(sim::peekCheckpointInfo(bytes.data(), 4, info));
}

TEST(PortableFormat, PeekCheckpointInfoSurvivesTruncationAndBitFlipFuzz)
{
    Program p = longRunProgram();
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 2;
    SimSession session(p, spec);
    RunRequest paused;
    paused.pauseAt = 60;
    ASSERT_EQ(session.run(paused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(session.saveCheckpoint(bytes));
    constexpr std::size_t kFixedHeader = 4 + 4 + 8 + 1 + 8 + 8 + 8;

    // 500 seeded truncations: any prefix must parse or reject, never
    // read past the buffer (the ASan CI job enforces "never").
    CheckpointInfo info;
    for (std::uint64_t trial = 0; trial < 500; ++trial) {
        const std::size_t cut =
            static_cast<std::size_t>(mix64(0x7c0ffee + trial) %
                                     (bytes.size() + 1));
        const bool parsed =
            sim::peekCheckpointInfo(bytes.data(), cut, info);
        if (cut < kFixedHeader)
            EXPECT_FALSE(parsed) << "cut " << cut;
        if (parsed)
            EXPECT_EQ(info.writeSeq.size(), info.readSeq.size());
    }

    // 500 seeded bit flips (plus a truncation half the time): parse
    // or reject cleanly; a parse must still return sane vectors.
    for (std::uint64_t trial = 0; trial < 500; ++trial) {
        std::vector<std::uint8_t> mutated = bytes;
        const std::uint64_t h = mix64(0xb17f11b + trial);
        mutated[static_cast<std::size_t>(h % mutated.size())] ^=
            static_cast<std::uint8_t>(1u << (mix64(h) % 8));
        std::size_t size = mutated.size();
        if (trial % 2 == 1)
            size = static_cast<std::size_t>(mix64(h ^ 0x5eed) %
                                            (mutated.size() + 1));
        const bool parsed =
            sim::peekCheckpointInfo(mutated.data(), size, info);
        if (parsed) {
            EXPECT_EQ(info.writeSeq.size(), info.readSeq.size());
            EXPECT_GE(info.resumeFrom, 0);
            EXPECT_GE(info.cycles, 0);
        }
    }
}

} // namespace
} // namespace syscomm
