#include "sim/shape_sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "serve/io.h"
#include "sim/crc32c.h"
#include "sim/fnv.h"
#include "sim/serial.h"

namespace syscomm::sim {

namespace {

// Journal framing (format v3): a fixed little-endian header naming
// the sweep configuration, then self-delimiting records — kind byte,
// record-version byte, u64 payload length, payload, and a trailing
// CRC32C over everything before it. A record torn by a crash (or a
// concurrent writer's partial flush) or bit-flipped at rest fails its
// CRC and everything from it on is ignored — the rows it would have
// carried simply re-run, which is safe because runs are
// deterministic. All scalars are fixed little-endian (sim/serial.h),
// so a journal written on any host resumes on any other.
constexpr std::uint32_t kJournalMagic = 0x4c4a5353u; // "SSJL"
// 2 added the per-request fault-plan digest and the opt-in
// programVersion tag to the config digest. 3 is the portable format:
// little-endian scalars, per-record version byte, CRC32C framing.
constexpr std::uint32_t kJournalVersion = 3;
/** Version of the checkpoint and shard-range records. */
constexpr std::uint8_t kRecVersion = 1;
/**
 * Version of the row record, whose payload is saveRunResult(). 2 is
 * the id-based deadlock report. A row of another version is skipped,
 * so resume simulates it again and merge counts it in
 * SweepMergeResult::rowsOtherVersion.
 */
constexpr std::uint8_t kRowVersion = 2;
constexpr std::uint8_t kRecRowDone = 1;
constexpr std::uint8_t kRecCheckpoint = 2;
/**
 * Shard-range record (written once, right after the header, only by
 * sharded runs): grid numShapes, numRequests, then the half-open
 * [shardBegin, shardEnd) cell range this journal's process owns.
 * Pre-shard readers CRC-validate and skip it — the v3 framing's
 * forward-compatibility path — so an old `inspectSweepJournal` still
 * counts a shard journal's rows; only resume (which must not mix
 * shards) rejects on mismatch.
 */
constexpr std::uint8_t kRecShardRange = 3;
/** kind + record version + payload length + trailing CRC32C. */
constexpr std::size_t kRecordOverhead = 1 + 1 + 8 + 4;
/** magic + format version + config digest. */
constexpr std::size_t kJournalHeader = 4 + 4 + 8;

std::uint64_t
fnvBytes(std::uint64_t h, const std::uint8_t* data, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        h = fnv(h, data[i]);
    return h;
}

std::uint32_t
readU32(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
readU64(const std::uint8_t* p)
{
    return static_cast<std::uint64_t>(readU32(p)) |
           static_cast<std::uint64_t>(readU32(p + 4)) << 32;
}

/** Header image for a fresh journal (little-endian throughout). */
std::vector<std::uint8_t>
journalHeaderBytes(std::uint64_t cfg)
{
    std::vector<std::uint8_t> bytes;
    ByteWriter w(bytes);
    w.put(kJournalMagic);
    w.put(kJournalVersion);
    w.put(cfg);
    return bytes;
}

/** Overwrite the little-endian u64 at @p at (the ByteWriter layout). */
void
patchU64(std::vector<std::uint8_t>& bytes, std::size_t at,
         std::uint64_t value)
{
    for (std::size_t b = 0; b < sizeof value; ++b)
        bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
}

/** Payload of a kRecRowDone record. */
std::vector<std::uint8_t>
rowPayload(const ShapeSweepRow& row)
{
    std::vector<std::uint8_t> payload;
    ByteWriter w(payload);
    w.put(static_cast<std::uint64_t>(row.shape));
    w.put(static_cast<std::uint64_t>(row.request));
    w.put(row.machineDigest);
    saveRunResult(w, row.result);
    return payload;
}

/** Do two shapes build the same machine? The name is only a label. */
bool
sameMachine(const ShapeSpec& a, const ShapeSpec& b)
{
    return a.queuesPerLink == b.queuesPerLink &&
           a.queueCapacity == b.queueCapacity &&
           a.extensionCapacity == b.extensionCapacity &&
           a.extensionPenalty == b.extensionPenalty;
}

/** For each item, the index of the first item equivalent to it. */
template <typename T, typename Equivalent>
std::vector<std::size_t>
firstEquivalent(const std::vector<T>& items, Equivalent equivalent)
{
    std::vector<std::size_t> first(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        first[i] = i;
        for (std::size_t j = 0; j < i; ++j) {
            if (first[j] == j && equivalent(items[j], items[i])) {
                first[i] = j;
                break;
            }
        }
    }
    return first;
}

/** Payload of a kRecShardRange record. */
std::vector<std::uint8_t>
shardRangePayload(std::size_t num_shapes, std::size_t num_requests,
                  std::size_t begin, std::size_t end)
{
    std::vector<std::uint8_t> payload;
    ByteWriter w(payload);
    w.put(static_cast<std::uint64_t>(num_shapes));
    w.put(static_cast<std::uint64_t>(num_requests));
    w.put(static_cast<std::uint64_t>(begin));
    w.put(static_cast<std::uint64_t>(end));
    return payload;
}

/**
 * Frame one record: header + payload + CRC32C over both. Returned as
 * one buffer so the append is a single write op — exactly the
 * granularity the fault-injecting Io tears.
 */
std::vector<std::uint8_t>
frameRecord(std::uint8_t kind, const std::vector<std::uint8_t>& payload)
{
    std::vector<std::uint8_t> frame;
    frame.reserve(kRecordOverhead + payload.size());
    ByteWriter w(frame);
    w.put(kind);
    w.put(kind == kRecRowDone ? kRowVersion : kRecVersion);
    w.put(static_cast<std::uint64_t>(payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());
    w.put(crc32c(frame.data(), frame.size()));
    return frame;
}

/** One CRC-valid journal record. */
struct Record
{
    std::uint8_t kind = 0;
    std::uint8_t version = 0;
    const std::uint8_t* payload = nullptr;
    std::size_t len = 0;
};

/**
 * Read the record at @p at into @p rec and move @p at past it.
 * Returns false on a torn or corrupt frame: the scan stops there.
 */
bool
nextRecord(const std::vector<std::uint8_t>& bytes, std::size_t& at,
           Record& rec)
{
    if (bytes.size() - at < kRecordOverhead)
        return false;
    const std::uint64_t n = readU64(bytes.data() + at + 2);
    if (n > bytes.size() - at - kRecordOverhead)
        return false; // torn tail
    const std::size_t len = static_cast<std::size_t>(n);
    if (crc32c(bytes.data() + at, 10 + len) !=
        readU32(bytes.data() + at + 10 + len))
        return false; // corrupt frame
    rec = {bytes[at], bytes[at + 1], bytes.data() + at + 10, len};
    at += kRecordOverhead + len;
    return true;
}

std::uint64_t
fnvString(std::uint64_t h, const std::string& s)
{
    h = fnv(h, s.size());
    return fnvBytes(h, reinterpret_cast<const std::uint8_t*>(s.data()),
                    s.size());
}

/**
 * Digest of everything that defines the sweep — the program (cells,
 * messages, and every op's kind/message; compute *functions* are
 * code and cannot be hashed, the one acknowledged blind spot), the
 * topology, the session options that shape results (memory model,
 * label override; the kernel is excluded because results are
 * bit-identical across kernels by contract), the shape ladder, the
 * request batch — including each request's fault-plan digest, so a
 * faulted sweep never resumes an unfaulted journal or vice versa —
 * and the caller's opt-in programVersion tag (the escape hatch for
 * the compute-callback blind spot; see ShapeSweepOptions). A journal
 * written for any other sweep must never be resumed; run() restarts
 * the file when this digest disagrees with the header.
 */
std::uint64_t
configDigest(const Program& program, const Topology& topo,
             const SessionOptions& session,
             const std::string& program_version,
             const std::vector<ShapeSpec>& shapes,
             const std::vector<RunRequest>& requests)
{
    std::uint64_t h = kFnvOffsetBasis;
    h = fnv(h, static_cast<std::uint64_t>(program.numCells()));
    h = fnv(h, static_cast<std::uint64_t>(program.numMessages()));
    for (MessageId m = 0; m < program.numMessages(); ++m)
        h = fnv(h, static_cast<std::uint64_t>(program.messageLength(m)));
    for (CellId c = 0; c < program.numCells(); ++c) {
        const std::vector<Op>& ops = program.cellOps(c);
        h = fnv(h, ops.size());
        for (const Op& op : ops) {
            h = fnv(h, static_cast<std::uint64_t>(op.kind));
            h = fnv(h, static_cast<std::uint64_t>(op.msg));
        }
    }
    h = fnv(h, session.memoryToMemory ? 1 : 0);
    h = fnv(h, static_cast<std::uint64_t>(session.memAccessCost));
    // The retired session-wide label override, hashed as the empty
    // vector every journaled sweep had, so existing journals still
    // resume.
    h = fnv(h, std::uint64_t{0});
    h = fnvString(h, program_version);
    h = fnv(h, static_cast<std::uint64_t>(topo.numCells()));
    h = fnv(h, static_cast<std::uint64_t>(topo.numLinks()));
    for (LinkIndex l = 0; l < topo.numLinks(); ++l) {
        h = fnv(h, static_cast<std::uint64_t>(topo.link(l).a));
        h = fnv(h, static_cast<std::uint64_t>(topo.link(l).b));
    }
    h = fnv(h, shapes.size());
    for (const ShapeSpec& s : shapes) {
        h = fnvString(h, s.name);
        h = fnv(h, static_cast<std::uint64_t>(s.queuesPerLink));
        h = fnv(h, static_cast<std::uint64_t>(s.queueCapacity));
        h = fnv(h, static_cast<std::uint64_t>(s.extensionCapacity));
        h = fnv(h, static_cast<std::uint64_t>(s.extensionPenalty));
    }
    h = fnv(h, requests.size());
    for (const RunRequest& r : requests) {
        h = fnv(h, static_cast<std::uint64_t>(r.policy));
        h = fnv(h, r.seed);
        h = fnv(h, static_cast<std::uint64_t>(r.maxCycles));
        // A retired per-request field, hashed as the value every
        // journaled request had, so existing journals still resume.
        h = fnv(h, std::uint64_t{0});
        h = fnv(h, static_cast<std::uint64_t>(r.pauseAt));
        // A fault plan is part of what the row computes; its digest
        // covers every event (cycle, kind, target, argument).
        h = fnv(h, r.faults != nullptr ? r.faults->digest()
                                       : std::uint64_t{0});
        h = fnv(h, r.labels.size());
        for (std::int64_t label : r.labels)
            h = fnv(h, static_cast<std::uint64_t>(label));
    }
    return h;
}

void
truncateFile(serve::Io& io, const std::string& path, std::size_t size)
{
    std::string error;
    io.truncate(path, size, error);
    // Best-effort: on failure the stranded tail costs re-computation
    // of the rows behind it, never correctness (their records are
    // simply not found and the rows re-run deterministically).
}

std::vector<std::uint8_t>
readWholeFile(serve::Io& io, const std::string& path)
{
    std::string text;
    std::string error;
    if (!io.readFile(path, text, error))
        return {};
    return {text.begin(), text.end()};
}

} // namespace

/**
 * Crash-resume journal: the rows and mid-run checkpoints loaded from
 * a previous invocation, plus the append handle the current one
 * writes through. Appends are serialized by the mutex (workers on
 * different shapes commit rows concurrently) and flushed per record
 * so a kill loses at most the record being written — which the
 * per-record digest detects on the next load.
 */
struct ShapeSweep::Journal
{
    std::mutex mutex;
    serve::Io* io = nullptr;
    serve::IoFile* file = nullptr;
    bool fsyncEveryRecord = false;
    /** Records this run() may still write; 0 = unlimited. */
    std::size_t budget = 0;
    std::size_t written = 0;
    bool stopped = false;
    /** First append/open failure: journaling degraded to off. */
    bool failed = false;
    std::string failure;

    struct Checkpoint
    {
        Cycle pauseCycle = 0;
        std::vector<std::uint8_t> bytes;
    };
    /** Grid index -> finished row replayed from a previous run. */
    std::unordered_map<std::size_t, ShapeSweepRow> done;
    /** Grid index -> latest mid-run machine checkpoint. */
    std::unordered_map<std::size_t, Checkpoint> checkpoints;

    ~Journal()
    {
        if (file != nullptr)
            io->close(file);
    }

    /**
     * Append one record; returns false once the record budget is
     * exhausted (the record that hit the limit is still written, so
     * a resume finds it). An IO *failure* does not return false —
     * stopping the sweep would turn a disk problem into lost compute.
     * Instead journaling latches off (failed/failure, surfaced as
     * ShapeSweepResult::journalError) and the sweep runs on; the rows
     * a crash would now lose simply recompute on the next resume.
     */
    bool
    append(std::uint8_t kind, const std::vector<std::uint8_t>& payload)
    {
        // The CRC walk can cover a multi-MB checkpoint; frame before
        // taking the mutex so it never stalls other workers' row
        // commits.
        const std::vector<std::uint8_t> frame =
            frameRecord(kind, payload);
        std::lock_guard<std::mutex> lock(mutex);
        if (stopped)
            return false;
        if (failed)
            return true;
        std::string error;
        if (!io->write(file, frame.data(), frame.size(), error) ||
            !io->flush(file, error) ||
            (fsyncEveryRecord && !io->sync(file, error))) {
            failed = true;
            failure = error;
            return true;
        }
        ++written;
        if (budget > 0 && written >= budget)
            stopped = true;
        return !stopped;
    }

    /**
     * Parse a journal image. Returns false when the header does not
     * name this exact sweep, or when the journal's shard-range record
     * disagrees with this run's shard (a sharded journal must never
     * resume an unsharded run, a different shard, or a different
     * grid — then the caller restarts the file). Record parsing
     * stops at the first torn or corrupt record — everything before
     * it is still replayed, and @p valid_prefix reports how many
     * leading bytes were sound so the caller can truncate the tail
     * away before appending (appending *after* garbage would strand
     * every later record behind it on the next load).
     */
    bool
    load(const std::vector<std::uint8_t>& bytes, std::uint64_t cfg,
         std::size_t num_shapes, std::size_t num_requests,
         bool sharded, std::size_t shard_begin, std::size_t shard_end,
         std::size_t& valid_prefix)
    {
        valid_prefix = 0;
        if (bytes.size() < kJournalHeader)
            return false;
        if (readU32(bytes.data()) != kJournalMagic ||
            readU32(bytes.data() + 4) != kJournalVersion ||
            readU64(bytes.data() + 8) != cfg)
            return false;
        valid_prefix = kJournalHeader;

        bool sawShard = false;
        std::size_t at = kJournalHeader;
        for (Record rec; nextRecord(bytes, at, rec); valid_prefix = at) {
            // A CRC-valid frame of an unknown record version or kind
            // skips harmlessly: forward compatibility.
            ByteReader r(rec.payload, rec.len);
            if (rec.kind == kRecShardRange && rec.version == kRecVersion) {
                const auto jShapes = r.get<std::uint64_t>();
                const auto jRequests = r.get<std::uint64_t>();
                const auto jBegin = r.get<std::uint64_t>();
                const auto jEnd = r.get<std::uint64_t>();
                if (!r.ok() || !sharded || jShapes != num_shapes ||
                    jRequests != num_requests || jBegin != shard_begin ||
                    jEnd != shard_end)
                    return false;
                sawShard = true;
                continue;
            }
            const auto shape = r.get<std::uint64_t>();
            const auto request = r.get<std::uint64_t>();
            const bool inGrid =
                r.ok() && shape < num_shapes && request < num_requests;
            const std::size_t idx =
                static_cast<std::size_t>(shape) * num_requests +
                static_cast<std::size_t>(request);
            if (rec.kind == kRecRowDone && rec.version == kRowVersion) {
                ShapeSweepRow row;
                row.shape = static_cast<std::size_t>(shape);
                row.request = static_cast<std::size_t>(request);
                row.machineDigest = r.get<std::uint64_t>();
                if (!loadRunResult(r, row.result))
                    break;
                if (inGrid) {
                    row.fromJournal = true;
                    row.finished = true;
                    done[idx] = std::move(row);
                    checkpoints.erase(idx);
                }
            } else if (rec.kind == kRecCheckpoint &&
                       rec.version == kRecVersion) {
                Checkpoint ck;
                ck.pauseCycle = r.get<Cycle>();
                if (!r.getVector(ck.bytes))
                    break;
                if (inGrid && done.find(idx) == done.end())
                    checkpoints[idx] = std::move(ck); // latest wins
            }
        }
        // A sharded run must find its own shard record (an unsharded
        // journal for the same sweep is a different file's worth of
        // rows — restart rather than adopt it).
        return !sharded || sawShard;
    }
};

ShapeSweep::ShapeSweep(const Program& program, SharedTopology topo,
                       std::vector<ShapeSpec> shapes,
                       ShapeSweepOptions options)
    : program_(program),
      topo_(std::move(topo)),
      shapes_(std::move(shapes)),
      options_(std::move(options))
{
    specs_.reserve(shapes_.size());
    for (const ShapeSpec& shape : shapes_) {
        MachineSpec spec;
        spec.topo = topo_;
        spec.queuesPerLink = shape.queuesPerLink;
        spec.queueCapacity = shape.queueCapacity;
        spec.extensionCapacity = shape.extensionCapacity;
        spec.extensionPenalty = shape.extensionPenalty;
        specs_.push_back(std::move(spec));
    }
}

ShapeSweep::ShapeSweep(std::shared_ptr<const CompiledProgram> compiled,
                       std::vector<ShapeSpec> shapes,
                       ShapeSweepOptions options)
    : ShapeSweep(compiled->program(), compiled->sharedTopo(),
                 std::move(shapes), std::move(options))
{
    compiled_ = std::move(compiled);
}

ShapeSweep::~ShapeSweep() = default;

ShapeSweepResult
ShapeSweep::run(const std::vector<RunRequest>& requests)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();

    ShapeSweepResult out;
    out.numShapes = shapes_.size();
    out.numRequests = requests.size();
    out.requests = requests;
    out.rows.resize(shapes_.size() * requests.size());
    for (std::size_t s = 0; s < shapes_.size(); ++s) {
        for (std::size_t r = 0; r < requests.size(); ++r) {
            out.rows[s * requests.size() + r].shape = s;
            out.rows[s * requests.size() + r].request = r;
        }
    }

    // The whole point: one compile pass serves every shape.
    if (!compiled_)
        compiled_ = CompiledProgram::compile(program_, topo_);

    // Multi-process sharding: this run owns the half-open cell range
    // [shardBegin, shardEnd) of the shape-major grid; an unsharded
    // run owns all of it.
    const std::size_t totalCells = shapes_.size() * requests.size();
    const bool sharded = options_.shardEnd > options_.shardBegin;
    const std::size_t shardBegin =
        sharded ? std::min(options_.shardBegin, totalCells) : 0;
    const std::size_t shardEnd =
        sharded ? std::min(options_.shardEnd, totalCells) : totalCells;
    out.sharded = sharded;
    out.shardBegin = shardBegin;
    out.shardEnd = shardEnd;

    std::unique_ptr<Journal> journal;
    std::string journalOpenError;
    if (!options_.journalPath.empty() && !requests.empty()) {
        journal = std::make_unique<Journal>();
        journal->io = options_.io != nullptr ? options_.io
                                             : &serve::Io::system();
        journal->fsyncEveryRecord = options_.fsyncEveryRecord;
        journal->budget = options_.stopAfterJournalRecords;
        serve::Io& io = *journal->io;
        const std::uint64_t cfg = configDigest(
            program_, topo_, options_.session, options_.programVersion,
            shapes_, requests);
        const std::vector<std::uint8_t> bytes =
            readWholeFile(io, options_.journalPath);
        std::size_t validPrefix = 0;
        if (!bytes.empty() &&
            journal->load(bytes, cfg, shapes_.size(), requests.size(),
                          sharded, shardBegin, shardEnd,
                          validPrefix)) {
            // A kill mid-append leaves a torn record; cut it off
            // before appending, or every record this run writes
            // would sit behind garbage and be unreachable on the
            // next load.
            if (validPrefix < bytes.size())
                truncateFile(io, options_.journalPath, validPrefix);
            journal->file = io.openWrite(options_.journalPath,
                                         /*append=*/true,
                                         journalOpenError);
        } else {
            // Fresh sweep (or a journal for some other sweep):
            // restart the file with this sweep's header.
            journal->done.clear();
            journal->checkpoints.clear();
            journal->file = io.openWrite(options_.journalPath,
                                         /*append=*/false,
                                         journalOpenError);
            if (journal->file != nullptr) {
                std::vector<std::uint8_t> header =
                    journalHeaderBytes(cfg);
                if (sharded) {
                    // The shard record rides the header write: it is
                    // part of what names this journal, not a row, so
                    // it never consumes the record budget and is
                    // present from the first byte of a shard file.
                    const std::vector<std::uint8_t> rec = frameRecord(
                        kRecShardRange,
                        shardRangePayload(shapes_.size(),
                                          requests.size(), shardBegin,
                                          shardEnd));
                    header.insert(header.end(), rec.begin(),
                                  rec.end());
                }
                if (!io.write(journal->file, header.data(),
                              header.size(), journalOpenError) ||
                    !io.flush(journal->file, journalOpenError)) {
                    io.close(journal->file);
                    journal->file = nullptr;
                }
            }
        }
        if (journal->file == nullptr) {
            // Unwritable path or failed header write: sweep without
            // resume, surfaced below as journalError.
            journal.reset();
            out.journalError = true;
            out.journalErrorText = journalOpenError.empty()
                                       ? "journal open failed"
                                       : journalOpenError;
        }
    }

    if (journal) {
        for (auto& [idx, row] : journal->done) {
            out.rows[idx] = std::move(row);
            ++out.rowsFromJournal;
        }
    }

    // Work items are classes of equivalent cells (see the file
    // comment) restricted to this shard's range: a class's worker
    // simulates one member and copies its row into the others. A
    // class is keyed by its canonical cell — first equivalent shape
    // × first equivalent request — and lists its members in grid
    // order. Distinct cells stay separate items, the finest unit that
    // preserves per-run determinism, so a ladder with one giant rung
    // never parks the other workers behind the thread running it.
    // Classes the journal already finished dispatch nothing.
    const std::size_t numRequests = requests.size();
    const std::vector<std::size_t> shapeFirst =
        firstEquivalent(shapes_, sameMachine);
    const std::vector<std::size_t> requestFirst =
        firstEquivalent(requests, runsEquivalent);
    constexpr std::size_t kNoClass = static_cast<std::size_t>(-1);
    std::vector<std::size_t> classOf(totalCells, kNoClass);
    std::vector<std::vector<std::size_t>> classes;
    for (std::size_t idx = shardBegin; idx < shardEnd; ++idx) {
        const std::size_t s = idx / numRequests;
        const std::size_t r = idx % numRequests;
        // A request no run may stand in for (an observed one) is not
        // even equivalent to itself: it keeps its cell on a repeated
        // rung too.
        const std::size_t shape =
            runsEquivalent(requests[r], requests[r]) ? shapeFirst[s] : s;
        const std::size_t canonical =
            shape * numRequests + requestFirst[r];
        if (classOf[canonical] == kNoClass) {
            classOf[canonical] = classes.size();
            classes.emplace_back();
        }
        classes[classOf[canonical]].push_back(idx);
    }
    classes.erase(
        std::remove_if(classes.begin(), classes.end(),
                       [&](const std::vector<std::size_t>& members) {
                           return std::all_of(
                               members.begin(), members.end(),
                               [&](std::size_t idx) {
                                   return out.rows[idx].finished;
                               });
                       }),
        classes.end());

    const int workers = clampWorkers(options_.numWorkers, classes.size());

    std::atomic<std::size_t> restored{0};
    std::atomic<std::size_t> shared{0};
    std::atomic<bool> stop{false};
    const std::atomic<bool>* externalStop = options_.stopFlag;
    auto stopRequested = [&] {
        return stop.load(std::memory_order_relaxed) ||
               (externalStop != nullptr &&
                externalStop->load(std::memory_order_relaxed));
    };
    // An attached RunObserver keeps a row out of the journal: a
    // journal-replayed row executes nothing, so its callbacks would
    // silently never fire. Such rows simply re-run on resume (equally
    // bit-identical, just not incremental).
    auto journaled = [&](const RunRequest& request) {
        return journal != nullptr && request.observer == nullptr &&
               request.pauseAt == 0;
    };

    // One grid cell, start to finish, on the session of the worker
    // slot that stole it. The slot keeps its session while its cells
    // stay on one rung and frees it before building the next rung's,
    // so the sweep holds at most one session per worker.
    // SimSession::run() resets all machine state, so the cell's
    // result is independent of what the session ran before. Returns
    // whether the row finished (a stop leaves it unfinished).
    if (slots_.size() < static_cast<std::size_t>(workers))
        slots_.resize(static_cast<std::size_t>(workers));
    auto runCell = [&](int worker, std::size_t idx) {
        if (stopRequested())
            return false;
        const std::size_t s = idx / numRequests;
        const std::size_t r = idx % numRequests;
        ShapeSweepRow& row = out.rows[idx];
        SlotSession& slot = slots_[static_cast<std::size_t>(worker)];
        if (slot.session == nullptr || slot.shape != s) {
            slot.session.reset();
            slot.session = std::make_unique<SimSession>(
                compiled_, specs_[s], options_.session);
            slot.shape = s;
        }
        SimSession& session = *slot.session;
        const RunRequest& request = requests[r];
        const bool journalRow = journaled(request);
        RunResult res;
        if (journalRow && options_.checkpointEvery > 0) {
            const Cycle every = options_.checkpointEvery;
            auto ck = journal->checkpoints.find(idx);
            if (ck != journal->checkpoints.end() &&
                session.restoreCheckpoint(request, ck->second.bytes)) {
                ++restored;
                res = session.resume(ck->second.pauseCycle + every);
            } else {
                // No checkpoint (or a stale/corrupt one the
                // session rejected): run from the start.
                RunRequest first = request;
                first.pauseAt = every;
                res = session.run(first);
            }
            while (res.status == RunStatus::kPaused) {
                // Serialize the machine state straight into the
                // record payload (length patched in afterwards)
                // — a checkpoint can be tens of MB on large
                // machines and does not want an extra copy.
                std::vector<std::uint8_t> payload;
                ByteWriter w(payload);
                w.put(static_cast<std::uint64_t>(s));
                w.put(static_cast<std::uint64_t>(r));
                w.put(res.cycles);
                const std::size_t lenAt = payload.size();
                w.put(std::uint64_t{0});
                if (session.saveCheckpoint(payload)) {
                    patchU64(payload, lenAt,
                             payload.size() - lenAt -
                                 sizeof(std::uint64_t));
                    if (!journal->append(kRecCheckpoint, payload)) {
                        // Budget exhausted mid-run: the row is
                        // checkpointed; the resume picks it up.
                        stop.store(true, std::memory_order_relaxed);
                        return false;
                    }
                    // A drain parks here: the checkpoint just
                    // appended is the state the resume restores.
                    if (stopRequested())
                        return false;
                }
                res = session.resume(res.cycles + every);
            }
        } else {
            res = session.run(request);
        }
        row.result = std::move(res);
        row.machineDigest = session.machineDigest();
        row.finished = true;
        if (journalRow && !journal->append(kRecRowDone, rowPayload(row)))
            stop.store(true, std::memory_order_relaxed);
        return true;
    };

    // One class: the row comes from a member the journal finished,
    // else from simulating one member — the one whose checkpoint got
    // furthest, or the first. Every other member gets a copy and its
    // own ordinary row record, so a kill between the records resumes
    // by copying again, never by simulating.
    auto runClass = [&](int worker,
                        const std::vector<std::size_t>& members) {
        auto source = std::find_if(
            members.begin(), members.end(),
            [&](std::size_t idx) { return out.rows[idx].finished; });
        if (source == members.end()) {
            source = members.begin();
            Cycle furthest = -1;
            for (auto it = members.begin(); journal && it != members.end();
                 ++it) {
                auto ck = journal->checkpoints.find(*it);
                if (ck != journal->checkpoints.end() &&
                    ck->second.pauseCycle > furthest) {
                    furthest = ck->second.pauseCycle;
                    source = it;
                }
            }
            if (!runCell(worker, *source))
                return;
        }
        const ShapeSweepRow& done = out.rows[*source];
        const bool journalRows = journaled(requests[done.request]);
        std::vector<std::uint8_t> payload;
        if (journalRows)
            payload = rowPayload(done);
        for (std::size_t idx : members) {
            ShapeSweepRow& row = out.rows[idx];
            if (row.finished)
                continue;
            if (stopRequested())
                return;
            row.result = done.result;
            row.machineDigest = done.machineDigest;
            row.finished = true;
            ++shared;
            if (journalRows) {
                // The copy's record differs only in its cell.
                patchU64(payload, 0, row.shape);
                patchU64(payload, 8, row.request);
                if (!journal->append(kRecRowDone, payload)) {
                    stop.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        }
    };

    pool_.dispatch(workers, classes.size(),
                   [&](int worker, std::size_t item) {
                       runClass(worker, classes[item]);
                   });

    if (journal && journal->failed) {
        out.journalError = true;
        out.journalErrorText = journal->failure;
    }
    out.checkpointsRestored = restored.load();
    out.rowsShared = shared.load();
    out.complete = true;
    for (std::size_t idx = shardBegin; idx < shardEnd; ++idx) {
        if (!out.rows[idx].finished) {
            out.complete = false;
            break;
        }
    }
    out.workersUsed = workers;
    out.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

bool
inspectSweepJournal(const std::string& path, SweepJournalInfo& out)
{
    out = SweepJournalInfo{};
    const std::vector<std::uint8_t> bytes =
        readWholeFile(serve::Io::system(), path);
    if (bytes.size() < kJournalHeader)
        return false;
    if (readU32(bytes.data()) != kJournalMagic ||
        readU32(bytes.data() + 4) != kJournalVersion)
        return false;
    out.configDigest = readU64(bytes.data() + 8);

    // The same walk Journal::load does, minus the grid bounds (the
    // inspector does not know the sweep's dimensions) and minus the
    // config check (it reports on journals for *any* sweep). Torn or
    // corrupt records stop the scan, so the progress reported is
    // exactly what a resume would replay.
    std::map<std::pair<std::size_t, std::size_t>, CheckpointInfo> live;
    std::size_t at = kJournalHeader;
    for (Record rec; nextRecord(bytes, at, rec);) {
        ByteReader r(rec.payload, rec.len);
        if (rec.kind == kRecShardRange && rec.version == kRecVersion) {
            const auto jShapes = r.get<std::uint64_t>();
            const auto jRequests = r.get<std::uint64_t>();
            const auto jBegin = r.get<std::uint64_t>();
            const auto jEnd = r.get<std::uint64_t>();
            if (r.ok()) {
                out.sharded = true;
                out.numShapes = static_cast<std::size_t>(jShapes);
                out.numRequests = static_cast<std::size_t>(jRequests);
                out.shardBegin = static_cast<std::size_t>(jBegin);
                out.shardEnd = static_cast<std::size_t>(jEnd);
            }
            continue;
        }
        const auto shape =
            static_cast<std::size_t>(r.get<std::uint64_t>());
        const auto request =
            static_cast<std::size_t>(r.get<std::uint64_t>());
        if (rec.kind == kRecRowDone && rec.version == kRowVersion) {
            if (r.ok()) {
                ++out.rowsDone;
                live.erase({shape, request});
            }
        } else if (rec.kind == kRecCheckpoint &&
                   rec.version == kRecVersion) {
            r.get<Cycle>(); // pause cycle (also in the header below)
            const auto stateLen = r.get<std::uint64_t>();
            CheckpointInfo info;
            if (r.ok() && stateLen <= r.remaining() &&
                peekCheckpointInfo(rec.payload + (rec.len - r.remaining()),
                                   static_cast<std::size_t>(stateLen),
                                   info)) {
                live[{shape, request}] = std::move(info);
            }
        }
    }
    out.inflight.reserve(live.size());
    for (auto& [key, info] : live) {
        SweepJournalRow row;
        row.shape = key.first;
        row.request = key.second;
        row.info = std::move(info);
        out.inflight.push_back(std::move(row));
    }
    return true;
}

bool
mergeSweepJournals(const std::vector<std::string>& paths,
                   SweepMergeResult& out, std::string& error)
{
    out = SweepMergeResult{};
    error.clear();
    if (paths.empty()) {
        error = "no journals to merge";
        return false;
    }

    bool haveCfg = false;
    std::map<std::pair<std::size_t, std::size_t>, SweepMergeRow> rows;
    for (const std::string& path : paths) {
        const std::vector<std::uint8_t> bytes =
            readWholeFile(serve::Io::system(), path);
        if (bytes.size() < kJournalHeader ||
            readU32(bytes.data()) != kJournalMagic ||
            readU32(bytes.data() + 4) != kJournalVersion) {
            error = path + ": not a v3 sweep journal";
            return false;
        }
        const std::uint64_t cfg = readU64(bytes.data() + 8);
        if (!haveCfg) {
            out.configDigest = cfg;
            haveCfg = true;
        } else if (cfg != out.configDigest) {
            error = path +
                    ": config digest mismatch — the journals "
                    "describe different sweeps";
            return false;
        }

        // Same tolerant walk as a resume: torn/corrupt tails stop
        // this file's scan (its missing rows simply are not merged),
        // unknown kinds skip.
        std::size_t at = kJournalHeader;
        for (Record rec; nextRecord(bytes, at, rec);) {
            ByteReader r(rec.payload, rec.len);
            if (rec.kind == kRecShardRange && rec.version == kRecVersion) {
                const auto jShapes = r.get<std::uint64_t>();
                const auto jRequests = r.get<std::uint64_t>();
                r.get<std::uint64_t>(); // shardBegin (informational)
                r.get<std::uint64_t>(); // shardEnd
                if (r.ok()) {
                    if (out.numShapes != 0 &&
                        (out.numShapes != jShapes ||
                         out.numRequests != jRequests)) {
                        error = path +
                                ": shard-range grid dimensions "
                                "disagree with an earlier journal";
                        return false;
                    }
                    out.numShapes =
                        static_cast<std::size_t>(jShapes);
                    out.numRequests =
                        static_cast<std::size_t>(jRequests);
                }
            } else if (rec.kind == kRecRowDone &&
                       rec.version != kRowVersion) {
                ++out.rowsOtherVersion;
            } else if (rec.kind == kRecRowDone) {
                SweepMergeRow row;
                row.shape =
                    static_cast<std::size_t>(r.get<std::uint64_t>());
                row.request =
                    static_cast<std::size_t>(r.get<std::uint64_t>());
                row.machineDigest = r.get<std::uint64_t>();
                if (!loadRunResult(r, row.result) || !r.ok())
                    break;
                const auto key = std::make_pair(row.shape, row.request);
                auto it = rows.find(key);
                if (it == rows.end()) {
                    rows.emplace(key, std::move(row));
                } else {
                    // The per-rung cross-check: overlapping shards
                    // must agree bit-for-bit — a disagreement is a
                    // determinism violation, never silently resolved.
                    if (it->second.machineDigest != row.machineDigest ||
                        it->second.result.status != row.result.status ||
                        it->second.result.cycles != row.result.cycles) {
                        error = path + ": row (" +
                                std::to_string(row.shape) + ", " +
                                std::to_string(row.request) +
                                ") disagrees with another journal "
                                "(machine digest or result differs)";
                        return false;
                    }
                    ++it->second.sources;
                    ++out.duplicateRows;
                }
            }
            // kRecCheckpoint (in-flight state) and unknown kinds are
            // not merge material.
        }
    }

    out.rows.reserve(rows.size());
    std::size_t maxShape = 0;
    for (auto& [key, row] : rows) {
        maxShape = std::max(maxShape, row.shape);
        out.rows.push_back(std::move(row));
    }
    if (out.numShapes != 0 && out.numRequests != 0) {
        for (const SweepMergeRow& row : out.rows) {
            if (row.shape >= out.numShapes ||
                row.request >= out.numRequests) {
                error = "row (" + std::to_string(row.shape) + ", " +
                        std::to_string(row.request) +
                        ") lies outside the recorded " +
                        std::to_string(out.numShapes) + "x" +
                        std::to_string(out.numRequests) + " grid";
                return false;
            }
        }
        out.complete =
            out.rows.size() == out.numShapes * out.numRequests;
    }

    const std::size_t numDigests =
        out.numShapes != 0 ? out.numShapes
        : out.rows.empty() ? 0
                           : maxShape + 1;
    out.shapeDigests.assign(numDigests, kFnvOffsetBasis);
    // Rows are in grid order already (map iteration), so each rung's
    // fold sees its digests in request order — the same fold over an
    // unsharded run's rows compares equal iff the sharded sweep is
    // bit-identical to it.
    for (const SweepMergeRow& row : out.rows) {
        out.shapeDigests[row.shape] =
            fnv(out.shapeDigests[row.shape], row.machineDigest);
    }
    return true;
}

SweepSummary
ShapeSweepResult::shapeSummary(std::size_t shape) const
{
    // Unfinished rows (a stopped partial sweep) are excluded rather
    // than reported as fabricated config errors.
    std::vector<RunResult> results;
    std::vector<RunRequest> reqs;
    results.reserve(numRequests);
    reqs.reserve(numRequests);
    for (std::size_t r = 0; r < numRequests; ++r) {
        const ShapeSweepRow& shapeRow = row(shape, r);
        if (!shapeRow.finished)
            continue;
        results.push_back(shapeRow.result);
        reqs.push_back(requests[r]);
    }
    return summarizeSweep(std::move(results), reqs);
}

std::string
ShapeSweepResult::str(const std::vector<ShapeSpec>& shapes) const
{
    std::ostringstream os;
    os << "shape sweep: " << numShapes << " shapes x " << numRequests
       << " requests on " << workersUsed << " worker(s) in "
       << wallSeconds << "s";
    if (rowsFromJournal > 0 || checkpointsRestored > 0) {
        os << " (resumed: " << rowsFromJournal << " rows, "
           << checkpointsRestored << " checkpoints)";
    }
    if (rowsShared > 0)
        os << " (shared: " << rowsShared << " rows)";
    if (!complete)
        os << " [partial]";
    os << "\n";
    for (std::size_t s = 0; s < numShapes; ++s) {
        SweepSummary summary = shapeSummary(s);
        os << "  "
           << (s < shapes.size() ? shapes[s].name
                                 : "#" + std::to_string(s))
           << ": ";
        for (int st = 0; st < kNumRunStatuses; ++st) {
            if (st > 0)
                os << ", ";
            os << runStatusName(static_cast<RunStatus>(st)) << " "
               << summary.statusCounts[st];
        }
        os << "; p50 " << summary.p50Cycles << " max "
           << summary.maxCycles << "\n";
    }
    return os.str();
}

} // namespace syscomm::sim
