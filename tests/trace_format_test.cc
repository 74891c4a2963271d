// On-disk trace format contract: records survive a sink -> merge -> reader
// round trip bit-exactly (including a forced ring spill), and the reader
// rejects every malformation — truncation at any structural boundary, bad
// magic/version, overlength length prefixes, unknown record types, trailing
// garbage — with a diagnostic instead of reading past the buffer. A seeded
// mutation fuzz (bit flips, truncations, header-field edits; no corpus)
// checks that every mutant either reads consistently or fails with a named
// reason, never aborts.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/trace_reader.h"
#include "trace/trace_sink.h"

namespace lazyrep::trace {
namespace {

/// Scratch file of the running test: ctest runs every case as a process of
/// its own, in parallel, so cases sharing a name would race on one file.
std::string TmpPath(const char* name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "trace_format_" + test->test_suite_name() +
         "_" + test->name() + "_" + name;
}

/// splitmix64: deterministic record fuzz without touching global RNG state.
uint64_t Mix(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Record RandomRecord(uint64_t* s, uint32_t num_sites) {
  Record r;
  r.time = static_cast<double>(Mix(s) % 1000000) / 1000.0;
  r.aux_time = static_cast<double>(Mix(s) % 1000) / 500.0;
  r.txn = Mix(s);
  r.aux = Mix(s);
  r.item = static_cast<uint32_t>(Mix(s) % 480);
  r.site = static_cast<uint16_t>(Mix(s) % (num_sites + 1));  // +graph endpoint
  r.type = static_cast<uint8_t>(1 + Mix(s) % kMaxEventType);
  r.flags = static_cast<uint8_t>(Mix(s) % 4);  // frozen bit is the sink's
  return r;
}

/// Writes `counts[i]` randomized records into shard i and merges into `path`.
/// Fills `*out` with the records actually emitted, per point, frozen bit
/// included. (Out-param because ASSERT_* needs a void-returning function.)
void WriteTrace(const std::string& path, const std::vector<size_t>& counts,
                uint64_t seed, std::vector<std::vector<Record>>* out) {
  std::vector<std::vector<Record>>& emitted = *out;
  emitted.assign(counts.size(), {});
  std::vector<std::string> shards;
  for (size_t i = 0; i < counts.size(); ++i) {
    PointMeta meta;
    meta.point_index = static_cast<uint32_t>(i);
    meta.protocol = static_cast<uint32_t>(i % 4);
    meta.x = 100.0 * static_cast<double>(i + 1);
    meta.seed = seed + i;
    meta.dc_of_site = {0, 0, 1, 1, 2};
    shards.push_back(ShardPath(path, i));
    std::string error;
    auto sink = TraceSink::Open(shards.back(), meta, &error);
    ASSERT_NE(sink, nullptr) << error;
    uint64_t s = seed * 77 + i;
    for (size_t k = 0; k < counts[i]; ++k) {
      Record r = RandomRecord(&s, 5);
      // Freeze partway through: the sink must OR kFlagFrozen from there on.
      if (k == counts[i] / 2) sink->set_frozen(true);
      sink->Emit(static_cast<EventType>(r.type), r.time, r.txn, r.site,
                 r.flags, r.item, r.aux, r.aux_time);
      if (k >= counts[i] / 2) r.flags |= kFlagFrozen;
      emitted[i].push_back(r);
    }
    EXPECT_EQ(sink->count(), counts[i]);
    ASSERT_TRUE(sink->Finish(&error)) << error;
  }
  std::string error;
  EXPECT_TRUE(MergeShards(path, shards, &error)) << error;
  // Shards are consumed by the merge.
  for (const std::string& shard : shards) {
    std::FILE* f = std::fopen(shard.c_str(), "rb");
    EXPECT_EQ(f, nullptr) << shard << " left behind";
    if (f != nullptr) std::fclose(f);
  }
}

void ExpectRecordsEqual(const Record& want, const Record& got, size_t i) {
  EXPECT_EQ(want.time, got.time) << "record " << i;
  EXPECT_EQ(want.aux_time, got.aux_time) << "record " << i;
  EXPECT_EQ(want.txn, got.txn) << "record " << i;
  EXPECT_EQ(want.aux, got.aux) << "record " << i;
  EXPECT_EQ(want.item, got.item) << "record " << i;
  EXPECT_EQ(want.site, got.site) << "record " << i;
  EXPECT_EQ(want.type, got.type) << "record " << i;
  EXPECT_EQ(want.flags, got.flags) << "record " << i;
}

TEST(TraceFormatTest, RandomizedRecordsRoundTrip) {
  std::string path = TmpPath("roundtrip");
  std::vector<std::vector<Record>> emitted;
  WriteTrace(path, {97, 0, 251}, 11, &emitted);

  TraceFile file;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &file, &error)) << error;
  EXPECT_EQ(std::memcmp(file.header.magic, kTraceMagic, 8), 0);
  EXPECT_EQ(file.header.version, kTraceVersion);
  EXPECT_EQ(file.header.record_bytes, sizeof(Record));
  ASSERT_EQ(file.points.size(), 3u);
  for (size_t i = 0; i < file.points.size(); ++i) {
    const PointTrace& pt = file.points[i];
    EXPECT_EQ(pt.header.point_index, i);
    EXPECT_EQ(pt.header.protocol, i % 4);
    EXPECT_EQ(pt.header.x, 100.0 * static_cast<double>(i + 1));
    EXPECT_EQ(pt.header.seed, 11u + i);
    EXPECT_EQ(pt.header.num_sites, 5u);
    EXPECT_EQ(pt.header.dc_count, 3u);
    EXPECT_EQ(pt.dc_of_site, (std::vector<uint16_t>{0, 0, 1, 1, 2}));
    ASSERT_EQ(pt.records.size(), emitted[i].size());
    for (size_t k = 0; k < pt.records.size(); ++k) {
      ExpectRecordsEqual(emitted[i][k], pt.records[k], k);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceFormatTest, RingSpillPreservesOrder) {
  // Well past the 4096-record ring: several mid-stream spills plus a
  // partial flush on Finish.
  std::string path = TmpPath("spill");
  std::vector<std::vector<Record>> emitted;
  WriteTrace(path, {10000}, 23, &emitted);

  TraceFile file;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &file, &error)) << error;
  ASSERT_EQ(file.points.size(), 1u);
  ASSERT_EQ(file.points[0].records.size(), 10000u);
  EXPECT_EQ(file.points[0].header.record_count, 10000u);
  for (size_t k = 0; k < 10000; ++k) {
    ExpectRecordsEqual(emitted[0][k], file.points[0].records[k], k);
  }
  std::remove(path.c_str());
}

// -- corruption ---------------------------------------------------------------

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Writes `bytes` to a scratch file and expects the reader to reject it
/// with a diagnostic containing `want_error`.
void ExpectRejected(const std::string& bytes, const std::string& want_error) {
  std::string path = TmpPath("corrupt");
  WriteAll(path, bytes);
  TraceFile file;
  std::string error;
  EXPECT_FALSE(ReadTraceFile(path, &file, &error)) << "accepted " << want_error;
  EXPECT_NE(error.find(want_error), std::string::npos)
      << "got: " << error << "\nwant substring: " << want_error;
  std::remove(path.c_str());
}

class TraceCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TmpPath("base");
    std::vector<std::vector<Record>> emitted;
    WriteTrace(path_, {40, 7}, 31, &emitted);
    bytes_ = ReadAll(path_);
    std::remove(path_.c_str());
    ASSERT_GT(bytes_.size(), sizeof(FileHeader) + sizeof(PointHeader));
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(TraceCorruptionTest, TruncationAtEveryBoundaryIsRejected) {
  // Mid file header and mid point header read as truncation; a cut inside
  // the site map or record block surfaces as an overlength length prefix —
  // from the reader's side the two are the same condition (prefix exceeds
  // the remaining bytes). Either way the file must be rejected.
  struct Cut {
    size_t at;
    const char* want;
  } cuts[] = {{0, "truncat"},
              {sizeof(FileHeader) - 3, "truncat"},
              {sizeof(FileHeader) + 10, "truncat"},
              {sizeof(FileHeader) + sizeof(PointHeader) + 4, "overlength"},
              {bytes_.size() - 17, "overlength"}};
  for (const Cut& cut : cuts) {
    ExpectRejected(bytes_.substr(0, cut.at), cut.want);
  }
}

TEST_F(TraceCorruptionTest, BadMagicIsRejected) {
  std::string bytes = bytes_;
  bytes[0] = 'X';
  ExpectRejected(bytes, "bad magic");
}

TEST_F(TraceCorruptionTest, UnsupportedVersionIsRejected) {
  std::string bytes = bytes_;
  bytes[offsetof(FileHeader, version)] = 99;
  ExpectRejected(bytes, "unsupported trace version");
}

TEST_F(TraceCorruptionTest, RecordSizeMismatchIsRejected) {
  std::string bytes = bytes_;
  bytes[offsetof(FileHeader, record_bytes)] = sizeof(Record) + 8;
  ExpectRejected(bytes, "record size mismatch");
}

TEST_F(TraceCorruptionTest, BadPointMarkerIsRejected) {
  std::string bytes = bytes_;
  bytes[sizeof(FileHeader)] ^= 0xff;
  ExpectRejected(bytes, "marker");
}

TEST_F(TraceCorruptionTest, OverlengthRecordCountIsRejected) {
  // Patch the first point's record_count far past the file's end: the
  // length prefix must be validated against the remaining bytes, never
  // trusted for an allocation or a read.
  std::string bytes = bytes_;
  size_t off = sizeof(FileHeader) + offsetof(PointHeader, record_count);
  uint64_t huge = 1ull << 40;
  std::memcpy(&bytes[off], &huge, sizeof(huge));
  ExpectRejected(bytes, "overlength record count");
}

TEST_F(TraceCorruptionTest, OverlengthSiteMapIsRejected) {
  std::string bytes = bytes_;
  size_t off = sizeof(FileHeader) + offsetof(PointHeader, num_sites);
  uint32_t huge = 1u << 30;
  std::memcpy(&bytes[off], &huge, sizeof(huge));
  ExpectRejected(bytes, "overlength site map");
}

TEST_F(TraceCorruptionTest, UnknownRecordTypeIsRejected) {
  std::string bytes = bytes_;
  size_t first_record = sizeof(FileHeader) + sizeof(PointHeader) +
                        5 * sizeof(uint16_t);  // 5-site dc map
  bytes[first_record + offsetof(Record, type)] = kMaxEventType + 1;
  ExpectRejected(bytes, "unknown record type");
}

TEST_F(TraceCorruptionTest, TrailingBytesAreRejected) {
  ExpectRejected(bytes_ + "junk", "trailing bytes");
}

TEST_F(TraceCorruptionTest, OverlengthPointCountIsRejected) {
  // The file header's point count is a length prefix too: it must be checked
  // against the remaining bytes (one PointHeader per block at least) before
  // it sizes the point array. Unchecked, the first value dies in bad_alloc
  // and the second allocates hundreds of MB before the truncation shows.
  for (uint32_t count : {0xFFFFFFF0u, 3000000u}) {
    std::string bytes = bytes_;
    std::memcpy(&bytes[offsetof(FileHeader, num_points)], &count,
                sizeof(count));
    ExpectRejected(bytes, "overlength point count");
  }
}

// -- mutation fuzz ------------------------------------------------------------

/// Offsets of the version, size, count and tag fields of the file header and
/// of each point header in `bytes` (a valid file).
struct HeaderField {
  size_t offset;
  size_t width;  ///< 4 or 8 bytes
};

std::vector<HeaderField> HeaderFields(const std::string& bytes) {
  std::vector<HeaderField> fields = {
      {offsetof(FileHeader, version), 4},
      {offsetof(FileHeader, record_bytes), 4},
      {offsetof(FileHeader, num_points), 4}};
  FileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  size_t at = sizeof(FileHeader);
  for (uint32_t p = 0; p < h.num_points; ++p) {
    PointHeader ph;
    std::memcpy(&ph, bytes.data() + at, sizeof(ph));
    fields.push_back({at + offsetof(PointHeader, marker), 4});
    fields.push_back({at + offsetof(PointHeader, num_sites), 4});
    fields.push_back({at + offsetof(PointHeader, record_count), 8});
    fields.push_back({at + offsetof(PointHeader, dc_count), 4});
    at += sizeof(PointHeader) + ph.num_sites * sizeof(uint16_t) +
          ph.record_count * sizeof(Record);
  }
  return fields;
}

/// Reads `bytes` and checks the outcome: a rejection must say why, and an
/// accepted file must be internally consistent with its own headers.
/// Returns whether the reader accepted it.
bool ReadsOrFailsCleanly(const std::string& path, const std::string& bytes,
                         const std::string& what) {
  WriteAll(path, bytes);
  TraceFile file;
  std::string error;
  if (!ReadTraceFile(path, &file, &error)) {
    EXPECT_FALSE(error.empty()) << what << ": rejected without a reason";
    return false;
  }
  EXPECT_EQ(file.points.size(), file.header.num_points) << what;
  for (const PointTrace& pt : file.points) {
    EXPECT_EQ(pt.header.marker, kPointMarker) << what;
    EXPECT_EQ(pt.dc_of_site.size(), pt.header.num_sites) << what;
    EXPECT_EQ(pt.records.size(), pt.header.record_count) << what;
    for (const Record& r : pt.records) {
      EXPECT_GE(r.type, 1) << what;
      EXPECT_LE(r.type, kMaxEventType) << what;
    }
  }
  return true;
}

TEST(TraceMutationFuzz, SeededMutantsReadOrFailCleanly) {
  // A small multi-point capture: three blocks, one of them empty.
  std::string base_path = TmpPath("base");
  std::vector<std::vector<Record>> emitted;
  WriteTrace(base_path, {12, 0, 5}, 97, &emitted);
  const std::string base = ReadAll(base_path);
  std::remove(base_path.c_str());
  const std::vector<HeaderField> fields = HeaderFields(base);
  ASSERT_EQ(fields.size(), 3u + 3u * 4u);

  const uint64_t kEdges[] = {0, 1, 2, 3, 0x7FFFFFFF, 0x80000000, 0xFFFFFFF0,
                             0xFFFFFFFF, 3000000, 1ull << 40, ~0ull};
  const std::string path = TmpPath("mutant");
  uint64_t s = 20240611;
  int accepted = 0, rejected = 0;
  for (int k = 0; k < 3000; ++k) {
    std::string bytes = base;
    std::string what;
    switch (k % 3) {
      case 0: {  // one to four bit flips anywhere
        for (uint64_t n = 1 + Mix(&s) % 4; n > 0; --n) {
          uint64_t bit = Mix(&s) % (bytes.size() * 8);
          bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
        }
        what = "bit flips";
        break;
      }
      case 1:  // truncation at any length
        bytes.resize(Mix(&s) % bytes.size());
        what = "truncation to " + std::to_string(bytes.size());
        break;
      default: {  // one header field set to an edge value or a random one
        const HeaderField& f = fields[Mix(&s) % fields.size()];
        uint64_t v = Mix(&s) % 4 == 0
                         ? Mix(&s)
                         : kEdges[Mix(&s) % (sizeof(kEdges) / sizeof(*kEdges))];
        std::memcpy(&bytes[f.offset], &v, f.width);  // little-endian low part
        what = "field at " + std::to_string(f.offset) + " = " +
               std::to_string(v);
        break;
      }
    }
    if (ReadsOrFailsCleanly(path, bytes, "mutant " + std::to_string(k) +
                                             " (" + what + ")")) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  std::remove(path.c_str());
  // Both outcomes occur, or the mutations are not reaching the decisions
  // they are meant to probe.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// -- version compatibility ----------------------------------------------------

/// Builds a valid on-disk trace whose record types all predate v2 (no
/// kSubmitOp), then patches the header's version byte — synthesizing the
/// bytes a v1-era writer produced.
std::string MakeVersionedBytes(uint8_t version) {
  std::string path = TmpPath("versioned");
  PointMeta meta;
  meta.point_index = 0;
  meta.protocol = 1;
  meta.seed = 5;
  meta.dc_of_site = {0, 0, 1};
  std::string error;
  auto sink = TraceSink::Open(ShardPath(path, 0), meta, &error);
  EXPECT_NE(sink, nullptr) << error;
  uint64_t s = 3;
  for (int k = 0; k < 25; ++k) {
    Record r = RandomRecord(&s, 3);
    r.type = static_cast<uint8_t>(1 + (r.type % kMaxEventTypeV1));
    sink->Emit(static_cast<EventType>(r.type), r.time, r.txn, r.site, r.flags,
               r.item, r.aux, r.aux_time);
  }
  EXPECT_TRUE(sink->Finish(&error)) << error;
  EXPECT_TRUE(MergeShards(path, {ShardPath(path, 0)}, &error)) << error;
  std::string bytes = ReadAll(path);
  std::remove(path.c_str());
  bytes[offsetof(FileHeader, version)] = static_cast<char>(version);
  return bytes;
}

TEST(TraceVersionTest, V1FilesStillRead) {
  // Format v2 appended kSubmitOp; the reader must keep accepting v1-era
  // captures (their record vocabulary is a strict subset).
  std::string path = TmpPath("v1_compat");
  WriteAll(path, MakeVersionedBytes(1));
  TraceFile file;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &file, &error)) << error;
  EXPECT_EQ(file.header.version, 1u);
  ASSERT_EQ(file.points.size(), 1u);
  EXPECT_EQ(file.points[0].records.size(), 25u);
  EXPECT_EQ(TotalRecords(file), 25u);
  std::remove(path.c_str());
}

TEST(TraceVersionTest, SubmitOpInsideV1IsRejected) {
  // A v1 header claiming v2 vocabulary is a lie about the writer: the
  // per-version type bound must catch it.
  std::string bytes = MakeVersionedBytes(1);
  size_t first_record = sizeof(FileHeader) + sizeof(PointHeader) +
                        3 * sizeof(uint16_t);  // 3-site dc map
  bytes[first_record + offsetof(Record, type)] =
      static_cast<char>(EventType::kSubmitOp);
  ExpectRejected(bytes, "unknown record type");
}

TEST(TraceVersionTest, VersionZeroAndFutureVersionsAreRejected) {
  ExpectRejected(MakeVersionedBytes(0), "unsupported trace version");
  ExpectRejected(MakeVersionedBytes(kTraceVersion + 1),
                 "unsupported trace version");
}

TEST(TraceVersionTest, TotalRecordsSpotsVacuousFiles) {
  // Structurally valid, semantically empty: two point blocks that captured
  // nothing. TotalRecords is how tools distinguish this from a real sample.
  std::string path = TmpPath("vacuous");
  std::vector<std::vector<Record>> emitted;
  WriteTrace(path, {0, 0}, 13, &emitted);
  TraceFile file;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &file, &error)) << error;
  EXPECT_EQ(file.points.size(), 2u);
  EXPECT_EQ(TotalRecords(file), 0u);
  std::remove(path.c_str());
}

TEST_F(TraceCorruptionTest, IntactFileStillReads) {
  // The fixture bytes themselves must be valid, or the cases above pass
  // for the wrong reason.
  std::string path = TmpPath("intact");
  WriteAll(path, bytes_);
  TraceFile file;
  std::string error;
  EXPECT_TRUE(ReadTraceFile(path, &file, &error)) << error;
  ASSERT_EQ(file.points.size(), 2u);
  EXPECT_EQ(file.points[0].records.size(), 40u);
  EXPECT_EQ(file.points[1].records.size(), 7u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lazyrep::trace
