#include "trace/trace_reader.h"

#include <cstdio>
#include <cstring>

namespace lazyrep::trace {

namespace {

struct Cursor {
  std::FILE* f = nullptr;
  uint64_t remaining = 0;  ///< bytes left in the file from here

  bool Read(void* dst, size_t bytes) {
    if (remaining < bytes) return false;
    if (std::fread(dst, 1, bytes, f) != bytes) return false;
    remaining -= bytes;
    return true;
  }
};

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::string At(const char* what, size_t point) {
  return std::string(what) + " in point block " + std::to_string(point);
}

}  // namespace

bool ReadTraceFile(const std::string& path, TraceFile* out,
                   std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Fail(error, "cannot open trace file: " + path);
  uint64_t size = 0;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    long end = std::ftell(f);
    if (end > 0) size = static_cast<uint64_t>(end);
  }
  std::fseek(f, 0, SEEK_SET);
  Cursor cur{f, size};

  bool ok = [&]() {
    if (!cur.Read(&out->header, sizeof(out->header))) {
      return Fail(error, "truncated trace file: missing file header");
    }
    const FileHeader& h = out->header;
    if (std::memcmp(h.magic, kTraceMagic, sizeof(h.magic)) != 0) {
      return Fail(error, "bad magic: not a lazyrep trace file");
    }
    if (h.version < kMinTraceVersion || h.version > kTraceVersion) {
      return Fail(error, "unsupported trace version " +
                             std::to_string(h.version) + " (supported " +
                             std::to_string(kMinTraceVersion) + ".." +
                             std::to_string(kTraceVersion) + ")");
    }
    if (h.record_bytes != sizeof(Record)) {
      return Fail(error, "record size mismatch: file says " +
                             std::to_string(h.record_bytes) + ", want " +
                             std::to_string(sizeof(Record)));
    }
    // Every point block starts with a PointHeader, so a count the remaining
    // bytes cannot hold is corrupt; checked before it sizes anything.
    if (h.num_points > cur.remaining / sizeof(PointHeader)) {
      return Fail(error, "overlength point count (or truncated file): " +
                             std::to_string(h.num_points) +
                             " point blocks need at least " +
                             std::to_string(uint64_t{h.num_points} *
                                            sizeof(PointHeader)) +
                             " bytes, " + std::to_string(cur.remaining) +
                             " remain");
    }
    out->points.resize(h.num_points);
    for (uint32_t p = 0; p < h.num_points; ++p) {
      PointTrace& pt = out->points[p];
      if (!cur.Read(&pt.header, sizeof(pt.header))) {
        return Fail(error, At("truncated point header", p));
      }
      if (pt.header.marker != kPointMarker) {
        return Fail(error, At("bad point marker", p));
      }
      // Both length prefixes are validated against the bytes actually left
      // in the file before anything is sized from them: a corrupt or
      // overlength count fails here instead of over-allocating or reading
      // past the end.
      uint64_t map_bytes = uint64_t{pt.header.num_sites} * sizeof(uint16_t);
      if (map_bytes > cur.remaining) {
        return Fail(error, At("overlength site map", p));
      }
      pt.dc_of_site.resize(pt.header.num_sites);
      if (!cur.Read(pt.dc_of_site.data(), map_bytes)) {
        return Fail(error, At("truncated site map", p));
      }
      if (pt.header.record_count > cur.remaining / sizeof(Record)) {
        return Fail(error, At("overlength record count", p));
      }
      pt.records.resize(pt.header.record_count);
      if (!cur.Read(pt.records.data(),
                    pt.header.record_count * sizeof(Record))) {
        return Fail(error, At("truncated record block", p));
      }
      // A v1 file must not contain record types v2 introduced: a stray
      // kSubmitOp in an old capture is corruption, not forward data.
      const uint8_t max_type =
          h.version >= 2 ? kMaxEventType : kMaxEventTypeV1;
      for (const Record& r : pt.records) {
        if (r.type == 0 || r.type > max_type) {
          return Fail(error, At("unknown record type", p));
        }
        if (pt.header.num_sites > 0 && r.site >= pt.header.num_sites &&
            r.site != pt.header.num_sites) {  // num_sites = aux endpoint
          return Fail(error, At("record site out of range", p));
        }
      }
    }
    if (cur.remaining != 0) {
      return Fail(error, "trailing bytes after the last point block");
    }
    return true;
  }();

  std::fclose(f);
  return ok;
}

}  // namespace lazyrep::trace
