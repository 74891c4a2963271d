#ifndef LAZYREP_TRACE_TRACE_READER_H_
#define LAZYREP_TRACE_TRACE_READER_H_

#include <string>
#include <vector>

#include "trace/trace_format.h"

namespace lazyrep::trace {

/// One decoded study-point block.
struct PointTrace {
  PointHeader header;
  std::vector<uint16_t> dc_of_site;
  std::vector<Record> records;
};

/// A fully decoded trace file.
struct TraceFile {
  FileHeader header;
  std::vector<PointTrace> points;
};

/// Reads and validates `path`. Returns false with a one-line diagnostic in
/// `error` on any malformation: bad magic or version, wrong record size,
/// a point count or record count that overruns the file (truncation or an
/// overlength length prefix), bad point marker, unknown record types, or
/// trailing bytes.
/// Never reads past the file or trusts a length prefix unchecked.
bool ReadTraceFile(const std::string& path, TraceFile* out,
                   std::string* error);

/// Total records across every point block. A structurally valid file can
/// still be vacuous (no points, or points that captured nothing); consumers
/// that summarize a trace should refuse such a file rather than print
/// statistics of an empty sample.
inline uint64_t TotalRecords(const TraceFile& file) {
  uint64_t n = 0;
  for (const PointTrace& pt : file.points) n += pt.records.size();
  return n;
}

}  // namespace lazyrep::trace

#endif  // LAZYREP_TRACE_TRACE_READER_H_
