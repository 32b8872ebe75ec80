#ifndef PROGRES_BLOCKING_FOREST_IO_H_
#define PROGRES_BLOCKING_FOREST_IO_H_

#include <string>
#include <vector>

#include "blocking/forest.h"

namespace progres {

// Export of the statistics forests — in the paper's deployment the first
// MR job writes its statistics to HDFS for the second job's map-task setup;
// here the file is an inspection artifact (`progres_cli stats --out`). No
// reader exists: the second job recomputes the forests in-process.
//
// Format: TSV with one row per block:
//   family  level  path  parent_path  size  uncov
// Paths embed the kPathSeparator control character, which TSV tolerates
// (fields are tab-delimited). Entity membership is not written.

// Writes `forests` to `path`. Returns false on I/O failure.
bool SaveForests(const std::string& path, const std::vector<Forest>& forests);

}  // namespace progres

#endif  // PROGRES_BLOCKING_FOREST_IO_H_
