#include "blocking/forest_io.h"

#include "common/tsv.h"

namespace progres {

bool SaveForests(const std::string& path,
                 const std::vector<Forest>& forests) {
  std::vector<std::vector<std::string>> rows;
  for (const Forest& forest : forests) {
    for (const BlockNode& node : forest.nodes) {
      const std::string parent_path =
          node.parent >= 0 ? forest.node(node.parent).id.path : std::string();
      rows.push_back({std::to_string(forest.family),
                      std::to_string(node.id.level), node.id.path,
                      parent_path, std::to_string(node.size),
                      std::to_string(node.uncov)});
    }
  }
  return WriteTsv(path, rows);
}

}  // namespace progres
