// Binary persistence for CSR graphs in the voteopt store container
// (store/format.h): a "meta" section with the node/edge counts plus the six
// raw CSR arrays. Saving is a pure function of the in-memory Graph, so
// save -> load -> save round-trips byte-identically; loads validate the
// shape via Graph::FromCsr and every checksum via the section reader.
#ifndef VOTEOPT_STORE_GRAPH_STORE_H_
#define VOTEOPT_STORE_GRAPH_STORE_H_

#include <string>

#include "graph/graph.h"
#include "store/format.h"
#include "util/status.h"

namespace voteopt::store {

/// Conventional file extension for graph store files.
inline constexpr char kGraphFileSuffix[] = ".graphbin";

/// Persists both CSR directions of `graph`, atomically (WriteSectionFile).
Status SaveGraph(const graph::Graph& graph, const std::string& path);

/// Loads a graph store file. The CSR arrays are copied out of the (briefly
/// mapped) file — a Graph owns its storage; only sketches support the
/// zero-copy path.
Result<graph::Graph> LoadGraph(const std::string& path);

}  // namespace voteopt::store

#endif  // VOTEOPT_STORE_GRAPH_STORE_H_
