// voteopt_convert: SNAP/edge-list -> dataset-bundle converter, the entry
// ramp for real graphs (soc-LiveJournal and friends; see
// tools/fetch_snap_dataset.sh for the download half).
//
//   $ tools/fetch_snap_dataset.sh --download soc-LiveJournal1 /data
//   $ voteopt_convert --edges=/data/soc-LiveJournal1.txt --out=/data/lj --compact_ids
//   $ voteopt_serve --bundle=/data/lj --theta=1048576 --block_budget_bytes=268435456 --build_only
//
// The parser streams the file twice (degrees, then CSR fill), so peak
// memory is the output CSR — never the text. The bundle's graph members
// are written as binary CSR stores; everything downstream (serve, bench,
// the api::Engine) loads them like any other bundle.
#include <iostream>

#include "datasets/convert.h"
#include "util/options.h"

using namespace voteopt;

namespace {

constexpr char kUsage[] = R"(usage: voteopt_convert --edges=<path> --out=<prefix> [flags]

Converts a SNAP-style edge list ("src dst [weight]"; '#'/'%' comments,
blank lines, duplicate edges, self-loops, and out-of-order ids are all
handled) into a voteopt dataset bundle with binary graph members.

  --edges=<path>        input edge list (required)
  --out=<prefix>        output bundle prefix (required)
  --undirected          emit both directions per input line
  --keep_self_loops     keep u -> u edges (dropped by default)
  --compact_ids         relabel occurring ids to [0, n), ascending
  --max_node_id=<N>     reject ids above N (default 2^28 - 1)
  --mu=<F>              interaction-count decay w = 1 - e^{-a/mu}
                        (default 10.0; paper App. D)
  --candidates=<N>      synthetic campaigns to attach (default 2)
  --opinion_seed=<N>    RNG seed for the synthetic opinions (default 7)
  --target=<N>          default target candidate (default 0)
  --name=<str>          display name in the bundle meta
  --help                print this message and exit
)";

}  // namespace

int main(int argc, char** argv) {
  Options options(argc, argv);
  if (options.GetBool("help", false)) {
    std::cout << kUsage;
    return 0;
  }
  const std::string edges = options.GetString("edges", "");
  const std::string out = options.GetString("out", "");
  if (edges.empty() || out.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  datasets::ConvertOptions convert;
  convert.stream.undirected = options.GetBool("undirected", false);
  convert.stream.drop_self_loops = !options.GetBool("keep_self_loops", false);
  convert.stream.compact_ids = options.GetBool("compact_ids", false);
  convert.stream.max_node_id = static_cast<uint64_t>(options.GetInt(
      "max_node_id", static_cast<int64_t>(convert.stream.max_node_id)));
  convert.mu = options.GetDouble("mu", 10.0);
  convert.num_candidates =
      static_cast<uint32_t>(options.GetInt("candidates", 2));
  convert.opinion_seed =
      static_cast<uint64_t>(options.GetInt("opinion_seed", 7));
  convert.target = static_cast<uint32_t>(options.GetInt("target", 0));
  convert.name = options.GetString("name", "converted");

  auto report = datasets::ConvertEdgeListToBundle(edges, out, convert);
  if (!report.ok()) {
    std::cerr << "conversion failed: " << report.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "converted " << edges << " -> " << out << ".*\n"
            << "  nodes: " << report->num_nodes
            << "  edges: " << report->num_edges << "\n"
            << "  input lines: " << report->parse.lines
            << " (comments: " << report->parse.comment_lines
            << ", edge records: " << report->parse.edge_records
            << ", self-loops dropped: " << report->parse.self_loops_dropped
            << ", parallel duplicates: " << report->parse.duplicate_edges
            << ")\n"
            << "  influence fingerprint: " << report->influence_file_fnv
            << "\n";
  return 0;
}
