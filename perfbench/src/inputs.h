// Seeded input generation. Every workload's inputs are a pure function of
// the --seed argument; the program under test only ever sees the
// generated plan text, PlanTrees or QueryGraphs.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "plan/plan_tree.h"
#include "plan/query_graph.h"

namespace perfbench {

/// Derives an independent stream seed for one purpose from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

// ------------------------------------------------------------------ serve

inline constexpr int kServeTemplates = 256;
inline constexpr int kServeSites = 32;

/// The serve workload's plan templates: GenerateQuery plans with J uniform
/// in 3..12, 10^3..10^5 tuples, 20% sort and 10% aggregate wrappers, as
/// request payloads (plan text, no @ directives). Template i is Zipf
/// rank i + 1.
std::vector<std::string> ServeTemplates(uint64_t seed);

/// One open-loop request: when it is due (ms from the phase start) and
/// which template it carries.
struct Arrival {
  double due_ms = 0.0;
  int template_index = 0;
};

/// Poisson arrivals at `rate_per_s` over `seconds`, templates drawn
/// Zipf(s = 1) over kServeTemplates ranks.
std::vector<Arrival> PoissonZipfStream(uint64_t seed, double rate_per_s,
                                       double seconds);

// ------------------------------------------------------------------ batch

/// One batch input: a generated plan with the catalog it points into,
/// plus its plan text (what the batch set-up parses).
struct PlanInput {
  std::unique_ptr<mrs::Catalog> catalog;
  std::unique_ptr<mrs::PlanTree> plan;
  std::string text;
};

inline constexpr int kBatchJoins[] = {10, 20, 30, 40, 50};

/// `per_size` all-distinct GenerateQuery plans per J in kBatchJoins, with
/// 20% sort and 10% aggregate wrappers (paper §6.1 sizes).
std::vector<PlanInput> BatchPlans(uint64_t seed, int per_size);

// --------------------------------------------------------------- optimize

struct GraphInput {
  std::string shape;  ///< chain | cycle | tree | star
  int joins = 0;      ///< J: the graph has J + 1 relations
  std::unique_ptr<mrs::Catalog> catalog;
  std::unique_ptr<mrs::QueryGraph> graph;
  std::string text;  ///< plan text with a graph stanza
};

/// The optimize workload's fixed shape set — chain, cycle and random-tree
/// graphs at J in {6, 7, 8} and stars at J in {5, 6, 7} — with seeded
/// relation sizes (10^3..10^5 tuples, log-uniform) and tree edges.
std::vector<GraphInput> OptimizeGraphs(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
