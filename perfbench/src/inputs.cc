#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "io/plan_text.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "input generation failed: %s\n", what.c_str());
  std::exit(1);
}

mrs::WorkloadParams PlanParams(int joins) {
  mrs::WorkloadParams params;
  params.num_joins = joins;
  params.min_tuples = 1'000;
  params.max_tuples = 100'000;
  params.sort_probability = 0.2;
  params.aggregate_probability = 0.1;
  return params;
}

PlanInput Generate(int joins, mrs::Rng* rng) {
  auto generated = mrs::GenerateQuery(PlanParams(joins), rng);
  if (!generated.ok()) Die(generated.status().ToString());
  PlanInput input;
  input.catalog = std::move(generated->catalog);
  input.plan = std::move(generated->plan);
  auto text = mrs::WritePlanText(*input.catalog, *input.plan);
  if (!text.ok()) Die(text.status().ToString());
  input.text = std::move(text).value();
  return input;
}

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  // SplitMix64 finalizer over (seed, purpose): independent streams.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + purpose * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::string> ServeTemplates(uint64_t seed) {
  // J takes each value in 3..12 equally often (25 or 26 templates each),
  // in a seeded order over the Zipf ranks.
  std::vector<int> joins(kServeTemplates);
  for (int i = 0; i < kServeTemplates; ++i) joins[static_cast<size_t>(i)] = 3 + i % 10;
  mrs::Rng rng(SubSeed(seed, 1));
  rng.Shuffle(&joins);
  std::vector<std::string> templates;
  templates.reserve(kServeTemplates);
  for (int j : joins) templates.push_back(Generate(j, &rng).text);
  return templates;
}

std::vector<Arrival> PoissonZipfStream(uint64_t seed, double rate_per_s,
                                       double seconds) {
  // Zipf(s = 1): P(rank k) proportional to 1/k; template i has rank i+1.
  std::vector<double> cdf(kServeTemplates);
  double total = 0.0;
  for (int k = 0; k < kServeTemplates; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[static_cast<size_t>(k)] = total;
  }
  for (double& c : cdf) c /= total;

  mrs::Rng rng(seed);
  std::vector<Arrival> stream;
  const double mean_gap_ms = 1000.0 / rate_per_s;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) * mean_gap_ms;
    if (t >= seconds * 1000.0) break;
    const double u = rng.UniformDouble();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    Arrival a;
    a.due_ms = t;
    a.template_index = static_cast<int>(
        std::min<ptrdiff_t>(it - cdf.begin(), kServeTemplates - 1));
    stream.push_back(a);
  }
  return stream;
}

std::vector<PlanInput> BatchPlans(uint64_t seed, int per_size) {
  mrs::Rng rng(SubSeed(seed, 2));
  std::vector<PlanInput> plans;
  for (int joins : kBatchJoins) {
    for (int i = 0; i < per_size; ++i) plans.push_back(Generate(joins, &rng));
  }
  return plans;
}

std::vector<GraphInput> OptimizeGraphs(uint64_t seed) {
  struct Shape {
    const char* name;
    int joins;
  };
  static constexpr Shape kShapes[] = {
      {"chain", 6}, {"chain", 7}, {"chain", 8}, {"cycle", 6},
      {"cycle", 7}, {"cycle", 8}, {"tree", 6},  {"tree", 7},
      {"tree", 8},  {"star", 5},  {"star", 6},  {"star", 7},
  };
  mrs::Rng rng(SubSeed(seed, 3));
  std::vector<GraphInput> graphs;
  for (const Shape& shape : kShapes) {
    GraphInput g;
    g.shape = shape.name;
    g.joins = shape.joins;
    const int n = shape.joins + 1;
    g.catalog = std::make_unique<mrs::Catalog>();
    for (int i = 0; i < n; ++i) {
      mrs::Relation r;
      r.name = "R" + std::to_string(i);
      r.num_tuples = static_cast<int64_t>(rng.LogUniform(1e3, 1e5));
      if (!g.catalog->AddRelation(std::move(r)).ok()) Die("relation");
    }
    g.graph = std::make_unique<mrs::QueryGraph>(n);
    auto add = [&](int a, int b) {
      if (!g.graph->AddJoin(a, b).ok()) Die("join edge");
    };
    const std::string s = shape.name;
    for (int i = 1; i < n; ++i) {
      if (s == "star") {
        add(0, i);
      } else if (s == "tree") {
        add(static_cast<int>(rng.UniformInt(0, i - 1)), i);
      } else {
        add(i - 1, i);
      }
    }
    if (s == "cycle") add(n - 1, 0);
    auto text = mrs::WriteGraphText(*g.catalog, *g.graph);
    if (!text.ok()) Die(text.status().ToString());
    g.text = std::move(text).value();
    graphs.push_back(std::move(g));
  }
  return graphs;
}

}  // namespace perfbench
