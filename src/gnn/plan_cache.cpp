#include "gnn/plan_cache.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"

namespace paragraph::gnn {

namespace {

using circuit::DeviceId;
using circuit::Netlist;
using circuit::NetId;
using circuit::SubcktInstance;
using graph::HeteroGraph;
using graph::kNumNodeTypes;
using graph::NodeType;

// Netlist id -> graph-local index (-1 when the id has no node, i.e. supply
// nets). Device locals are within the device's own node type.
struct FullIndex {
  std::vector<std::int32_t> net;
  std::vector<std::int32_t> dev;
};

FullIndex build_full_index(const HeteroGraph& g, const Netlist& nl) {
  FullIndex fx;
  fx.net.assign(nl.num_nets(), -1);
  fx.dev.assign(nl.num_devices(), -1);
  const auto& no = g.origins(NodeType::kNet);
  for (std::size_t l = 0; l < no.size(); ++l)
    fx.net[static_cast<std::size_t>(no[l])] = static_cast<std::int32_t>(l);
  for (std::size_t t = 1; t < kNumNodeTypes; ++t) {
    const auto& o = g.origins(static_cast<NodeType>(t));
    for (std::size_t l = 0; l < o.size(); ++l)
      fx.dev[static_cast<std::size_t>(o[l])] = static_cast<std::int32_t>(l);
  }
  return fx;
}

NodeType node_type_of_device(const circuit::Device& d) {
  switch (d.kind) {
    case circuit::DeviceKind::kNmos:
    case circuit::DeviceKind::kPmos: return NodeType::kTransistor;
    case circuit::DeviceKind::kNmosThick:
    case circuit::DeviceKind::kPmosThick: return NodeType::kTransistorThick;
    case circuit::DeviceKind::kResistor: return NodeType::kResistor;
    case circuit::DeviceKind::kCapacitor: return NodeType::kCapacitor;
    case circuit::DeviceKind::kDiode: return NodeType::kDiode;
    case circuit::DeviceKind::kBjt: return NodeType::kBjt;
  }
  throw std::logic_error("plan_cache: unknown device kind");
}

std::size_t matrix_bytes(const nn::Matrix& m) { return m.size() * sizeof(float); }

std::size_t graph_bytes(const HeteroGraph& g) {
  std::size_t b = 0;
  for (std::size_t t = 0; t < kNumNodeTypes; ++t) {
    const auto nt = static_cast<NodeType>(t);
    b += g.num_nodes(nt) * sizeof(std::int32_t) + matrix_bytes(g.features(nt));
  }
  for (const auto& te : g.edges())
    b += te.num_edges() * 2 * sizeof(std::int32_t) +
         te.dst_segments.offsets.size() * sizeof(std::int32_t);
  return b;
}

// One cached instance occurrence in the sample being embedded: the rep
// subgraph local each interior subtree node corresponds to, per node type,
// as (full graph local, rep local) pairs.
struct NodeCorrespondence {
  std::array<std::vector<std::pair<std::int32_t, std::int32_t>>, kNumNodeTypes> nodes;
};

}  // namespace

void PlanCache::clear() {
  entries_.clear();
  bytes_ = 0;
  refresh_bytes_gauge();
}

void PlanCache::refresh_bytes_gauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::instance().gauge("plancache.bytes");
  gauge.set(static_cast<double>(bytes_));
}

PlanCache::Entry* PlanCache::find_or_build(const Netlist& nl, const HeteroGraph& g,
                                           const SubcktInstance& inst, bool with_homo) {
  static obs::Counter& misses = obs::MetricsRegistry::instance().counter("plancache.misses");

  auto it = entries_.find(inst.ref.structural_hash);
  if (it != entries_.end()) {
    Entry& e = *it->second;
    if (with_homo && !e.plan.has_homo()) {
      // A homo-needing model joined later: upgrade the plan in place (the
      // typed part is unchanged, so existing embeddings stay valid).
      e.plan = GraphPlan::build(e.rep.graph, true);
    }
    return &e;
  }

  const FullIndex fx = build_full_index(g, nl);
  auto entry = std::make_unique<Entry>();
  entry->hash = inst.ref.structural_hash;

  // Keep mask: subtree devices, created non-supply nets, and the distinct
  // non-supply boundary nets. Boundary nets are materialised before the
  // subtree's net range opens, so their graph locals precede every created
  // net's — they occupy the leading net-type positions of the subgraph.
  std::array<std::vector<char>, kNumNodeTypes> keep;
  for (std::size_t t = 0; t < kNumNodeTypes; ++t)
    keep[t].assign(g.num_nodes(static_cast<NodeType>(t)), 0);
  std::unordered_set<NetId> boundary_ids(inst.ref.boundary_nets.begin(),
                                         inst.ref.boundary_nets.end());
  for (const NetId b : boundary_ids) {
    const std::int32_t l = fx.net[static_cast<std::size_t>(b)];
    if (l >= 0) {
      if (keep[0][static_cast<std::size_t>(l)] == 0) ++entry->boundary_net_nodes;
      keep[0][static_cast<std::size_t>(l)] = 1;
    }
  }
  for (NetId n = inst.first_net; n < inst.net_end; ++n) {
    const std::int32_t l = fx.net[static_cast<std::size_t>(n)];
    if (l >= 0) keep[0][static_cast<std::size_t>(l)] = 1;
  }
  for (DeviceId d = inst.first_device; d < inst.device_end; ++d) {
    const auto t = static_cast<std::size_t>(node_type_of_device(nl.device(d)));
    keep[t][static_cast<std::size_t>(fx.dev[static_cast<std::size_t>(d)])] = 1;
  }
  entry->rep = graph::induced_subgraph(g, keep);

  // Multi-source BFS for the distance to the instance boundary: boundary
  // net nodes seed at depth 0, devices with any boundary-listed connection
  // (supply-bound ports included — in another instance of this template
  // that port may carry a signal, and the depth must be valid for every
  // instance sharing the hash) seed at depth 1.
  std::array<std::size_t, kNumNodeTypes + 1> off{};
  for (std::size_t t = 0; t < kNumNodeTypes; ++t)
    off[t + 1] = off[t] + entry->rep.graph.num_nodes(static_cast<NodeType>(t));
  const std::size_t total = off[kNumNodeTypes];
  std::vector<std::vector<std::int32_t>> adj(total);
  const auto& registry = graph::edge_type_registry();
  for (const auto& te : entry->rep.graph.edges()) {
    const auto st = static_cast<std::size_t>(registry[te.type_index].src_type);
    const auto dt = static_cast<std::size_t>(registry[te.type_index].dst_type);
    for (std::size_t e = 0; e < te.num_edges(); ++e) {
      const auto gs = static_cast<std::int32_t>(off[st] + static_cast<std::size_t>(te.src[e]));
      const auto gd = static_cast<std::int32_t>(off[dt] + static_cast<std::size_t>(te.dst[e]));
      adj[static_cast<std::size_t>(gs)].push_back(gd);
      adj[static_cast<std::size_t>(gd)].push_back(gs);
    }
  }
  std::vector<std::int32_t> dist(total, kUnreachable);
  std::deque<std::int32_t> queue;
  for (std::size_t l = 0; l < entry->boundary_net_nodes; ++l) {
    dist[off[0] + l] = 0;
    queue.push_back(static_cast<std::int32_t>(off[0] + l));
  }
  {
    std::array<std::int32_t, kNumNodeTypes> ordinal{};
    for (DeviceId d = inst.first_device; d < inst.device_end; ++d) {
      const auto t = static_cast<std::size_t>(node_type_of_device(nl.device(d)));
      const std::int32_t rep_local = ordinal[t]++;
      bool touches = false;
      for (const NetId c : nl.device(d).conns) touches = touches || boundary_ids.contains(c);
      if (!touches) continue;
      const std::size_t gl = off[t] + static_cast<std::size_t>(rep_local);
      if (dist[gl] > 1) {
        dist[gl] = 1;
        queue.push_back(static_cast<std::int32_t>(gl));
      }
    }
  }
  while (!queue.empty()) {
    const std::int32_t v = queue.front();
    queue.pop_front();
    for (const std::int32_t w : adj[static_cast<std::size_t>(v)]) {
      if (dist[static_cast<std::size_t>(w)] <= dist[static_cast<std::size_t>(v)] + 1) continue;
      dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(v)] + 1;
      queue.push_back(w);
    }
  }
  for (std::size_t t = 0; t < kNumNodeTypes; ++t)
    entry->depth[t].assign(dist.begin() + static_cast<std::ptrdiff_t>(off[t]),
                           dist.begin() + static_cast<std::ptrdiff_t>(off[t + 1]));

  entry->plan = GraphPlan::build(entry->rep.graph, with_homo);
  entry->struct_bytes = graph_bytes(entry->rep.graph) * 3;  // graph + plan estimate
  bytes_ += entry->struct_bytes;
  misses.add(1);
  refresh_bytes_gauge();
  return entries_.emplace(entry->hash, std::move(entry)).first->second.get();
}

const PlanCache::Embed& PlanCache::embed_for(Entry& entry, std::uint64_t model_key,
                                             const EmbedFn& embed) {
  for (auto& em : entry.embeds) {
    if (em.key == model_key) {
      em.tick = ++tick_;
      return em;
    }
  }
  static obs::Counter& misses = obs::MetricsRegistry::instance().counter("plancache.misses");
  misses.add(1);
  if (entry.embeds.size() >= config_.max_embed_variants) {
    auto victim = std::min_element(entry.embeds.begin(), entry.embeds.end(),
                                   [](const Embed& a, const Embed& b) { return a.tick < b.tick; });
    bytes_ -= victim->bytes;
    entry.embeds.erase(victim);
  }
  Embed em;
  em.key = model_key;
  em.tick = ++tick_;
  const TypeTensors z = embed(entry.rep.graph, entry.plan);
  for (std::size_t t = 0; t < kNumNodeTypes; ++t) {
    if (!z[t].defined()) continue;
    em.z[t] = z[t].value();
    em.bytes += matrix_bytes(em.z[t]);
  }
  bytes_ += em.bytes;
  refresh_bytes_gauge();
  entry.embeds.push_back(std::move(em));
  return entry.embeds.back();
}

bool PlanCache::embed_hierarchical(const Netlist& nl, const HeteroGraph& g,
                                   std::size_t num_layers, bool with_homo,
                                   std::uint64_t model_key, const EmbedFn& embed,
                                   std::array<nn::Matrix, kNumNodeTypes>* out) {
  const auto& insts = nl.instances();
  if (insts.empty()) return false;

  // Greedy maximal selection: cache a profitable instance whole, descend
  // into unprofitable ones so repeated children under a unique parent
  // still hit.
  std::unordered_map<std::uint64_t, int> hash_count;
  for (const auto& inst : insts) ++hash_count[inst.ref.structural_hash];
  std::vector<std::vector<int>> children(insts.size());
  std::vector<int> top;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (insts[i].parent < 0)
      top.push_back(static_cast<int>(i));
    else
      children[static_cast<std::size_t>(insts[i].parent)].push_back(static_cast<int>(i));
  }
  std::vector<int> selected;
  const std::function<void(int)> visit = [&](int i) {
    const SubcktInstance& inst = insts[static_cast<std::size_t>(i)];
    if (static_cast<std::size_t>(inst.device_end - inst.first_device) <
        config_.min_subtree_devices)
      return;
    if (hash_count[inst.ref.structural_hash] >= 2 ||
        entries_.contains(inst.ref.structural_hash)) {
      selected.push_back(i);
      return;
    }
    for (const int c : children[static_cast<std::size_t>(i)]) visit(c);
  };
  for (const int t : top) visit(t);
  if (selected.empty()) return false;

  static obs::Counter& hits = obs::MetricsRegistry::instance().counter("plancache.hits");
  const auto L = static_cast<std::int32_t>(num_layers);

  struct Placed {
    int inst;
    Entry* entry;
  };
  std::vector<Placed> placed;
  for (const int i : selected) {
    Entry* e = find_or_build(nl, g, insts[static_cast<std::size_t>(i)], with_homo);
    // Templates that are all skin (no node deeper than L) have nothing to
    // memoize; leave their nodes to the reduced graph.
    bool interior = false;
    for (std::size_t t = 0; t < kNumNodeTypes && !interior; ++t)
      for (const std::int32_t d : e->depth[t])
        if (d > L) {
          interior = true;
          break;
        }
    if (interior) placed.push_back({i, e});
  }
  if (placed.empty()) return false;

  // Map each placed instance's subtree nodes onto the rep subgraph: the
  // k-th type-t subtree device corresponds to rep type-t local k; the j-th
  // created non-supply net to rep net local boundary_net_nodes + j. Both
  // correspondences follow from the structural hash covering device kinds
  // and canonicalised connections in id order.
  const FullIndex fx = build_full_index(g, nl);
  std::vector<NodeCorrespondence> maps(placed.size());
  for (std::size_t p = 0; p < placed.size(); ++p) {
    const SubcktInstance& inst = insts[static_cast<std::size_t>(placed[p].inst)];
    const Entry& e = *placed[p].entry;
    std::array<std::int32_t, kNumNodeTypes> ordinal{};
    for (DeviceId d = inst.first_device; d < inst.device_end; ++d) {
      const auto t = static_cast<std::size_t>(node_type_of_device(nl.device(d)));
      maps[p].nodes[t].emplace_back(fx.dev[static_cast<std::size_t>(d)], ordinal[t]++);
    }
    std::int32_t j = 0;
    for (NetId n = inst.first_net; n < inst.net_end; ++n) {
      const std::int32_t l = fx.net[static_cast<std::size_t>(n)];
      if (l < 0) continue;  // supply
      maps[p].nodes[0].emplace_back(
          l, static_cast<std::int32_t>(e.boundary_net_nodes) + j++);
    }
    for (std::size_t t = 0; t < kNumNodeTypes; ++t) {
      const std::size_t expect = t == 0 ? e.boundary_net_nodes + static_cast<std::size_t>(j)
                                        : static_cast<std::size_t>(ordinal[t]);
      if (expect != e.rep.graph.num_nodes(static_cast<NodeType>(t)))
        throw std::logic_error("PlanCache: structural hash collision on instance '" + inst.path +
                               "'");
    }
  }

  // Reduced graph: drop every cached node deeper than 2L+1 (see header for
  // why the extra ring is kept).
  std::array<std::vector<char>, kNumNodeTypes> keep;
  for (std::size_t t = 0; t < kNumNodeTypes; ++t)
    keep[t].assign(g.num_nodes(static_cast<NodeType>(t)), 1);
  const std::int32_t keep_limit = 2 * L + 1;
  for (std::size_t p = 0; p < placed.size(); ++p) {
    const Entry& e = *placed[p].entry;
    for (std::size_t t = 0; t < kNumNodeTypes; ++t)
      for (const auto& [full, rep] : maps[p].nodes[t])
        if (e.depth[t][static_cast<std::size_t>(rep)] > keep_limit)
          keep[t][static_cast<std::size_t>(full)] = 0;
  }

  const graph::Subgraph reduced = graph::induced_subgraph(g, keep);
  const GraphPlan rplan = GraphPlan::build(reduced.graph, with_homo);
  const TypeTensors rz = embed(reduced.graph, rplan);

  // Memoized embeddings, counting one hit per instance that found its
  // template's embedding already present.
  std::vector<const Embed*> embeds(placed.size());
  for (std::size_t p = 0; p < placed.size(); ++p) {
    Entry& e = *placed[p].entry;
    const bool present = std::any_of(e.embeds.begin(), e.embeds.end(),
                                     [&](const Embed& em) { return em.key == model_key; });
    if (present) hits.add(1);
    embeds[p] = &embed_for(e, model_key, embed);
  }

  // Assemble: reduced-graph rows first, then interior rows (depth > L)
  // overwrite from the memoized template embedding.
  for (std::size_t t = 0; t < kNumNodeTypes; ++t) {
    const auto nt = static_cast<NodeType>(t);
    const std::size_t n = g.num_nodes(nt);
    if (n == 0) {
      (*out)[t] = nn::Matrix();
      continue;
    }
    std::size_t dim = 0;
    if (rz[t].defined()) dim = rz[t].value().cols();
    for (std::size_t p = 0; p < placed.size() && dim == 0; ++p)
      dim = embeds[p]->z[t].cols();
    (*out)[t] = nn::Matrix(n, dim, 0.0f);
    if (rz[t].defined()) {
      const nn::Matrix& rm = rz[t].value();
      for (std::size_t r = 0; r < rm.rows(); ++r) {
        const auto full = static_cast<std::size_t>(reduced.to_full[t][r]);
        for (std::size_t c = 0; c < dim; ++c) (*out)[t](full, c) = rm(r, c);
      }
    }
    for (std::size_t p = 0; p < placed.size(); ++p) {
      const Entry& e = *placed[p].entry;
      const nn::Matrix& em = embeds[p]->z[t];
      for (const auto& [full, rep] : maps[p].nodes[t]) {
        if (e.depth[t][static_cast<std::size_t>(rep)] <= L) continue;
        for (std::size_t c = 0; c < dim; ++c)
          (*out)[t](static_cast<std::size_t>(full), c) = em(static_cast<std::size_t>(rep), c);
      }
    }
  }
  return true;
}

}  // namespace paragraph::gnn
