// The cross-topology × cross-workload answer matrix (docs/topologies.md).
//
// The paper argues one point in a large design space: a torus booster behind
// a crossbar cluster.  This bench holds the workload fixed and swaps the
// booster interconnect — {deep (EXTOLL torus), fat-tree, dragonfly} ×
// {stencil, spmv, gateway-offload (cholesky)} × {adaptive routing on/off} ×
// {chaos on/off} — running every cell through the full service session
// (DeepSystem, gateways, MPI, verification) twice and fingerprinting the
// outcome.  Everything recorded is virtual-time, so the whole matrix is
// host-independent: scripts/bench.py check topology gates per-cell
// fingerprint equality across runs AND against the checked-in ledger,
// plus the relative orderings measured by the fabric-level section below:
//
//   * a non-blocking fat-tree completes cross-leaf exchange no later than
//     an oversubscribed one;
//   * adaptive (least-loaded) plane selection beats static ECMP under
//     colliding cross-leaf traffic;
//   * dragonfly UGAL beats minimal routing under adversarial group-to-group
//     traffic (and takes Valiant detours doing it);
//   * killing a dragonfly global link reroutes (zero drops, detours taken)
//     where the torus — no path diversity under dimension-ordered routing —
//     drops on a killed link.
//
// Prints the tables; --json PATH records the machine-readable result
// (scripts/bench.py run topology reduces it to rows of results/BENCH.json).
// --smoke is accepted for CI symmetry with the other benches: every cell is
// virtual-time-bound and cheap, so smoke runs use identical parameters and
// must reproduce the committed fingerprints exactly.

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "net/dragonfly.hpp"
#include "net/fattree.hpp"
#include "net/torus.hpp"
#include "sim/engine.hpp"
#include "svc/json.hpp"
#include "svc/session.hpp"
#include "util/units.hpp"

namespace db = deep::bench;
namespace dn = deep::net;
namespace ds = deep::sim;
namespace dsv = deep::svc;
namespace du = deep::util;

namespace {

// ---------------------------------------------------------------------------
// Section 1: the answer matrix, through full service sessions.
// ---------------------------------------------------------------------------

constexpr int kCluster = 4;
constexpr int kBooster = 16;
constexpr int kGateways = 2;
constexpr int kProcs = 8;
constexpr int kSteps = 2;
constexpr std::uint64_t kSeed = 7;

const char* kTopologies[] = {"deep", "fattree", "dragonfly"};
const char* kWorkloads[] = {"stencil", "spmv", "cholesky"};

struct Cell {
  std::string topology;
  std::string workload;
  bool adaptive = false;
  bool chaos = false;
  bool ok = false;
  int mpi_errors = 0;
  std::uint64_t events = 0;
  std::int64_t final_ps = 0;
  std::string fingerprint;  // hex FNV-1a of the session fingerprint
  bool runs_identical = false;
};

dsv::JobSpec cell_spec(const std::string& topology, const std::string& workload,
                       bool adaptive, bool chaos) {
  dsv::JobSpec spec;
  spec.workload = workload;
  spec.topology = topology;
  spec.adaptive = adaptive;
  spec.cluster = kCluster;
  spec.booster = kBooster;
  spec.gateways = kGateways;
  spec.procs = kProcs;
  spec.steps = kSteps;
  spec.metrics = false;
  spec.seed = kSeed;
  if (chaos) {
    // Kill, then heal, the link between booster nodes 0 and 8.  On the
    // dragonfly these are the representatives of the routers hosting the
    // group-0 <-> group-1 global link (killing the optical cable); on the
    // torus/fat-tree the same pair names whatever link the fabric maps it
    // to.  Chaos cells need not verify OK — they must be *deterministic*.
    spec.faults.links.push_back({40, 0, 8, false});
    spec.faults.links.push_back({120, 0, 8, true});
  }
  return spec;
}

Cell run_cell(const std::string& topology, const std::string& workload,
              bool adaptive, bool chaos) {
  const dsv::JobSpec spec = cell_spec(topology, workload, adaptive, chaos);
  dsv::Reject reject;
  dsv::JobSpec validated = spec;  // validate() is const; run as parsed
  if (!validated.validate(reject)) {
    std::fprintf(stderr, "bench_topology: invalid cell spec: %s\n",
                 reject.message.c_str());
    std::exit(2);
  }
  const dsv::SessionResult first = dsv::run_session(validated);
  const dsv::SessionResult second = dsv::run_session(validated);
  Cell cell;
  cell.topology = topology;
  cell.workload = workload;
  cell.adaptive = adaptive;
  cell.chaos = chaos;
  cell.ok = first.ok;
  cell.mpi_errors = first.mpi_errors;
  cell.events = first.events;
  cell.final_ps = first.final_ps;
  cell.fingerprint = dsv::hex64(dsv::fnv1a64(first.fingerprint()));
  cell.runs_identical = first.fingerprint() == second.fingerprint();
  return cell;
}

// ---------------------------------------------------------------------------
// Section 2: fabric-level relative orderings (pure virtual time).
// ---------------------------------------------------------------------------

struct FlowResult {
  std::int64_t final_ps = 0;   // virtual time of the last delivery
  int delivered = 0;
  std::int64_t drops = 0;
  std::int64_t detours = 0;    // dragonfly Valiant detours (0 elsewhere)
  bool operator==(const FlowResult& o) const {
    return final_ps == o.final_ps && delivered == o.delivered &&
           drops == o.drops && detours == o.detours;
  }
  double us() const { return static_cast<double>(final_ps) / 1e6; }
};

constexpr std::int64_t kFlowBytes = du::MiB;

/// Fat-tree, 32 nodes over 4 leaves: every node sends 1 MiB to the node
/// `radix` ahead (always cross-leaf).
FlowResult fattree_cross_leaf(int uplinks, dn::FatTreeRouting routing) {
  ds::Engine eng;
  dn::FatTreeParams p;
  p.leaf_radix = 8;
  p.uplinks = uplinks;
  p.routing = routing;
  dn::FatTreeFabric t(eng, "ft", p);
  constexpr int kNodes = 32;
  FlowResult r;
  ds::TimePoint last{};
  for (int n = 0; n < kNodes; ++n)
    t.attach(n).bind(dn::Port::Raw, [&](dn::Message&&) {
      ++r.delivered;
      last = eng.now();
    });
  for (int n = 0; n < kNodes; ++n) {
    dn::Message m;
    m.src = n;
    m.dst = (n + p.leaf_radix) % kNodes;
    m.size_bytes = kFlowBytes;
    t.send(std::move(m), dn::Service::Bulk);
  }
  eng.run();
  r.final_ps = last.ps;
  r.drops = t.stats().messages_dropped;
  return r;
}

/// Dragonfly g=4, a=4, p=2 (32 nodes): group 0 sends 1 MiB per node to
/// group 1 — the adversarial pattern that serialises on the single global
/// link under minimal routing.  `kill_global` cuts that link up front (the
/// path-diversity / chaos case).
FlowResult dragonfly_adversarial(dn::DragonflyRouting routing,
                                 bool kill_global) {
  ds::Engine eng;
  dn::DragonflyParams p;
  p.routing = routing;
  dn::DragonflyFabric t(eng, "df", p);
  constexpr int kNodes = 32;  // groups * routers_per_group * nodes_per_router
  FlowResult r;
  ds::TimePoint last{};
  for (int n = 0; n < kNodes; ++n)
    t.attach(n).bind(dn::Port::Raw, [&](dn::Message&&) {
      ++r.delivered;
      last = eng.now();
    });
  if (kill_global) {
    const int g0_host = 0 * p.routers_per_group + t.global_host(0, 1);
    const int g1_host = 1 * p.routers_per_group + t.global_host(1, 0);
    t.set_link_up(t.representative(g0_host), t.representative(g1_host), false);
  }
  const int group_nodes = p.routers_per_group * p.nodes_per_router;
  for (int n = 0; n < group_nodes; ++n) {
    dn::Message m;
    m.src = n;                // group 0
    m.dst = n + group_nodes;  // the matching node in group 1
    m.size_bytes = kFlowBytes;
    t.send(std::move(m), dn::Service::Bulk);
  }
  eng.run();
  r.final_ps = last.ps;
  r.drops = t.stats().messages_dropped;
  r.detours = t.valiant_detours();
  return r;
}

/// Torus 4x2x2: kill the (0, 1) x-link, send 0 -> 1.  Dimension-ordered
/// routing has exactly one path, so the message must drop — the
/// path-diversity contrast with the dragonfly above.
FlowResult torus_killed_link() {
  ds::Engine eng;
  dn::TorusParams p;
  p.dims = {4, 2, 2};
  dn::TorusFabric t(eng, "torus", p);
  FlowResult r;
  ds::TimePoint last{};
  for (int n = 0; n < 16; ++n)
    t.attach(n).bind(dn::Port::Raw, [&](dn::Message&&) {
      ++r.delivered;
      last = eng.now();
    });
  t.set_link_up(0, 1, false);
  dn::Message m;
  m.src = 0;
  m.dst = 1;
  m.size_bytes = kFlowBytes;
  t.send(std::move(m), dn::Service::Bulk);
  eng.run();
  r.final_ps = last.ps;
  r.drops = t.stats().messages_dropped;
  return r;
}

/// Runs `fn` twice and asserts bit-identical outcomes (records the flag).
template <typename Fn>
FlowResult twice(Fn&& fn, bool& identical) {
  const FlowResult a = fn();
  const FlowResult b = fn();
  identical = identical && (a == b);
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = db::want_csv(argc, argv);
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }

  db::banner(
      "Answer matrix: booster topology x workload x adaptive x chaos "
      "(full sessions, run twice)");
  std::vector<Cell> cells;
  bool all_identical = true;
  bool clean_cells_ok = true;
  bool deep_adaptive_noop = true;
  du::Table table({"topology", "workload", "adaptive", "chaos", "ok",
                   "mpi_errors", "events", "final_us", "fingerprint",
                   "runs_identical"});
  for (const char* topo : kTopologies) {
    for (const char* wl : kWorkloads) {
      for (const bool adaptive : {false, true}) {
        for (const bool chaos : {false, true}) {
          Cell cell = run_cell(topo, wl, adaptive, chaos);
          all_identical = all_identical && cell.runs_identical;
          if (!chaos) clean_cells_ok = clean_cells_ok && cell.ok;
          table.row()
              .add(cell.topology)
              .add(cell.workload)
              .add(cell.adaptive ? 1 : 0)
              .add(cell.chaos ? 1 : 0)
              .add(cell.ok ? "yes" : "NO")
              .add(cell.mpi_errors)
              .add(static_cast<std::int64_t>(cell.events))
              .add(static_cast<double>(cell.final_ps) / 1e6)
              .add(cell.fingerprint)
              .add(cell.runs_identical ? "yes" : "NO");
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  db::print_table(table, csv);

  // The torus has no adaptive mode: on the deep topology the flag must be a
  // byte-level no-op (same fingerprint with it on and off, cell by cell).
  for (std::size_t i = 0; i + 1 < cells.size(); ++i)
    for (std::size_t j = i + 1; j < cells.size(); ++j)
      if (cells[i].topology == "deep" && cells[j].topology == "deep" &&
          cells[i].workload == cells[j].workload &&
          cells[i].chaos == cells[j].chaos &&
          cells[i].adaptive != cells[j].adaptive)
        deep_adaptive_noop =
            deep_adaptive_noop && cells[i].fingerprint == cells[j].fingerprint;

  db::banner("Relative orderings (fabric level, virtual time)");
  bool flows_identical = true;
  const FlowResult ft_nonblock = twice(
      [] { return fattree_cross_leaf(8, dn::FatTreeRouting::Ecmp); },
      flows_identical);
  const FlowResult ft_oversub = twice(
      [] { return fattree_cross_leaf(2, dn::FatTreeRouting::Ecmp); },
      flows_identical);
  const FlowResult ft_adaptive = twice(
      [] { return fattree_cross_leaf(8, dn::FatTreeRouting::Adaptive); },
      flows_identical);
  const FlowResult df_minimal = twice(
      [] { return dragonfly_adversarial(dn::DragonflyRouting::Minimal, false); },
      flows_identical);
  const FlowResult df_adaptive = twice(
      [] { return dragonfly_adversarial(dn::DragonflyRouting::Adaptive, false); },
      flows_identical);
  const FlowResult df_chaos = twice(
      [] { return dragonfly_adversarial(dn::DragonflyRouting::Minimal, true); },
      flows_identical);
  const FlowResult torus_chaos = twice(torus_killed_link, flows_identical);

  du::Table flows({"experiment", "completion_us", "delivered", "drops",
                   "valiant_detours"});
  auto flow_row = [&](const char* name, const FlowResult& r) {
    flows.row().add(name).add(r.us()).add(r.delivered).add(r.drops).add(
        r.detours);
  };
  flow_row("fattree_nonblocking_ecmp", ft_nonblock);
  flow_row("fattree_oversub_2to8_ecmp", ft_oversub);
  flow_row("fattree_nonblocking_adaptive", ft_adaptive);
  flow_row("dragonfly_minimal", df_minimal);
  flow_row("dragonfly_adaptive_ugal", df_adaptive);
  flow_row("dragonfly_minimal_global_killed", df_chaos);
  flow_row("torus_killed_link", torus_chaos);
  db::print_table(flows, csv);

  const bool order_oversub = ft_nonblock.final_ps <= ft_oversub.final_ps;
  const bool order_ft_adaptive = ft_adaptive.final_ps <= ft_nonblock.final_ps;
  const bool order_df_adaptive =
      df_adaptive.final_ps <= df_minimal.final_ps && df_adaptive.detours > 0;
  const bool df_reroutes = df_chaos.drops == 0 && df_chaos.detours > 0 &&
                           df_chaos.delivered == df_minimal.delivered;
  const bool torus_drops = torus_chaos.drops > 0;

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"bench_topology\",\n";
    out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    out << "  \"matrix\": {\n";
    out << "    \"cluster\": " << kCluster << ", \"booster\": " << kBooster
        << ", \"gateways\": " << kGateways << ", \"procs\": " << kProcs
        << ", \"steps\": " << kSteps << ", \"seed\": " << kSeed << ",\n";
    out << "    \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "      {\"topology\": \"" << json_escape(c.topology)
          << "\", \"workload\": \"" << json_escape(c.workload)
          << "\", \"adaptive\": " << (c.adaptive ? "true" : "false")
          << ", \"chaos\": " << (c.chaos ? "true" : "false")
          << ", \"ok\": " << (c.ok ? "true" : "false")
          << ", \"mpi_errors\": " << c.mpi_errors
          << ", \"events\": " << c.events << ", \"final_ps\": " << c.final_ps
          << ", \"fingerprint\": \"" << c.fingerprint
          << "\", \"runs_identical\": " << (c.runs_identical ? "true" : "false")
          << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "    ],\n";
    out << "    \"all_runs_identical\": " << (all_identical ? "true" : "false")
        << ",\n";
    out << "    \"clean_cells_ok\": " << (clean_cells_ok ? "true" : "false")
        << ",\n";
    out << "    \"deep_adaptive_noop\": "
        << (deep_adaptive_noop ? "true" : "false") << "\n  },\n";
    out << "  \"orderings\": {\n";
    out << "    \"fattree_nonblocking_ps\": " << ft_nonblock.final_ps << ",\n";
    out << "    \"fattree_oversub_ps\": " << ft_oversub.final_ps << ",\n";
    out << "    \"fattree_adaptive_ps\": " << ft_adaptive.final_ps << ",\n";
    out << "    \"dragonfly_minimal_ps\": " << df_minimal.final_ps << ",\n";
    out << "    \"dragonfly_adaptive_ps\": " << df_adaptive.final_ps << ",\n";
    out << "    \"dragonfly_adaptive_detours\": " << df_adaptive.detours
        << ",\n";
    out << "    \"dragonfly_chaos_drops\": " << df_chaos.drops << ",\n";
    out << "    \"dragonfly_chaos_detours\": " << df_chaos.detours << ",\n";
    out << "    \"dragonfly_chaos_delivered\": " << df_chaos.delivered << ",\n";
    out << "    \"torus_chaos_drops\": " << torus_chaos.drops << ",\n";
    out << "    \"flows_identical\": " << (flows_identical ? "true" : "false")
        << "\n  },\n";
    out << "  \"history\": [],\n";
    out << "  \"notes\": \"everything recorded is virtual-time and "
           "host-independent; scripts/bench.py check topology gates per-cell "
           "fingerprints against the ledger plus the ordering assertions "
           "(non-blocking <= oversubscribed, adaptive <= static under "
           "congestion, dragonfly reroutes where the torus drops)\"\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  return db::verdict(
      "every cell reproduces bit-identically across runs; clean cells verify "
      "OK; the deep topology ignores the adaptive flag byte-for-byte; "
      "non-blocking >= oversubscribed, adaptive >= static, and the dragonfly "
      "reroutes around a killed global link where the torus must drop",
      all_identical && clean_cells_ok && deep_adaptive_noop && flows_identical &&
          order_oversub && order_ft_adaptive && order_df_adaptive &&
          df_reroutes && torus_drops);
}
