#pragma once
// MpiSystem: simulation-wide state of the Global-MPI layer.
//
// Owns the endpoint registry and NIC bindings, allocates context ids (with
// the memoised block allocator that keeps split/dup/spawn deterministic and
// consistent across ranks), and holds the spawner hook through which the
// resource-management layer (deep::sys) implements MPI_Comm_spawn.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cbp/transport.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"

namespace deep::mpi {

class Endpoint;

/// Tunables of the MPI software stack.
struct MpiParams {
  std::int64_t eager_threshold = 16 * 1024;   // bytes: eager vs rendezvous
  std::int64_t header_bytes = 64;             // wire overhead per message
  sim::Duration send_overhead = sim::from_nanos(150);  // CPU cost per isend
  sim::Duration recv_overhead = sim::from_nanos(100);  // CPU cost per irecv
};

/// What a spawner is asked to do (MPI_Comm_spawn, slide 27).
struct SpawnRequest {
  std::string command;            // registered program name
  std::vector<std::string> args;  // argv
  int maxprocs = 0;
  Info info;                      // placement hints etc.
  ContextId parent_context = 0;   // parents' p2p context (memoisation key part)
  std::uint64_t epoch = 0;        // parents' collective epoch (key part)
  EpId root_ep = 0;               // where children report ready
  GroupPtr parents;
};

/// What the spawner returns.
struct SpawnResult {
  GroupPtr children;
  ContextId intercomm_context = 0;
  std::vector<int> errcodes;  // one per requested process; 0 == success
};

class MpiSystem {
 public:
  MpiSystem(sim::Engine& engine, cbp::Transport& transport,
            MpiParams params = {});
  ~MpiSystem();
  MpiSystem(const MpiSystem&) = delete;
  MpiSystem& operator=(const MpiSystem&) = delete;

  sim::Engine& engine() const { return *engine_; }
  const MpiParams& params() const { return params_; }

  /// System-wide MPI instrument handles in the engine's registry.
  /// Endpoints and rank handles record through these; the per-rank wait
  /// histograms live on the Mpi handles themselves.
  struct Metrics {
    obs::Counter eager_sends;        // sends at or below the eager threshold
    obs::Counter rendezvous_sends;   // RTS/CTS protocol sends
    obs::Counter messages_lost;      // unrecoverable wire losses
    obs::Histogram msg_bytes;        // payload size distribution
    obs::Histogram wait_ns;          // blocked time in wait/wait_any, all ranks
  };
  const Metrics& metrics() const { return metrics_; }

  /// Creates and registers an endpoint homed on `node`.  Binds the node's
  /// NIC MPI port on first use.
  Endpoint& create_endpoint(hw::NodeId node);
  Endpoint& endpoint(EpId id);
  /// Shared handle to an endpoint.  Mpi keeps a weak_ptr so its destructor
  /// can quiesce the endpoint if it still exists — rank fibers may unwind
  /// during engine teardown, after this system (and its endpoints) died.
  std::shared_ptr<Endpoint> endpoint_ptr(EpId id);

  /// Sends an MPI wire message (routing is the transport's business).
  void route(net::Message msg, net::Service svc);

  /// Transport loss callback: converts an unrecoverable wire loss into error
  /// completions on the affected requests (both sides of the protocol), so
  /// blocked ranks observe an MpiError instead of hanging forever.
  void handle_loss(net::Message&& msg);

  /// Wire messages the transport reported as unrecoverably lost.
  std::int64_t messages_lost() const { return metrics_.messages_lost.value(); }

  /// Allocates a fresh block of context ids shared by every rank performing
  /// the same collective (split/dup/merge/spawn).  Serial engines memoise a
  /// sequential allocator on `key`; partitioned engines compute the block as
  /// a pure hash of the key instead, so ranks on different partitions agree
  /// without shared mutation (hashed blocks live in the top half of the
  /// 64-bit context space, disjoint from the sequential allocator's).
  /// Blocks are kContextStride wide.
  ContextId context_block(std::uint64_t key_a, std::uint64_t key_b);

  /// Allocates a non-memoised context block (world creation, intercomms).
  /// Partitioned engines confine this to partition 0 — worlds are created by
  /// the launcher / the cluster-side spawn root.
  ContextId fresh_context_block();

  /// Spawner hook; installed by the system layer.  Must be memoised-safe:
  /// MpiSystem itself memoises per (parent_context, epoch), so the hook runs
  /// once per collective spawn.
  using Spawner = std::function<SpawnResult(const SpawnRequest&)>;
  void set_spawner(Spawner spawner) { spawner_ = std::move(spawner); }

  /// Collective-safe spawn: the first calling rank triggers the spawner, the
  /// remaining ranks of the same collective get the memoised result.
  const SpawnResult& spawn_collective(const SpawnRequest& request);

  static constexpr std::uint64_t kContextStride = 1024;

  /// A freshly created MPI world: endpoints exist, contexts are allocated;
  /// ranks are in node-list order.  Used by launchers and the spawner.
  struct World {
    GroupPtr group;
    ContextId ctx_p2p = 0;
    ContextId ctx_coll = 0;
  };

  /// Creates endpoints for one rank per entry of `nodes` (a node may repeat
  /// for multi-rank-per-node placement) and allocates the world's contexts.
  World create_world(const std::vector<hw::NodeId>& nodes);

 private:
  /// Endpoint registry with lock-free reads under concurrent growth.  EpIds
  /// are dense and sequential, so endpoints live in fixed-size chunks hung
  /// off an atomic pointer array: existing entries never move when partition
  /// 0 creates endpoints for a new world, and every cross-partition consumer
  /// learns an EpId through a message (hence through a window barrier) after
  /// the slot was filled — the acquire load of the chunk pointer covers the
  /// same-window structural race a hash map's rehash would have.
  class EndpointTable {
   public:
    static constexpr std::size_t kChunkBits = 10;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
    static constexpr std::size_t kMaxChunks = 1 << 14;  // 16M endpoints

    EndpointTable() = default;
    EndpointTable(const EndpointTable&) = delete;
    EndpointTable& operator=(const EndpointTable&) = delete;
    ~EndpointTable() {
      for (auto& slot : chunks_) delete slot.load(std::memory_order_relaxed);
    }

    /// Writer side (partition 0 / setup only).
    void put(EpId id, std::shared_ptr<Endpoint> ep);
    /// Reader side (any partition).  Null when the id was never created.
    const std::shared_ptr<Endpoint>* find(EpId id) const;

   private:
    struct Chunk {
      std::array<std::shared_ptr<Endpoint>, kChunkSize> slots;
    };
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  };

  sim::Engine* engine_;
  cbp::Transport* transport_;
  MpiParams params_;
  std::uint64_t next_ep_ = 1;
  std::uint64_t next_context_ = 1;
  EndpointTable endpoints_;
  // node -> endpoints homed there (NIC demux); touched only at endpoint
  // creation (partition 0 / setup).
  std::unordered_map<hw::NodeId, std::vector<Endpoint*>> by_node_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, ContextId> context_memo_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, SpawnResult> spawn_memo_;
  Spawner spawner_;
  Metrics metrics_;
};

}  // namespace deep::mpi
