// Distributed File System Client — the ECNP Requester (§III.A).
//
// Every access runs one negotiation engine, the paper's three-phase flow:
//   1. resource exploration — query the MM (holders, placement candidates
//      or stripe layout) under a deadline;
//   2. resource negotiation — CFP fan-out, bid collection under a deadline
//      (missing bids count as refusals), then a selection rule;
//   3. data communication — allocate on the chosen RMs, each request under
//      a data-phase deadline.
// A negotiation's kind supplies only its exploration query, its selection
// rule and its completion rule. The three selection rules:
//   - read (and explicit sessions): a single winner through the policy's
//     selection tree;
//   - write: the top-K admissible bids by policy score (random order under
//     the random policy), failing over to the next-ranked candidate when a
//     copy is rejected;
//   - EC read: the best admissible bid per shard, then k shards taking data
//     shards first (any parity shard makes the read degraded).
// Plain CNP (broadcast the CFP to every registered RM, no matchmaker query)
// exists for the ECNP-traffic ablation; write sessions always broadcast.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/admission.hpp"
#include "core/qos_types.hpp"
#include "core/selection_policy.hpp"
#include "dfs/cluster_config.hpp"
#include "dfs/ecnp_messages.hpp"
#include "dfs/file_types.hpp"
#include "dfs/mm_directory.hpp"
#include "dfs/resource_manager.hpp"
#include "dfs/rm_index.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "storage/stripe_layout.hpp"
#include "util/error.hpp"
#include "util/inflight_table.hpp"
#include "util/rng.hpp"
#include "util/small_map.hpp"
#include "util/domain.hpp"
#include "util/domain_guard.hpp"

namespace sqos::obs {
struct Recorder;
}

namespace sqos::qos {
class QosManager;
}

namespace sqos::dfs {

class SQOS_DOMAIN(client) DfsClient {
 public:
  struct Params {
    std::string name;  // "DFSC1" ..
    core::AllocationMode mode = core::AllocationMode::kFirm;
    core::PolicyWeights policy;
    NegotiationModel negotiation = NegotiationModel::kEcnp;
    /// Negotiation deadline: bids not received by then are treated as
    /// refusals (a crashed RM must not hang every open that CFPs it — the
    /// matchmaker's resource list can be stale, §II).
    SimTime bid_timeout = SimTime::seconds(2.0);

    /// Holder-cache TTL: remember the MM's holder list per file and skip the
    /// exploration round trip for repeat opens within the TTL. Zero (the
    /// default, and the paper's behaviour) disables the cache. Staleness is
    /// tolerated by construction: an RM that lost the replica answers its
    /// CFP with has_file = false, and replication-created replicas are
    /// simply not used until the entry expires.
    SimTime holder_cache_ttl = SimTime::zero();

    /// Owning tenant id, stamped on every data request this client issues.
    /// 0 (the default) is either the first tenant or — in untenanted
    /// clusters — an inert label the RMs ignore.
    std::uint32_t tenant = 0;

    /// QoS accounting sink (null in untenanted clusters). Demand is recorded
    /// here when the access *starts* — failed negotiations never reach an
    /// RM, but their unmet demand must still count against the tenant floor.
    qos::QosManager* qos = nullptr;

    /// Storage layout this client reads under. Replication (the default)
    /// keeps every code path byte-identical to the paper's system; an EC
    /// policy routes stream_file through the striped read path: stripe
    /// query, CFP fan-out over all shard holders, and a k-way parallel
    /// transfer that tolerates up to m lost shards.
    storage::LayoutPolicy layout;
  };

  /// Completion of a whole streamed access (or of the open, for explicit
  /// sessions). The Status conveys firm-mode open failure.
  using Callback = std::function<void(const Status&)>;
  using Opened = std::function<void(Result<std::uint64_t>)>;
  using HoldersReply = std::function<void(Result<std::vector<net::NodeId>>)>;

  DfsClient(net::NodeId id, Params params, sim::Simulator& simulator, net::Network& network,
            MetadataDirectory& mm, const FileDirectory& directory, Rng rng);

  DfsClient(const DfsClient&) = delete;
  DfsClient& operator=(const DfsClient&) = delete;

  /// Wire the cluster's shared RM index so delivery closures can invoke RM
  /// handlers. One dense table serves every client — the previous per-client
  /// map copies dominated the memory footprint (and the delivery-path
  /// profile) at 10^5 clients.
  void attach_rms(const RmIndex& rms) { rm_index_ = &rms; }

  [[nodiscard]] net::NodeId node_id() const { return id_; }

  /// Shard identity for the DomainGuard dynamic checker (the dense
  /// fabric NodeId doubles as the shard index).
  [[nodiscard]] util::DomainTag domain_tag() const {
    return util::DomainTag::client(id_.value());
  }
  [[nodiscard]] const std::string& name() const { return params_.name; }
  [[nodiscard]] const Params& params() const { return params_; }

  /// Runtime reconfiguration (chaos-harness mode flips): switch the
  /// allocation scenario for every *future* negotiation. In-flight opens
  /// carry the firm flag they were admitted under, so a flip never corrupts
  /// an existing allocation — but once any client has run soft, the firm
  /// no-over-allocation invariant no longer holds cluster-wide.
  void set_allocation_mode(core::AllocationMode mode) { params_.mode = mode; }

  // --- high-level access (experiments) --------------------------------------

  /// Stream the whole file at its bitrate (open -> transfer -> complete).
  /// `done` fires with ok() on completion or an error on open failure.
  void stream_file(FileId file, Callback done = {});

  /// Write path: create up to `replicas` initial copies of a freshly
  /// registered file (no replicas may exist yet). The owning MM shard
  /// supplies the candidate RM list, every candidate bids, the selection
  /// policy ranks them, and the top candidates with disk space (and, under
  /// firm allocation, bandwidth) receive the written data at the file's
  /// bitrate. Each completed copy is committed to the MM. `done` fires ok()
  /// when at least one replica landed.
  void write_file(FileId file, std::size_t replicas, Callback done = {});

  // --- explicit sessions (VFS adapter) ---------------------------------------

  /// Negotiate and allocate; on success `opened` receives a session handle.
  void open(FileId file, Opened opened);

  /// Negotiate an explicit *write* session for a freshly registered file:
  /// the winner reserves disk space and write bandwidth; data is paced by
  /// the caller (VFS write()) and the replica becomes durable at
  /// release_write(fd, true).
  void open_write(FileId file, Opened opened);

  /// Free the allocation of an explicit session.
  void release(std::uint64_t session);

  /// End an explicit write session. `commit` true makes the replica durable
  /// and registers it with the MM; false abandons and rolls back the
  /// reservation.
  void release_write(std::uint64_t session, bool commit);

  /// Resource-exploration query used by readdir: holders of `file`. Runs the
  /// exploration step alone, under the same deadline as every negotiation:
  /// an unreachable matchmaker answers unavailable instead of never.
  void query_holders(FileId file, HoldersReply reply);

  // --- metrics ---------------------------------------------------------------

  struct Counters {
    std::uint64_t opens_attempted = 0;
    std::uint64_t opens_failed = 0;      // firm real-time open failures
    std::uint64_t streams_completed = 0;
    std::uint64_t bids_received = 0;
    std::uint64_t cfps_sent = 0;
    std::uint64_t bid_timeouts = 0;      // negotiations decided on partial bids
    std::uint64_t writes_attempted = 0;
    std::uint64_t writes_failed = 0;     // no replica could be placed
    std::uint64_t replicas_written = 0;
    /// Time from open to the winner selection, summed over negotiations —
    /// the ECNP control-plane cost per access.
    std::uint64_t negotiation_us_sum = 0;
    std::uint64_t negotiations = 0;
    std::uint64_t holder_cache_hits = 0;
    std::uint64_t holder_cache_misses = 0;
    std::uint64_t ec_reads = 0;           // striped reads completed
    std::uint64_t ec_degraded_reads = 0;  // completed using >= 1 parity shard
    std::uint64_t ec_failed_reads = 0;    // < k shards reachable/admissible
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Optional observability sink; null (the default) disables all tracing.
  /// `track` is this client's trace track id (Chrome tid).
  void set_observer(obs::Recorder* recorder, std::uint32_t track) {
    obs_ = recorder;
    obs_track_ = track;
  }

 private:
  /// What a negotiation is for. The kind picks the exploration query, the
  /// selection rule and the completion rule; everything else is shared.
  enum class Kind : std::uint8_t {
    kRead,          // streamed whole-file read
    kSession,       // explicit read session (VFS open)
    kWriteSession,  // explicit write session (VFS create)
    kWrite,         // replicated write_file
    kEcRead,        // striped read under an EC layout
    kHolders,       // bare resource-list query (readdir): exploration only
  };

  /// Data-phase progress of a dispatch to a bid's RM. The completion and
  /// the deadline both arrive; only the first one counts.
  enum class Phase : std::uint8_t {
    kIdle,        // not dispatched
    kDispatched,  // data request in flight
    kCommitting,  // write: the copy landed, its MM commit is in flight
    kSettled,
  };

  /// A bid tagged with the slot it answers (the shard index of an EC read,
  /// 0 for every other kind) and the progress of its dispatch, if any.
  struct SlotBid {
    BidMsg bid;
    std::uint32_t slot = 0;
    Phase phase = Phase::kIdle;
  };

  /// One in-flight negotiation of any kind.
  struct Negotiation {
    Kind kind = Kind::kRead;
    bool evaluated = false;            // bids already scored (late bids drop)
    std::uint8_t k = 0;                // EC stripe shape
    std::uint8_t m = 0;
    bool parity_used = false;          // EC: a chosen shard index >= k
    bool shard_failed = false;         // EC: a dispatched sub-stream was rejected
    std::uint32_t expected_bids = 0;   // CFPs sent; 0 until exploration ends
    FileId file = 0;                   // base file id
    Bandwidth required;                // per-target rate (EC: bitrate / k)
    SimTime started;                   // negotiation-latency measurement
    sim::EventId timeout_event{};      // pending exploration or bid deadline
    /// Bids in arrival order. A write re-filters and ranks them in place at
    /// selection, after which they are its failover order. Fixed once the
    /// bids are evaluated, so a dispatch is named by its bid's index.
    std::vector<SlotBid> bids;
    std::uint32_t replicas = 0;        // write: copies requested
    std::uint32_t next_candidate = 0;  // write: failover cursor into `bids`
    std::uint32_t pending = 0;         // write copies / EC sub-streams in flight
    std::uint32_t succeeded = 0;       // write: copies landed
    std::variant<Callback, Opened, HoldersReply> reply;
  };

  std::uint64_t begin(Kind kind, FileId file, decltype(Negotiation::reply) reply);
  void explore(std::uint64_t id);
  void on_explore_timeout(std::uint64_t id);
  Negotiation* explored(std::uint64_t id);
  void on_holders(std::uint64_t id, const std::vector<net::NodeId>& holders);
  void on_write_candidates(std::uint64_t id, const ReplicaListReplyMsg& reply);
  void on_layout(std::uint64_t id, const LayoutReplyMsg& reply);
  void bid_for_holders(std::uint64_t id, const std::vector<net::NodeId>& holders);
  template <typename TargetAt>
  void send_cfps(std::uint64_t id, std::size_t count, TargetAt target_at);
  void on_bid(std::uint64_t id, std::uint32_t slot, const BidMsg& bid);
  void on_bid_timeout(std::uint64_t id);
  void evaluate(std::uint64_t id);
  void select_read(std::uint64_t id, Negotiation& ng);
  void select_write(std::uint64_t id, Negotiation& ng);
  void select_ec(std::uint64_t id, Negotiation& ng);
  [[nodiscard]] DataRequestMsg data_request(std::uint64_t id, const Negotiation& ng) const;
  void dispatch(Negotiation& ng, std::uint32_t index, const DataRequestMsg& request,
                SimTime expected);
  static void data_completed(void* self, std::uint32_t index, const DataCompleteMsg& msg);
  void settle(std::uint64_t id, std::uint32_t index, bool accepted);
  void on_data_complete(std::uint64_t id, Negotiation& ng, std::uint32_t index, bool accepted);
  void on_commit(std::uint64_t id, std::uint32_t index);
  void on_write_copy_done(std::uint64_t id, Negotiation& ng);
  void finish(std::uint64_t id, const Status& status);

  [[nodiscard]] ResourceManager* rm_by_node(net::NodeId id) const;

  net::NodeId id_;
  Params params_;
  sim::Simulator& sim_;
  net::Network& net_;
  MetadataDirectory& mm_;
  const FileDirectory& directory_;
  core::SelectionPolicy policy_;
  Rng rng_;

  // Reused per-negotiation winner-selection scratch (no per-open allocation
  // once the high-water mark is reached).
  std::vector<double> score_scratch_;
  core::SelectionTree select_scratch_;

  const RmIndex* rm_index_ = nullptr;  // cluster-owned, shared by all clients
  struct SessionInfo {
    net::NodeId rm;
    FileId file = 0;
    bool write = false;
  };

  struct CachedHolders {
    std::vector<net::NodeId> holders;
    SimTime expires;
  };

  /// A release awaiting its ack. Releases are retried with backoff until
  /// acked — a release message lost to a partition must not leak the RM-side
  /// session allocation forever (found by the chaos harness).
  struct PendingRelease {
    SessionInfo info;
    ReleaseMsg msg;
    std::size_t attempt = 0;
    sim::EventId retry{};
  };

  void end_session(std::uint64_t session, bool commit);
  void send_release(std::uint64_t session);
  void on_release_ack(std::uint64_t session);

  // Every delivered message looks its negotiation up, and a client carries
  // many at once: its high-water mark is 87-148 at the 2048-RM scale cell
  // and 14-69 across the paper's tables. The table issues the open ids.
  util::InFlightTable<Negotiation> negotiations_;
  // Flat small maps, not unordered_map: explicit sessions and pending
  // releases are a handful per client (util/small_map.hpp).
  util::SmallU64Map<SessionInfo> sessions_;  // open_id -> serving RM
  util::SmallU64Map<PendingRelease> pending_releases_;
  std::unordered_map<FileId, CachedHolders> holder_cache_;
  Counters counters_;
  obs::Recorder* obs_ = nullptr;
  std::uint32_t obs_track_ = 0;
};

}  // namespace sqos::dfs
