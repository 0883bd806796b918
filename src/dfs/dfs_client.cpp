#include "dfs/dfs_client.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/recorder.hpp"
#include "qos/qos_manager.hpp"
#include "util/logging.hpp"
#include "util/domain_guard.hpp"

namespace sqos::dfs {

DfsClient::DfsClient(net::NodeId id, Params params, sim::Simulator& simulator,
                     net::Network& network, MetadataDirectory& mm,
                     const FileDirectory& directory, Rng rng)
    : id_{id},
      params_{std::move(params)},
      sim_{simulator},
      net_{network},
      mm_{mm},
      directory_{directory},
      policy_{params_.policy},
      rng_{std::move(rng)} {}

ResourceManager* DfsClient::rm_by_node(net::NodeId id) const {
  return rm_index_ == nullptr ? nullptr : rm_index_->by_node(id);
}

// --- entry points --------------------------------------------------------------

void DfsClient::stream_file(FileId file, Callback done) {
  SQOS_DOMAIN_SCOPE(domain_tag());
  explore(begin(params_.layout.is_ec() ? Kind::kEcRead : Kind::kRead, file, std::move(done)));
}

void DfsClient::open(FileId file, Opened opened) {
  SQOS_DOMAIN_SCOPE(domain_tag());
  explore(begin(Kind::kSession, file, std::move(opened)));
}

void DfsClient::open_write(FileId file, Opened opened) {
  SQOS_DOMAIN_SCOPE(domain_tag());
  explore(begin(Kind::kWriteSession, file, std::move(opened)));
}

void DfsClient::write_file(FileId file, std::size_t replicas, Callback done) {
  SQOS_DOMAIN_SCOPE(domain_tag());
  const std::uint64_t id = begin(Kind::kWrite, file, std::move(done));
  negotiations_.at(id).replicas = static_cast<std::uint32_t>(replicas == 0 ? 1 : replicas);
  explore(id);
}

void DfsClient::query_holders(FileId file, HoldersReply reply) {
  explore(begin(Kind::kHolders, file, std::move(reply)));
}

std::uint64_t DfsClient::begin(Kind kind, FileId file, decltype(Negotiation::reply) reply) {
  const std::uint64_t id = negotiations_.open();
  Negotiation& ng = negotiations_.at(id);
  // A recycled record keeps its bid capacity, so send_cfps's reserve
  // allocates nothing once the pool is warm.
  std::vector<SlotBid> bids = std::move(ng.bids);
  bids.clear();
  ng = Negotiation{};
  ng.bids = std::move(bids);
  ng.kind = kind;
  ng.file = file;
  if (kind != Kind::kHolders) {
    // Demand counts from the start (Params::qos). An EC read keeps the
    // whole-file rate until its layout says otherwise.
    const FileMeta& meta = directory_.get(file);
    if (params_.qos != nullptr) params_.qos->on_request(params_.tenant, meta.size);
    ++(kind == Kind::kWrite ? counters_.writes_attempted : counters_.opens_attempted);
    ng.required = meta.bitrate;
  }
  ng.started = sim_.now();
  ng.reply = std::move(reply);
  return id;
}

// --- phase 1: resource exploration ----------------------------------------------

void DfsClient::explore(std::uint64_t id) {
  Negotiation& ng = negotiations_.at(id);
  const FileId file = ng.file;
  const bool whole_file_read = ng.kind == Kind::kRead || ng.kind == Kind::kSession;

  // Plain CNP skips the matchmaker and broadcasts the CFP to every known RM.
  // So do write sessions under ECNP: a fresh file has no holders to query,
  // and every RM is exactly the candidate set it needs.
  if (ng.kind == Kind::kWriteSession ||
      (whole_file_read && params_.negotiation == NegotiationModel::kCnp)) {
    const std::vector<net::NodeId>& all = rm_index_->nodes();
    send_cfps(id, all.size(), [&all](std::size_t i) { return std::pair{all[i], 0u}; });
    return;
  }
  // Holder cache: a repeat open of a recently explored file skips the MM
  // round trip entirely.
  if (whole_file_read && params_.holder_cache_ttl > SimTime::zero()) {
    const auto hit = holder_cache_.find(file);
    if (hit != holder_cache_.end() && hit->second.expires > sim_.now()) {
      ++counters_.holder_cache_hits;
      on_holders(id, hit->second.holders);
      return;
    }
    ++counters_.holder_cache_misses;
  }

  // The exploration has its own deadline: an unreachable matchmaker (network
  // partition) must fail the negotiation, not hang it. Queries go to the
  // shard owning the file on the consistent-hash ring.
  ng.timeout_event =
      sim_.schedule_after(params_.bid_timeout, [this, id] { on_explore_timeout(id); });
  const net::NodeId mm_node = mm_.node_for(file);
  MetadataManager& shard = mm_.shard_for(file);
  switch (ng.kind) {
    case Kind::kWrite:
      // The owning shard's non-holder list — for a fresh file, every
      // registered RM — are the placement candidates. The reply carries a
      // shared catalog snapshot + holder slots instead of a materialized
      // O(n) candidate vector; moving it through the closure costs O(holders).
      net_.send(id_, mm_node, net::MessageKind::kReplicaListQuery,
                ReplicaListQueryMsg::estimated_size(), [this, &shard, mm_node, id, file] {
                  ReplicaListReplyMsg reply = shard.handle_replica_list_query(file);
                  const Bytes size = reply.estimated_size();
                  net_.send(mm_node, id_, net::MessageKind::kReplicaListReply, size,
                            [this, id, reply = std::move(reply)] {
                              on_write_candidates(id, reply);
                            });
                });
      return;
    case Kind::kEcRead:
      // One stripe query covers every shard (shard keys hash to the base id).
      net_.send(id_, mm_node, net::MessageKind::kStripeQuery, StripeQueryMsg::estimated_size(),
                [this, &shard, mm_node, id, file] {
                  LayoutReplyMsg reply = shard.handle_stripe_query(file);
                  const Bytes size = reply.estimated_size();
                  net_.send(mm_node, id_, net::MessageKind::kLayoutReply, size,
                            [this, id, reply = std::move(reply)] { on_layout(id, reply); });
                });
      return;
    default:
      net_.send(id_, mm_node, net::MessageKind::kResourceQuery,
                ResourceQueryMsg::estimated_size(), [this, &shard, mm_node, id, file] {
                  ResourceReplyMsg reply = shard.handle_resource_query(file);
                  const Bytes size = reply.estimated_size();
                  net_.send(mm_node, id_, net::MessageKind::kResourceReply, size,
                            [this, id, file, holders = std::move(reply.holders)] {
                              if (params_.holder_cache_ttl > SimTime::zero()) {
                                holder_cache_[file] = CachedHolders{
                                    holders, sim_.now() + params_.holder_cache_ttl};
                              }
                              on_holders(id, holders);
                            });
                });
      return;
  }
}

void DfsClient::on_explore_timeout(std::uint64_t id) {
  const Negotiation* ng = negotiations_.find(id);
  if (ng == nullptr || ng->expected_bids > 0 || ng->evaluated) return;
  ++counters_.bid_timeouts;
  finish(id, Status::unavailable("matchmaker unreachable"));
}

DfsClient::Negotiation* DfsClient::explored(std::uint64_t id) {
  Negotiation* ng = negotiations_.find(id);
  if (ng != nullptr) sim_.cancel(ng->timeout_event);  // exploration finished in time
  return ng;
}

void DfsClient::on_holders(std::uint64_t id, const std::vector<net::NodeId>& holders) {
  Negotiation* ng = explored(id);
  if (ng == nullptr) return;
  if (ng->kind == Kind::kHolders) {
    HoldersReply reply = std::get<HoldersReply>(std::exchange(ng->reply, Callback{}));
    negotiations_.close(id);
    if (reply) reply(holders);
    return;
  }
  bid_for_holders(id, holders);
}

void DfsClient::on_write_candidates(std::uint64_t id, const ReplicaListReplyMsg& reply) {
  if (explored(id) == nullptr) return;
  const std::size_t candidates = reply.non_holder_count();
  if (candidates == 0) {
    finish(id, Status::unavailable("no RM available for the write"));
    return;
  }
  send_cfps(id, candidates, [&reply](std::size_t i) { return std::pair{reply.non_holder(i), 0u}; });
}

void DfsClient::on_layout(std::uint64_t id, const LayoutReplyMsg& reply) {
  Negotiation* found = explored(id);
  if (found == nullptr) return;
  Negotiation& ng = *found;
  if (reply.k == 0) {
    // Not striped: the reply already carries the whole-file holders, so the
    // read becomes an ordinary whole-file read with no second round trip.
    ng.kind = Kind::kRead;
    bid_for_holders(id, reply.holders);
    return;
  }
  ng.k = reply.k;
  ng.m = reply.m;
  // Each of the k parallel sub-streams carries 1/k of the file's bitrate,
  // so a striped read occupies the same aggregate bandwidth as a whole-file
  // stream and finishes in the same occupation time.
  ng.required = directory_.get(ng.file).bitrate * (1.0 / static_cast<double>(reply.k));
  const std::size_t n = static_cast<std::size_t>(reply.k) + reply.m;
  const std::uint32_t first = reply.offsets[0];
  const std::size_t cfps = reply.offsets[n] - first;
  if (cfps == 0) {
    finish(id, Status::unavailable("stripe " + std::to_string(ng.file) +
                                   " has no registered shard holders"));
    return;
  }
  // CFP every shard holder at the sub-stream rate; a holder's slot is the
  // shard whose offset range contains it.
  send_cfps(id, cfps, [&reply, first](std::size_t i) {
    const std::uint32_t h = first + static_cast<std::uint32_t>(i);
    const auto slot = std::upper_bound(reply.offsets.begin(), reply.offsets.end(), h) -
                      reply.offsets.begin() - 1;
    return std::pair{reply.holders[h], static_cast<std::uint32_t>(slot)};
  });
}

void DfsClient::bid_for_holders(std::uint64_t id, const std::vector<net::NodeId>& holders) {
  if (holders.empty()) {
    finish(id, Status::not_found("no replica registered for file " +
                                 std::to_string(negotiations_.at(id).file)));
    return;
  }
  send_cfps(id, holders.size(), [&holders](std::size_t i) { return std::pair{holders[i], 0u}; });
}

// --- phase 2: resource negotiation ----------------------------------------------

template <typename TargetAt>
void DfsClient::send_cfps(std::uint64_t id, std::size_t count, TargetAt target_at) {
  Negotiation& ng = negotiations_.at(id);
  ng.expected_bids = static_cast<std::uint32_t>(count);
  ng.bids.reserve(count);
  ng.timeout_event =
      sim_.schedule_after(params_.bid_timeout, [this, id] { on_bid_timeout(id); });

  CfpMsg cfp;
  cfp.open_id = id;
  cfp.required = ng.required;
  for (std::size_t i = 0; i < count; ++i) {
    const auto [target, slot] = target_at(i);
    cfp.file = ng.kind == Kind::kEcRead ? storage::shard_key::pack(ng.file, slot, ng.k, ng.m)
                                        : ng.file;
    ResourceManager* rm = rm_by_node(target);
    assert(rm != nullptr && "MM returned an unknown RM");
    ++counters_.cfps_sent;
    // The slot rides in the delivery closures, so the wire messages are the
    // ordinary CfpMsg/BidMsg pair.
    net_.send(id_, target, net::MessageKind::kCfp, CfpMsg::estimated_size(),
              [this, rm, cfp, slot] {
                if (!rm->is_online()) return;  // message lost at the dead host
                const BidMsg bid = rm->handle_cfp(cfp);
                net_.send(rm->node_id(), id_, net::MessageKind::kBid, BidMsg::estimated_size(),
                          [this, slot, bid] { on_bid(bid.open_id, slot, bid); });
              });
  }
}

void DfsClient::on_bid(std::uint64_t id, std::uint32_t slot, const BidMsg& bid) {
  Negotiation* ng = negotiations_.find(id);
  if (ng == nullptr || ng->evaluated) return;  // late bid: drop
  ++counters_.bids_received;
  ng->bids.push_back(SlotBid{bid, slot});
  if (ng->bids.size() == ng->expected_bids) {
    sim_.cancel(ng->timeout_event);
    evaluate(id);
  }
}

void DfsClient::on_bid_timeout(std::uint64_t id) {
  const Negotiation* ng = negotiations_.find(id);
  if (ng == nullptr || ng->evaluated) return;
  ++counters_.bid_timeouts;
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "bid_timeout", "ecnp",
                        {obs::arg("file", static_cast<std::uint64_t>(ng->file)),
                         obs::arg("bids", static_cast<std::uint64_t>(ng->bids.size()))});
  }
  // Decide on whatever arrived; unreachable RMs count as refusals.
  evaluate(id);
}

void DfsClient::evaluate(std::uint64_t id) {
  Negotiation& ng = negotiations_.at(id);
  ng.evaluated = true;
  switch (ng.kind) {
    case Kind::kWrite:
      select_write(id, ng);
      return;
    case Kind::kEcRead:
      select_ec(id, ng);
      return;
    default:
      select_read(id, ng);
      return;
  }
}

void DfsClient::select_read(std::uint64_t id, Negotiation& ng) {
  if (ng.bids.empty()) {
    finish(id, Status::unavailable("no bids received for file " + std::to_string(ng.file) +
                                   " (holders unreachable)"));
    return;
  }
  // Candidates. Reads: RMs that actually hold the file (under plain CNP
  // some broadcast targets answer has_file = false). Write sessions: RMs
  // *without* a replica that can store the new one. Firm real-time
  // additionally requires the assured bandwidth.
  const std::size_t received = ng.bids.size();
  const bool write = ng.kind == Kind::kWriteSession;
  const double needed_bytes = static_cast<double>(directory_.get(ng.file).size.count());
  std::erase_if(ng.bids, [&](const SlotBid& s) {
    const BidMsg& b = s.bid;
    if (write ? (b.has_file || b.free_disk_bytes < needed_bytes) : !b.has_file) return true;
    return !core::admits(params_.mode, b.info, ng.required);
  });
  if (ng.bids.empty()) {
    finish(id, Status::resource_exhausted("no RM can assure " + ng.required.to_string() +
                                          " for file " + std::to_string(ng.file)));
    return;
  }

  counters_.negotiation_us_sum +=
      static_cast<std::uint64_t>((sim_.now() - ng.started).as_micros());
  ++counters_.negotiations;

  // O(log n) winner selection through the tournament scratch tree —
  // bit-identical to the linear scan (core/selection_tree.hpp). The random
  // policy draws without scoring, so the scores stay empty there.
  score_scratch_.clear();
  if (!policy_.weights().is_random()) {
    score_scratch_.reserve(ng.bids.size());
    for (const SlotBid& s : ng.bids) score_scratch_.push_back(policy_.score(s.bid.info));
  }
  const auto pick = policy_.choose_scored(ng.bids.size(), score_scratch_, rng_, select_scratch_);
  assert(pick.has_value());
  const auto index = static_cast<std::uint32_t>(*pick);
  const net::NodeId winner = ng.bids[index].bid.rm;

  if (obs_ != nullptr) {
    // The negotiation span covers exploration + CFP fan-out + bid collection
    // up to the winner selection — the ECNP control-plane cost per access.
    obs_->trace.complete(obs_track_, "negotiate", "ecnp", ng.started,
                         {obs::arg("file", static_cast<std::uint64_t>(ng.file)),
                          obs::arg("bids", static_cast<std::uint64_t>(received)),
                          obs::arg("candidates", static_cast<std::uint64_t>(ng.bids.size())),
                          obs::arg("winner", static_cast<std::uint64_t>(winner.value()))});
  }

  const bool streamed = ng.kind == Kind::kRead;
  if (!streamed) sessions_.emplace(id, SessionInfo{winner, ng.file, write});
  dispatch(ng, index, data_request(id, ng),
           streamed ? directory_.get(ng.file).duration() : SimTime::zero());
}

void DfsClient::select_write(std::uint64_t id, Negotiation& ng) {
  // Admissible placement targets: disk space for the replica, and — in firm
  // real-time — the assured write bandwidth.
  const double size = static_cast<double>(directory_.get(ng.file).size.count());
  std::erase_if(ng.bids, [&](const SlotBid& s) {
    return s.bid.free_disk_bytes < size || !core::admits(params_.mode, s.bid.info, ng.required);
  });
  if (ng.bids.empty()) {
    finish(id, Status::resource_exhausted("no RM can accept the written replica"));
    return;
  }

  // Rank by policy score (random policy: random order); the best K receive
  // a copy and the rest are the failover order.
  if (policy_.weights().is_random()) {
    const auto order = rng_.permutation(ng.bids.size());
    std::vector<SlotBid> shuffled;
    shuffled.reserve(ng.bids.size());
    for (const std::size_t i : order) shuffled.push_back(ng.bids[i]);
    ng.bids = std::move(shuffled);
  } else {
    std::sort(ng.bids.begin(), ng.bids.end(), [this](const SlotBid& a, const SlotBid& b) {
      return policy_.score(a.bid.info) > policy_.score(b.bid.info);
    });
  }
  const auto k = static_cast<std::uint32_t>(std::min<std::size_t>(ng.replicas, ng.bids.size()));
  ng.pending = k;
  ng.next_candidate = k;
  const DataRequestMsg request = data_request(id, ng);
  const SimTime expected = directory_.get(ng.file).duration();
  for (std::uint32_t i = 0; i < k; ++i) dispatch(ng, i, request, expected);
}

void DfsClient::select_ec(std::uint64_t id, Negotiation& ng) {
  // One winning bid per shard: the admissible holder with the best policy
  // score. Ties — and the random policy, which has no score — fall back to
  // the lowest node id so the pick is deterministic across event orderings.
  const std::size_t n = static_cast<std::size_t>(ng.k) + ng.m;
  constexpr std::uint32_t kNoBid = ~std::uint32_t{0};
  std::vector<std::uint32_t> winner(n, kNoBid);  // bid index per shard
  for (std::uint32_t i = 0; i < ng.bids.size(); ++i) {
    const BidMsg& b = ng.bids[i].bid;
    std::uint32_t& best_index = winner[ng.bids[i].slot];
    if (!b.has_file) continue;
    if (!core::admits(params_.mode, b.info, ng.required)) continue;
    if (best_index == kNoBid) {
      best_index = i;
      continue;
    }
    const BidMsg& best = ng.bids[best_index].bid;
    if (policy_.weights().is_random()) {
      if (b.rm < best.rm) best_index = i;
    } else {
      const double cur = policy_.score(best.info);
      const double alt = policy_.score(b.info);
      if (alt > cur || (alt == cur && b.rm < best.rm)) best_index = i;
    }
  }

  // Greedy data-shards-first choice of k sources. Data shards stream their
  // stored bytes directly; every parity substitution stands in for an
  // unreachable data shard and marks the read degraded (the client decodes
  // instead of concatenating).
  const auto k = static_cast<std::size_t>(ng.k);
  std::vector<std::pair<std::size_t, std::uint32_t>> chosen;  // (shard, bid index)
  chosen.reserve(k);
  for (std::size_t s = 0; s < n && chosen.size() < k; ++s) {
    if (winner[s] != kNoBid) chosen.emplace_back(s, winner[s]);
  }
  if (chosen.size() < k) {
    finish(id, Status::unavailable("stripe " + std::to_string(ng.file) + " lost: only " +
                                   std::to_string(chosen.size()) + " of " + std::to_string(k) +
                                   " shards admissible"));
    return;
  }
  ng.parity_used = chosen.back().first >= k;

  counters_.negotiation_us_sum +=
      static_cast<std::uint64_t>((sim_.now() - ng.started).as_micros());
  ++counters_.negotiations;

  if (obs_ != nullptr) {
    obs_->trace.complete(obs_track_, "ec_negotiate", "ecnp", ng.started,
                         {obs::arg("file", static_cast<std::uint64_t>(ng.file)),
                          obs::arg("k", static_cast<std::uint64_t>(ng.k)),
                          obs::arg("parity_used",
                                   static_cast<std::uint64_t>(ng.parity_used ? 1 : 0))});
  }

  // Each sub-stream's deadline is the whole-file occupation time — a shard
  // carries 1/k of the bytes at 1/k of the rate.
  ng.pending = static_cast<std::uint32_t>(chosen.size());
  DataRequestMsg request = data_request(id, ng);
  const SimTime expected = directory_.get(ng.file).duration();
  for (const auto& [s, index] : chosen) {
    request.file = storage::shard_key::pack(ng.file, s, ng.k, ng.m);
    dispatch(ng, index, request, expected);
  }
}

// --- phase 3: data communication ------------------------------------------------

DataRequestMsg DfsClient::data_request(std::uint64_t id, const Negotiation& ng) const {
  DataRequestMsg request;
  request.open_id = id;
  request.file = ng.file;
  request.rate = ng.required;
  request.firm = params_.mode == core::AllocationMode::kFirm;
  request.auto_complete = ng.kind != Kind::kSession && ng.kind != Kind::kWriteSession;
  request.write = ng.kind == Kind::kWrite || ng.kind == Kind::kWriteSession;
  request.tenant = params_.tenant;
  return request;
}

void DfsClient::dispatch(Negotiation& ng, std::uint32_t index, const DataRequestMsg& request,
                         SimTime expected) {
  SlotBid& chosen = ng.bids[index];
  chosen.phase = Phase::kDispatched;
  const net::NodeId target = chosen.bid.rm;
  assert(rm_by_node(target) != nullptr);

  // Data-phase deadline: if the request or its completion is lost (network
  // partition, a holder crashing mid-transfer), the access must fail rather
  // than hang. Whichever of the real completion and the deadline settles
  // the dispatch first wins; the other finds it settled.
  sim_.schedule_after(expected + params_.bid_timeout,
                      [this, id = request.open_id, index] { settle(id, index, false); });

  net_.send(id_, target, net::MessageKind::kDataRequest, DataRequestMsg::estimated_size(),
            [this, request, target, index] {
              ResourceManager* rm = rm_by_node(target);
              if (!rm->is_online()) {
                // Connection refused: the RM died between bidding and the
                // data request. Report the allocation as rejected.
                net_.send(target, id_, net::MessageKind::kDataComplete,
                          DataCompleteMsg::estimated_size(),
                          [this, id = request.open_id, index] { settle(id, index, false); });
                return;
              }
              rm->handle_data_request(id_, request,
                                      DataCompletion{&DfsClient::data_completed, this, index});
            });
}

void DfsClient::data_completed(void* self, std::uint32_t index, const DataCompleteMsg& msg) {
  static_cast<DfsClient*>(self)->settle(msg.open_id, index, msg.accepted);
}

void DfsClient::settle(std::uint64_t id, std::uint32_t index, bool accepted) {
  Negotiation* ng = negotiations_.find(id);
  if (ng == nullptr || ng->bids[index].phase != Phase::kDispatched) return;
  ng->bids[index].phase = Phase::kSettled;
  on_data_complete(id, *ng, index, accepted);
}

void DfsClient::on_data_complete(std::uint64_t id, Negotiation& ng, std::uint32_t index,
                                 bool accepted) {
  switch (ng.kind) {
    case Kind::kWrite:
      if (accepted) {
        ++ng.succeeded;
        ++counters_.replicas_written;
        // Commit the durable replica to the owning MM shard. The copy only
        // counts as finished once the commit has landed (read-your-writes);
        // if the commit is lost to a partition, the bookkeeping still
        // completes on a deadline — the replica is durable and anti-entropy
        // (resource refresh) will register it.
        ng.bids[index].phase = Phase::kCommitting;
        ReplicationDoneMsg commit;
        commit.rm = ng.bids[index].bid.rm;
        commit.file = ng.file;
        MetadataManager& shard = mm_.shard_for(ng.file);
        net_.send(id_, mm_.node_for(ng.file), net::MessageKind::kReplicationDone,
                  ReplicationDoneMsg::estimated_size(), [this, &shard, commit, id, index] {
                    shard.handle_replication_done(commit);
                    on_commit(id, index);
                  });
        sim_.schedule_after(params_.bid_timeout, [this, id, index] { on_commit(id, index); });
      } else if (ng.next_candidate < ng.bids.size()) {
        // Failover: the target rejected (raced allocation/space, or crashed)
        // — try the next-ranked candidate; the copy is still in flight.
        dispatch(ng, ng.next_candidate++, data_request(id, ng),
                 directory_.get(ng.file).duration());
      } else {
        on_write_copy_done(id, ng);
      }
      return;

    case Kind::kEcRead:
      if (!accepted) ng.shard_failed = true;
      assert(ng.pending > 0);
      if (--ng.pending > 0) return;
      if (ng.shard_failed) {
        finish(id, Status::unavailable("a shard sub-stream of stripe " +
                                       std::to_string(ng.file) + " was rejected"));
        return;
      }
      ++counters_.streams_completed;
      ++counters_.ec_reads;
      if (ng.parity_used) ++counters_.ec_degraded_reads;
      if (obs_ != nullptr) {
        obs_->trace.complete(obs_track_, "ec_access", "flow", ng.started,
                             {obs::arg("file", static_cast<std::uint64_t>(ng.file)),
                              obs::arg("degraded",
                                       static_cast<std::uint64_t>(ng.parity_used ? 1 : 0))});
      }
      finish(id, Status::ok());
      return;

    default:
      if (!accepted) {
        // Firm-mode RM-side admission rejected (bid raced with another open).
        sessions_.erase(id);
        finish(id, Status::resource_exhausted("RM-side admission rejected the allocation"));
        return;
      }
      if (obs_ != nullptr) {
        // For streams this span covers open through transfer completion; for
        // explicit sessions it ends at the successful open (the data phase is
        // paced by the caller and shows up as the RM-side session span).
        obs_->trace.complete(obs_track_, ng.kind == Kind::kRead ? "access" : "open", "flow",
                             ng.started,
                             {obs::arg("file", static_cast<std::uint64_t>(ng.file)),
                              obs::arg("rate_mbps", ng.required.as_mbps())});
      }
      if (ng.kind == Kind::kRead) ++counters_.streams_completed;
      finish(id, Status::ok());
      return;
  }
}

void DfsClient::on_commit(std::uint64_t id, std::uint32_t index) {
  Negotiation* ng = negotiations_.find(id);
  if (ng == nullptr || ng->bids[index].phase != Phase::kCommitting) return;
  ng->bids[index].phase = Phase::kSettled;
  on_write_copy_done(id, *ng);
}

void DfsClient::on_write_copy_done(std::uint64_t id, Negotiation& ng) {
  assert(ng.pending > 0);
  if (--ng.pending > 0) return;
  if (obs_ != nullptr) {
    obs_->trace.complete(
        obs_track_, "write", "flow", ng.started,
        {obs::arg("file", static_cast<std::uint64_t>(ng.file)),
         obs::arg("replicas", static_cast<std::uint64_t>(ng.succeeded)),
         obs::arg("bytes", static_cast<std::uint64_t>(directory_.get(ng.file).size.count()))});
  }
  finish(id, ng.succeeded == 0 ? Status::resource_exhausted("every write replica was rejected")
                               : Status::ok());
}

void DfsClient::finish(std::uint64_t id, const Status& status) {
  Negotiation& ng = negotiations_.at(id);
  const Kind kind = ng.kind;
  const FileId file = ng.file;
  auto reply = std::exchange(ng.reply, Callback{});
  negotiations_.close(id);
  if (!status.is_ok()) {
    switch (kind) {
      case Kind::kWrite:
        ++counters_.writes_failed;
        break;
      case Kind::kHolders:
        break;
      default: {
        const bool ec = kind == Kind::kEcRead;
        ++counters_.opens_failed;
        if (ec) ++counters_.ec_failed_reads;
        if (obs_ != nullptr) {
          obs_->trace.instant(obs_track_, ec ? "ec_read_failed" : "open_failed", "ecnp",
                              {obs::arg("file", static_cast<std::uint64_t>(file)),
                               obs::arg("reason", to_string(status.code()))});
        }
        // A failed open may mean the cached holder list went stale (replicas
        // moved); drop it so the next open re-explores.
        if (!ec) holder_cache_.erase(file);
        break;
      }
    }
  }
  if (auto* done = std::get_if<Callback>(&reply)) {
    if (*done) (*done)(status);
  } else if (auto* opened = std::get_if<Opened>(&reply)) {
    if (*opened) {
      (*opened)(status.is_ok() ? Result<std::uint64_t>{id} : Result<std::uint64_t>{status});
    }
  } else if (auto& holders = std::get<HoldersReply>(reply)) {
    holders(status);
  }
}

// --- explicit-session release ---------------------------------------------------

void DfsClient::release(std::uint64_t session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    Log::warn("%s: release of unknown session %llu", params_.name.c_str(),
              static_cast<unsigned long long>(session));
    return;
  }
  end_session(session, !it->second.write);  // a plain release abandons a write session
}

void DfsClient::release_write(std::uint64_t session, bool commit) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.write) {
    Log::warn("%s: release_write of unknown write session %llu", params_.name.c_str(),
              static_cast<unsigned long long>(session));
    return;
  }
  end_session(session, commit);
}

void DfsClient::end_session(std::uint64_t session, bool commit) {
  PendingRelease pending;
  pending.info = sessions_.at(session);
  pending.msg.open_id = session;
  pending.msg.commit = commit;
  sessions_.erase(session);
  pending_releases_.emplace(session, pending);
  send_release(session);
}

void DfsClient::send_release(std::uint64_t session) {
  const auto it = pending_releases_.find(session);
  if (it == pending_releases_.end()) return;
  PendingRelease& pending = it->second;
  ResourceManager* rm = rm_by_node(pending.info.rm);
  assert(rm != nullptr);
  const SessionInfo info = pending.info;
  const ReleaseMsg msg = pending.msg;

  net_.send(id_, info.rm, net::MessageKind::kRelease, ReleaseMsg::estimated_size(),
            [this, rm, info, msg] {
              // A crashed RM freed the session in fail(); after recovery a
              // retried release hits the unknown-session no-op and is acked.
              if (!rm->is_online()) return;
              rm->handle_release(id_, msg);  // idempotent
              if (info.write && msg.commit) {
                // Register the durable replica with the owning MM shard. A
                // lost ack replays this on retry; the MM replica set makes
                // the commit idempotent.
                ReplicationDoneMsg commit_msg;
                commit_msg.rm = info.rm;
                commit_msg.file = info.file;
                MetadataManager& shard = mm_.shard_for(info.file);
                net_.send(info.rm, mm_.node_for(info.file), net::MessageKind::kReplicationDone,
                          ReplicationDoneMsg::estimated_size(), [&shard, commit_msg] {
                            shard.handle_replication_done(commit_msg);
                          });
              }
              net_.send(info.rm, id_, net::MessageKind::kReleaseAck, ReleaseMsg::estimated_size(),
                        [this, open_id = msg.open_id] { on_release_ack(open_id); });
            });

  // Releases lost to a partition must not leak the RM-side allocation, so
  // resend with doubled backoff until acked. Bounded: against a permanently
  // dead RM (whose fail() already freed the session) the retries stop.
  constexpr std::size_t kMaxReleaseAttempts = 10;
  if (++pending.attempt >= kMaxReleaseAttempts) {
    pending_releases_.erase(it);
    return;
  }
  const auto shift = std::min<std::size_t>(pending.attempt - 1, 8);
  pending.retry = sim_.schedule_after(params_.bid_timeout * (std::int64_t{1} << shift),
                                      [this, session] { send_release(session); });
}

void DfsClient::on_release_ack(std::uint64_t session) {
  const auto it = pending_releases_.find(session);
  if (it == pending_releases_.end()) return;  // duplicate ack from a retry
  if (it->second.info.write && it->second.msg.commit) ++counters_.replicas_written;
  sim_.cancel(it->second.retry);
  pending_releases_.erase(it);
}

}  // namespace sqos::dfs
