#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sqos::net {

NodeId Network::register_node(std::string name) {
  const NodeId id{static_cast<std::uint32_t>(names_.size())};
  names_.push_back(std::move(name));
  sent_.emplace_back();
  received_.emplace_back();
  return id;
}

std::uint64_t Network::link_key(NodeId a, NodeId b) {
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return (hi << 32) | lo;
}

void Network::set_link_down(NodeId a, NodeId b) { down_links_.insert(link_key(a, b)); }

void Network::set_link_up(NodeId a, NodeId b) { down_links_.erase(link_key(a, b)); }

bool Network::link_up(NodeId a, NodeId b) const { return !down_links_.contains(link_key(a, b)); }

const NodeTraffic& Network::node_sent(NodeId id) const {
  assert(id.value() < sent_.size());
  return sent_[id.value()];
}

const NodeTraffic& Network::node_received(NodeId id) const {
  assert(id.value() < received_.size());
  return received_[id.value()];
}

const std::string& Network::node_name(NodeId id) const {
  assert(id.value() < names_.size());
  return names_[id.value()];
}

void Network::reset_stats() {
  stats_ = TrafficStats{};
  std::fill(sent_.begin(), sent_.end(), NodeTraffic{});
  std::fill(received_.begin(), received_.end(), NodeTraffic{});
}

}  // namespace sqos::net
