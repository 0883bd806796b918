#include "dfs/vfs_adapter.hpp"

#include <algorithm>
#include <utility>

#include "dfs/cluster.hpp"

namespace sqos::dfs {

Result<FileMeta> VfsAdapter::getattr(const std::string& path) const {
  const FileMeta* meta = directory_.find_by_name(path);
  if (meta == nullptr) return Status::not_found("no such file: " + path);
  return *meta;
}

void VfsAdapter::readdir(std::function<void(Result<std::vector<std::string>>)> reply) {
  // The readdir resource-list query travels to the MM and back like any
  // other exploration-phase message; reuse the client's query plumbing with
  // a sentinel file id of 0 for traffic accounting, then enumerate the MM's
  // known files at delivery time.
  client_.query_holders(0, [this, reply = std::move(reply)](
                               Result<std::vector<net::NodeId>> holders) {
    if (!holders.is_ok()) {
      reply(holders.status());
      return;
    }
    std::vector<std::string> names;
    for (const FileId f : mm_.known_files()) {
      if (directory_.contains(f)) names.push_back(directory_.get(f).name);
    }
    reply(std::move(names));
  });
}

void VfsAdapter::open(const std::string& path,
                      std::function<void(Result<std::uint64_t>)> opened) {
  const FileMeta* meta = directory_.find_by_name(path);
  if (meta == nullptr) {
    opened(Status::not_found("no such file: " + path));
    return;
  }
  const FileId file = meta->id;
  const Bandwidth rate = meta->bitrate;
  client_.open(file, [this, file, rate, opened = std::move(opened)](Result<std::uint64_t> r) {
    if (r.is_ok()) {
      sessions_.emplace(r.value(), Session{file, 0, rate, false});
    }
    opened(std::move(r));
  });
}

void VfsAdapter::create(const std::string& path, Bandwidth bitrate, SimTime duration,
                        std::function<void(Result<std::uint64_t>)> opened) {
  if (cluster_ == nullptr) {
    opened(Status::failed_precondition("create requires attach_cluster()"));
    return;
  }
  if (directory_.find_by_name(path) != nullptr) {
    opened(Status::already_exists("file exists: " + path));
    return;
  }
  FileMeta meta;
  meta.id = directory_.next_id();
  meta.name = path;
  meta.bitrate = bitrate;
  meta.size = Bytes::of(static_cast<std::int64_t>(bitrate.bps() * duration.as_seconds()));
  if (const Status s = cluster_->add_file(meta); !s.is_ok()) {
    opened(s);
    return;
  }
  client_.open_write(meta.id, [this, file = meta.id, bitrate,
                               opened = std::move(opened)](Result<std::uint64_t> r) {
    if (r.is_ok()) {
      sessions_.emplace(r.value(), Session{file, 0, bitrate, true});
    }
    opened(std::move(r));
  });
}

void VfsAdapter::write(std::uint64_t fd, Bytes amount,
                       std::function<void(Result<Bytes>)> done) {
  const auto it = sessions_.find(fd);
  if (it == sessions_.end() || !it->second.write) {
    done(Status::failed_precondition("write on a non-write descriptor"));
    return;
  }
  Session& s = it->second;
  const Bytes size = directory_.get(s.file).size;
  const std::int64_t left = size.count() - s.offset;
  const Bytes chunk = Bytes::of(std::min(amount.count(), std::max<std::int64_t>(left, 0)));
  s.offset += chunk.count();
  const SimTime delay = chunk.count() == 0 ? SimTime::zero() : s.rate.time_to_transfer(chunk);
  sim_.schedule_after(delay, [chunk, done = std::move(done)] { done(chunk); });
}

void VfsAdapter::read(std::uint64_t fd, Bytes amount,
                      std::function<void(Result<Bytes>)> done) {
  const auto it = sessions_.find(fd);
  if (it == sessions_.end()) {
    done(Status::failed_precondition("read on closed descriptor"));
    return;
  }
  Session& s = it->second;
  const Bytes size = directory_.get(s.file).size;
  const std::int64_t left = size.count() - s.offset;
  const Bytes chunk = Bytes::of(std::min(amount.count(), std::max<std::int64_t>(left, 0)));
  s.offset += chunk.count();
  // Delivery is paced by the allocated bandwidth: the chunk arrives after
  // chunk/rate of simulated time (an EOF read completes immediately).
  const SimTime delay = chunk.count() == 0 ? SimTime::zero() : s.rate.time_to_transfer(chunk);
  sim_.schedule_after(delay, [chunk, done = std::move(done)] { done(chunk); });
}

void VfsAdapter::destroy() {
  std::vector<std::uint64_t> fds;
  fds.reserve(sessions_.size());
  // sqos-lint: allow(no-unordered-iteration): collected fds are sorted below
  for (const auto& [fd, _] : sessions_) fds.push_back(fd);
  std::sort(fds.begin(), fds.end());  // deterministic release order
  for (const std::uint64_t fd : fds) release(fd);
}

void VfsAdapter::release(std::uint64_t fd) {
  const auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  const Session s = it->second;
  sessions_.erase(it);
  if (s.write) {
    // Commit only a fully written file; a partial write rolls back like a
    // torn file discarded at recovery.
    const bool complete = s.offset >= directory_.get(s.file).size.count();
    client_.release_write(fd, complete);
  } else {
    client_.release(fd);
  }
}

}  // namespace sqos::dfs
