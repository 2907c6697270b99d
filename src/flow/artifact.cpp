#include "flow/artifact.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/common.h"
#include "base/fault.h"

namespace desyn::flow {

namespace fs = std::filesystem;

namespace {

// Distinguishes two threads of one process publishing under the same key:
// pid alone would collide on the tmp name and one writer would rename the
// other's half-written file into place.
std::atomic<uint64_t> g_tmp_seq{0};

// A tmp filename is "<entry>.art.tmp.<pid>[.<seq>]". Returns the writer
// pid, or -1 if the name does not parse.
long tmp_writer_pid(std::string_view name) {
  size_t pos = name.rfind(".art.tmp.");
  if (pos == std::string_view::npos) return -1;
  std::string_view rest = name.substr(pos + 9);
  size_t dot = rest.find('.');
  if (dot != std::string_view::npos) rest = rest.substr(0, dot);
  long pid = 0;
  auto [p, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), pid);
  if (ec != std::errc() || p != rest.data() + rest.size() || pid <= 0)
    return -1;
  return pid;
}

bool pid_alive(long pid) {
  // Signal 0 probes existence; EPERM means it exists under another uid.
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

// "<kind>-<hex>.art" -> kind; empty when the name is not a store entry.
std::string entry_kind(std::string_view name) {
  if (name.size() < 5 || name.substr(name.size() - 4) != ".art") return {};
  std::string_view stem = name.substr(0, name.size() - 4);
  size_t dash = stem.rfind('-');
  if (dash == std::string_view::npos || dash == 0) return {};
  return std::string(stem.substr(0, dash));
}

}  // namespace

ArtifactStore::ArtifactStore(const Options& opt) : opt_(opt) {
  DESYN_ASSERT(opt_.capacity > 0);
  if (opt_.dir.empty()) return;
  std::error_code ec;
  fs::create_directories(opt_.dir, ec);
  if (ec) fail("cannot create cache dir ", opt_.dir, ": ", ec.message());
  // Heal the directory before trusting it: reap tmp files whose writer is
  // dead (a crashed put() mid-publish), and verify every entry so
  // corruption surfaces as a counted discard now instead of a latent miss
  // later.
  CacheScan scan = scan_cache_dir(opt_.dir, /*verify=*/true);
  for (const std::string& path : scan.tmp_orphan_paths) {
    if (fs::remove(path, ec)) ++stats_.tmp_reaped;
  }
  for (const std::string& path : scan.corrupt_paths) {
    if (fs::remove(path, ec)) ++stats_.disk_corrupt;
  }
}

std::string ArtifactStore::disk_path(std::string_view kind,
                                     const Hash256& key) const {
  return cat(opt_.dir, "/", kind, "-", key.hex(), ".art");
}

void ArtifactStore::insert_locked(std::string&& mapkey, Ptr value) {
  auto it = map_.find(mapkey);
  if (it != map_.end()) {
    // Benign double compute (or promotion race): keep the existing entry,
    // both values are identical by keying discipline.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front({mapkey, std::move(value)});
  map_[std::move(mapkey)] = lru_.begin();
  while (lru_.size() > opt_.capacity) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

ArtifactStore::Ptr ArtifactStore::get(std::string_view kind,
                                      const Hash256& key,
                                      const Deserializer& des) {
  std::string mapkey = cat(kind, ":", key.hex());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(mapkey);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return it->second->value;
    }
  }
  if (!opt_.dir.empty() && des) {
    std::string path = disk_path(kind, key);
    std::string body;
    if (fs::exists(path)) {
      Ptr value;
      // Fault probes model an unreadable file and a digest mismatch; both
      // take the same recovery path as the real thing (discard, recompute).
      if (!fault::should_fail("artifact.disk.read") &&
          read_artifact_file(path, kind, &body) &&
          !fault::should_fail("artifact.disk.corrupt")) {
        try {
          value = des(body);
        } catch (const std::exception&) {
          value = nullptr;  // deserializer rejected the body
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (value) {
        ++stats_.disk_hits;
        insert_locked(std::move(mapkey), value);
        return value;
      }
      // Corrupt: discard, never trust. The caller recomputes and put()
      // rewrites a good entry.
      ++stats_.disk_corrupt;
      std::error_code ec;
      fs::remove(path, ec);
      ++stats_.misses;
      return nullptr;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  return nullptr;
}

void ArtifactStore::put(std::string_view kind, const Hash256& key, Ptr value,
                        const std::string& serialized) {
  DESYN_ASSERT(value != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    insert_locked(cat(kind, ":", key.hex()), std::move(value));
  }
  if (opt_.dir.empty() || serialized.empty()) return;
  // Atomic, durable publish: write a uniquely-named tmp file, fsync it,
  // then rename into place. The fsync must precede the rename — rename is
  // metadata-only on most filesystems, so without it a crash after the
  // rename can expose a complete-looking entry whose pages were never
  // written. A reader sees no file, a tmp it ignores, or a full entry.
  // Any failure (real or injected) abandons the publish; the memory tier
  // already holds the value, so the disk tier stays best-effort.
  std::string path = disk_path(kind, key);
  std::string tmp = cat(path, ".tmp.", ::getpid(), ".",
                        g_tmp_seq.fetch_add(1, std::memory_order_relaxed));
  std::string blob = with_integrity_header(kind, serialized);
  int fd = fault::should_fail("artifact.disk.write.open")
               ? -1
               : ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  bool ok = !fault::should_fail("artifact.disk.write.write");
  size_t off = 0;
  while (ok && off < blob.size()) {
    ssize_t w = ::write(fd, blob.data() + off, blob.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      ok = false;
      break;
    }
    off += static_cast<size_t>(w);
  }
  if (ok)
    ok = !fault::should_fail("artifact.disk.write.fsync") && ::fsync(fd) == 0;
  ::close(fd);
  if (ok)
    ok = !fault::should_fail("artifact.disk.write.rename") &&
         ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    ::unlink(tmp.c_str());
    return;
  }
  // Best-effort directory fsync so the rename itself survives a crash.
  int dfd = ::open(opt_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

ArtifactStore::Stats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ArtifactStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::string with_integrity_header(std::string_view kind,
                                  const std::string& body) {
  return cat(kind, "-v1 ", sha256(body).hex(), "\n", body);
}

bool read_artifact_file(const std::string& path, std::string_view kind,
                        std::string* body) {
  body->clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = std::move(ss).str();
  size_t nl = text.find('\n');
  if (nl == std::string::npos) return false;
  std::string header = text.substr(0, nl);
  std::string want_prefix = cat(kind, "-v1 ");
  if (!starts_with(header, want_prefix)) return false;
  std::string digest = header.substr(want_prefix.size());
  *body = text.substr(nl + 1);
  if (sha256(*body).hex() != digest) {
    body->clear();
    return false;
  }
  return true;
}

CacheScan scan_cache_dir(const std::string& dir, bool verify) {
  CacheScan scan;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) fail("cannot scan cache dir ", dir, ": ", ec.message());
  std::vector<std::string> names;
  for (const auto& de : it) {
    std::error_code fec;
    if (!de.is_regular_file(fec)) continue;
    names.push_back(de.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    std::string path = cat(dir, "/", name);
    if (name.find(".art.tmp.") != std::string::npos) {
      ++scan.tmp_total;
      long pid = tmp_writer_pid(name);
      if (pid > 0 && !pid_alive(pid)) {
        ++scan.tmp_orphans;
        scan.tmp_orphan_paths.push_back(path);
      }
      continue;
    }
    std::string kind = entry_kind(name);
    if (kind.empty()) continue;  // not a store file; leave it alone
    ++scan.entries;
    std::error_code fec;
    uintmax_t sz = fs::file_size(path, fec);
    if (!fec) scan.bytes += sz;
    ++scan.kinds[kind];
    if (verify) {
      std::string body;
      if (!read_artifact_file(path, kind, &body)) {
        ++scan.corrupt;
        scan.corrupt_paths.push_back(path);
      }
    }
  }
  return scan;
}

ScrubResult scrub_cache_dir(const std::string& dir) {
  CacheScan scan = scan_cache_dir(dir, /*verify=*/true);
  ScrubResult out;
  std::error_code ec;
  for (const std::string& path : scan.corrupt_paths)
    if (fs::remove(path, ec)) ++out.corrupt_removed;
  for (const std::string& path : scan.tmp_orphan_paths)
    if (fs::remove(path, ec)) ++out.tmp_removed;
  return out;
}

}  // namespace desyn::flow
