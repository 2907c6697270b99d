// Content-addressed artifact store: the flow engine's memory.
//
// Every stage of the staged pipeline (engine.h) produces an immutable
// artifact addressed by a 256-bit key derived from the canonical content
// of the stage's inputs. The store is a two-tier cache:
//
//  * an in-memory LRU of shared_ptr<const Artifact> (capacity counted in
//    entries — the working set of a server process),
//  * an optional on-disk tier (`dir`), holding only the artifact kinds
//    whose serialization round-trips exactly (text formats with an
//    integrity digest in the header). A disk hit is promoted into memory.
//
// Disk entries are *untrusted*: a torn write, truncation, or manual edit
// is detected by the integrity digest (or by the deserializer rejecting
// the body), and the entry is discarded and recomputed, never served.
// Writes are atomic and durable (temp file + fsync + rename), so a
// crashed writer leaves no corrupt visible entry — at worst an orphan
// `.tmp.<pid>.<seq>` file, which open() reaps once the writer pid is
// dead — and two processes racing on the same directory at worst both
// write the same bytes. Opening a store scrubs the directory by default:
// corrupt entries are counted and discarded up front rather than on
// first touch (docs/ROBUSTNESS.md has the full crash-consistency
// contract).
//
// Thread safety: all public methods are safe to call concurrently. A
// cache miss on two threads may compute the same artifact twice; both
// results are identical by construction (that is the point of the keying
// discipline), so the race is benign.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/sha256.h"

namespace desyn::flow {

/// Base class for everything the store holds. Artifacts are immutable
/// once published; stages downcast by kind (the kind string is part of
/// the map key, so a key can never resolve to the wrong type).
struct Artifact {
  virtual ~Artifact() = default;
};

class ArtifactStore {
 public:
  using Ptr = std::shared_ptr<const Artifact>;
  /// Rebuild an artifact from a disk body (header already stripped and
  /// verified). Return nullptr or throw to reject the entry as corrupt.
  using Deserializer = std::function<Ptr(const std::string& body)>;

  struct Options {
    size_t capacity = 96;  ///< in-memory entries before LRU eviction
    std::string dir;       ///< on-disk tier; empty = memory only
  };

  struct Stats {
    size_t hits = 0;          ///< in-memory hits
    size_t disk_hits = 0;     ///< disk hits (promoted to memory)
    size_t misses = 0;        ///< neither tier had a usable entry
    size_t evictions = 0;     ///< LRU entries dropped
    size_t disk_corrupt = 0;  ///< disk entries rejected and discarded
                              ///< (on get() or by scrub-on-open)
    size_t tmp_reaped = 0;    ///< orphan tmp files from dead writers removed
  };

  ArtifactStore() : ArtifactStore(Options()) {}
  explicit ArtifactStore(const Options& opt);

  /// Look up (kind, key). On an in-memory hit the entry is refreshed in
  /// the LRU. On a miss with a disk tier and a deserializer, the disk
  /// entry (if any) is verified, deserialized, promoted and returned;
  /// a rejected entry is unlinked and counted in disk_corrupt.
  Ptr get(std::string_view kind, const Hash256& key,
          const Deserializer& des = {});

  /// Publish an artifact. With a disk tier and non-empty `serialized`,
  /// the body is also written to disk under an integrity header.
  void put(std::string_view kind, const Hash256& key, Ptr value,
           const std::string& serialized = {});

  Stats stats() const;
  size_t size() const;
  const std::string& dir() const { return opt_.dir; }

 private:
  struct Entry {
    std::string key;  ///< "<kind>:<hex>"
    Ptr value;
  };
  using Lru = std::list<Entry>;

  std::string disk_path(std::string_view kind, const Hash256& key) const;
  void insert_locked(std::string&& mapkey, Ptr value);

  Options opt_;
  mutable std::mutex mu_;
  Lru lru_;  ///< front = most recent
  std::unordered_map<std::string, Lru::iterator> map_;
  Stats stats_;
};

/// Serialize with the store's integrity header: "<kind>-v1 <sha256(body)>
/// \n" + body. read_artifact_file() verifies and strips it.
std::string with_integrity_header(std::string_view kind,
                                  const std::string& body);

/// Read + verify an artifact file. Returns false (and clears `body`) when
/// the file is missing, the header is malformed, the kind mismatches, or
/// the digest does not match the body.
bool read_artifact_file(const std::string& path, std::string_view kind,
                        std::string* body);

/// Offline inventory of a cache directory (desyn_cli `cache stats|verify`).
struct CacheScan {
  size_t entries = 0;    ///< *.art files seen
  uint64_t bytes = 0;    ///< their total size
  std::map<std::string, size_t> kinds;  ///< entry count per artifact kind
  size_t tmp_total = 0;    ///< in-flight/orphan tmp files seen
  size_t tmp_orphans = 0;  ///< tmp files whose writer pid is dead
  size_t corrupt = 0;      ///< entries failing verification (verify=true)
  std::vector<std::string> corrupt_paths;
  std::vector<std::string> tmp_orphan_paths;
};

/// Scans `dir`. With verify=true every entry's integrity header is checked
/// (reads every file). Results are sorted by path for stable output.
CacheScan scan_cache_dir(const std::string& dir, bool verify);

/// Removes corrupt entries and orphan tmp files from `dir`. Tmp files from
/// still-live writers are left alone.
struct ScrubResult {
  size_t corrupt_removed = 0;
  size_t tmp_removed = 0;
};
ScrubResult scrub_cache_dir(const std::string& dir);

}  // namespace desyn::flow
