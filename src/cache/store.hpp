// Content-addressed on-disk entry store for the persistent verdict cache.
//
// One file per (kind, 128-bit key): dir/<hex2>/<hex>.vc. Writes are atomic
// (tmp file + rename) and every byte of an entry is covered by the trailing
// checksum, so a torn, truncated, or bit-flipped entry can only ever read
// back as a MISS — never as a wrong payload. The engine-version string is
// part of the framing: bumping it orphans (invalidates) every prior entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vsd::cache {

// Bump whenever verification semantics change (new engine PR, changed
// budgets baked into cached decisions, trap-kind numbering, ...) or the CNF
// encoding changes, since entries carry SAT-model bytes: every entry
// written under another version becomes a miss.
inline constexpr const char kEngineVersion[] = "vsd-engine-9";

class Store {
 public:
  // An empty dir disables the store (load always misses, save is a no-op).
  // `engine_version` is overridable so tests can simulate a version bump.
  explicit Store(std::string dir, std::string engine_version = kEngineVersion);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  // False on any miss: absent file, short file, bad magic/format, foreign
  // engine version, key mismatch, length mismatch, or checksum mismatch.
  // Corrupt entries additionally count in stats().corrupt.
  bool load(uint64_t kind, uint64_t hi, uint64_t lo,
            std::vector<uint8_t>* payload) const;

  // Atomic: the entry is either fully visible or not present. Concurrent
  // same-key writers are safe (distinct tmp files; last rename wins).
  void save(uint64_t kind, uint64_t hi, uint64_t lo,
            const std::vector<uint8_t>& payload) const;

  // Path the entry for this key lives at (for tests that inject faults).
  std::string entry_path(uint64_t kind, uint64_t hi, uint64_t lo) const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t corrupt = 0;  // subset of misses: file present but unreadable
    uint64_t stores = 0;
  };
  Stats stats() const;

  // Creates `dir` if needed and proves it is writable with a probe file.
  // Returns false with *error set when it is not — the CLI turns that into
  // a usage error (exit 2).
  static bool validate_dir(const std::string& dir, std::string* error);

 private:
  std::string dir_;
  std::string version_;
  mutable std::atomic<uint64_t> hits_{0}, misses_{0}, corrupt_{0}, stores_{0};
};

}  // namespace vsd::cache
