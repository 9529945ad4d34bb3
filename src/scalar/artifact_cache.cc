// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/artifact_cache.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <utility>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/string_util.h"

namespace graphscape {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kEntriesDir[] = "entries";
constexpr char kQuarantineDir[] = "quarantine";
constexpr char kEntrySuffix[] = ".gsta";
constexpr char kTempSuffix[] = ".tmp";

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool IsUnreservedKeyChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string ArtifactCache::EncodeKey(const std::string& canonical) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(canonical.size());
  for (const char c : canonical) {
    if (IsUnreservedKeyChar(c)) {
      out.push_back(c);
    } else {
      const unsigned char u = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    }
  }
  return out;
}

StatusOr<std::string> ArtifactCache::DecodeKey(const std::string& encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    const char c = encoded[i];
    if (c == '%') {
      if (i + 2 >= encoded.size()) {
        return Status::InvalidArgument("cache: truncated %-escape in '" +
                                       encoded + "'");
      }
      const int hi = HexValue(encoded[i + 1]);
      const int lo = HexValue(encoded[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::InvalidArgument("cache: bad %-escape in '" + encoded +
                                       "'");
      }
      out.push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else if (IsUnreservedKeyChar(c)) {
      out.push_back(c);
    } else {
      return Status::InvalidArgument("cache: unencoded byte in '" + encoded +
                                     "'");
    }
  }
  return out;
}

std::string ArtifactCache::EntryPath(const std::string& canonical) const {
  return root_ + "/" + kEntriesDir + "/" + EncodeKey(canonical) +
         kEntrySuffix;
}

StatusOr<ArtifactCache> ArtifactCache::Open(const std::string& root,
                                            const Options& options) {
  ArtifactCache cache(root, options);
  for (const char* dir : {"", kEntriesDir, kQuarantineDir}) {
    const Status made =
        MakeDirs(dir[0] == '\0' ? root : root + "/" + dir);
    if (!made.ok()) return made;
  }
  const bool manifest_ok = cache.ParseManifest();
  StatusOr<ScrubReport> reconciled =
      cache.Reconcile(/*verify_indexed=*/false, /*rewrite=*/!manifest_ok);
  if (!reconciled.ok()) return reconciled.status();
  cache.stats_.temps_swept = reconciled.value().temps_removed;
  return cache;
}

StatusOr<ArtifactCache::ManifestEntry> ArtifactCache::ValidateEntryFile(
    const std::string& canonical) {
  const std::string path = EntryPath(canonical);
  StatusOr<std::string> bytes = RetryWithBackoff(
      options_.retry, [&path]() { return ReadFileBytes(path); });
  if (!bytes.ok()) return bytes.status();
  const StatusOr<TreeArtifact> parsed =
      DeserializeTreeArtifact(bytes.value());
  if (!parsed.ok()) {
    return Status::DataLoss(StrPrintf("cache: entry '%s' invalid: %s",
                                      canonical.c_str(),
                                      parsed.status().ToString().c_str()));
  }
  ManifestEntry entry;
  entry.size = bytes.value().size();
  entry.checksum = Fnv1aChecksum(bytes.value());
  return entry;
}

void ArtifactCache::QuarantineEntry(const std::string& canonical) {
  const std::string path = EntryPath(canonical);
  const std::string base =
      root_ + "/" + kQuarantineDir + "/" + EncodeKey(canonical);
  std::string target;
  for (uint32_t n = 0;; ++n) {
    target = StrPrintf("%s.%u%s", base.c_str(), n, kEntrySuffix);
    if (!PathExists(target)) break;
  }
  // Best effort: quarantine preserves the corrupt bytes for postmortem,
  // but a failed move must not keep the entry reachable.
  if (!RenameFile(path, target).ok()) (void)RemoveFile(path);
  entries_.erase(canonical);
  ++stats_.corrupt_quarantined;
}

bool ArtifactCache::ParseManifest() {
  const StatusOr<std::string> raw = ReadFileBytes(root_ + "/" + kManifestName);
  if (!raw.ok()) {
    // Absent is just a fresh cache; present but unreadable is a recovery.
    stats_.manifest_recovered = raw.status().code() != StatusCode::kNotFound;
    return false;
  }
  // "GSCM <version>\n" + entry lines + "sum <fnv-hex>\n". Any deviation
  // (including a checksum mismatch) discards the manifest and leaves
  // Reconcile to rebuild it from the entry files, which are individually
  // self-validating, so nothing is lost.
  std::map<std::string, ManifestEntry> parsed;
  const std::string& text = raw.value();
  size_t pos = 0;
  bool ok = true, saw_header = false, saw_sum = false;
  while (pos < text.size() && ok) {
    const size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      ok = false;
      break;
    }
    const std::string line = text.substr(pos, eol - pos);
    if (!saw_header) {
      ok = line == StrPrintf("GSCM %u", kArtifactCacheVersion);
      saw_header = true;
    } else if (line.compare(0, 4, "sum ") == 0) {
      const uint64_t stored = std::strtoull(line.c_str() + 4, nullptr, 16);
      ok = stored == Fnv1aChecksum(text.substr(0, pos)) &&
           eol + 1 == text.size();
      saw_sum = true;
    } else if (line.compare(0, 6, "entry ") == 0) {
      char enc[512];
      unsigned long long size = 0, checksum = 0;
      StatusOr<std::string> key = Status::InvalidArgument("bad row");
      if (std::sscanf(line.c_str(), "entry %511s %llu %llx", enc, &size,
                      &checksum) == 3) {
        key = DecodeKey(enc);
      }
      ok = key.ok();
      if (ok) parsed[key.value()] = ManifestEntry{size, checksum};
    } else {
      ok = false;
    }
    pos = eol + 1;
  }
  ok = ok && saw_header && saw_sum;
  if (ok) {
    entries_ = std::move(parsed);
  } else {
    stats_.manifest_recovered = true;
  }
  return ok;
}

StatusOr<ScrubReport> ArtifactCache::Reconcile(bool verify_indexed,
                                               bool rewrite) {
  ScrubReport report;
  // Any .tmp is an interrupted atomic write whose rename never happened:
  // the content is unreferenced and possibly torn, so it is swept, not
  // salvaged.
  for (const std::string& dir : {root_, root_ + "/" + kEntriesDir}) {
    StatusOr<std::vector<std::string>> names = ListDir(dir);
    if (!names.ok()) return names.status();
    for (const std::string& name : names.value()) {
      if (!EndsWith(name, kTempSuffix)) continue;
      const Status gone = RemoveFile(dir + "/" + name);
      if (!gone.ok()) return gone;
      ++report.temps_removed;
    }
  }
  // The entry files are the source of truth (each is internally
  // checksummed); the manifest is an index. Rows whose files vanished go.
  bool changed = false;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (PathExists(EntryPath(it->first))) {
      ++it;
    } else {
      it = entries_.erase(it);
      ++report.entries_checked;
      ++report.missing_dropped;
      changed = true;
    }
  }
  StatusOr<std::vector<std::string>> names =
      ListDir(root_ + "/" + kEntriesDir);
  if (!names.ok()) return names.status();
  std::set<std::string> on_disk;  // canonical keys, in report order
  for (const std::string& name : names.value()) {
    if (!EndsWith(name, kEntrySuffix)) continue;
    StatusOr<std::string> key =
        DecodeKey(name.substr(0, name.size() - std::strlen(kEntrySuffix)));
    if (key.ok()) on_disk.insert(key.value());  // else foreign: left alone
  }
  for (const std::string& canonical : on_disk) {
    const auto it = entries_.find(canonical);
    const bool listed = it != entries_.end();
    if (listed && !verify_indexed) {
      // Open's fast path: a row whose size agrees is trusted; every Get
      // verifies the full checksum anyway.
      StatusOr<uint64_t> size = FileSizeBytes(EntryPath(canonical));
      if (size.ok() && size.value() == it->second.size) continue;
    }
    // Unlisted, suspicious, or under Scrub: validate completely, then
    // adopt or quarantine. A crash between entry rename and manifest
    // commit lands here and is healed.
    ++report.entries_checked;
    StatusOr<ManifestEntry> row = ValidateEntryFile(canonical);
    if (row.ok()) {
      if (listed && row.value().size == it->second.size &&
          row.value().checksum == it->second.checksum) {
        ++report.entries_ok;
        continue;
      }
      entries_[canonical] = row.value();
      report.adopted.push_back(canonical);
      if (rewrite) {
        stats_.manifest_recovered = true;
      } else {
        ++stats_.strays_adopted;
      }
    } else if (row.status().code() == StatusCode::kDataLoss) {
      QuarantineEntry(canonical);
      report.quarantined.push_back(canonical);
    } else {
      return row.status();
    }
    changed = true;
  }
  if (changed || rewrite) {
    const Status committed = WriteManifest();
    if (!committed.ok()) return committed;
  }
  return report;
}

Status ArtifactCache::WriteManifest() {
  std::string text = StrPrintf("GSCM %u\n", kArtifactCacheVersion);
  for (const auto& entry : entries_) {
    text += StrPrintf("entry %s %llu %016llx\n",
                      EncodeKey(entry.first).c_str(),
                      static_cast<unsigned long long>(entry.second.size),
                      static_cast<unsigned long long>(entry.second.checksum));
  }
  text += StrPrintf("sum %016llx\n",
                    static_cast<unsigned long long>(Fnv1aChecksum(text)));
  const std::string path = root_ + "/" + kManifestName;
  return RetryWithBackoff(options_.retry, [&]() {
    if (failpoint::Fire("cache/manifest_write")) {
      return failpoint::InjectedFault("cache/manifest_write");
    }
    return WriteFileBytesAtomic(path, text);
  });
}

Status ArtifactCache::Put(const ArtifactKey& key,
                          const TreeArtifact& artifact) {
  const std::string canonical = key.Canonical();
  StatusOr<std::string> bytes = SerializeTreeArtifact(artifact);
  if (!bytes.ok()) return bytes.status();

  // cache/torn_entry models a write the disk acknowledged but never
  // completed (half the payload lands, rename still happens): the
  // manifest keeps the INTENDED checksum, so the tear is caught — and
  // quarantined — on the next load.
  std::string disk_bytes = bytes.value();
  if (failpoint::Fire("cache/torn_entry")) {
    disk_bytes.resize(disk_bytes.size() / 2);
  }

  const std::string path = EntryPath(canonical);
  const std::string tmp = path + kTempSuffix;
  Status status = RetryWithBackoff(options_.retry, [&]() {
    return WriteFileBytes(tmp, disk_bytes, /*sync=*/true);
  });
  if (!status.ok()) {
    (void)RemoveFile(tmp);
    return status;
  }
  // cache/crash_after_temp: the process "dies" after the temp write,
  // before the rename — the stray .tmp must be swept at the next Open
  // and the previous entry must still be served.
  if (failpoint::Fire("cache/crash_after_temp")) {
    return failpoint::InjectedFault("cache/crash_after_temp");
  }
  status = RetryWithBackoff(options_.retry,
                            [&]() { return RenameFile(tmp, path); });
  if (!status.ok()) {
    (void)RemoveFile(tmp);
    return status;
  }
  status = SyncDir(root_ + "/" + kEntriesDir);
  if (!status.ok()) return status;
  // cache/manifest_crash: entry durably renamed, manifest commit never
  // happens — the next Open adopts the stray entry.
  if (failpoint::Fire("cache/manifest_crash")) {
    return failpoint::InjectedFault("cache/manifest_crash");
  }
  entries_[canonical] =
      ManifestEntry{bytes.value().size(), Fnv1aChecksum(bytes.value())};
  return WriteManifest();
}

StatusOr<TreeArtifact> ArtifactCache::Get(const ArtifactKey& key) {
  const std::string canonical = key.Canonical();
  const auto it = entries_.find(canonical);
  if (it == entries_.end()) {
    ++stats_.misses;
    return Status::NotFound("cache: no entry for '" + canonical + "'");
  }
  const std::string path = EntryPath(canonical);
  StatusOr<std::string> bytes = RetryWithBackoff(
      options_.retry, [&path]() { return ReadFileBytes(path); });
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      // The file vanished behind the manifest's back: drop the row so
      // GetOrBuild can rebuild instead of failing forever.
      entries_.erase(canonical);
      (void)WriteManifest();
      ++stats_.misses;
    }
    return bytes.status();
  }
  std::string data = std::move(bytes).value();
  // cache/load_corrupt: the read "succeeded" with one flipped bit, as a
  // failing disk would. Must be caught by the manifest checksum.
  if (failpoint::Fire("cache/load_corrupt") && !data.empty()) {
    data[data.size() / 3] = static_cast<char>(data[data.size() / 3] ^ 0x10);
  }
  if (data.size() != it->second.size ||
      Fnv1aChecksum(data) != it->second.checksum) {
    QuarantineEntry(canonical);
    (void)WriteManifest();
    return Status::DataLoss(
        "cache: entry '" + canonical +
        "' fails its manifest checksum; quarantined");
  }
  StatusOr<TreeArtifact> parsed = DeserializeTreeArtifact(data);
  if (!parsed.ok()) {
    QuarantineEntry(canonical);
    (void)WriteManifest();
    return Status::DataLoss(StrPrintf(
        "cache: entry '%s' quarantined: %s", canonical.c_str(),
        parsed.status().ToString().c_str()));
  }
  ++stats_.hits;
  return parsed;
}

StatusOr<TreeArtifact> ArtifactCache::GetOrBuild(const ArtifactKey& key,
                                                 const Builder& builder) {
  StatusOr<TreeArtifact> cached = Get(key);
  if (cached.ok()) return cached;
  const StatusCode code = cached.status().code();
  if (code != StatusCode::kNotFound && code != StatusCode::kDataLoss) {
    return cached.status();  // transient I/O already outlasted retry
  }
  StatusOr<TreeArtifact> built = builder();
  if (!built.ok()) return built.status();
  ++stats_.rebuilds;
  const Status stored = Put(key, built.value());
  if (!stored.ok()) {
    // Serving beats caching: the artifact is good even if the store
    // failed; the next GetOrBuild will try to store again.
    ++stats_.put_failures;
  }
  return built;
}

bool ArtifactCache::Contains(const ArtifactKey& key) const {
  return entries_.count(key.Canonical()) != 0;
}

std::vector<std::string> ArtifactCache::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& entry : entries_) keys.push_back(entry.first);
  return keys;
}

StatusOr<ScrubReport> ArtifactCache::Scrub() {
  return Reconcile(/*verify_indexed=*/true, /*rewrite=*/false);
}

}  // namespace graphscape
