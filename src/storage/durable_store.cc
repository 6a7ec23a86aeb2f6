#include "storage/durable_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace neptune {

namespace {

constexpr char kProjectFile[] = "PROJECT";
constexpr char kCurrentFile[] = "CURRENT";
constexpr char kReplFile[] = "REPL";
constexpr char kSnapMagic[] = "NEPSNAP1";  // 8 bytes

// REPL file: "term=<n> role=follower|primary". Absent file = primary
// at term 0 (a standalone store never writes one).
ReplRole ReadReplRole(Env* env, const std::string& dir) {
  ReplRole role;
  auto raw = env->ReadFileToString(JoinPath(dir, kReplFile));
  if (!raw.ok()) return role;
  char kind[16] = {0};
  if (std::sscanf(raw->c_str(), "term=%" PRIu64 " role=%15s", &role.term,
                  kind) == 2) {
    role.follower = std::strcmp(kind, "follower") == 0;
  }
  return role;
}

Status WriteReplRole(Env* env, const std::string& dir, const ReplRole& role) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "term=%" PRIu64 " role=%s", role.term,
                role.follower ? "follower" : "primary");
  return env->WriteFileAtomic(JoinPath(dir, kReplFile), buf);
}

// SNAP file layout: magic(8) | masked_crc32c(blob)(4) | fixed64 len | blob.
std::string EncodeSnapshot(std::string_view blob) {
  std::string out;
  out.reserve(20 + blob.size());
  out.append(kSnapMagic, 8);
  PutFixed32(&out, crc32c::Mask(crc32c::Value(blob)));
  PutFixed64(&out, blob.size());
  out.append(blob);
  return out;
}

Result<std::string> DecodeSnapshot(std::string_view data,
                                   const std::string& path) {
  std::string_view in = data;
  if (in.size() < 20 || in.substr(0, 8) != std::string_view(kSnapMagic, 8)) {
    return Status::Corruption("bad snapshot magic in " + path);
  }
  in.remove_prefix(8);
  uint32_t masked_crc = 0;
  uint64_t len = 0;
  GetFixed32(&in, &masked_crc);
  GetFixed64(&in, &len);
  if (in.size() != len) {
    return Status::Corruption("snapshot length mismatch in " + path);
  }
  if (crc32c::Value(in) != crc32c::Unmask(masked_crc)) {
    return Status::Corruption("snapshot checksum mismatch in " + path);
  }
  return std::string(in);
}

// Epoch of a "SNAP-<n>"/"WAL-<n>" file name; 0 when `name` is neither.
uint64_t ParseEpoch(const std::string& name, const char* prefix) {
  const size_t prefix_len = std::strlen(prefix);
  if (name.compare(0, prefix_len, prefix) != 0) return 0;
  uint64_t epoch = 0;
  for (size_t i = prefix_len; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    epoch = epoch * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return name.size() > prefix_len ? epoch : 0;
}

bool IsTmpName(const std::string& name) {
  return name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::string out = "recovery: snapshot_epoch=" + std::to_string(snapshot_epoch)
      + " wal_epoch=" + std::to_string(wal_epoch)
      + " wal_files_replayed=" + std::to_string(wal_files_replayed)
      + " records_replayed=" + std::to_string(records_replayed)
      + " bytes_truncated=" + std::to_string(bytes_truncated);
  out += wal_tail_truncated ? " wal_tail_truncated=true"
                            : " wal_tail_truncated=false";
  out += mid_log_corruption ? " mid_log_corruption=true"
                            : " mid_log_corruption=false";
  out += snapshot_fallback ? " snapshot_fallback=true"
                           : " snapshot_fallback=false";
  out += current_rewritten ? " current_rewritten=true"
                           : " current_rewritten=false";
  out += " orphans_removed=" + std::to_string(orphans_removed);
  return out;
}

std::string RecoveryReport::ToJson() const {
  auto b = [](bool v) { return v ? "true" : "false"; };
  std::string out = "{";
  out += "\"snapshot_epoch\": " + std::to_string(snapshot_epoch);
  out += ", \"wal_epoch\": " + std::to_string(wal_epoch);
  out += ", \"wal_files_replayed\": " + std::to_string(wal_files_replayed);
  out += ", \"records_replayed\": " + std::to_string(records_replayed);
  out += ", \"bytes_truncated\": " + std::to_string(bytes_truncated);
  out += std::string(", \"wal_tail_truncated\": ") + b(wal_tail_truncated);
  out += std::string(", \"mid_log_corruption\": ") + b(mid_log_corruption);
  out += std::string(", \"snapshot_fallback\": ") + b(snapshot_fallback);
  out += std::string(", \"current_rewritten\": ") + b(current_rewritten);
  out += ", \"orphans_removed\": " + std::to_string(orphans_removed);
  out += std::string(", \"clean\": ") + b(Clean());
  out += "}";
  return out;
}

DurableStore::~DurableStore() {
  if (wal_ != nullptr) wal_->Close();
}

std::string DurableStore::SnapName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "SNAP-%06" PRIu64, epoch);
  return buf;
}

std::string DurableStore::WalName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "WAL-%06" PRIu64, epoch);
  return buf;
}

bool DurableStore::Exists(Env* env, const std::string& dir) {
  return env->FileExists(JoinPath(dir, kProjectFile));
}

Result<std::string> DurableStore::ReadMeta(Env* env, const std::string& dir) {
  return env->ReadFileToString(JoinPath(dir, kProjectFile));
}

Result<std::unique_ptr<DurableStore>> DurableStore::Create(
    Env* env, const std::string& dir, std::string_view meta,
    std::string_view initial_snapshot, uint32_t dir_mode) {
  if (Exists(env, dir)) {
    return Status::AlreadyExists("a graph already exists in " + dir);
  }
  NEPTUNE_RETURN_IF_ERROR(env->CreateDir(dir));
  if (dir_mode != 0) {
    NEPTUNE_RETURN_IF_ERROR(env->SetPermissions(dir, dir_mode));
  }
  const uint64_t epoch = 1;
  NEPTUNE_RETURN_IF_ERROR(env->WriteFileAtomic(
      JoinPath(dir, SnapName(epoch)), EncodeSnapshot(initial_snapshot)));
  NEPTUNE_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> wal_file,
      env->NewWritableFile(JoinPath(dir, WalName(epoch)), /*truncate=*/true));
  NEPTUNE_RETURN_IF_ERROR(
      env->WriteFileAtomic(JoinPath(dir, kCurrentFile), SnapName(epoch)));
  // PROJECT is written last: its presence marks a fully-formed store.
  NEPTUNE_RETURN_IF_ERROR(
      env->WriteFileAtomic(JoinPath(dir, kProjectFile), meta));
  return std::unique_ptr<DurableStore>(new DurableStore(
      env, dir, epoch, std::make_unique<LogWriter>(std::move(wal_file)),
      /*wal_bytes=*/0));
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    Env* env, const std::string& dir, RecoveredState* state,
    uint32_t keep_wal_generations) {
  NEPTUNE_ASSIGN_OR_RETURN(state->meta,
                           env->ReadFileToString(JoinPath(dir, kProjectFile)));
  RecoveryReport& report = state->report;

  // Inventory the directory: which generations are actually on disk?
  NEPTUNE_ASSIGN_OR_RETURN(std::vector<std::string> children,
                           env->GetChildren(dir));
  std::set<uint64_t> snap_epochs;
  std::set<uint64_t> wal_epochs;
  std::vector<std::string> tmp_names;
  for (const std::string& name : children) {
    if (IsTmpName(name)) {
      tmp_names.push_back(name);
      continue;
    }
    if (uint64_t e = ParseEpoch(name, "SNAP-")) snap_epochs.insert(e);
    if (uint64_t e = ParseEpoch(name, "WAL-")) wal_epochs.insert(e);
  }

  // CURRENT holds "SNAP-<epoch>". A missing or unparsable CURRENT is
  // survivable as long as some snapshot is: fall back to the newest one.
  uint64_t target = 0;  // the committed generation
  bool current_ok = false;
  if (auto current = env->ReadFileToString(JoinPath(dir, kCurrentFile));
      current.ok()) {
    current_ok = std::sscanf(current->c_str(), "SNAP-%" PRIu64, &target) == 1;
  }
  if (!current_ok) {
    if (snap_epochs.empty()) {
      return Status::Corruption("no CURRENT and no snapshot in " + dir);
    }
    target = *snap_epochs.rbegin();
    NEPTUNE_LOG(Warn) << "event=current_missing dir=" << dir
                      << " assumed_epoch=" << target;
  }

  // Load the newest decodable snapshot at or below the committed
  // generation. Epochs above `target` are uncommitted checkpoint debris
  // and must not be trusted.
  uint64_t snap_epoch = 0;
  Status first_snap_error;
  std::vector<uint64_t> candidates;
  candidates.push_back(target);
  for (auto it = snap_epochs.rbegin(); it != snap_epochs.rend(); ++it) {
    if (*it < target) candidates.push_back(*it);
  }
  for (uint64_t e : candidates) {
    const std::string snap_path = JoinPath(dir, SnapName(e));
    auto snap_raw = env->ReadFileToString(snap_path);
    Result<std::string> decoded =
        snap_raw.ok() ? DecodeSnapshot(*snap_raw, snap_path)
                      : Result<std::string>(snap_raw.status());
    if (decoded.ok()) {
      state->snapshot = std::move(*decoded);
      snap_epoch = e;
      break;
    }
    if (first_snap_error.ok()) first_snap_error = decoded.status();
    NEPTUNE_LOG(Warn) << "event=snapshot_unusable dir=" << dir << " epoch="
                      << e << " code="
                      << StatusCodeToString(decoded.status().code())
                      << " detail=\"" << decoded.status().message() << "\"";
  }
  if (snap_epoch == 0) {
    return Status::Corruption("no usable snapshot in " + dir + " (" +
                              std::string(first_snap_error.message()) + ")");
  }
  report.snapshot_epoch = snap_epoch;
  report.wal_epoch = target;
  report.snapshot_fallback = snap_epoch != target || !current_ok;
  NEPTUNE_METRIC_COUNT("storage.snapshot.loads", 1);
  NEPTUNE_METRIC_COUNT("storage.snapshot.bytes_loaded", state->snapshot.size());

  // Replay every WAL from the snapshot's generation up to the committed
  // one. In the common case that is just WAL-<target>; after a snapshot
  // fallback the older logs bridge the gap, since checkpoint `e+1`
  // folded exactly SNAP-<e> + WAL-<e> into its snapshot.
  uint64_t live_wal_bytes = 0;
  for (uint64_t e = snap_epoch; e <= target; ++e) {
    const std::string wal_path = JoinPath(dir, WalName(e));
    if (!env->FileExists(wal_path)) continue;
    NEPTUNE_ASSIGN_OR_RETURN(std::string wal_raw,
                             env->ReadFileToString(wal_path));
    NEPTUNE_ASSIGN_OR_RETURN(LogReadResult log, ReadLog(wal_raw));
    report.wal_files_replayed++;
    report.records_replayed += log.records.size();
    report.bytes_truncated += log.dropped_bytes;
    report.mid_log_corruption |= log.mid_log_corruption;
    for (std::string& record : log.records) {
      state->wal_records.push_back(std::move(record));
    }
    if (e == target) {
      report.wal_tail_truncated = log.truncated_tail;
      live_wal_bytes = log.valid_bytes;
      if (log.truncated_tail) {
        // Drop the torn/corrupt suffix on disk so new commits append
        // right after the last good record.
        NEPTUNE_LOG(Warn) << "event=wal_tail_truncated path=" << wal_path
                          << " valid_bytes=" << log.valid_bytes
                          << " dropped_bytes=" << log.dropped_bytes;
        NEPTUNE_RETURN_IF_ERROR(env->TruncateFile(wal_path, log.valid_bytes));
      }
    }
  }
  state->wal_tail_truncated = report.wal_tail_truncated;

  if (report.snapshot_fallback) {
    // Leave the directory untouched: a second recovery must see the
    // same inputs and reach the same state (and an operator may want
    // the corrupt snapshot for forensics). Heal CURRENT only when it
    // points nowhere and the newest snapshot is the one we used.
    if (!current_ok && snap_epoch == target) {
      if (env->WriteFileAtomic(JoinPath(dir, kCurrentFile), SnapName(target))
              .ok()) {
        report.current_rewritten = true;
      }
    }
  } else {
    // Healthy recovery: sweep debris — tmp files from interrupted
    // atomic writes and generations other than the committed one.
    for (const std::string& name : tmp_names) {
      if (env->RemoveFile(JoinPath(dir, name)).ok()) report.orphans_removed++;
    }
    for (uint64_t e : snap_epochs) {
      if (e != target && env->RemoveFile(JoinPath(dir, SnapName(e))).ok()) {
        report.orphans_removed++;
      }
    }
    for (uint64_t e : wal_epochs) {
      // WAL generations within the retention window are replication
      // tail history, not debris; generations above the committed one
      // are uncommitted checkpoint debris regardless of retention.
      const bool retained =
          e < target && target - e <= keep_wal_generations;
      if (e != target && !retained &&
          env->RemoveFile(JoinPath(dir, WalName(e))).ok()) {
        report.orphans_removed++;
      }
    }
  }

  NEPTUNE_METRIC_COUNT("wal.recovery.count", 1);
  NEPTUNE_METRIC_COUNT("wal.recovery.records_replayed",
                       report.records_replayed);
  NEPTUNE_METRIC_COUNT("wal.recovery.bytes_truncated", report.bytes_truncated);
  if (report.wal_tail_truncated) {
    NEPTUNE_METRIC_COUNT("wal.recovery.tail_truncated", 1);
  }
  if (report.mid_log_corruption) {
    NEPTUNE_METRIC_COUNT("wal.recovery.mid_log_corruption", 1);
  }
  if (report.snapshot_fallback) {
    NEPTUNE_METRIC_COUNT("wal.recovery.snapshot_fallback", 1);
  }
  NEPTUNE_METRIC_COUNT("wal.recovery.orphans_removed", report.orphans_removed);

  const std::string wal_path = JoinPath(dir, WalName(target));
  NEPTUNE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> wal_file,
                           env->NewWritableFile(wal_path, /*truncate=*/false));
  std::unique_ptr<DurableStore> store(new DurableStore(
      env, dir, target, std::make_unique<LogWriter>(std::move(wal_file)),
      live_wal_bytes));
  store->repl_ = ReadReplRole(env, dir);
  store->keep_wal_generations_ = keep_wal_generations;
  return store;
}

Result<std::unique_ptr<DurableStore>> DurableStore::CreateForReplica(
    Env* env, const std::string& dir, std::string_view meta,
    std::string_view snapshot, uint64_t epoch, uint64_t term) {
  // A resync replaces whatever divergent or stale store was here.
  if (env->FileExists(dir)) {
    NEPTUNE_RETURN_IF_ERROR(env->RemoveDirRecursive(dir));
  }
  NEPTUNE_RETURN_IF_ERROR(env->CreateDir(dir));
  NEPTUNE_RETURN_IF_ERROR(env->WriteFileAtomic(
      JoinPath(dir, SnapName(epoch)), EncodeSnapshot(snapshot)));
  NEPTUNE_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> wal_file,
      env->NewWritableFile(JoinPath(dir, WalName(epoch)), /*truncate=*/true));
  NEPTUNE_RETURN_IF_ERROR(
      env->WriteFileAtomic(JoinPath(dir, kCurrentFile), SnapName(epoch)));
  ReplRole role{term, /*follower=*/true};
  NEPTUNE_RETURN_IF_ERROR(WriteReplRole(env, dir, role));
  NEPTUNE_RETURN_IF_ERROR(
      env->WriteFileAtomic(JoinPath(dir, kProjectFile), meta));
  std::unique_ptr<DurableStore> store(new DurableStore(
      env, dir, epoch, std::make_unique<LogWriter>(std::move(wal_file)),
      /*wal_bytes=*/0));
  store->repl_ = role;
  return store;
}

Status DurableStore::Destroy(Env* env, const std::string& dir) {
  if (!Exists(env, dir)) {
    return Status::NotFound("no graph in " + dir);
  }
  return env->RemoveDirRecursive(dir);
}

Status DurableStore::AppendCommon(uint64_t framed_size,
                                  const std::function<Status()>& append) {
  if (degraded_) {
    Status repaired = RepairWal();
    if (!repaired.ok()) {
      NEPTUNE_METRIC_COUNT("storage.wal.readonly_rejects", 1);
      return Status::ReadOnly("WAL unwritable, store is read-only (" +
                              std::string(repaired.message()) + ")");
    }
  }
  Status status = append();
  if (!status.ok()) {
    // The failed commit may have left half-written or unsynced bytes
    // past the last good record; stop trusting the writer until a
    // repair truncates back to wal_bytes_. The caller still sees the
    // original failure, not kReadOnly — only *later* commits do, and
    // only if the repair keeps failing too.
    degraded_ = true;
    NEPTUNE_METRIC_COUNT("wal.recovery.degraded_entered", 1);
    return status;
  }
  wal_bytes_ += framed_size;
  return status;
}

Status DurableStore::AppendRecord(std::string_view record, bool sync) {
  NEPTUNE_TRACE_SPAN(span, "storage.wal.append");
  if (span.active()) {
    span.Annotate("bytes=" + std::to_string(record.size()) +
                  (sync ? " sync=1" : " sync=0"));
  }
  return AppendCommon(8 + record.size(),
                      [&] { return wal_->AddRecord(record, sync); });
}

Status DurableStore::AppendRawFrames(std::string_view frames, bool sync) {
  NEPTUNE_TRACE_SPAN(span, "storage.wal.append_raw");
  if (span.active()) {
    span.Annotate("bytes=" + std::to_string(frames.size()) +
                  (sync ? " sync=1" : " sync=0"));
  }
  return AppendCommon(frames.size(),
                      [&] { return wal_->AddRawFrames(frames, sync); });
}

Result<WalChunk> DurableStore::ReadWalRange(uint64_t epoch, uint64_t offset,
                                            uint64_t max_bytes) {
  if (epoch > epoch_) {
    return Status::NotFound("WAL generation " + std::to_string(epoch) +
                            " is ahead of " + dir_);
  }
  const std::string wal_path = JoinPath(dir_, WalName(epoch));
  WalChunk chunk;
  if (epoch == epoch_) {
    // Only bytes below wal_bytes_ are committed; a failed append may
    // have left garbage past it that must never ship.
    chunk.epoch_bytes = wal_bytes_;
    chunk.epoch_complete = false;
  } else {
    if (!env_->FileExists(wal_path)) {
      return Status::NotFound("WAL generation " + std::to_string(epoch) +
                              " no longer retained in " + dir_);
    }
    NEPTUNE_ASSIGN_OR_RETURN(chunk.epoch_bytes, env_->GetFileSize(wal_path));
    chunk.epoch_complete = true;
  }
  if (offset > chunk.epoch_bytes) {
    return Status::FailedPrecondition(
        "WAL offset " + std::to_string(offset) + " past committed end " +
        std::to_string(chunk.epoch_bytes) + " in " + dir_);
  }
  if (offset < chunk.epoch_bytes) {
    NEPTUNE_ASSIGN_OR_RETURN(std::string raw,
                             env_->ReadFileToString(wal_path));
    const uint64_t end =
        std::min<uint64_t>(chunk.epoch_bytes,
                           std::min<uint64_t>(raw.size(), offset + max_bytes));
    if (offset < end) chunk.bytes = raw.substr(offset, end - offset);
  }
  return chunk;
}

Result<std::string> DurableStore::ReadSnapshotBlob() {
  const std::string snap_path = JoinPath(dir_, SnapName(epoch_));
  NEPTUNE_ASSIGN_OR_RETURN(std::string raw, env_->ReadFileToString(snap_path));
  return DecodeSnapshot(raw, snap_path);
}

Status DurableStore::SetReplRole(const ReplRole& role) {
  NEPTUNE_RETURN_IF_ERROR(WriteReplRole(env_, dir_, role));
  repl_ = role;
  return Status::OK();
}

Status DurableStore::RepairWal() {
  if (wal_ != nullptr) {
    wal_->Close();  // Best effort: the handle is already suspect.
    wal_ = nullptr;
  }
  const std::string wal_path = JoinPath(dir_, WalName(epoch_));
  if (env_->FileExists(wal_path)) {
    NEPTUNE_ASSIGN_OR_RETURN(uint64_t size, env_->GetFileSize(wal_path));
    if (size > wal_bytes_) {
      NEPTUNE_RETURN_IF_ERROR(env_->TruncateFile(wal_path, wal_bytes_));
    }
  }
  NEPTUNE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> wal_file,
                           env_->NewWritableFile(wal_path, /*truncate=*/false));
  wal_ = std::make_unique<LogWriter>(std::move(wal_file));
  degraded_ = false;
  NEPTUNE_METRIC_COUNT("wal.recovery.repaired", 1);
  NEPTUNE_LOG(Warn) << "event=wal_repaired path=" << wal_path
                    << " truncated_to_bytes=" << wal_bytes_;
  return Status::OK();
}

Status DurableStore::Checkpoint(std::string_view snapshot) {
  NEPTUNE_TRACE_SPAN(span, "storage.checkpoint", "storage.checkpoint");
  if (span.active()) {
    span.Annotate("bytes=" + std::to_string(snapshot.size()));
  }
  NEPTUNE_METRIC_COUNT("storage.checkpoint.bytes", snapshot.size());
  const uint64_t next = epoch_ + 1;
  const std::string next_snap = JoinPath(dir_, SnapName(next));
  const std::string next_wal = JoinPath(dir_, WalName(next));
  NEPTUNE_RETURN_IF_ERROR(
      env_->WriteFileAtomic(next_snap, EncodeSnapshot(snapshot)));
  auto wal_file = env_->NewWritableFile(next_wal, /*truncate=*/true);
  if (!wal_file.ok()) {
    env_->RemoveFile(next_snap);
    return wal_file.status();
  }
  // The CURRENT flip is the commit point of the checkpoint.
  Status flip = env_->WriteFileAtomic(JoinPath(dir_, kCurrentFile),
                                      SnapName(next));
  if (!flip.ok()) {
    // The next generation never became live: remove what was staged so
    // a later crash-recovery can't mistake it for anything.
    (*wal_file)->Close();
    env_->RemoveFile(next_wal);
    env_->RemoveFile(next_snap);
    NEPTUNE_METRIC_COUNT("storage.checkpoint.aborted", 1);
    return flip;
  }
  if (wal_ != nullptr) wal_->Close();
  wal_ = std::make_unique<LogWriter>(*std::move(wal_file));
  degraded_ = false;  // A fresh, empty WAL is trustworthy again.
  // Best-effort removal of the superseded generation. The last
  // keep_wal_generations_ WALs are retained so followers can tail
  // across the checkpoint instead of re-snapshotting.
  env_->RemoveFile(JoinPath(dir_, SnapName(epoch_)));
  if (keep_wal_generations_ == 0) {
    env_->RemoveFile(JoinPath(dir_, WalName(epoch_)));
  } else if (epoch_ > keep_wal_generations_) {
    env_->RemoveFile(JoinPath(dir_, WalName(epoch_ - keep_wal_generations_)));
  }
  epoch_ = next;
  wal_bytes_ = 0;
  return Status::OK();
}

}  // namespace neptune
