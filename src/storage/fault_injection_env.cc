#include "storage/fault_injection_env.h"

#include <utility>

namespace hygraph::storage {

namespace {

Status CrashedStatus() {
  return Status::IOError("injected fault: filesystem is down");
}

Status TransientStatus() {
  return Status::IOError("injected fault: transient I/O error");
}

}  // namespace

/// Write-through file that mirrors sizes into the env's FileState so the
/// env can later truncate back to the synced prefix.
class TrackedWritableFile final : public WritableFile {
 public:
  TrackedWritableFile(FaultInjectionEnv* env,
                      std::unique_ptr<WritableFile> base,
                      std::shared_ptr<FaultInjectionEnv::FileState> state)
      : env_(env), base_(std::move(base)), state_(std::move(state)) {}

  Status Append(const std::string& data) override {
    bool short_write = false;
    Status gate = env_->BeginOp(&short_write);
    if (!gate.ok()) {
      if (short_write && !data.empty()) {
        // The crash lands mid-write: a deterministic prefix reaches the
        // file (and stays un-synced), producing a torn tail.
        const std::string partial = data.substr(0, (data.size() + 1) / 2);
        if (base_->Append(partial).ok()) state_->size += partial.size();
      }
      return gate;
    }
    HYGRAPH_RETURN_IF_ERROR(base_->Append(data));
    state_->size += data.size();
    return Status::OK();
  }

  Status Sync() override {
    HYGRAPH_RETURN_IF_ERROR(env_->BeginOp());
    // Snapshot before the fsync: bytes appended while the sync is in
    // flight are not covered by it.
    const uint64_t covered = state_->size.load();
    HYGRAPH_RETURN_IF_ERROR(base_->Sync());
    state_->synced_size.store(covered);
    return Status::OK();
  }

  Status Close() override {
    // Closing flushes into the OS but does NOT sync: the bytes remain in
    // the un-synced window until an explicit Sync reached them.
    if (env_->crashed()) return CrashedStatus();
    return base_->Close();
  }

 private:
  FaultInjectionEnv* env_;
  std::unique_ptr<WritableFile> base_;
  std::shared_ptr<FaultInjectionEnv::FileState> state_;
};

Status FaultInjectionEnv::BeginOp(bool* short_write) {
  MutexLock lock(mu_);
  if (crashed_) return CrashedStatus();
  ++op_count_;
  if (armed_ && op_count_ > crash_after_) {
    crashed_ = true;
    if (short_write != nullptr) *short_write = true;
    return CrashedStatus();
  }
  // Transient modes come strictly after the terminal check: a scheduled
  // crash always wins its op, and the op counter advances identically
  // whether or not transient faults are armed, so PR 1 crash schedules
  // are unaffected. A transient failure has no side effect (no torn
  // write), matching an EINTR-style hiccup rather than power loss.
  if (transient_fail_next_ > 0) {
    --transient_fail_next_;
    ++transient_faults_;
    return TransientStatus();
  }
  if (transient_every_n_ > 0 && op_count_ % transient_every_n_ == 0) {
    ++transient_faults_;
    return TransientStatus();
  }
  if (transient_p_ > 0.0 && transient_rng_.has_value() &&
      transient_rng_->NextBernoulli(transient_p_)) {
    ++transient_faults_;
    return TransientStatus();
  }
  return Status::OK();
}

Status FaultInjectionEnv::DropUnsyncedData(UnsyncedLoss loss) {
  // mu_ is a leaf rank, so holding it across the base env's truncates is
  // safe — the base env takes no hygraph locks.
  MutexLock lock(mu_);
  for (auto& [path, state] : files_) {
    if (state->size <= state->synced_size) continue;
    uint64_t keep = state->synced_size.load();
    if (loss == UnsyncedLoss::kKeepPrefix) {
      // Half of the un-synced tail survives — rounded up so a torn record
      // is actually present, which is what the WAL reader must salvage.
      keep += (state->size.load() - keep + 1) / 2;
    }
    if (!base_->FileExists(path)) continue;
    HYGRAPH_RETURN_IF_ERROR(base_->TruncateFile(path, keep));
    state->size = keep;
    if (state->synced_size > keep) state->synced_size = keep;
  }
  return Status::OK();
}

Status FaultInjectionEnv::NewWritableFile(const std::string& path,
                                          std::unique_ptr<WritableFile>* file) {
  HYGRAPH_RETURN_IF_ERROR(BeginOp());
  std::unique_ptr<WritableFile> base_file;
  HYGRAPH_RETURN_IF_ERROR(base_->NewWritableFile(path, &base_file));
  auto state = std::make_shared<FileState>();  // created == truncated
  {
    MutexLock lock(mu_);
    files_[path] = state;
  }
  *file = std::make_unique<TrackedWritableFile>(this, std::move(base_file),
                                                std::move(state));
  return Status::OK();
}

Status FaultInjectionEnv::ReadFileToString(const std::string& path,
                                           std::string* out) {
  return base_->ReadFileToString(path, out);
}

Status FaultInjectionEnv::NewRandomAccessFile(
    const std::string& path, std::unique_ptr<RandomAccessFile>* file) {
  return base_->NewRandomAccessFile(path, file);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultInjectionEnv::GetFileSize(const std::string& path) {
  return base_->GetFileSize(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  HYGRAPH_RETURN_IF_ERROR(BeginOp());
  HYGRAPH_RETURN_IF_ERROR(base_->RenameFile(from, to));
  MutexLock lock(mu_);
  auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = it->second;  // open handles keep writing the same state
    files_.erase(it);
  } else {
    files_.erase(to);
  }
  return Status::OK();
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  HYGRAPH_RETURN_IF_ERROR(BeginOp());
  HYGRAPH_RETURN_IF_ERROR(base_->RemoveFile(path));
  MutexLock lock(mu_);
  files_.erase(path);
  return Status::OK();
}

Status FaultInjectionEnv::TruncateFile(const std::string& path, uint64_t size) {
  HYGRAPH_RETURN_IF_ERROR(BeginOp());
  HYGRAPH_RETURN_IF_ERROR(base_->TruncateFile(path, size));
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it != files_.end()) {
    if (it->second->size > size) it->second->size = size;
    if (it->second->synced_size > size) it->second->synced_size = size;
  }
  return Status::OK();
}

Status FaultInjectionEnv::CreateDirIfMissing(const std::string& path) {
  HYGRAPH_RETURN_IF_ERROR(BeginOp());
  return base_->CreateDirIfMissing(path);
}

Status FaultInjectionEnv::GetChildren(const std::string& dir,
                                      std::vector<std::string>* out) {
  return base_->GetChildren(dir, out);
}

}  // namespace hygraph::storage
