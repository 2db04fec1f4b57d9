#ifndef HYGRAPH_TESTS_SLOW_SYNC_ENV_H_
#define HYGRAPH_TESTS_SLOW_SYNC_ENV_H_

// An Env wrapper whose file Sync() takes a fixed couple of milliseconds.
// Group-commit tests use it to make writer overlap deterministic: while
// the leader sits inside its (slow) fsync, every other writer has ample
// time to finish its WAL append and park on the committer, so each batch
// provably covers multiple appends. Without it the tests are at the mercy
// of the scheduler — on a fast tmpfs an fsync is near-instant, and a
// loaded machine (parallel ctest) can serialize the writer threads,
// collapsing every batch to size 1.

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/env.h"

namespace hygraph::storage {

class SlowSyncEnv final : public Env {
 public:
  explicit SlowSyncEnv(Env* base, int sync_delay_ms = 2)
      : base_(base), sync_delay_ms_(sync_delay_ms) {}

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> inner;
    const Status status = base_->NewWritableFile(path, &inner);
    if (!status.ok()) return status;
    *file = std::make_unique<SlowFile>(std::move(inner), sync_delay_ms_);
    return Status::OK();
  }
  Status ReadFileToString(const std::string& path, std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override {
    return base_->NewRandomAccessFile(path, file);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* out) override {
    return base_->GetChildren(dir, out);
  }

 private:
  class SlowFile final : public WritableFile {
   public:
    SlowFile(std::unique_ptr<WritableFile> inner, int delay_ms)
        : inner_(std::move(inner)), delay_ms_(delay_ms) {}
    Status Append(const std::string& data) override {
      return inner_->Append(data);
    }
    Status Sync() override {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
      return inner_->Sync();
    }
    Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<WritableFile> inner_;
    int delay_ms_;
  };

  Env* base_;
  int sync_delay_ms_;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_TESTS_SLOW_SYNC_ENV_H_
