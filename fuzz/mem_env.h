#ifndef HYGRAPH_FUZZ_MEM_ENV_H_
#define HYGRAPH_FUZZ_MEM_ENV_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/env.h"

namespace hygraph::fuzz {

/// A minimal in-memory storage::Env for fuzzing: no disk I/O, so harness
/// executions are hermetic and fast, and every byte the parser under test
/// sees comes straight from the fuzzer input. Not thread-safe; one instance
/// per harness invocation.
class MemEnv : public storage::Env {
 public:
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<storage::WritableFile>* file) override {
    files_[path].clear();
    *file = std::make_unique<MemWritableFile>(&files_[path]);
    return Status::OK();
  }

  Status ReadFileToString(const std::string& path, std::string* out) override {
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound(path);
    *out = it->second;
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<storage::RandomAccessFile>* file) override {
    if (files_.count(path) == 0) return Status::NotFound(path);
    *file = std::make_unique<MemRandomAccessFile>(&files_, path);
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return files_.count(path) > 0;
  }

  Result<uint64_t> GetFileSize(const std::string& path) override {
    auto it = files_.find(path);
    if (it == files_.end()) return Status(Status::NotFound(path));
    return static_cast<uint64_t>(it->second.size());
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    auto it = files_.find(from);
    if (it == files_.end()) return Status::NotFound(from);
    files_[to] = std::move(it->second);
    files_.erase(from);
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (files_.erase(path) == 0) return Status::NotFound(path);
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound(path);
    if (size < it->second.size()) it->second.resize(size);
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& /*path*/) override {
    return Status::OK();
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* out) override {
    out->clear();
    const std::string prefix = dir.empty() || dir.back() == '/'
                                   ? dir
                                   : dir + "/";
    for (const auto& [path, bytes] : files_) {
      (void)bytes;
      if (path.rfind(prefix, 0) != 0) continue;
      const std::string rest = path.substr(prefix.size());
      if (!rest.empty() && rest.find('/') == std::string::npos) {
        out->push_back(rest);
      }
    }
    return Status::OK();
  }

  /// Seeds `path` with raw bytes (the fuzzer input).
  void SetFile(const std::string& path, std::string bytes) {
    files_[path] = std::move(bytes);
  }

 private:
  class MemWritableFile : public storage::WritableFile {
   public:
    explicit MemWritableFile(std::string* target) : target_(target) {}

    Status Append(const std::string& data) override {
      target_->append(data);
      return Status::OK();
    }
    Status Sync() override { return Status::OK(); }
    Status Close() override { return Status::OK(); }

   private:
    std::string* target_;
  };

  /// Reads the live buffer by path on every call, so it sees bytes
  /// appended after it was opened (and a removed file reads as NotFound).
  class MemRandomAccessFile : public storage::RandomAccessFile {
   public:
    MemRandomAccessFile(const std::map<std::string, std::string>* files,
                        std::string path)
        : files_(files), path_(std::move(path)) {}

    Status Read(uint64_t offset, size_t n, std::string* out) const override {
      auto it = files_->find(path_);
      if (it == files_->end()) return Status::NotFound(path_);
      const std::string& bytes = it->second;
      if (offset > bytes.size() || bytes.size() - offset < n) {
        return Status::OutOfRange("short read " + path_);
      }
      out->assign(bytes, offset, n);
      return Status::OK();
    }

   private:
    const std::map<std::string, std::string>* files_;
    std::string path_;
  };

  std::map<std::string, std::string> files_;
};

}  // namespace hygraph::fuzz

#endif  // HYGRAPH_FUZZ_MEM_ENV_H_
