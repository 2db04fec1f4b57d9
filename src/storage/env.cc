#include "storage/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

namespace hygraph::storage {

WritableFile::~WritableFile() = default;
RandomAccessFile::~RandomAccessFile() = default;
Env::~Env() = default;

namespace {

Status ErrnoStatus(const std::string& context, int err) {
  return Status::IOError(context + ": " + std::strerror(err));
}

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(const std::string& data) override {
    if (file_ == nullptr) return Status::IOError(path_ + ": file is closed");
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return ErrnoStatus("write " + path_, errno);
    }
    // The contract says appended bytes live in the OS (visible to any
    // reader, lost only on power failure) — stdio's userspace buffer
    // would hide a just-spilled segment frame from a positioned read
    // until the next Sync, so hand the bytes to the kernel here.
    if (std::fflush(file_) != 0) return ErrnoStatus("flush " + path_, errno);
    return Status::OK();
  }

  Status Sync() override {
    if (file_ == nullptr) return Status::IOError(path_ + ": file is closed");
    if (std::fflush(file_) != 0) return ErrnoStatus("flush " + path_, errno);
    if (::fsync(::fileno(file_)) != 0) {
      return ErrnoStatus("fsync " + path_, errno);
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    std::FILE* file = file_;
    file_ = nullptr;
    if (std::fclose(file) != 0) return ErrnoStatus("close " + path_, errno);
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

/// One descriptor for the handle's lifetime; pread keeps no file position,
/// so concurrent Reads need no lock.
class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }
  PosixRandomAccessFile(const PosixRandomAccessFile&) = delete;
  PosixRandomAccessFile& operator=(const PosixRandomAccessFile&) = delete;

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    constexpr uint64_t kMaxOffset =
        static_cast<uint64_t>(std::numeric_limits<off_t>::max());
    if (offset > kMaxOffset || n > kMaxOffset - offset) {
      return Status::OutOfRange("read " + path_ + " past any file end");
    }
    out->resize(n);
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::pread(fd_, out->data() + got, n - got,
                                static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("read " + path_, errno);
      }
      if (r == 0) {
        return Status::OutOfRange("short read " + path_ + " at offset " +
                                  std::to_string(offset));
      }
      got += static_cast<size_t>(r);
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv final : public Env {
 public:
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return ErrnoStatus("open " + path, errno);
    *file = std::make_unique<PosixWritableFile>(f, path);
    return Status::OK();
  }

  Status ReadFileToString(const std::string& path, std::string* out) override {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return ErrnoStatus("open " + path, errno);
    }
    out->clear();
    char buffer[1 << 16];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      out->append(buffer, n);
    }
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed) return Status::IOError("read " + path + " failed");
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return ErrnoStatus("open " + path, errno);
    }
    *file = std::make_unique<PosixRandomAccessFile>(fd, path);
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Result<uint64_t> GetFileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return ErrnoStatus("stat " + path, errno);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename " + from + " -> " + to, errno);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) {
      return ErrnoStatus("remove " + path, errno);
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("truncate " + path, errno);
    }
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
      return Status::OK();
    }
    return ErrnoStatus("mkdir " + path, errno);
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* out) override {
    out->clear();
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return ErrnoStatus("opendir " + dir, errno);
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      out->push_back(name);
    }
    ::closedir(d);
    return Status::OK();
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env =
      new PosixEnv();  // NOLINT(hygraph-naked-new): leaked singleton
  return env;
}

}  // namespace hygraph::storage
