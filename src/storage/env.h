#ifndef HYGRAPH_STORAGE_ENV_H_
#define HYGRAPH_STORAGE_ENV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace hygraph::storage {

/// A sequential output file. Append buffers into the OS, Sync makes the
/// appended bytes durable (fsync), Close flushes and releases the handle.
/// Data that was appended but never synced may be lost on a crash — the
/// FaultInjectionEnv models exactly that window.
///
/// Concurrency contract: implementations must tolerate ONE Sync() running
/// concurrently with Append() calls (the group-commit leader fsyncs the
/// WAL while other writers keep appending — DurableStore::SyncWal).
/// Bytes appended while such a Sync is in flight are not covered by it.
/// Close() is never concurrent with either (rotation drains the in-flight
/// sync first).
class WritableFile {
 public:
  virtual ~WritableFile();

  virtual Status Append(const std::string& data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// A file opened once for positioned reads. Read is const and safe to call
/// from many threads at once, and it sees bytes appended to the file after
/// the handle was opened (a cold-tier miss may read the segment file the
/// current checkpoint is still writing).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile();

  /// Reads `n` bytes at `offset` into `*out`. OutOfRange when the file ends
  /// before `offset + n` (a torn or truncated record).
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;
};

/// The filesystem abstraction the durability layer runs on (RocksDB-style).
/// Production code uses Env::Default() (POSIX); crash-consistency tests
/// substitute a FaultInjectionEnv that can fail or truncate at a chosen
/// operation count. Every durable artifact — WAL, snapshots, segment files,
/// catalogs — goes through this interface so the fault matrix covers all of
/// them (the `raw-file-io` lint keeps other file I/O out of src/).
class Env {
 public:
  virtual ~Env();

  /// The process-wide POSIX environment (never deleted).
  static Env* Default();

  /// Creates (or truncates) `path` for sequential writing.
  virtual Status NewWritableFile(const std::string& path,
                                 std::unique_ptr<WritableFile>* file) = 0;
  /// Reads the entire file into `*out`. NotFound when absent.
  virtual Status ReadFileToString(const std::string& path,
                                  std::string* out) = 0;
  /// Opens `path` for positioned reads. NotFound when absent.
  virtual Status NewRandomAccessFile(
      const std::string& path, std::unique_ptr<RandomAccessFile>* file) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<uint64_t> GetFileSize(const std::string& path) = 0;
  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  /// Truncates `path` to `size` bytes (used by WAL tail repair).
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
  virtual Status CreateDirIfMissing(const std::string& path) = 0;
  /// Plain entry names (no "."/".."), unsorted.
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* out) = 0;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_ENV_H_
