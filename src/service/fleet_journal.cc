#include "src/service/fleet_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/common/fault_injection.h"
#include "src/common/json_fields.h"
#include "src/common/json_parser.h"

namespace maya {
namespace {

constexpr const char* kJournalFile = "journal.ndjson";
constexpr const char* kCheckpointPointer = "CHECKPOINT";
constexpr const char* kCheckpointPrefix = "checkpoint_";

std::string JoinPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

Status FsyncOrRollback(int fd) {
  if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
    return Status::Internal(std::string("journal fsync failed: ") + std::strerror(errno));
  }
  return Status::Ok();
}

// Durability for directory entries: the rename that published a file is only
// crash-safe once the parent directory itself is fsync'd.
void FsyncDirBestEffort(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return;
  }
  ::fsync(fd);
  ::close(fd);
}

// EINTR-safe full write.
bool WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

const char* JournalOpName(FleetJournalRecord::Op op) {
  return op == FleetJournalRecord::Op::kAdd ? "add" : "remove";
}
constexpr FleetJournalRecord::Op kJournalOps[] = {FleetJournalRecord::Op::kAdd,
                                                  FleetJournalRecord::Op::kRemove};

// The CHECKPOINT pointer: the live checkpoint bundle and the last journal
// seq it covers.
struct CheckpointPointer {
  std::string dir;
  uint64_t last_seq = 0;
  uint64_t index = 0;
};

template <class V>
void Fields(V& v, CheckpointPointer& pointer) {
  v("dir", pointer.dir);
  v("last_seq", pointer.last_seq);
  v("index", pointer.index);
}

// Atomic durable publish of a small file: tmp + fsync + rename + dir fsync.
Status PublishFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("open failed for " + tmp + ": " + std::strerror(errno));
  }
  if (!WriteAll(fd, contents.data(), contents.size())) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("write failed for " + tmp + ": " + std::strerror(saved));
  }
  const Status synced = FsyncOrRollback(fd);
  ::close(fd);
  if (!synced.ok()) {
    ::unlink(tmp.c_str());
    return synced;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    ::unlink(tmp.c_str());
    return Status::Internal("rename failed for " + path + ": " + ec.message());
  }
  FsyncDirBestEffort(std::filesystem::path(path).parent_path().string());
  return Status::Ok();
}

}  // namespace

// An add carries the AddDeploymentPayload it replays; a remove only a name.
template <class V>
void Fields(V& v, FleetJournalRecord& record) {
  v("seq", record.seq);
  v.Enum("op", record.op, JournalOpName, kJournalOps);
  v("name", record.name);
  if (record.op == FleetJournalRecord::Op::kAdd) {
    v("cluster", record.cluster);
    v("sweep", record.sweep);
    v("bundle_dir", record.bundle_dir);
  }
}

FleetJournal::FleetJournal(std::string state_dir, FleetJournalOptions options)
    : state_dir_(std::move(state_dir)), options_(options) {}

FleetJournal::~FleetJournal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status FleetJournal::Open() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (open_) {
    return Status::FailedPrecondition("journal already open");
  }
  std::error_code ec;
  std::filesystem::create_directories(state_dir_, ec);
  if (ec) {
    return Status::Internal("cannot create state dir " + state_dir_ + ": " + ec.message());
  }

  // --- Checkpoint pointer: the pointer is published atomically, so it
  // either names a complete bundle or does not parse / does not exist.
  plan_ = FleetRecoveryPlan();
  if (std::ifstream pointer(JoinPath(state_dir_, kCheckpointPointer)); pointer.good()) {
    std::stringstream buffer;
    buffer << pointer.rdbuf();
    Result<JsonValue> parsed = ParseJson(buffer.str());
    CheckpointPointer checkpoint;
    if (parsed.ok() && ReadJsonFields(*parsed, checkpoint).ok()) {
      const std::string full = JoinPath(state_dir_, checkpoint.dir);
      // A pointer naming a missing/manifest-less bundle (external damage)
      // degrades to journal-only recovery rather than failing startup.
      if (ArtifactStore(full).Exists()) {
        plan_.has_checkpoint = true;
        plan_.checkpoint_dir = full;
        plan_.checkpoint_seq = checkpoint.last_seq;
        checkpoint_index_ = checkpoint.index;
      }
    }
  }

  // --- Journal: scan line by line, keeping the longest valid prefix. A
  // trailing fragment without '\n', or a line that fails to parse, marks the
  // torn tail — everything from there on was never acknowledged, so it is
  // dropped and the file truncated back to the valid prefix.
  const std::string journal_path = JoinPath(state_dir_, kJournalFile);
  std::vector<FleetJournalRecord> records;
  uint64_t valid_bytes = 0;
  bool torn = false;
  if (std::ifstream in(journal_path, std::ios::binary); in.good()) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string contents = buffer.str();
    size_t pos = 0;
    while (pos < contents.size()) {
      const size_t newline = contents.find('\n', pos);
      if (newline == std::string::npos) {
        torn = true;  // partial final record: the crash landed mid-append
        break;
      }
      Result<JsonValue> line = ParseJson(contents.substr(pos, newline - pos));
      Result<FleetJournalRecord> record =
          line.ok() ? ReadJsonFields<FleetJournalRecord>(*line) : line.status();
      if (!record.ok()) {
        torn = true;  // corrupt line: drop it and everything after
        break;
      }
      records.push_back(*std::move(record));
      pos = newline + 1;
      valid_bytes = pos;
    }
    if (torn) {
      ++plan_.torn_records_dropped;
      std::error_code resize_ec;
      std::filesystem::resize_file(journal_path, valid_bytes, resize_ec);
      if (resize_ec) {
        return Status::Internal("cannot repair torn journal tail: " + resize_ec.message());
      }
    }
  }

  uint64_t max_seq = plan_.checkpoint_seq;
  for (FleetJournalRecord& record : records) {
    max_seq = std::max(max_seq, record.seq);
    if (record.seq > plan_.checkpoint_seq) {
      plan_.replay.push_back(std::move(record));
    }
  }
  next_seq_ = max_seq + 1;
  lag_ = plan_.replay.size();

  fd_ = ::open(journal_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    return Status::Internal("cannot open journal " + journal_path + ": " +
                            std::strerror(errno));
  }
  file_size_ = valid_bytes;
  open_ = true;
  return Status::Ok();
}

Status FleetJournal::AppendRecord(const FleetJournalRecord& record) {
  const std::string line = WriteJsonFields(record) + "\n";
  const auto rollback = [this] {
    // A failed append must leave the journal exactly as it was: truncate any
    // partial bytes back to the pre-append length.
    ::ftruncate(fd_, static_cast<off_t>(file_size_));
    ++append_failures_;
  };
  FaultInjection& faults = FaultInjection::Instance();
  // Torn-write fault: a prefix of the record lands on disk (as a real crash
  // mid-write would leave it), then the append fails and rolls back.
  if (Status torn_fault = faults.MaybeFail("journal.append_torn"); !torn_fault.ok()) {
    WriteAll(fd_, line.data(), line.size() / 2);
    rollback();
    return torn_fault;
  }
  if (!WriteAll(fd_, line.data(), line.size())) {
    const int saved = errno;
    rollback();
    return Status::Internal(std::string("journal write failed: ") + std::strerror(saved));
  }
  if (Status fsync_fault = faults.MaybeFail("journal.fsync"); !fsync_fault.ok()) {
    rollback();
    return fsync_fault;
  }
  if (Status synced = FsyncOrRollback(fd_); !synced.ok()) {
    rollback();
    return synced;
  }
  file_size_ += line.size();
  ++next_seq_;
  ++appends_;
  ++lag_;
  return Status::Ok();
}

Status FleetJournal::AppendAdd(const AddDeploymentPayload& payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) {
    return Status::FailedPrecondition("journal not open");
  }
  FleetJournalRecord record;
  record.seq = next_seq_;
  record.op = FleetJournalRecord::Op::kAdd;
  record.name = payload.name;
  record.cluster = payload.cluster;
  record.sweep = payload.sweep;
  record.bundle_dir = payload.bundle_dir;
  return AppendRecord(record);
}

Status FleetJournal::AppendRemove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) {
    return Status::FailedPrecondition("journal not open");
  }
  FleetJournalRecord record;
  record.seq = next_seq_;
  record.op = FleetJournalRecord::Op::kRemove;
  record.name = name;
  return AppendRecord(record);
}

bool FleetJournal::CheckpointDue() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_ && lag_ >= options_.checkpoint_every;
}

Status FleetJournal::Checkpoint(const DeploymentRegistry& registry,
                                const std::map<std::string, DeploymentUsage>& usage) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) {
    return Status::FailedPrecondition("journal not open");
  }
  // Everything journaled so far is covered: appends serialize on mutex_, so
  // no record with seq <= last_seq can land after the snapshot below. (A
  // deployment registered but not yet journaled may ALSO land in the bundle;
  // its journal record then replays as a benign already-resident no-op.)
  const uint64_t last_seq = next_seq_ - 1;
  const uint64_t index = checkpoint_index_ + 1;
  const std::string dir_name = kCheckpointPrefix + std::to_string(index);
  const std::string bundle_dir = JoinPath(state_dir_, dir_name);

  // Clear any stale partial bundle from a prior crashed/failed checkpoint.
  std::error_code ec;
  std::filesystem::remove_all(bundle_dir, ec);

  const auto fail = [this](Status status) {
    ++checkpoint_failures_;
    return status;
  };
  // The bundle's manifest is written last (ArtifactStore discipline): a
  // crash inside SaveRegistry leaves an unloadable directory, not a torn
  // checkpoint, and the pointer still names the previous one.
  if (Status saved = ArtifactStore(bundle_dir).SaveRegistry(registry, usage); !saved.ok()) {
    return fail(std::move(saved));
  }
  // Crash window between bundle write and pointer publish: the new bundle
  // exists but is unreferenced; recovery uses the old pointer + journal.
  if (Status partial = FaultInjection::Instance().MaybeFail("checkpoint.partial");
      !partial.ok()) {
    return fail(std::move(partial));
  }
  if (Status published = PublishFile(JoinPath(state_dir_, kCheckpointPointer),
                                     WriteJsonFields(CheckpointPointer{dir_name, last_seq, index}));
      !published.ok()) {
    return fail(std::move(published));
  }

  // The pointer publish is the commit point. Compaction below is best-effort
  // cleanup: a crash before it leaves stale records (seq <= last_seq) that
  // recovery filters out, and stale bundle dirs that the next checkpoint
  // clears.
  if (::ftruncate(fd_, 0) == 0) {
    file_size_ = 0;
    FsyncOrRollback(fd_);
  }
  for (const auto& entry : std::filesystem::directory_iterator(state_dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kCheckpointPrefix, 0) == 0 && name != dir_name) {
      std::error_code remove_ec;
      std::filesystem::remove_all(entry.path(), remove_ec);
    }
  }

  checkpoint_index_ = index;
  ++checkpoints_;
  lag_ = 0;
  has_checkpoint_time_ = true;
  last_checkpoint_time_ = std::chrono::steady_clock::now();
  return Status::Ok();
}

FleetJournalStats FleetJournal::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FleetJournalStats stats;
  stats.appends = appends_;
  stats.append_failures = append_failures_;
  stats.checkpoints = checkpoints_;
  stats.checkpoint_failures = checkpoint_failures_;
  stats.lag = lag_;
  if (has_checkpoint_time_) {
    stats.last_checkpoint_age_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      last_checkpoint_time_)
            .count();
  }
  stats.replayed_records = plan_.replay.size();
  stats.torn_records_dropped = plan_.torn_records_dropped;
  return stats;
}

}  // namespace maya
