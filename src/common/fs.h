// Crash-safe filesystem helpers for result files and coordination files.
//
// Every results JSON in this codebase (BENCH_*.json, campaign journals,
// CAMPAIGN_*.json, triage bundle.json) used to be written by streaming
// straight into the destination path — so a killed process could leave a
// *parseable prefix* behind, and two processes writing the same path could
// interleave. AtomicFileWriter closes that hole with the classic
// tmp-file + rename(2) commit protocol: content streams into a hidden
// sibling (".tmp-<name>.<pid>.<seq>", same directory so the rename never
// crosses a filesystem), and Commit() publishes it with
// std::filesystem::rename, which POSIX guarantees atomic. Readers observe
// either the old complete file or the new complete file, never a torn one.
// A writer destroyed without Commit() (exception unwind, early return)
// removes its temp file, so crashes leave at worst an orphaned dotfile
// that directory scans skip.
//
// CreateFileExclusive is the companion coordination primitive: an
// O_CREAT|O_EXCL create, the one filesystem operation where exactly one of
// N racing processes wins. The campaign claim protocol (exp/runner.h)
// builds its cell-claim files on it.
#pragma once

#include <fstream>
#include <optional>
#include <string>

namespace clover {

class AtomicFileWriter {
 public:
  // Opens the temp sibling of `path`. Check good() (or let Commit's CHECK
  // fire) before trusting the stream.
  explicit AtomicFileWriter(const std::string& path);

  // Removes the temp file when Commit() was never reached.
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  std::ostream& stream() { return out_; }
  bool good() const { return out_.good(); }
  const std::string& temp_path() const { return tmp_path_; }

  // Flushes, closes and renames the temp file onto the destination.
  // Throws CheckError when the stream went bad or the rename fails; the
  // destination is untouched in that case.
  void Commit();

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool committed_ = false;
};

// Creates `path` with O_CREAT|O_EXCL and writes `content` into it.
// Returns true iff this call created the file: of N concurrent callers
// exactly one wins, which is what makes it usable as a lock file. Returns
// false when the file already exists; throws CheckError on any other
// failure (missing directory, permissions).
bool CreateFileExclusive(const std::string& path, const std::string& content);

// Whole-file read; nullopt when the file cannot be opened or read.
std::optional<std::string> ReadFileToString(const std::string& path);

}  // namespace clover
