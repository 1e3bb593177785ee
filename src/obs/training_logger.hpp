/// \file training_logger.hpp
/// \brief Streams one JSON object per line (JSONL) to a file — the
///        training-curve sink behind `qrc train --log-jsonl PATH`. Each
///        record is a flat map of numeric fields, written and flushed
///        immediately so curves are tail-able while training runs and
///        survive a crash mid-run.
///
/// Deliberately generic (field name -> double) so obs does not depend on
/// rl: the CLI flattens PpoUpdateStats into fields at the call site via
/// the existing training progress callback. The writer is purely an
/// observer — it never feeds anything back into training, which is what
/// keeps `--log-jsonl` bitwise-invisible to the trained weights.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace qrc::obs {

class TrainingLogger {
 public:
  /// Opens (truncates) `path`. Check ok() before relying on records
  /// landing anywhere.
  explicit TrainingLogger(const std::string& path);
  ~TrainingLogger();
  TrainingLogger(const TrainingLogger&) = delete;
  TrainingLogger& operator=(const TrainingLogger&) = delete;

  [[nodiscard]] bool ok() const { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t records() const { return records_; }

  /// Writes `{"k1":v1,...}` + newline and flushes. Values render through
  /// util::json_number: integers without a fraction, everything else with
  /// round-trip precision, NaN and infinity as null.
  void write(const std::vector<std::pair<std::string, double>>& fields);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::size_t records_ = 0;
};

}  // namespace qrc::obs
