#include "obs/training_logger.hpp"

#include "util/json.hpp"

namespace qrc::obs {

TrainingLogger::TrainingLogger(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "w");
}

TrainingLogger::~TrainingLogger() {
  if (file_ != nullptr) std::fclose(file_);
}

void TrainingLogger::write(
    const std::vector<std::pair<std::string, double>>& fields) {
  if (file_ == nullptr) return;
  std::string line;
  line.reserve(32 * fields.size());
  line += '{';
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) line += ',';
    first = false;
    line += util::json_quote(key);
    line += ':';
    line += util::json_number(value);
  }
  line += "}\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  ++records_;
}

}  // namespace qrc::obs
