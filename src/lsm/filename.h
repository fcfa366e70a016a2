// File naming for everything in a DB directory:
//   {number}.sst            table file (local tier)
//   {number}.log            legacy single-file WAL (replayed, never written)
//   ewal-{number}-{k}.log   eWAL segment k of log `number`
//   MANIFEST-{number}       version log
//   CURRENT                 points at current MANIFEST
//   {number}.tmp            staging
// Cloud object keys use the same basename under a bucket prefix.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "util/slice.h"

namespace rocksmash {

enum class FileType {
  kLogFile,
  kEWalFile,
  kTableFile,
  kDescriptorFile,
  kCurrentFile,
  kTempFile,
  kUnknown,
};

inline std::string MakeFileName(const std::string& dbname, uint64_t number,
                                const char* suffix) {
  char buf[100];
  std::snprintf(buf, sizeof(buf), "/%06llu.%s",
                static_cast<unsigned long long>(number), suffix);
  return dbname + buf;
}

inline std::string TableFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "sst");
}

inline std::string LogFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "log");
}

inline std::string EWalFileName(const std::string& dbname, uint64_t number,
                                int segment) {
  char buf[100];
  std::snprintf(buf, sizeof(buf), "/ewal-%06llu-%03d.log",
                static_cast<unsigned long long>(number), segment);
  return dbname + buf;
}

inline std::string DescriptorFileName(const std::string& dbname,
                                      uint64_t number) {
  char buf[100];
  std::snprintf(buf, sizeof(buf), "/MANIFEST-%06llu",
                static_cast<unsigned long long>(number));
  return dbname + buf;
}

inline std::string CurrentFileName(const std::string& dbname) {
  return dbname + "/CURRENT";
}

inline std::string TempFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "tmp");
}

// Cloud object key for a table file (no leading slash; buckets are flat).
inline std::string CloudTableKey(const std::string& bucket_prefix,
                                 uint64_t number) {
  char buf[100];
  std::snprintf(buf, sizeof(buf), "%06llu.sst",
                static_cast<unsigned long long>(number));
  return bucket_prefix.empty() ? std::string(buf) : bucket_prefix + "/" + buf;
}

// Parses a basename (no directory); sets *number and *type.
inline bool ParseFileName(const std::string& filename, uint64_t* number,
                          FileType* type) {
  Slice rest(filename);
  if (rest == Slice("CURRENT")) {
    *number = 0;
    *type = FileType::kCurrentFile;
    return true;
  }
  if (rest.starts_with("MANIFEST-")) {
    rest.remove_prefix(strlen("MANIFEST-"));
    uint64_t num = 0;
    if (rest.empty()) return false;
    for (size_t i = 0; i < rest.size(); i++) {
      char c = rest[i];
      if (c < '0' || c > '9') return false;
      num = num * 10 + (c - '0');
    }
    *number = num;
    *type = FileType::kDescriptorFile;
    return true;
  }
  if (rest.starts_with("ewal-")) {
    rest.remove_prefix(strlen("ewal-"));
    uint64_t num = 0;
    size_t i = 0;
    for (; i < rest.size() && rest[i] != '-'; i++) {
      char c = rest[i];
      if (c < '0' || c > '9') return false;
      num = num * 10 + (c - '0');
    }
    *number = num;
    *type = FileType::kEWalFile;
    return true;
  }
  // {number}.{suffix}
  uint64_t num = 0;
  size_t i = 0;
  for (; i < rest.size() && rest[i] != '.'; i++) {
    char c = rest[i];
    if (c < '0' || c > '9') return false;
    num = num * 10 + (c - '0');
  }
  if (i == 0 || i >= rest.size()) return false;
  Slice suffix(rest.data() + i, rest.size() - i);
  if (suffix == Slice(".log")) {
    *type = FileType::kLogFile;
  } else if (suffix == Slice(".sst")) {
    *type = FileType::kTableFile;
  } else if (suffix == Slice(".tmp")) {
    *type = FileType::kTempFile;
  } else {
    return false;
  }
  *number = num;
  return true;
}

// Parses "ewal-NNNNNN-KKK.log"; returns log number and segment index.
inline bool ParseEWalFileName(const std::string& filename, uint64_t* number,
                              int* segment) {
  if (filename.rfind("ewal-", 0) != 0) return false;
  unsigned long long num;
  int seg;
  if (std::sscanf(filename.c_str(), "ewal-%llu-%d.log", &num, &seg) != 2) {
    return false;
  }
  *number = num;
  *segment = seg;
  return true;
}

}  // namespace rocksmash
