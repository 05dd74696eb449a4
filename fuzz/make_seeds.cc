// make_seeds: writes valid seed corpora for the three fuzz harnesses.
//
//   make_seeds <corpus-root>
//
// produces <root>/wal/*, <root>/page/*, <root>/index/* using the real
// writers (WriteAheadLog, PageFile, DiskC2lshIndex), so every seed starts
// from a format-correct file — the mutation engine then tears, flips, and
// splices from there. Each target also gets a deliberately truncated variant,
// since truncation is the crash case these parsers were built for and blind
// mutation reaches mid-file truncations only slowly.
//
// Regenerated by the check.sh fuzz lane on every run (cheap, deterministic),
// so no binary blobs live in the repository.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/mem_env.h"
#include "src/core/disk_index.h"
#include "src/storage/page_file.h"
#include "src/storage/wal.h"
#include "src/vector/dataset.h"
#include "src/vector/matrix.h"

namespace {

namespace fs = std::filesystem;
using c2lsh::Status;

int Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "make_seeds: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  return 1;
}

// Copies `src` truncated to `keep` bytes — a synthetic torn tail.
void WriteTruncated(const fs::path& src, const fs::path& dst, size_t keep) {
  std::ifstream in(src, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.size() > keep) bytes.resize(keep);
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

int MakeWalSeeds(const fs::path& dir) {
  const std::string path = (dir / "seed_records").string();
  auto wal = c2lsh::WriteAheadLog::Open(path);
  if (!wal.ok()) return Die("wal open", wal.status());
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
    c2lsh::WriteAheadLog::Record rec;
    rec.lsn = lsn;
    rec.type = c2lsh::WriteAheadLog::RecordType::kInsert;
    rec.id = static_cast<c2lsh::ObjectId>(100 + lsn);
    rec.vec = {1.0f, 2.0f, float(lsn), 4.0f};
    if (Status s = wal.value().Append(rec); !s.ok()) return Die("append", s);
  }
  c2lsh::WriteAheadLog::Record del;
  del.lsn = 4;
  del.type = c2lsh::WriteAheadLog::RecordType::kDelete;
  del.id = 101;
  if (Status s = wal.value().Append(del); !s.ok()) return Die("append", s);
  if (Status s = wal.value().Sync(); !s.ok()) return Die("sync", s);

  const uint64_t valid = wal.value().size_bytes();
  WriteTruncated(path, dir / "seed_header_only", 16);
  WriteTruncated(path, dir / "seed_torn_tail", valid - 3);
  return 0;
}

int MakePageSeeds(const fs::path& dir) {
  const std::string path = (dir / "seed_3pages").string();
  auto pf = c2lsh::PageFile::Create(path, /*page_bytes=*/128);
  if (!pf.ok()) return Die("page create", pf.status());
  std::vector<uint8_t> page(pf.value().page_bytes());
  for (int p = 0; p < 3; ++p) {
    auto id = pf.value().AllocatePage();
    if (!id.ok()) return Die("alloc", id.status());
    for (size_t i = 0; i < page.size(); ++i) {
      page[i] = static_cast<uint8_t>(i + static_cast<size_t>(p));
    }
    if (Status s = pf.value().WritePage(id.value(), page.data()); !s.ok()) {
      return Die("write page", s);
    }
  }
  pf.value().SetUserRoot(2);
  if (Status s = pf.value().Sync(); !s.ok()) return Die("page sync", s);

  WriteTruncated(path, dir / "seed_one_slot", 256);  // second header slot gone
  WriteTruncated(path, dir / "seed_torn_page",
                 fs::file_size(path) - 40);  // last page torn mid-footer
  return 0;
}

// The bytes of `path` in `env`.
std::vector<uint8_t> FileBytes(c2lsh::Env* env, const std::string& path) {
  std::vector<uint8_t> bytes;
  auto f = env->OpenFile(path);
  if (!f.ok()) return bytes;
  auto size = f.value()->Size();
  if (!size.ok()) return bytes;
  bytes.resize(size.value());
  size_t got = 0;
  if (!f.value()->ReadAt(0, bytes.data(), bytes.size(), &got).ok()) got = 0;
  bytes.resize(got);
  return bytes;
}

// Writes one index_open_fuzz input: [u64 page-file length][page file][WAL].
void WriteIndexSeed(c2lsh::Env* env, const std::string& path, const fs::path& dst) {
  const std::vector<uint8_t> file = FileBytes(env, path);
  const std::vector<uint8_t> wal = FileBytes(env, path + ".wal");
  const uint64_t len = file.size();
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(&len), sizeof(len));
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
  out.write(reinterpret_cast<const char*>(wal.data()),
            static_cast<std::streamsize>(wal.size()));
}

// Two small index files: one compacted (empty WAL), one with an uncompacted
// WAL tail of inserts and deletes that Open replays into the overlays.
int MakeIndexSeeds(const fs::path& dir) {
  std::vector<float> coords;
  for (int i = 0; i < 10 * 4; ++i) {
    coords.push_back(static_cast<float>(i % 7) - 3.0f);
  }
  auto mat = c2lsh::FloatMatrix::FromVector(10, 4, std::move(coords));
  if (!mat.ok()) return Die("matrix", mat.status());
  auto data = c2lsh::Dataset::Create("seed", std::move(mat).value());
  if (!data.ok()) return Die("dataset", data.status());
  c2lsh::C2lshOptions options;
  options.w = 4.0;
  options.page_bytes = 256;  // small pages keep each seed a few KiB

  c2lsh::fuzz::MemEnv env;
  for (const bool compact : {true, false}) {
    auto index = c2lsh::DiskC2lshIndex::Build(data.value(), options, "index",
                                              /*pool_pages=*/16,
                                              /*store_vectors=*/false, &env);
    if (!index.ok()) return Die("build", index.status());
    if (Status s = index->Insert(10, data->object(3)); !s.ok()) return Die("insert", s);
    if (Status s = index->Delete(2); !s.ok()) return Die("delete", s);
    if (Status s = index->Delete(10); !s.ok()) return Die("delete", s);
    if (compact) {
      if (Status s = index->Compact(); !s.ok()) return Die("compact", s);
    }
    WriteIndexSeed(&env, "index", dir / (compact ? "seed_compacted" : "seed_wal_tail"));
  }
  const fs::path tail = dir / "seed_wal_tail";
  WriteTruncated(tail, dir / "seed_wal_torn", fs::file_size(tail) - 3);
  WriteTruncated(tail, dir / "seed_truncated", fs::file_size(tail) / 2);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_seeds <corpus-root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  for (const char* sub : {"wal", "page", "index"}) {
    std::error_code ec;
    fs::create_directories(root / sub, ec);
    if (ec) {
      std::fprintf(stderr, "make_seeds: mkdir %s: %s\n",
                   (root / sub).string().c_str(), ec.message().c_str());
      return 1;
    }
  }
  if (int rc = MakeWalSeeds(root / "wal"); rc != 0) return rc;
  if (int rc = MakePageSeeds(root / "page"); rc != 0) return rc;
  if (int rc = MakeIndexSeeds(root / "index"); rc != 0) return rc;
  std::printf("seed corpora written under %s\n", root.string().c_str());
  return 0;
}
