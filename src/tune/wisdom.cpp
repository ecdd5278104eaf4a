#include "tune/wisdom.h"

#include <cstdio>
#include <mutex>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "fault/fault.h"

namespace bwfft::tune {

namespace {

int level_rank(TuneLevel level) { return static_cast<int>(level); }

const char* dir_name(Direction d) {
  return d == Direction::Forward ? "forward" : "inverse";
}

bool dir_from_name(const std::string& s, Direction* out) {
  if (s == "forward") {
    *out = Direction::Forward;
    return true;
  }
  if (s == "inverse") {
    *out = Direction::Inverse;
    return true;
  }
  return false;
}

/// Deeper wisdom wins: higher tune level, then faster measured time.
bool better_than(const WisdomEntry& a, const WisdomEntry& b) {
  if (level_rank(a.level) != level_rank(b.level)) {
    return level_rank(a.level) > level_rank(b.level);
  }
  if (a.seconds > 0.0 && b.seconds > 0.0) return a.seconds < b.seconds;
  return a.seconds > 0.0 && b.seconds <= 0.0;
}

bool entry_from_json(const Json& j, WisdomEntry* out) {
  if (!j.is_object()) return false;
  WisdomEntry e;
  const Json* dims = j.find("dims");
  if (!dims || !dims->is_array() || dims->size() < 1 || dims->size() > 3) {
    return false;
  }
  for (std::size_t i = 0; i < dims->size(); ++i) {
    if (!(*dims)[i].is_number() || (*dims)[i].as_int() < 1) return false;
    e.dims.push_back(static_cast<idx_t>((*dims)[i].as_int()));
  }
  const Json* dir = j.find("dir");
  if (!dir || !dir->is_string() || !dir_from_name(dir->as_string(), &e.dir)) {
    return false;
  }
  const Json* fp = j.find("fingerprint");
  if (!fp || !fp->is_string() || fp->as_string().empty()) return false;
  e.fingerprint = fp->as_string();
  const Json* engine = j.find("engine");
  if (!engine || !engine->is_string() ||
      !engine_kind_from_name(engine->as_string(), &e.config.engine) ||
      e.config.engine == EngineKind::Auto) {
    return false;
  }
  const Json* ct = j.find("compute_threads");
  if (!ct || !ct->is_number() || ct->as_int() < -1) return false;
  e.config.compute_threads = static_cast<int>(ct->as_int());
  const Json* block = j.find("block_elems");
  if (!block || !block->is_number() || block->as_int() < 0) return false;
  e.config.block_elems = static_cast<idx_t>(block->as_int());
  const Json* mu = j.find("packet_elems");
  if (!mu || !mu->is_number() || mu->as_int() < 0) return false;
  e.config.packet_elems = static_cast<idx_t>(mu->as_int());
  const Json* nt = j.find("nontemporal");
  if (!nt || !nt->is_bool()) return false;
  e.config.nontemporal = nt->as_bool();
  // Optional (absent in pre-1D wisdom files): missing means the
  // default split (0).
  if (const Json* f1 = j.find("factor_n1")) {
    if (!f1->is_number() || f1->as_int() < 0) return false;
    e.config.factor_n1 = static_cast<idx_t>(f1->as_int());
  }
  // Optional (absent in pre-ISA wisdom files): missing means Auto.
  if (const Json* isa = j.find("isa")) {
    if (!isa->is_string() ||
        !kernels::isa_from_name(isa->as_string(), &e.config.isa)) {
      return false;
    }
  }
  const Json* seconds = j.find("seconds");
  if (!seconds || !seconds->is_number() || seconds->as_double() < 0.0) {
    return false;
  }
  e.seconds = seconds->as_double();
  const Json* level = j.find("level");
  if (!level || !level->is_string() ||
      !tune_level_from_name(level->as_string(), &e.level)) {
    return false;
  }
  *out = std::move(e);
  return true;
}

}  // namespace

std::string topology_fingerprint(const MachineTopology& topo) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "s%dc%dt%dllc%zu", topo.sockets,
                topo.cores_per_socket, topo.smt_per_core, topo.llc_bytes);
  return buf;
}

std::string Wisdom::key(const std::vector<idx_t>& dims, Direction dir,
                        const std::string& fingerprint) {
  std::string k;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    k += (i ? "x" : "") + std::to_string(dims[i]);
  }
  k += dir == Direction::Forward ? ":f:" : ":i:";
  k += fingerprint;
  return k;
}

const WisdomEntry* Wisdom::lookup(const std::vector<idx_t>& dims,
                                  Direction dir,
                                  const std::string& fingerprint) const {
  const auto it = entries_.find(key(dims, dir, fingerprint));
  return it == entries_.end() ? nullptr : &it->second;
}

void Wisdom::record(const WisdomEntry& entry) {
  const std::string k = key(entry.dims, entry.dir, entry.fingerprint);
  const auto it = entries_.find(k);
  if (it == entries_.end() || better_than(entry, it->second)) {
    entries_[k] = entry;
  }
}

void Wisdom::merge(const Wisdom& other) {
  for (const auto& [k, entry] : other.entries_) record(entry);
}

Json Wisdom::to_json() const {
  Json doc = Json::object();
  doc.set("schema", kWisdomSchemaName);
  Json entries = Json::array();
  for (const auto& [k, e] : entries_) {
    Json j = Json::object();
    Json dims = Json::array();
    for (idx_t d : e.dims) dims.push_back(static_cast<std::int64_t>(d));
    j.set("dims", std::move(dims));
    j.set("dir", dir_name(e.dir));
    j.set("fingerprint", e.fingerprint);
    j.set("engine", engine_name(e.config.engine));
    j.set("compute_threads", static_cast<std::int64_t>(e.config.compute_threads));
    j.set("block_elems", static_cast<std::int64_t>(e.config.block_elems));
    j.set("packet_elems", static_cast<std::int64_t>(e.config.packet_elems));
    j.set("nontemporal", e.config.nontemporal);
    j.set("factor_n1", static_cast<std::int64_t>(e.config.factor_n1));
    j.set("isa", kernels::isa_name(e.config.isa));
    j.set("seconds", e.seconds);
    j.set("level", tune_level_name(e.level));
    entries.push_back(std::move(j));
  }
  doc.set("entries", std::move(entries));
  return doc;
}

bool Wisdom::from_json(const Json& doc, std::string* err, int* skipped) {
  if (!doc.is_object()) {
    if (err) *err = "wisdom document is not an object";
    return false;
  }
  const Json* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != kWisdomSchemaName) {
    if (err) {
      *err = std::string("wisdom schema must be \"") + kWisdomSchemaName +
             "\"";
    }
    return false;
  }
  const Json* entries = doc.find("entries");
  if (!entries || !entries->is_array()) {
    if (err) *err = "wisdom 'entries' must be an array";
    return false;
  }
  int dropped = 0;
  for (std::size_t i = 0; i < entries->size(); ++i) {
    WisdomEntry e;
    if (entry_from_json((*entries)[i], &e)) {
      record(e);
    } else {
      ++dropped;  // one corrupt entry must not poison the rest
    }
  }
  if (skipped) *skipped = dropped;
  if (err) err->clear();
  return true;
}

bool Wisdom::load_file(const std::string& path, std::string* err,
                       int* skipped) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[1 << 14];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    if (err) *err = "read error on " + path;
    return false;
  }
  if (BWFFT_FAULT_POINT(fault::kSiteWisdomCorrupt)) {
    // Injected on-disk corruption: truncate mid-document, as a torn
    // write from a crashed process without the atomic-rename path would.
    text.resize(text.size() / 2);
  }
  std::string parse_err;
  const Json doc = Json::parse(text, &parse_err);
  if (doc.is_null() && !parse_err.empty()) {
    if (err) *err = path + ": " + parse_err;
    return false;
  }
  if (!from_json(doc, err, skipped)) {
    if (err) *err = path + ": " + *err;
    return false;
  }
  return true;
}

bool Wisdom::save_file(const std::string& path, std::string* err) const {
  // Crash-safe: write `<path>.tmp`, flush it to disk, then atomically
  // rename over the destination. A crash between any two steps leaves
  // either the previous file or a stray .tmp — never a half-written
  // document at `path` itself.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    if (err) *err = "cannot write " + tmp;
    return false;
  }
  const std::string text = to_json().dump(2) + "\n";
  std::size_t want = text.size();
  const bool torn = BWFFT_FAULT_POINT(fault::kSiteWisdomTorn);
  if (torn) want /= 2;  // simulate a crash mid-write of the temp file
  bool ok = std::fwrite(text.data(), 1, want, f) == want;
  if (ok && !torn) {
    ok = std::fflush(f) == 0;
#ifndef _WIN32
    if (ok) ok = ::fsync(::fileno(f)) == 0;
#endif
  }
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed || torn) {
    // A real short write cleans up; the injected tear simulates a crash
    // and leaves the partial .tmp behind — loaders never look at it.
    if (!torn) std::remove(tmp.c_str());
    if (err) {
      *err = torn ? "injected torn write to " + tmp
                  : "short write to " + tmp;
    }
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (err) *err = "cannot rename " + tmp + " over " + path;
    return false;
  }
  return true;
}

bool load_wisdom_file_guarded(Wisdom* store, const std::string& path,
                              std::string* err, int* skipped) {
  // Probe first so a merely missing file is not treated as corruption.
  std::FILE* probe = std::fopen(path.c_str(), "rb");
  if (!probe) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::fclose(probe);
  if (store->load_file(path, err, skipped)) return true;
  // The file exists but does not parse as wisdom: quarantine it so the
  // next run starts clean and re-tunes instead of tripping over it again.
  const std::string quarantine = path + ".corrupt";
  std::remove(quarantine.c_str());
  std::rename(path.c_str(), quarantine.c_str());
  fault::note_degrade("corrupt wisdom file quarantined; planner re-tunes");
  if (err) *err += " (quarantined to " + quarantine + ")";
  return false;
}

// ---------------------------------------------------------------------------
// Process-wide store

namespace {

struct GlobalWisdom {
  std::mutex mu;
  Wisdom wisdom;
};

GlobalWisdom& global_store() {
  static GlobalWisdom* g = new GlobalWisdom;  // leaked: usable at exit
  return *g;
}

}  // namespace

bool global_wisdom_lookup(const std::vector<idx_t>& dims, Direction dir,
                          const std::string& fingerprint, WisdomEntry* out) {
  GlobalWisdom& g = global_store();
  std::lock_guard<std::mutex> lk(g.mu);
  const WisdomEntry* e = g.wisdom.lookup(dims, dir, fingerprint);
  if (!e) return false;
  if (out) *out = *e;
  return true;
}

void global_wisdom_record(const WisdomEntry& entry) {
  GlobalWisdom& g = global_store();
  std::lock_guard<std::mutex> lk(g.mu);
  g.wisdom.record(entry);
}

void global_wisdom_merge(const Wisdom& other) {
  GlobalWisdom& g = global_store();
  std::lock_guard<std::mutex> lk(g.mu);
  g.wisdom.merge(other);
}

Wisdom global_wisdom_snapshot() {
  GlobalWisdom& g = global_store();
  std::lock_guard<std::mutex> lk(g.mu);
  return g.wisdom;
}

void global_wisdom_clear() {
  GlobalWisdom& g = global_store();
  std::lock_guard<std::mutex> lk(g.mu);
  g.wisdom.clear();
}

}  // namespace bwfft::tune
