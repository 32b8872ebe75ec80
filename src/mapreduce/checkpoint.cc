#include "mapreduce/checkpoint.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "mapreduce/serde.h"

namespace progres {

namespace {

namespace fs = std::filesystem;

// A task's journal is a sequence of frames, one per persisted save:
//
//   "PRGC" magic | u32 version | u32 task | u64 sequence (1, 2, ...) |
//   u64 payload length | payload | u32 CRC32 over everything before it
//
// and the payload is the boundary's fixed fields (doubles as raw IEEE bits,
// so the round trip is exact), its counters (absolute), then two delta
// blobs: the outputs emitted and the driver-state growth since the previous
// frame. Little-endian fixed-width fields. A reader replays frames while
// each is whole, passes its CRC, and carries the expected task and
// sequence number; the first that does not ends the valid prefix.
constexpr char kMagic[4] = {'P', 'R', 'G', 'C'};
constexpr uint32_t kVersion = 2;
constexpr size_t kFrameHeader = sizeof(kMagic) + 2 * sizeof(uint32_t) +
                                2 * sizeof(uint64_t);

void AppendU32(std::string* out, uint32_t v) {
  char raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  out->append(raw, sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  char raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  out->append(raw, sizeof(v));
}

void AppendDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendBlob(std::string* out, std::string_view blob) {
  AppendU64(out, blob.size());
  out->append(blob.data(), blob.size());
}

// Bounds-checked sequential reader over a loaded journal frame.
struct FrameReader {
  std::string_view data;
  size_t pos = 0;
  bool ok = true;

  bool Raw(void* into, size_t n) {
    if (!ok || data.size() - pos < n) {
      ok = false;
      return false;
    }
    std::memcpy(into, data.data() + pos, n);
    pos += n;
    return true;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  double Double() {
    const uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string_view Blob() {
    const uint64_t n = U64();
    if (!ok || data.size() - pos < n) {
      ok = false;
      return {};
    }
    const std::string_view blob = data.substr(pos, n);
    pos += n;
    return blob;
  }
};

}  // namespace

void CheckpointStore::ConfigurePersistence(std::string dir, std::string tag,
                                           bool resume,
                                           int crash_after_saves) {
  dir_ = std::move(dir);
  tag_ = std::move(tag);
  resume_ = resume;
  crash_after_saves_ = crash_after_saves;
}

void CheckpointStore::SetStateCodec(StateEncodeFn encode,
                                    StateDecodeFn decode) {
  encode_state_ = std::move(encode);
  decode_state_ = std::move(decode);
}

void CheckpointStore::Reset(int num_tasks) {
  slots_.clear();
  slots_.resize(static_cast<size_t>(std::max(0, num_tasks)));
  persisted_saves_ = 0;
  corrupt_checkpoints_ = 0;
  if (!persistent() || !resume_) return;
  for (int t = 0; t < num_tasks; ++t) {
    TaskCheckpoint checkpoint;
    Slot& slot = slots_[static_cast<size_t>(t)];
    if (!LoadPersisted(t, &checkpoint, &slot)) continue;
    // Only the latest boundary is restored from disk; it is the one
    // recovery point the resumed timing model can rely on.
    slot.points.push_back(checkpoint.cost);
    slot.history.push_back(std::move(checkpoint));
    slot.preloaded = true;
  }
}

const TaskCheckpoint* CheckpointStore::Latest(int t) const {
  if (t < 0 || t >= num_tasks()) return nullptr;
  const Slot& slot = slots_[static_cast<size_t>(t)];
  return slot.history.empty() ? nullptr : &slot.history.back();
}

void CheckpointStore::Save(int t, TaskCheckpoint checkpoint) {
  if (t < 0 || t >= num_tasks()) return;
  Slot& slot = slots_[static_cast<size_t>(t)];
  const TaskCheckpoint* previous =
      slot.history.empty() ? nullptr : &slot.history.back();
  if (previous != nullptr && checkpoint.cost <= previous->cost) {
    return;  // re-crossing an already-saved boundary on a resumed attempt
  }
  if (persistent()) PersistSave(t, previous, checkpoint);
  // The outputs delta lives on in the journal; in memory only the
  // watermark (`outputs`) is needed.
  checkpoint.encoded_outputs = std::string();
  slot.points.push_back(checkpoint.cost);
  if (!keep_history_) slot.history.clear();
  slot.history.push_back(std::move(checkpoint));
  slot.preloaded = false;
  ++slot.saved;
}

const TaskCheckpoint* CheckpointStore::LatestAtOrBelow(int t,
                                                       double cost) const {
  if (t < 0 || t >= num_tasks()) return nullptr;
  const std::vector<TaskCheckpoint>& history =
      slots_[static_cast<size_t>(t)].history;
  // Ascending by cost (Save rejects non-advancing snapshots): the entry
  // before the first one above `cost` is the highest qualifying one.
  const auto above = std::upper_bound(
      history.begin(), history.end(), cost,
      [](double c, const TaskCheckpoint& ck) { return c < ck.cost; });
  return above == history.begin() ? nullptr : &*std::prev(above);
}

void CheckpointStore::NoteRestore(int t) {
  if (t < 0 || t >= num_tasks()) return;
  ++slots_[static_cast<size_t>(t)].restored;
}

bool CheckpointStore::Preloaded(int t) const {
  if (t < 0 || t >= num_tasks()) return false;
  return slots_[static_cast<size_t>(t)].preloaded;
}

const std::vector<double>& CheckpointStore::RecoveryPoints(int t) const {
  static const std::vector<double> kEmpty;
  if (t < 0 || t >= num_tasks()) return kEmpty;
  return slots_[static_cast<size_t>(t)].points;
}

int64_t CheckpointStore::saved() const {
  int64_t total = 0;
  for (const Slot& slot : slots_) total += slot.saved;
  return total;
}

int64_t CheckpointStore::restored() const {
  int64_t total = 0;
  for (const Slot& slot : slots_) total += slot.restored;
  return total;
}

void CheckpointStore::CleanupPersisted() {
  if (!persistent()) return;
  std::error_code ec;
  for (int t = 0; t < num_tasks(); ++t) {
    fs::remove(PersistPath(t), ec);
  }
}

std::string CheckpointStore::PersistPath(int t) const {
  return (fs::path(dir_) / (tag_ + "-task" + std::to_string(t) + ".ckpt"))
      .string();
}

void CheckpointStore::PersistSave(int t, const TaskCheckpoint* previous,
                                  const TaskCheckpoint& checkpoint) {
  Slot& slot = slots_[static_cast<size_t>(t)];
  if (slot.journal_failed) return;
  std::string payload;
  AppendDouble(&payload, checkpoint.cost);
  AppendU64(&payload, static_cast<uint64_t>(checkpoint.groups));
  AppendU64(&payload, static_cast<uint64_t>(checkpoint.records_in));
  AppendU64(&payload, static_cast<uint64_t>(checkpoint.pairs_out));
  AppendU64(&payload, static_cast<uint64_t>(checkpoint.outputs));
  AppendU64(&payload, checkpoint.counters.values().size());
  for (const auto& [name, value] : checkpoint.counters.values()) {
    AppendBlob(&payload, name);
    AppendU64(&payload, static_cast<uint64_t>(value));
  }
  AppendBlob(&payload, checkpoint.encoded_outputs);
  std::string state_delta;
  if (encode_state_ && checkpoint.driver_state != nullptr) {
    state_delta = encode_state_(
        t, previous != nullptr ? previous->driver_state.get() : nullptr,
        checkpoint.driver_state.get());
  }
  AppendBlob(&payload, state_delta);

  std::string frame(kMagic, sizeof(kMagic));
  AppendU32(&frame, kVersion);
  AppendU32(&frame, static_cast<uint32_t>(t));
  AppendU64(&frame, static_cast<uint64_t>(slot.frames + 1));
  AppendU64(&frame, payload.size());
  frame += payload;
  AppendU32(&frame, Crc32(frame));

  // Append-only: a crash mid-write leaves at most a torn last frame, which
  // the replay drops (falling back to the boundary before it).
  const bool fresh = slot.frames == 0;
  std::error_code ec;
  if (fresh) fs::create_directories(dir_, ec);
  {
    std::ofstream out(PersistPath(t),
                      std::ios::binary |
                          (fresh ? std::ios::trunc : std::ios::app));
    if (!out ||
        !out.write(frame.data(), static_cast<std::streamsize>(frame.size())) ||
        !out.flush()) {
      // Persistence is best-effort; the in-memory snapshot stands.
      slot.journal_failed = true;
      return;
    }
  }
  ++slot.frames;
  const int64_t persisted = persisted_saves_.fetch_add(1) + 1;
  if (crash_after_saves_ > 0 && persisted >= crash_after_saves_) {
    // The deterministic mid-job kill behind the restart tests: no unwind,
    // no atexit — the closest portable stand-in for a machine power-off.
    std::_Exit(17);
  }
}

bool CheckpointStore::LoadPersisted(int t, TaskCheckpoint* checkpoint,
                                    Slot* slot) {
  const std::string path = PersistPath(t);
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;  // no journal for this task: not an error
  const std::string journal((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  in.close();
  const std::string_view view(journal);

  // Replay the valid prefix: each frame's fixed fields and counters
  // replace the previous frame's, its blobs extend the running deltas.
  std::vector<std::string_view> driver_deltas;
  size_t valid = 0;  // bytes of the valid prefix
  int64_t count = 0;
  while (valid < view.size()) {
    const std::string_view rest = view.substr(valid);
    if (rest.size() < kFrameHeader) break;
    FrameReader header{rest.substr(0, kFrameHeader)};
    char magic[sizeof(kMagic)];
    header.Raw(magic, sizeof(magic));
    const uint32_t version = header.U32();
    const uint32_t task = header.U32();
    const uint64_t sequence = header.U64();
    const uint64_t length = header.U64();
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
        version != kVersion || task != static_cast<uint32_t>(t) ||
        sequence != static_cast<uint64_t>(count + 1) ||
        length > rest.size() - kFrameHeader ||
        rest.size() - kFrameHeader - length < sizeof(uint32_t)) {
      break;
    }
    const size_t body = kFrameHeader + static_cast<size_t>(length);
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, rest.data() + body, sizeof(stored_crc));
    if (Crc32(rest.substr(0, body)) != stored_crc) break;

    FrameReader reader{rest.substr(kFrameHeader, length)};
    TaskCheckpoint next;
    next.cost = reader.Double();
    next.groups = static_cast<int64_t>(reader.U64());
    next.records_in = static_cast<int64_t>(reader.U64());
    next.pairs_out = static_cast<int64_t>(reader.U64());
    next.outputs = static_cast<size_t>(reader.U64());
    const uint64_t num_counters = reader.U64();
    for (uint64_t i = 0; reader.ok && i < num_counters; ++i) {
      const std::string_view name = reader.Blob();
      const int64_t value = static_cast<int64_t>(reader.U64());
      if (reader.ok) next.counters.Increment(std::string(name), value);
    }
    const std::string_view outputs = reader.Blob();
    const std::string_view state = reader.Blob();
    if (!reader.ok || reader.pos != reader.data.size()) break;
    next.encoded_outputs = std::move(checkpoint->encoded_outputs);
    next.encoded_outputs.append(outputs.data(), outputs.size());
    *checkpoint = std::move(next);
    driver_deltas.push_back(state);
    valid += body + sizeof(uint32_t);
    ++count;
  }
  const bool damaged = valid < view.size();
  if (damaged) ++corrupt_checkpoints_;

  const bool has_state =
      std::any_of(driver_deltas.begin(), driver_deltas.end(),
                  [](std::string_view delta) { return !delta.empty(); });
  if (has_state) {
    checkpoint->driver_state =
        decode_state_ ? decode_state_(driver_deltas) : nullptr;
    if (checkpoint->driver_state == nullptr) {
      // The codec rejected a CRC-valid blob: distrust the whole journal.
      if (!damaged) ++corrupt_checkpoints_;
      count = 0;
    }
  }
  // Later frames append right after the valid prefix (or start afresh).
  slot->frames = count;
  if (damaged && count > 0) {
    std::error_code ec;
    fs::resize_file(path, valid, ec);
    // Appending past the damage would strand the new frames.
    if (ec) slot->journal_failed = true;
  }
  return count > 0;
}

}  // namespace progres
