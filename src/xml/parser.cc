#include "xml/parser.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "tree/builder.h"
#include "util/check.h"
#include "xml/chunk_pipeline.h"
#include "xml/structural_scan.h"

namespace xpwqo {
namespace {

/// ASCII name-character tables (the C-locale behavior the parser has always
/// had, minus the per-byte std::isalnum call).
constexpr std::array<bool, 256> MakeNameStart() {
  std::array<bool, 256> t{};
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = true;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = true;
  t[static_cast<unsigned char>('_')] = true;
  t[static_cast<unsigned char>(':')] = true;
  return t;
}
constexpr std::array<bool, 256> MakeNameChar() {
  std::array<bool, 256> t = MakeNameStart();
  for (int c = '0'; c <= '9'; ++c) t[c] = true;
  t[static_cast<unsigned char>('-')] = true;
  t[static_cast<unsigned char>('.')] = true;
  return t;
}
constexpr std::array<bool, 256> kNameStart = MakeNameStart();
constexpr std::array<bool, 256> kNameChar = MakeNameChar();

constexpr std::array<bool, 256> MakeSpace() {
  std::array<bool, 256> t{};
  t[static_cast<unsigned char>(' ')] = true;
  t[static_cast<unsigned char>('\t')] = true;
  t[static_cast<unsigned char>('\n')] = true;
  t[static_cast<unsigned char>('\r')] = true;
  return t;
}
constexpr std::array<bool, 256> kSpace = MakeSpace();

bool IsNameStart(char c) { return kNameStart[static_cast<unsigned char>(c)]; }

constexpr std::string_view kSpaceChars = " \t\r\n";

/// The XML 1.0 Char production: everything a character reference may name.
/// Excludes most C0 controls, the surrogate range (not characters at all —
/// encoding one produces invalid UTF-8), 0xFFFE/0xFFFF, and anything above
/// U+10FFFF.
bool IsXmlChar(uint32_t code) {
  return code == 0x9 || code == 0xA || code == 0xD ||
         (code >= 0x20 && code <= 0xD7FF) ||
         (code >= 0xE000 && code <= 0xFFFD) ||
         (code >= 0x10000 && code <= 0x10FFFF);
}

/// Stage-2 cursor over the input, navigating by the stage-1 structural tape.
///
/// Three modes share one interface: in-memory (a borrowed contiguous view,
/// zero copies, scanned lazily in bounded segments), chunked (bytes pulled
/// from an XmlChunkSource into an owned rolling buffer, scanned as they
/// arrive), and pipelined (prescanned chunks pulled from a ChunkPipeline
/// whose producer thread runs the scanner concurrently). Byte-level
/// lookahead goes through Ensure(), which refills the buffer on demand; a
/// *mark* pins the start of the token being accumulated so refills compact
/// only the bytes every consumer is done with — the resident window is one
/// chunk plus the token in flight, never the document.
///
/// The tape stores absolute stream offsets, so buffer compaction never
/// renumbers it; per-class heads advance monotonically with the read
/// position, making every "next '<' / '>' / quote from here" lookup
/// amortized O(1). Newlines are counted from the tape only when an error
/// message needs a line number — the hot path does no per-byte bookkeeping.
class Cursor {
 public:
  static constexpr size_t npos = ~size_t{0};

  explicit Cursor(std::string_view s) : win_(s), eof_(true) {}
  explicit Cursor(const XmlChunkSource* next) : next_(next), own_(true) {
    win_ = buf_;
  }
  explicit Cursor(ChunkPipeline* pipe) : pipe_(pipe), own_(true) {
    win_ = buf_;
  }

  /// Makes >= n bytes available at the read position, pulling chunks as
  /// needed. False once the input ends before n bytes exist.
  bool Ensure(size_t n) {
    while (pos_ + n > win_.size()) {
      if (!GrowWindow()) return false;
    }
    return true;
  }

  bool AtEnd() { return !Ensure(1); }
  /// Requires a preceding successful Ensure/AtEnd for the position read.
  char Peek() const { return win_[pos_]; }
  /// Byte `off` ahead, or '\0' past the end of input.
  char PeekAt(size_t off) { return Ensure(off + 1) ? win_[pos_ + off] : '\0'; }
  char At(size_t wpos) const { return win_[wpos]; }

  void Advance() { ++pos_; }
  /// Jumps to window index `wpos` (must be <= win_.size() and >= pos_).
  void AdvanceTo(size_t wpos) {
    XPWQO_DCHECK(wpos >= pos_ && wpos <= win_.size());
    pos_ = wpos;
  }
  size_t WindowEnd() const { return win_.size(); }

  bool Consume(char c) {
    if (!AtEnd() && Peek() == c) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumePrefix(std::string_view p) {
    if (!Ensure(p.size()) || win_.substr(pos_, p.size()) != p) return false;
    pos_ += p.size();
    return true;
  }
  /// Advances while the byte class holds, in whole-window strides (one
  /// bounds check + table load per byte; the refill machinery only runs at
  /// window edges). This is the hot loop under names and whitespace runs.
  void AdvanceWhile(const std::array<bool, 256>& table) {
    while (true) {
      const char* d = win_.data();
      const size_t e = win_.size();
      size_t p = pos_;
      while (p < e && table[static_cast<unsigned char>(d[p])]) ++p;
      pos_ = p;
      if (p < e || !GrowWindow()) return;
    }
  }

  /// Stream offset (byte index from the start of the document) of the read
  /// position — reported in parse errors.
  uint64_t offset() const { return stream_base_ + pos_; }

  /// 1-based line number at stream offset `off` (which must not precede
  /// already-released input), counted from the newline tape. Error-path
  /// only: it may scan not-yet-scanned input up to `off` first.
  int LineAt(uint64_t off) {
    while (scanned_end_ < off && ExtendScan()) {
    }
    while (nl_head_ < tape_.nl.size() && tape_.nl[nl_head_] < off) {
      ++nl_head_;
      ++newlines_before_;
    }
    return 1 + static_cast<int>(newlines_before_);
  }
  int line() { return LineAt(offset()); }

  /// Pins the current position as the start of a token; bytes from here on
  /// survive refills until Take() releases the pin.
  void Mark() {
    XPWQO_DCHECK(!marked_);
    marked_ = true;
    mark_ = pos_;
  }
  /// The bytes accumulated since Mark(). Valid until the next refill (i.e.
  /// consume it before advancing the cursor again).
  std::string_view Take() {
    XPWQO_DCHECK(marked_);
    marked_ = false;
    return win_.substr(mark_, pos_ - mark_);
  }
  /// Window index of the pinned mark (valid while marked; refills keep it
  /// adjusted).
  size_t MarkPos() const {
    XPWQO_DCHECK(marked_);
    return mark_;
  }

  // ------------------------------------------------- tape navigation
  /// Window index of the next '<' at or after the read position, growing
  /// (and scanning) the window as needed; npos at end of input — the whole
  /// remaining input is then buffered and scanned.
  size_t FindLt() { return FindIn(&tape_.lt, &lt_head_); }
  /// Same for '>'.
  size_t FindGt() { return FindIn(&tape_.gt, &gt_head_); }
  /// Next quote byte equal to `q` (steps over the other quote kind).
  size_t FindQuote(char q) {
    while (true) {
      const size_t w = FindIn(&tape_.quote, &quote_head_);
      if (w == npos) return npos;
      if (win_[w] == q) return w;
      ++quote_head_;
    }
  }
  /// Any '&' in [read position, wend)? The range must already be scanned —
  /// pass a bound obtained from a Find* (or WindowEnd() after one returned
  /// npos).
  bool HasAmpBefore(size_t wend) {
    const uint64_t from = offset();
    const uint64_t bound = stream_base_ + wend;
    while (amp_head_ < tape_.amp.size() && tape_.amp[amp_head_] < from) {
      ++amp_head_;
    }
    return amp_head_ < tape_.amp.size() && tape_.amp[amp_head_] < bound;
  }

 private:
  /// Generic "next entry of this class at or after the read position".
  size_t FindIn(std::vector<uint64_t>* v, size_t* head) {
    while (true) {
      const uint64_t from = offset();
      while (*head < v->size() && (*v)[*head] < from) ++*head;
      if (*head < v->size()) {
        return static_cast<size_t>((*v)[*head] - stream_base_);
      }
      if (scanned_end_ < stream_base_ + win_.size()) {
        ExtendScan();
        continue;
      }
      if (!GrowWindow()) return npos;
    }
  }

  /// Scans one more segment of the already-buffered window (borrowed mode;
  /// chunked modes scan eagerly on append). Keeps the scan contiguous from
  /// scanned_end_ so newline counting stays exact.
  bool ExtendScan() {
    const uint64_t wend = stream_base_ + win_.size();
    if (scanned_end_ >= wend) return false;
    TrimConsumed();
    const size_t from = static_cast<size_t>(scanned_end_ - stream_base_);
    const size_t len =
        std::min<size_t>(kScanSegment, win_.size() - from);
    ScanStructural(win_.data() + from, len, scanned_end_, &tape_);
    scanned_end_ += len;
    return true;
  }

  /// Pulls one more chunk of input, compacting the byte buffer down to the
  /// live region first. False at end of input.
  bool GrowWindow() {
    if (eof_) return false;
    const size_t keep = marked_ ? mark_ : pos_;
    buf_.erase(0, keep);
    pos_ -= keep;
    if (marked_) mark_ -= keep;
    stream_base_ += keep;
    TrimConsumed();
    if (pipe_ != nullptr) {
      const ChunkPipeline::Chunk* chunk = pipe_->Pull();
      if (chunk == nullptr) {
        eof_ = true;
        win_ = buf_;
        return false;
      }
      XPWQO_DCHECK(chunk->base == stream_base_ + buf_.size());
      buf_.append(chunk->bytes);
      SpliceTape(chunk->tape);
      scanned_end_ = chunk->base + chunk->bytes.size();
    } else {
      std::string_view chunk = (*next_)();
      if (chunk.empty()) {
        eof_ = true;
        win_ = buf_;
        return false;
      }
      const size_t old = buf_.size();
      buf_.append(chunk);
      ScanStructural(buf_.data() + old, chunk.size(), stream_base_ + old,
                     &tape_);
      scanned_end_ = stream_base_ + buf_.size();
    }
    win_ = buf_;
    return true;
  }

  /// Drops tape entries the read position has passed, so tape memory stays
  /// proportional to the resident window, not the document. Newlines are
  /// counted as they are dropped (they feed line()).
  void TrimConsumed() {
    const uint64_t from = offset();
    auto trim = [from](std::vector<uint64_t>* v, size_t* head) {
      while (*head < v->size() && (*v)[*head] < from) ++*head;
      if (*head > 0) {
        v->erase(v->begin(), v->begin() + static_cast<ptrdiff_t>(*head));
        *head = 0;
      }
    };
    while (nl_head_ < tape_.nl.size() && tape_.nl[nl_head_] < from) {
      ++nl_head_;
      ++newlines_before_;
    }
    if (nl_head_ > 0) {
      tape_.nl.erase(tape_.nl.begin(),
                     tape_.nl.begin() + static_cast<ptrdiff_t>(nl_head_));
      nl_head_ = 0;
    }
    trim(&tape_.lt, &lt_head_);
    trim(&tape_.gt, &gt_head_);
    trim(&tape_.amp, &amp_head_);
    trim(&tape_.quote, &quote_head_);
  }

  void SpliceTape(const StructuralTape& t) {
    tape_.lt.insert(tape_.lt.end(), t.lt.begin(), t.lt.end());
    tape_.gt.insert(tape_.gt.end(), t.gt.begin(), t.gt.end());
    tape_.amp.insert(tape_.amp.end(), t.amp.begin(), t.amp.end());
    tape_.quote.insert(tape_.quote.end(), t.quote.begin(), t.quote.end());
    tape_.nl.insert(tape_.nl.end(), t.nl.begin(), t.nl.end());
  }

  static constexpr size_t kScanSegment = size_t{1} << 20;

  std::string_view win_;  // the readable window (borrowed or == buf_)
  std::string buf_;       // owned storage in chunked/pipelined mode
  const XmlChunkSource* next_ = nullptr;
  ChunkPipeline* pipe_ = nullptr;
  size_t pos_ = 0;
  size_t mark_ = 0;
  uint64_t stream_base_ = 0;   // stream offset of win_[0]
  uint64_t scanned_end_ = 0;   // stream offset the tape covers up to
  uint64_t newlines_before_ = 0;  // newlines counted & dropped from the tape
  StructuralTape tape_;
  size_t lt_head_ = 0, gt_head_ = 0, amp_head_ = 0, quote_head_ = 0,
         nl_head_ = 0;
  bool marked_ = false;
  bool own_ = false;
  bool eof_ = false;
};

/// A per-document label cache in front of the shared Alphabet: a small
/// open-addressing table (hash + arena-backed key) that resolves repeated
/// labels without touching the alphabet's lock or std::unordered_map.
/// Documents have few distinct labels (XMark: ~80) but millions of label
/// occurrences, so this turns per-node interning into an L1-resident probe
/// and makes the shared alphabet a per-*distinct*-label synchronization
/// point — the property the parallel bulk loader relies on.
class InternCache {
 public:
  explicit InternCache(Alphabet* alphabet) : alphabet_(alphabet) {
    table_.resize(kInitialSlots);
  }

  LabelId Intern(std::string_view name) {
    const uint64_t h = Hash(name);
    const size_t mask = table_.size() - 1;
    size_t i = static_cast<size_t>(h) & mask;
    while (true) {
      Entry& e = table_[i];
      if (e.hash == h && e.id != kNoLabel && Key(e) == name) return e.id;
      if (e.id == kNoLabel) return Miss(name, h, i);
      i = (i + 1) & mask;
    }
  }

 private:
  struct Entry {
    uint64_t hash = 0;
    LabelId id = kNoLabel;  // kNoLabel marks an empty slot
    uint32_t off = 0;
    uint32_t len = 0;
  };

  std::string_view Key(const Entry& e) const {
    return std::string_view(arena_).substr(e.off, e.len);
  }

  /// Grow + intern-through-to-the-alphabet path, out of line so the hit
  /// path stays small enough to inline.
  LabelId Miss(std::string_view name, uint64_t h, size_t i) {
    if ((used_ + 1) * 10 > table_.size() * 7) {
      Grow();
      const size_t mask = table_.size() - 1;
      i = static_cast<size_t>(h) & mask;
      while (table_[i].id != kNoLabel) i = (i + 1) & mask;
    }
    const LabelId id = alphabet_->Intern(name);
    Entry& e = table_[i];
    e.hash = h;
    e.id = id;
    e.off = static_cast<uint32_t>(arena_.size());
    e.len = static_cast<uint32_t>(name.size());
    arena_.append(name);
    ++used_;
    return id;
  }

  /// Tail loads use the overlapping-fixed-width trick instead of a
  /// variable-length memcpy (which compiles to a libc call) — labels are
  /// almost always <= 8 bytes, so the hash is a handful of instructions.
  static uint64_t Hash(std::string_view s) {
    const char* p = s.data();
    size_t n = s.size();
    uint64_t h = 1469598103934665603ull ^ (n * 0x9E3779B97F4A7C15ull);
    while (n > 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ w) * 0x100000001B3ull;
      h ^= h >> 29;
      p += 8;
      n -= 8;
    }
    uint64_t w = 0;
    if (n >= 4) {
      uint32_t a, b;
      std::memcpy(&a, p, 4);
      std::memcpy(&b, p + n - 4, 4);
      w = a | (static_cast<uint64_t>(b) << 32);
    } else if (n > 0) {
      w = static_cast<uint8_t>(p[0]) |
          (static_cast<uint64_t>(static_cast<uint8_t>(p[n >> 1])) << 8) |
          (static_cast<uint64_t>(static_cast<uint8_t>(p[n - 1])) << 16);
    }
    h = (h ^ w) * 0x100000001B3ull;
    h ^= h >> 29;
    return h;
  }

  void Grow() {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.size() * 2, Entry{});
    const size_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.id == kNoLabel) continue;
      size_t i = static_cast<size_t>(e.hash) & mask;
      while (table_[i].id != kNoLabel) i = (i + 1) & mask;
      table_[i] = e;
    }
  }

  static constexpr size_t kInitialSlots = 128;  // power of two

  Alphabet* alphabet_;
  std::vector<Entry> table_;
  std::string arena_;
  size_t used_ = 0;
};

/// The event-emitting parser core. Interns labels through `alphabet` in
/// first-occurrence order of *kept* nodes (identical to what the legacy
/// TreeBuilder path produced, so LabelIds agree across pipelines) and
/// forwards one event per node to `sink`.
class EventParser {
 public:
  EventParser(Cursor cur, const XmlParseOptions& options, Alphabet* alphabet,
              TreeEventSink* sink)
      : cur_(std::move(cur)),
        options_(options),
        intern_(alphabet),
        sink_(sink) {}

  Status Parse() {
    XPWQO_RETURN_IF_ERROR(SkipProlog());
    if (cur_.AtEnd() || cur_.Peek() != '<') {
      return Error("expected root element");
    }
    XPWQO_RETURN_IF_ERROR(ParseElement());
    XPWQO_RETURN_IF_ERROR(SkipMisc());
    if (!cur_.AtEnd()) {
      return Error("content after root element");
    }
    return Status::OK();
  }

 private:
  /// Parse error pinned to an exact stream offset (with its line number
  /// recovered from the newline tape).
  Status ErrorAt(uint64_t off, const std::string& msg) {
    return Status::ParseError("line " + std::to_string(cur_.LineAt(off)) +
                              ", byte " + std::to_string(off) + ": " + msg);
  }
  /// Parse error at the current read position.
  Status Error(const std::string& msg) { return ErrorAt(cur_.offset(), msg); }

  LabelId TextLabel() {
    if (text_label_ == kNoLabel) text_label_ = intern_.Intern("#text");
    return text_label_;
  }

  Status SkipProlog() {
    while (true) {
      cur_.AdvanceWhile(kSpace);
      if (cur_.ConsumePrefix("<?")) {
        XPWQO_RETURN_IF_ERROR(SkipUntil("?>"));
      } else if (cur_.ConsumePrefix("<!--")) {
        XPWQO_RETURN_IF_ERROR(SkipUntil("-->"));
      } else if (cur_.ConsumePrefix("<!DOCTYPE")) {
        // Skip to the matching '>' (internal subsets in brackets allowed).
        int depth = 1;
        while (!cur_.AtEnd() && depth > 0) {
          char c = cur_.Peek();
          if (c == '<') ++depth;
          if (c == '>') --depth;
          cur_.Advance();
        }
        if (depth != 0) return Error("unterminated DOCTYPE");
      } else {
        return Status::OK();
      }
    }
  }

  Status SkipMisc() {
    while (true) {
      cur_.AdvanceWhile(kSpace);
      if (cur_.ConsumePrefix("<!--")) {
        XPWQO_RETURN_IF_ERROR(SkipUntil("-->"));
      } else if (cur_.ConsumePrefix("<?")) {
        XPWQO_RETURN_IF_ERROR(SkipUntil("?>"));
      } else {
        return Status::OK();
      }
    }
  }

  Status SkipUntil(std::string_view terminator) {
    while (!cur_.AtEnd()) {
      if (cur_.ConsumePrefix(terminator)) return Status::OK();
      cur_.Advance();
    }
    return Error(std::string("unterminated construct, expected \"") +
                 std::string(terminator) + "\"");
  }

  /// Scans a name in place. The returned view is valid only until the
  /// cursor moves again — consume (intern/copy) immediately. Empty means
  /// "no name here" (the caller reports the error); a plain view instead of
  /// StatusOr<> because this runs twice per element plus once per attribute.
  std::string_view ParseName() {
    if (cur_.AtEnd() || !IsNameStart(cur_.Peek())) return {};
    cur_.Mark();
    cur_.AdvanceWhile(kNameChar);
    return cur_.Take();
  }

  /// Decodes entity and character references in `raw`, appending to `out`.
  /// Literal spans between references are appended wholesale; the caller
  /// skips this entirely (and the copy with it) when the structural tape
  /// shows no '&' in the run. `raw_base` is the stream offset of raw[0] so
  /// reference errors can point at the offending '&' rather than at the
  /// end of the run the cursor has already consumed.
  Status DecodeText(std::string_view raw, uint64_t raw_base,
                    std::string* out) {
    out->reserve(out->size() + raw.size());
    size_t i = 0;
    while (true) {
      const size_t amp = raw.find('&', i);
      if (amp == std::string_view::npos) {
        out->append(raw.data() + i, raw.size() - i);
        return Status::OK();
      }
      out->append(raw.data() + i, amp - i);
      const size_t semi = raw.find(';', amp);
      if (semi == std::string_view::npos) {
        return ErrorAt(raw_base + amp, "unterminated entity reference");
      }
      std::string_view ent = raw.substr(amp + 1, semi - amp - 1);
      if (ent == "amp") {
        out->push_back('&');
      } else if (ent == "lt") {
        out->push_back('<');
      } else if (ent == "gt") {
        out->push_back('>');
      } else if (ent == "quot") {
        out->push_back('"');
      } else if (ent == "apos") {
        out->push_back('\'');
      } else if (!ent.empty() && ent[0] == '#') {
        // std::from_chars: allocation-free, no exceptions (works under
        // -fno-exceptions), and it reports partial consumption instead of
        // silently parsing a numeric prefix. An unsigned target rejects
        // "-5" outright; oversized values surface as result_out_of_range.
        const bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
        const char* first = ent.data() + (hex ? 2 : 1);
        const char* last = ent.data() + ent.size();
        uint32_t code = 0;
        const auto parsed = std::from_chars(first, last, code, hex ? 16 : 10);
        if (parsed.ec != std::errc() || parsed.ptr != last ||
            !IsXmlChar(code)) {
          return ErrorAt(raw_base + amp,
                         "bad character reference &" + std::string(ent) + ";");
        }
        // Encode as UTF-8.
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xF0 | (code >> 18)));
          out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
      } else {
        return ErrorAt(raw_base + amp,
                       "unknown entity &" + std::string(ent) + ";");
      }
      i = semi + 1;
    }
  }

  Status ParseAttributes() {
    while (true) {
      cur_.AdvanceWhile(kSpace);
      if (cur_.AtEnd()) return Error("unterminated start tag");
      char c = cur_.Peek();
      if (c == '>' || c == '/') return Status::OK();
      {
        const std::string_view name = ParseName();
        if (name.empty()) return Error("expected name");
        attr_buf_.assign(1, '@');
        attr_buf_ += name;  // copied before the cursor moves again
      }
      cur_.AdvanceWhile(kSpace);
      if (!cur_.Consume('=')) return Error("expected '=' after attribute");
      cur_.AdvanceWhile(kSpace);
      char quote = cur_.AtEnd() ? '\0' : cur_.Peek();
      if (quote != '"' && quote != '\'') {
        return Error("expected quoted attribute value");
      }
      cur_.Advance();
      cur_.Mark();
      const size_t end = cur_.FindQuote(quote);
      if (end == Cursor::npos) {
        cur_.AdvanceTo(cur_.WindowEnd());
        cur_.Take();
        return Error("unterminated attribute value");
      }
      const bool has_amp = cur_.HasAmpBefore(end);
      cur_.AdvanceTo(end);
      std::string_view value = cur_.Take();
      if (has_amp) {
        value_buf_.clear();
        XPWQO_RETURN_IF_ERROR(
            DecodeText(value, cur_.offset() - value.size(), &value_buf_));
        value = value_buf_;
      }
      cur_.Advance();  // closing quote
      if (options_.keep_attributes) {
        sink_->Attribute(intern_.Intern(attr_buf_), value);
      }
    }
  }

  // Iterative element parsing; recursion depth would otherwise be bounded by
  // document depth, which is attacker-controlled input.
  Status ParseElement() {
    int depth = 0;
    do {
      // At '<' of a start tag.
      if (!cur_.Consume('<')) return Error("expected '<'");
      {
        const std::string_view tag = ParseName();
        if (tag.empty()) return Error("expected name");
        sink_->BeginElement(intern_.Intern(tag));
      }
      XPWQO_RETURN_IF_ERROR(ParseAttributes());
      if (cur_.Consume('/')) {
        if (!cur_.Consume('>')) return Error("expected '/>'");
        sink_->EndElement();
      } else {
        if (!cur_.Consume('>')) return Error("expected '>'");
        ++depth;
      }
      // Parse content until we either open a new element (loop) or close
      // enough elements to return to depth 0.
      while (depth > 0) {
        XPWQO_ASSIGN_OR_RETURN(bool opened, ParseContentStep(&depth));
        if (opened) break;  // re-enter the start-tag logic above
      }
    } while (depth > 0);
    return Status::OK();
  }

  /// Handles one content item at the current position. Returns true if
  /// positioned at the '<' of a new start tag (caller opens it), false
  /// otherwise (item fully consumed; *depth updated on end tags).
  StatusOr<bool> ParseContentStep(int* depth) {
    if (cur_.AtEnd()) return Status(Error("unexpected end of input"));
    if (cur_.Peek() != '<') {
      // A text run: jump straight to the next '<'. When the tape shows no
      // '&' inside the run, the raw bytes are the decoded text — emit the
      // view with no copy at all.
      cur_.Mark();
      size_t end = cur_.FindLt();
      if (end == Cursor::npos) end = cur_.WindowEnd();
      const bool has_amp = cur_.HasAmpBefore(end);
      cur_.AdvanceTo(end);
      std::string_view raw = cur_.Take();
      if (options_.keep_text) {
        if (!has_amp) {
          if (!options_.skip_whitespace_text ||
              raw.find_first_not_of(kSpaceChars) != std::string_view::npos) {
            sink_->Text(TextLabel(), raw);
          }
        } else {
          text_buf_.clear();
          XPWQO_RETURN_IF_ERROR(
              DecodeText(raw, cur_.offset() - raw.size(), &text_buf_));
          if (!options_.skip_whitespace_text ||
              text_buf_.find_first_not_of(kSpaceChars) != std::string::npos) {
            sink_->Text(TextLabel(), text_buf_);
          }
        }
      }
      return false;
    }
    // One-byte dispatch on the character after '<': the overwhelmingly
    // common cases (start tag, end tag) decide without prefix compares.
    const char next = cur_.PeekAt(1);
    if (IsNameStart(next)) return true;  // start tag
    if (next == '/') {
      cur_.Advance();  // '<'
      cur_.Advance();  // '/'
      if (ParseName().empty()) {  // tag mismatch tolerated, a name is not
        return Status(Error("expected name"));
      }
      cur_.AdvanceWhile(kSpace);
      if (!cur_.Consume('>')) return Status(Error("expected '>' in end tag"));
      sink_->EndElement();
      --*depth;
      return false;
    }
    if (cur_.ConsumePrefix("<!--")) {
      XPWQO_RETURN_IF_ERROR(SkipUntil("-->"));
      return false;
    }
    if (cur_.ConsumePrefix("<![CDATA[")) {
      // The terminator is the first '>' whose two preceding bytes are "]]"
      // (equivalently, the first "]]>" occurrence). The mark pins the
      // content, so the preceding bytes are always in the window.
      cur_.Mark();
      size_t end;
      while (true) {
        end = cur_.FindGt();
        if (end == Cursor::npos) {
          cur_.AdvanceTo(cur_.WindowEnd());
          cur_.Take();
          return Status(Error("unterminated CDATA"));
        }
        if (end >= cur_.MarkPos() + 2 && cur_.At(end - 1) == ']' &&
            cur_.At(end - 2) == ']') {
          break;
        }
        cur_.AdvanceTo(end + 1);
      }
      cur_.AdvanceTo(end - 2);
      // Emit before the "]]>" advances: the view must not cross a refill.
      if (options_.keep_text) {
        sink_->Text(TextLabel(), cur_.Take());
      } else {
        cur_.Take();
      }
      cur_.Advance();
      cur_.Advance();
      cur_.Advance();
      return false;
    }
    if (cur_.ConsumePrefix("<?")) {
      XPWQO_RETURN_IF_ERROR(SkipUntil("?>"));
      return false;
    }
    return true;  // unrecognized markup: the start-tag path reports it
  }

  Cursor cur_;
  XmlParseOptions options_;
  InternCache intern_;
  TreeEventSink* sink_;
  LabelId text_label_ = kNoLabel;  // lazily interned, legacy id order
  std::string attr_buf_;           // reused "@name" scratch
  std::string value_buf_;          // reused decoded attribute value
  std::string text_buf_;           // reused decoded text content
};

}  // namespace

Status ParseXmlEvents(std::string_view xml, const XmlParseOptions& options,
                      Alphabet* alphabet, TreeEventSink* sink) {
  XPWQO_CHECK(alphabet != nullptr && sink != nullptr);
  return EventParser(Cursor(xml), options, alphabet, sink).Parse();
}

Status ParseXmlChunkEvents(const XmlChunkSource& next,
                           const XmlParseOptions& options, Alphabet* alphabet,
                           TreeEventSink* sink) {
  XPWQO_CHECK(alphabet != nullptr && sink != nullptr);
  return EventParser(Cursor(&next), options, alphabet, sink).Parse();
}

Status ParseXmlFileEvents(const std::string& path,
                          const XmlParseOptions& options, Alphabet* alphabet,
                          TreeEventSink* sink) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open file: " + path);
  }
  // The producer thread only helps when a second core can actually run it;
  // on a single-core host the pipeline is pure handoff overhead, so fall
  // back to inline read+scan there.
  if (options.pipelined_scan && std::thread::hardware_concurrency() > 1) {
    // Two-stage pipeline: the ChunkPipeline's producer thread reads and
    // scans chunk i+1 while this thread builds events from chunk i.
    ChunkPipeline pipe(
        [&in](char* buf, size_t cap) -> size_t {
          in.read(buf, static_cast<std::streamsize>(cap));
          return static_cast<size_t>(in.gcount());
        },
        options.chunk_bytes);
    return EventParser(Cursor(&pipe), options, alphabet, sink).Parse();
  }
  std::string chunk(std::max<size_t>(options.chunk_bytes, 1), '\0');
  XmlChunkSource next = [&in, &chunk]() -> std::string_view {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    return std::string_view(chunk.data(), static_cast<size_t>(in.gcount()));
  };
  return ParseXmlChunkEvents(next, options, alphabet, sink);
}

StatusOr<Document> ParseXmlString(std::string_view xml,
                                  const XmlParseOptions& options,
                                  std::shared_ptr<Alphabet> alphabet) {
  if (alphabet == nullptr) alphabet = std::make_shared<Alphabet>();
  TreeBuilder builder(std::move(alphabet),
                      EstimateNodesFromBytes(xml.size()));
  XPWQO_RETURN_IF_ERROR(
      ParseXmlEvents(xml, options, builder.alphabet().get(), &builder));
  return builder.Finish();
}

StatusOr<Document> ParseXmlFile(const std::string& path,
                                const XmlParseOptions& options,
                                std::shared_ptr<Alphabet> alphabet) {
  std::ifstream probe(path, std::ios::binary | std::ios::ate);
  if (!probe) {
    return Status::NotFound("cannot open file: " + path);
  }
  const auto bytes = static_cast<size_t>(probe.tellg());
  probe.close();
  if (alphabet == nullptr) alphabet = std::make_shared<Alphabet>();
  TreeBuilder builder(std::move(alphabet), EstimateNodesFromBytes(bytes));
  XPWQO_RETURN_IF_ERROR(
      ParseXmlFileEvents(path, options, builder.alphabet().get(), &builder));
  return builder.Finish();
}

}  // namespace xpwqo
